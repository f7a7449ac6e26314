//! The pattern-based rule catalog (INC001–INC007) and the finding type.
//!
//! Each rule scans the *masked* text of a file (see [`crate::lexer`]), so
//! occurrences inside comments and string literals never match. Rules are
//! scoped by repo-relative path; the scoping encodes which invariant each
//! rule protects (see DESIGN.md, "Static analysis").

use crate::lexer::MaskedFile;

/// Diagnostic severity. Every shipped rule is `Error` today; the field
/// exists so a future rule can be introduced as `Warn` before ratcheting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Warn,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID, e.g. `INC001`.
    pub rule: &'static str,
    pub severity: Severity,
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    pub message: String,
    /// Dataflow steps for taint findings (INC011–INC013): source → hops
    /// → sink, one human-readable step per entry. Empty for lexical and
    /// graph rules.
    pub trace: Vec<String>,
}

impl Finding {
    /// Rustc-style rendering: `error[INC001]: message\n  --> file:line`.
    pub fn render(&self) -> String {
        format!(
            "{}[{}]: {}\n  --> {}:{}",
            self.severity.as_str(),
            self.rule,
            self.message,
            self.file,
            self.line
        )
    }
}

/// Static description of a rule. One table backs `--list-rules` (id +
/// summary), `--explain INCxxx` (contract + example + fix) and the docs
/// test, so the three can never drift apart.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    /// The invariant the rule enforces, stated as a contract.
    pub contract: &'static str,
    /// A minimal violating snippet (or scenario) that fires the rule.
    pub example: &'static str,
    /// How to bring violating code back into contract.
    pub fix: &'static str,
}

impl RuleInfo {
    /// Catalog lookup by rule id (`"INC011"` → its entry).
    pub fn find(id: &str) -> Option<&'static RuleInfo> {
        CATALOG.iter().find(|r| r.id == id)
    }
}

/// The shipped catalog.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "INC001",
        summary: "no unwrap()/expect()/panic!/todo! in library code of \
                  core, ml, pii, regexlite, stats, cli, serve, stream \
                  (tests and benches exempt)",
        contract: "Library code in core, ml, pii, regexlite, stats, cli, \
                   serve and stream never aborts the process: every fallible \
                   operation returns a typed error the caller can handle.",
        example: "let doc = serde_json::from_str(line).unwrap();",
        fix: "Propagate with `?` into the crate's typed error enum, or handle \
              the failure locally (skip / quarantine / default).",
    },
    RuleInfo {
        id: "INC002",
        summary: "no nondeterminism (thread_rng, SystemTime::now, Instant::now) \
                  in library crates; bench binaries exempt",
        contract: "Library crates derive every value from their inputs: no \
                   ambient entropy or wall clock, so identical inputs always \
                   produce byte-identical outputs.",
        example: "let seed = SystemTime::now().duration_since(UNIX_EPOCH);",
        fix: "Thread an explicit seed / timestamp through the API (the \
              pipeline config carries `seed: u64`); keep clocks in bench \
              binaries and the serve crate only.",
    },
    RuleInfo {
        id: "INC003",
        summary: "no float == / != comparisons in stats and ml library code",
        contract: "Statistical code never compares floats for exact equality; \
                   thresholds and convergence checks use explicit epsilons.",
        example: "if score == prev_score { break; }",
        fix: "Compare with an explicit tolerance: \
              `(score - prev_score).abs() < EPS`, or compare `to_bits()` when \
              byte-identity is genuinely intended.",
    },
    RuleInfo {
        id: "INC004",
        summary: "no unchecked slice indexing in the regexlite VM hot loop",
        contract: "The regex VM inner loop only reads through checked \
                   accessors (`get`, iterators), so crafted patterns or \
                   inputs cannot panic the matcher.",
        example: "let op = self.prog[pc];",
        fix: "Use `self.prog.get(pc)` and treat `None` as a match failure \
              (the VM's bail-out path).",
    },
    RuleInfo {
        id: "INC005",
        summary: "taxonomy/pii/corpus spec constants must agree with the paper \
                  (10 attack parents, 28+1 subcategories, 9 PII families / 12 \
                  expressions, 6 platforms / 5 data sets)",
        contract: "The taxonomy, PII expression set and platform list encode \
                   the paper's published counts; drifting constants would \
                   silently change every downstream table.",
        example: "Adding an 11th attack parent without updating the spec \
                  tables in DESIGN.md.",
        fix: "Either revert the constant or update the paper-spec table and \
              DESIGN.md together, then adjust the rule's expected counts in \
              the same commit.",
    },
    RuleInfo {
        id: "INC006",
        summary: "no raw file writes (File::create, fs::write, OpenOptions) in \
                  library code outside checkpoint::atomic_io — all persisted \
                  state must go through the atomic write-rename + hash funnel",
        contract: "Every persisted artifact is written atomically (temp file + \
                   rename) with a content hash, so a crash can never leave a \
                   torn or unverifiable file behind.",
        example: "std::fs::write(path, payload)?; // in crates/core/src/...",
        fix: "Route the write through `checkpoint::atomic_io::write_hashed` \
              (or add a typed wrapper there if the shape is new).",
    },
    RuleInfo {
        id: "INC007",
        summary: "no std::net (TcpListener, TcpStream, UdpSocket) outside the \
                  serve crate and the CLI — the network edge stays behind \
                  incite-serve's typed HTTP surface",
        contract: "Exactly one crate owns sockets. Analysis code cannot grow \
                   hidden network dependencies, and the offline build stays \
                   provably offline.",
        example: "TcpStream::connect(addr) inside crates/ml/src/...",
        fix: "Move the network interaction behind incite-serve's typed \
              client/server API, or pass the data in as a value.",
    },
    RuleInfo {
        id: "INC008",
        summary: "workspace locks are acquired in one consistent order — the \
                  item graph must not show the same two locks taken in both \
                  orders anywhere (potential deadlock)",
        contract: "For any two workspace locks A and B, all code paths agree \
                   on which is taken first; the item graph proves no A→B and \
                   B→A pair exists.",
        example: "Thread 1 locks `queue` then `metrics`; thread 2 locks \
                  `metrics` then `queue`.",
        fix: "Pick one order (document it on the struct holding the locks) \
              and reorder the minority call sites; or merge the two locks.",
    },
    RuleInfo {
        id: "INC009",
        summary: "no blocking operation (file I/O via checkpoint::atomic_io, \
                  thread::sleep, Condvar::wait, channel recv, TcpStream reads, \
                  join) while a Mutex/RwLock guard is live",
        contract: "Critical sections are compute-only: a held guard never \
                   spans file I/O, sleeps, channel waits or joins, so lock \
                   hold times stay bounded.",
        example: "let g = state.lock().unwrap(); write_hashed(path, &g.data)?;",
        fix: "Clone or take what the blocking call needs, drop the guard \
              (end the scope or `drop(g)`), then block.",
    },
    RuleInfo {
        id: "INC010",
        summary: "serve request handlers only grow buffers (push/extend/\
                  push_str) inside loops under a visible bound — with_capacity \
                  pre-allocation or a max_batch/queue_depth/constant check",
        contract: "No request can make the server allocate unboundedly: every \
                   buffer grown in a handler loop is pre-sized or guarded by \
                   a visible max_batch/queue_depth/constant bound.",
        example: "for doc in body_docs { batch.push(doc); } // no bound check",
        fix: "Pre-allocate with `Vec::with_capacity(max_batch)` or guard the \
              loop with the configured bound and reject oversized requests.",
    },
    RuleInfo {
        id: "INC011",
        summary: "tainted document text never reaches a diagnostic sink \
                  (println!/eprintln!/panic!, serve error bodies, CLI error \
                  funnel) without passing a registered sanitizer",
        contract: "Corpus text, request bodies and values derived from them \
                   are taint-tracked across calls, returns, bindings and \
                   format! captures; only `pii::redact`, \
                   `corpus::redact_excerpt`, feature hashing and the \
                   panic-message funnel launder taint. No tainted value may \
                   flow into stderr/stdout diagnostics, serve error \
                   responses or the CLI error funnel.",
        example: "eprintln!(\"bad doc: {text}\");  // text came from \
                  read_jsonl",
        fix: "Report structure, not content: byte offsets, lengths, hashes, \
              or a `redact_excerpt`-shaped excerpt. If content is truly \
              required, pass it through `pii::redact` first.",
    },
    RuleInfo {
        id: "INC012",
        summary: "no nondeterminism source (wall clock, RandomState hash \
                  iteration, thread ids, pointer-to-int casts) is reachable \
                  from the scoring entry points",
        contract: "Every function reachable in the call graph from \
                   ScoringEngine's methods or the pipeline entry points is \
                   pure: no Instant/SystemTime reads, no thread_rng, no \
                   thread-id observation, no HashMap/HashSet (RandomState \
                   iteration order), no pointer-to-integer casts. Scoring is \
                   a function of (model, text) and nothing else.",
        example: "let mut by_label: HashMap<Label, f32> = HashMap::new(); \
                  // inside a fn called from score_texts",
        fix: "Use BTreeMap/BTreeSet (deterministic order) or a seeded \
              hasher; take timestamps outside the scoring path and pass \
              them in as values.",
    },
    RuleInfo {
        id: "INC013",
        summary: "error enum variants carrying String/str are never \
                  constructed from unredacted document text",
        contract: "Typed errors travel far (logs, quarantine reports, serve \
                   bodies), so any `Enum::Variant(..)` or \
                   `Enum::Variant { .. }` whose payload can carry text must \
                   be built from static strings or sanitizer output, never \
                   from tainted values.",
        example: "JsonlError::Malformed { excerpt: raw_line.to_string() }",
        fix: "Store structure (offsets, counts) in the variant, or sanitize \
              at construction: `excerpt: redact_excerpt(raw, 40)`.",
    },
    RuleInfo {
        id: "INC014",
        summary: "every atomic_io write/append site in core, serve and \
                  stream is reachable from a failpoint check/trip site, so \
                  the kill sweep covers it",
        contract: "Crash-recovery is proven by the failpoint sweeps, and a \
                   sweep can only kill what a failpoint brackets: every \
                   `write_atomic`/`write_hashed`/`write_framed`/\
                   `AppendLog::open` call site outside tests must be \
                   reachable, through the call graph, from a function that \
                   consults a failpoint registry (`.check(..)`/`.trip(..)`). \
                   An unreachable write is persistence the sweep silently \
                   stopped covering.",
        example: "pub fn save(&self) { atomic_io::write_hashed(&self.path, \
                  payload)?; } // no sweep reaches save()",
        fix: "Route the write under an existing swept entry point, or add a \
              registered failpoint site on the path to it (see \
              `core::failpoints` / `serve::chaos`) and cover it in the \
              sweep tests.",
    },
    RuleInfo {
        id: "INC015",
        summary: "no f32/f64 accumulation across parallel::map_indexed \
                  slots: closures must be slot-indexed, folds sequential",
        contract: "The parallel executor guarantees byte-identical output \
                   at any thread count because slot `i` is exactly `f(i)`. \
                   A mutable float declared before a `map_indexed` call and \
                   accumulated inside the closure folds in worker-completion \
                   order, which breaks that guarantee in exactly the way the \
                   determinism ratchets exist to catch.",
        example: "let mut total = 0.0f32;\nmap_indexed(n, threads, |i| { \
                  total += score(i); 0 });",
        fix: "Return the per-slot value from the closure and fold the \
              returned slot vector sequentially: `let slots = \
              map_indexed(n, threads, score)?; let total: f32 = \
              slots.iter().sum();`.",
    },
    RuleInfo {
        id: "INC016",
        summary: "wire-decoded lengths/offsets in corpus::jsonl, \
                  stream::event and stream::state are bounded before \
                  +/*/narrowing-as arithmetic",
        contract: "Values decoded from wire bytes (`from_le_bytes`, \
                   `.parse(..)`, `serde_json::from_str(..)`) are attacker- \
                   controlled: until a bound guard (`<`/`<=`/`.min(..)`/\
                   `.get(..)`) or a `checked_*`/`saturating_*` operation \
                   intervenes, they must not feed bare `+`/`*` arithmetic \
                   or a narrowing `as` cast, where overflow or truncation \
                   silently corrupts offsets. Collection `.len()` values \
                   are already bounded and stay clean.",
        example: "let len = u32::from_le_bytes(hdr);\nlet end = offset + \
                  len; // unbounded wire value",
        fix: "Guard first (`if len <= MAX_FRAME { .. }`), or use \
              `checked_add`/`checked_mul` and handle `None` as a typed \
              decode error.",
    },
];

/// Crates whose library code must be panic-free (INC001).
const PANIC_FREE_CRATES: &[&str] = &[
    "core",
    "ml",
    "pii",
    "regexlite",
    "stats",
    "cli",
    "serve",
    "stream",
];

/// Crates whose library code INC003 (float equality) applies to.
const FLOAT_EQ_CRATES: &[&str] = &["stats", "ml"];

fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    // Only library sources: crates/<name>/src/**. `tests/` and `benches/`
    // directories fall outside `src/` and are exempt by construction.
    tail.starts_with("src/").then_some(name)
}

fn in_scope_inc001(path: &str) -> bool {
    crate_of(path).is_some_and(|c| PANIC_FREE_CRATES.contains(&c))
}

fn in_scope_inc002(path: &str) -> bool {
    // All library crates except the bench harness (its binaries measure
    // wall-clock by design) and the serving layer (request deadlines and
    // latency histograms are wall-clock by definition; scoring itself
    // stays deterministic because the engine never reads the clock).
    crate_of(path).is_some_and(|c| c != "bench" && c != "serve")
}

fn in_scope_inc003(path: &str) -> bool {
    crate_of(path).is_some_and(|c| FLOAT_EQ_CRATES.contains(&c))
}

fn in_scope_inc004(path: &str) -> bool {
    path == "crates/regexlite/src/vm.rs"
}

fn in_scope_inc006(path: &str) -> bool {
    // The crash-recovery contract (DESIGN.md §12): every persisted file
    // goes through `checkpoint::atomic_io`, the one module allowed to
    // open files for writing. The bench harness writes reports and the
    // linter rewrites its own baseline; neither holds pipeline state.
    if path == "crates/core/src/checkpoint/atomic_io.rs" {
        return false;
    }
    crate_of(path).is_some_and(|c| c != "bench" && c != "lint")
}

fn in_scope_inc007(path: &str) -> bool {
    // The network edge lives in exactly two places: the serve crate (the
    // server, plus the test/bench HTTP client in serve::client) and the
    // CLI that boots it. Everything else must go through those types.
    crate_of(path).is_some_and(|c| c != "serve" && c != "cli")
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `hay[at..]` starts with `needle` at a word boundary on the left.
fn word_start_at(hay: &[u8], at: usize) -> bool {
    at == 0 || !is_ident_byte(hay[at - 1])
}

/// All byte offsets where `needle` occurs in `line`.
fn occurrences<'a>(line: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0;
    std::iter::from_fn(move || {
        let rel = line[from..].find(needle)?;
        let at = from + rel;
        from = at + 1;
        Some(at)
    })
}

/// Runs INC001–INC004 over one masked file. `path` is repo-relative.
pub fn scan_file(path: &str, masked: &MaskedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let inc001 = in_scope_inc001(path);
    let inc002 = in_scope_inc002(path);
    let inc003 = in_scope_inc003(path);
    let inc004 = in_scope_inc004(path);
    let inc006 = in_scope_inc006(path);
    let inc007 = in_scope_inc007(path);
    if !(inc001 || inc002 || inc003 || inc004 || inc006 || inc007) {
        return findings;
    }

    for (idx, line) in masked.masked.lines().enumerate() {
        let lineno = idx + 1;
        let in_tests = masked.in_test_region(lineno);
        let mut push = |rule: &'static str, message: String| {
            if !masked.is_suppressed(rule, lineno) {
                findings.push(Finding {
                    rule,
                    severity: Severity::Error,
                    file: path.to_string(),
                    line: lineno,
                    message,
                    trace: Vec::new(),
                });
            }
        };

        if inc001 && !in_tests {
            // `.expect(` cannot match `.expect_err(`: the needle includes
            // the open paren.
            for (needle, label) in [(".unwrap()", "unwrap()"), (".expect(", "expect()")] {
                for _ in occurrences(line, needle) {
                    push("INC001", format!("`{label}` in library code"));
                }
            }
            for needle in ["panic!", "todo!"] {
                for at in occurrences(line, needle) {
                    if word_start_at(line.as_bytes(), at) {
                        push("INC001", format!("`{needle}` in library code"));
                    }
                }
            }
        }

        if inc002 {
            for needle in ["thread_rng", "SystemTime::now", "Instant::now"] {
                for at in occurrences(line, needle) {
                    if word_start_at(line.as_bytes(), at) {
                        push(
                            "INC002",
                            format!("nondeterministic `{needle}` in library crate"),
                        );
                    }
                }
            }
        }

        if inc003 && !in_tests {
            for op in ["==", "!="] {
                for at in occurrences(line, op) {
                    // Skip `!==`/`===` fragments and pattern arms `=>`.
                    if at + op.len() < line.len() && line.as_bytes()[at + op.len()] == b'=' {
                        continue;
                    }
                    if at > 0
                        && (line.as_bytes()[at - 1] == b'=' || line.as_bytes()[at - 1] == b'!')
                    {
                        continue;
                    }
                    let left = last_token(&line[..at]);
                    let right = first_token(&line[at + op.len()..]);
                    if is_float_token(left) || is_float_token(right) || casts_to_float(&line[..at])
                    {
                        push(
                            "INC003",
                            format!("float `{op}` comparison (use an epsilon or total ordering)"),
                        );
                    }
                }
            }
        }

        if inc006 && !in_tests {
            // Tests stage fixtures and corrupt checkpoint bytes on purpose;
            // library code must route every write through the funnel.
            for needle in ["File::create", "fs::write", "OpenOptions"] {
                for at in occurrences(line, needle) {
                    if word_start_at(line.as_bytes(), at) {
                        push(
                            "INC006",
                            format!(
                                "raw file write `{needle}` outside checkpoint::atomic_io \
                                 (use write_atomic/write_hashed)"
                            ),
                        );
                    }
                }
            }
        }

        if inc007 && !in_tests {
            // `use std::net::TcpStream` would trip both the module needle
            // and the type needle; report the module path once and only
            // fall back to bare type names (e.g. after a `use`).
            let mut module_hit = false;
            for at in occurrences(line, "std::net") {
                if word_start_at(line.as_bytes(), at) {
                    push(
                        "INC007",
                        "`std::net` outside incite-serve/cli (route network I/O \
                         through the serve crate)"
                            .to_string(),
                    );
                    module_hit = true;
                }
            }
            if !module_hit {
                for needle in ["TcpListener", "TcpStream", "UdpSocket"] {
                    for at in occurrences(line, needle) {
                        if word_start_at(line.as_bytes(), at) {
                            push(
                                "INC007",
                                format!(
                                    "`{needle}` outside incite-serve/cli (route network \
                                     I/O through the serve crate)"
                                ),
                            );
                        }
                    }
                }
            }
        }

        if inc004 && !in_tests {
            for (at, _) in line.match_indices('[') {
                if at == 0 {
                    continue;
                }
                let prev = line.as_bytes()[at - 1];
                // `ident[`, `)[`, `][` index a place expression. Attributes
                // (`#[`), macros (`vec![`), types (`: [u8; 4]`), and slice
                // borrows (`&[`) do not.
                if is_ident_byte(prev) || prev == b')' || prev == b']' {
                    push(
                        "INC004",
                        "unchecked slice index in VM hot loop (use get()/get_mut() \
                         or a checked helper)"
                            .to_string(),
                    );
                }
            }
        }
    }
    findings
}

/// Last whitespace-delimited token of `s`, trimmed of trailing operators.
fn last_token(s: &str) -> &str {
    let s = s.trim_end();
    let start = s
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
        .map(|i| i + c_len(s, i))
        .unwrap_or(0);
    &s[start..]
}

/// First whitespace-delimited token of `s`.
fn first_token(s: &str) -> &str {
    let s = s.trim_start();
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
        .unwrap_or(s.len());
    &s[..end]
}

fn c_len(s: &str, i: usize) -> usize {
    s[i..].chars().next().map_or(1, |c| c.len_utf8())
}

/// Whether a token is a float literal: `1.0`, `0.5e-3`, `2f64`, `1_000.0f32`.
fn is_float_token(tok: &str) -> bool {
    let tok = tok
        .strip_suffix("f64")
        .or_else(|| tok.strip_suffix("f32"))
        .map(|t| (t, true))
        .unwrap_or((tok, false));
    let (body, had_suffix) = tok;
    let body = body.trim_end_matches('.');
    if body.is_empty() || !body.as_bytes()[0].is_ascii_digit() {
        return false;
    }
    let mut saw_dot = false;
    for b in body.bytes() {
        match b {
            b'0'..=b'9' | b'_' => {}
            b'.' => saw_dot = true,
            b'e' | b'E' | b'+' | b'-' => {}
            _ => return false,
        }
    }
    saw_dot || had_suffix
}

/// Whether the text left of the operator ends in an `as f64` / `as f32`
/// cast, possibly parenthesised as `(x as f64)`.
fn casts_to_float(left: &str) -> bool {
    let left = left.trim_end().trim_end_matches(')').trim_end();
    left.ends_with("as f64") || left.ends_with("as f32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::MaskedFile;

    fn scan(path: &str, src: &str) -> Vec<Finding> {
        scan_file(path, &MaskedFile::new(src))
    }

    #[test]
    fn inc001_flags_unwrap_in_core_src() {
        let f = scan("crates/core/src/pipeline.rs", "let x = y.unwrap();\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "INC001");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn inc001_ignores_unwrap_or_and_expect_err() {
        let src = "let a = y.unwrap_or(0);\nlet b = y.unwrap_or_default();\nlet c = r.expect_err(\"no\");\n";
        assert!(scan("crates/core/src/pipeline.rs", src).is_empty());
    }

    #[test]
    fn inc001_exempts_test_mods_and_out_of_scope_crates() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(scan("crates/core/src/pipeline.rs", src).is_empty());
        // taxonomy is not in the INC001 panic-free set.
        assert!(scan("crates/taxonomy/src/attack.rs", "x.unwrap();\n").is_empty());
        // tests/ and benches/ directories are out of scope entirely.
        assert!(scan("crates/core/tests/it.rs", "x.unwrap();\n").is_empty());
    }

    #[test]
    fn inc001_word_boundary_on_macros() {
        assert!(scan("crates/ml/src/lib.rs", "no_panic!();\n").is_empty());
        assert_eq!(scan("crates/ml/src/lib.rs", "panic!(\"x\");\n").len(), 1);
        assert_eq!(scan("crates/ml/src/lib.rs", "todo!()\n").len(), 1);
    }

    #[test]
    fn inc002_flags_wall_clock_everywhere_in_library() {
        let f = scan(
            "crates/textkit/src/lib.rs",
            "let t = std::time::Instant::now();\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "INC002");
        // Even inside #[cfg(test)]: deterministic tests are part of the spec.
        let f = scan(
            "crates/regexlite/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n  fn t() { let t = Instant::now(); }\n}\n",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn inc002_exempts_bench_crate() {
        assert!(scan("crates/bench/src/bin/repro.rs", "Instant::now();\n").is_empty());
    }

    #[test]
    fn inc003_flags_float_literal_comparison() {
        let f = scan("crates/stats/src/ecdf.rs", "if x == 0.5 { }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "INC003");
        assert_eq!(scan("crates/ml/src/lib.rs", "if 1.0 != y { }\n").len(), 1);
        assert_eq!(
            scan("crates/ml/src/lib.rs", "if (n as f64) == m { }\n").len(),
            1
        );
        assert_eq!(scan("crates/ml/src/lib.rs", "if y == 2f64 { }\n").len(), 1);
    }

    #[test]
    fn inc003_ignores_int_comparisons_and_other_crates() {
        assert!(scan("crates/stats/src/ecdf.rs", "if x == 5 { }\n").is_empty());
        assert!(scan("crates/stats/src/ecdf.rs", "if a != b { }\n").is_empty());
        assert!(scan("crates/stats/src/ecdf.rs", "if t.0 == u.0 { }\n").is_empty());
        assert!(scan("crates/core/src/lib.rs", "if x == 0.5 { }\n").is_empty());
        // `=>` match arms and `<=`/`>=`/`!==` fragments don't trip it.
        assert!(scan("crates/stats/src/ecdf.rs", "Some(x) => 0.5,\n").is_empty());
        assert!(scan("crates/stats/src/ecdf.rs", "if x <= 0.5 { }\n").is_empty());
    }

    #[test]
    fn inc004_flags_indexing_only_in_vm() {
        let f = scan("crates/regexlite/src/vm.rs", "let i = insts[pc];\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "INC004");
        assert!(scan("crates/regexlite/src/compile.rs", "insts[pc];\n").is_empty());
    }

    #[test]
    fn inc004_ignores_attributes_macros_types_and_borrows() {
        let src = "#[derive(Debug)]\nlet v = vec![1];\nlet t: [u8; 4] = x;\nlet s: &[u8] = y;\n";
        assert!(scan("crates/regexlite/src/vm.rs", src).is_empty());
    }

    #[test]
    fn inc006_flags_raw_file_writes_in_library_code() {
        for src in [
            "let f = std::fs::File::create(&path)?;\n",
            "std::fs::write(&path, bytes)?;\n",
            "let f = OpenOptions::new().append(true).open(&path)?;\n",
        ] {
            let f = scan("crates/core/src/pipeline.rs", src);
            assert_eq!(f.len(), 1, "missed in {src:?}");
            assert_eq!(f[0].rule, "INC006");
        }
        // Applies to every library crate, not just core.
        assert_eq!(
            scan("crates/ml/src/persist.rs", "std::fs::write(p, b)?;\n").len(),
            1
        );
    }

    #[test]
    fn inc006_exempts_the_funnel_tests_and_harness_crates() {
        let write = "let f = std::fs::File::create(&tmp)?;\n";
        // The one module allowed to open files for writing.
        assert!(scan("crates/core/src/checkpoint/atomic_io.rs", write).is_empty());
        // Test regions stage fixtures and corrupt bytes on purpose.
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn t() { std::fs::write(p, b).unwrap(); }\n}\n";
        assert!(scan("crates/corpus/src/jsonl.rs", test_src)
            .iter()
            .all(|f| f.rule != "INC006"));
        // Bench reports and the linter's own baseline are not pipeline state.
        assert!(scan("crates/bench/src/bin/repro.rs", write).is_empty());
        assert!(scan("crates/lint/src/main.rs", write).is_empty());
        // tests/ directories are out of scope by construction.
        assert!(scan("crates/core/tests/it.rs", write).is_empty());
    }

    #[test]
    fn inc007_flags_network_types_outside_serve_and_cli() {
        let f = scan("crates/core/src/pipeline.rs", "use std::net::TcpStream;\n");
        assert_eq!(f.len(), 1, "module path reported once, not per needle");
        assert_eq!(f[0].rule, "INC007");
        // Bare type names (already-imported) are caught too.
        assert_eq!(
            scan(
                "crates/bench/src/throughput.rs",
                "let l = TcpListener::bind(a);\n"
            )
            .len(),
            1
        );
        assert_eq!(
            scan("crates/ml/src/lib.rs", "fn f(s: UdpSocket) {}\n").len(),
            1
        );
    }

    #[test]
    fn inc007_exempts_serve_cli_tests_and_idents() {
        let src = "use std::net::{TcpListener, TcpStream};\n";
        assert!(scan("crates/serve/src/server.rs", src).is_empty());
        assert!(scan("crates/serve/src/client.rs", src).is_empty());
        assert!(scan("crates/cli/src/lib.rs", src).is_empty());
        // tests/ directories and test regions are out of scope.
        assert!(scan("crates/core/tests/it.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    use std::net::TcpStream;\n}\n";
        assert!(scan("crates/core/src/pipeline.rs", test_src).is_empty());
        // Identifier suffixes don't trip the word boundary.
        assert!(scan("crates/core/src/pipeline.rs", "let my_TcpStream = 1;\n").is_empty());
    }

    #[test]
    fn suppression_silences_a_finding() {
        let src = "let x = y.unwrap(); // incite-lint: allow(INC001)\n";
        assert!(scan("crates/core/src/pipeline.rs", src).is_empty());
    }

    #[test]
    fn string_contents_never_match() {
        let src = "let s = \"call .unwrap() and panic! now\";\n";
        assert!(scan("crates/core/src/pipeline.rs", src).is_empty());
    }

    #[test]
    fn render_is_rustc_style() {
        let f = Finding {
            rule: "INC001",
            severity: Severity::Error,
            file: "crates/core/src/pipeline.rs".into(),
            line: 7,
            message: "`unwrap()` in library code".into(),
            trace: Vec::new(),
        };
        assert_eq!(
            f.render(),
            "error[INC001]: `unwrap()` in library code\n  --> crates/core/src/pipeline.rs:7"
        );
    }
}
