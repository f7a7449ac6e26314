//! Pass 4: invariant enforcement (INC014–INC016).
//!
//! Three rules that turn the repo's load-bearing dynamic contracts —
//! crash-recovery coverage, cross-thread byte-identity, and bounded wire
//! arithmetic — into static checks over the item graph from pass 1:
//!
//! * **INC014 checkpoint-unswept** — every `atomic_io` write/append
//!   acquisition outside tests (in `core`, `serve`, `stream`) must be
//!   reachable, through resolved call edges, from a function that
//!   consults a failpoint registry (`.check(…)` / `.trip(…)`). A write
//!   no sweep can reach is crash-recovery coverage that silently shrank.
//! * **INC015 unordered-float-fold** — a mutable `f32`/`f64` local
//!   declared *before* a `parallel::map_indexed` call and accumulated
//!   *inside* the closure folds in worker-completion order, which is the
//!   exact non-determinism the slot-indexed contract forbids. Slot
//!   writes (`out[i] = …`) and accumulators declared inside the closure
//!   are fine; so is folding the returned slot vector sequentially.
//! * **INC016 unchecked-wire-arithmetic** — interval-lite dataflow over
//!   the wire decoders (`corpus/src/jsonl.rs`, `stream/src/event.rs`,
//!   `stream/src/state.rs`):
//!   a value originating from a wire decode (`from_le_bytes`, `.parse(`,
//!   `serde_json::from_str(…)`, …) must not flow into bare `+`/`*`
//!   arithmetic or a narrowing `as` cast until it is bounded by a
//!   comparison / `.min(…)` / `.get(…)`, or the arithmetic goes through
//!   `checked_*`/`saturating_*`/`wrapping_*`. Lengths of in-memory
//!   collections (`.len()`) are already bounded and never become tainted.
//!
//! All three honor `lint:allow` pragmas and test regions, and burn fuel
//! proportional to events + bytes scanned so the engine's deterministic
//! fuel budget keeps holding.

use crate::graph::{matching_paren, CallEvent, Event, Workspace};
use crate::items;
use crate::rules::{Finding, Severity};
use std::collections::BTreeSet;

/// Runs INC014–INC016 over the workspace graph. Returns the findings
/// (unsorted — the engine sorts globally) and the fuel consumed.
pub fn check(ws: &Workspace) -> (Vec<Finding>, u64) {
    let mut findings = Vec::new();
    let mut fuel = 0u64;
    inc014(ws, &mut findings, &mut fuel);
    inc015(ws, &mut findings, &mut fuel);
    inc016(ws, &mut findings, &mut fuel);
    (findings, fuel)
}

fn qualified(ws: &Workspace, fn_idx: usize) -> String {
    let node = &ws.fns[fn_idx];
    match &node.self_ty {
        Some(ty) => format!("{ty}::{}", node.name),
        None => node.name.clone(),
    }
}

// ------------------------------------------------------------------
// INC014 — checkpoint-unswept
// ------------------------------------------------------------------

/// Crates whose persisted artifacts the failpoint sweeps must cover.
const INC014_CRATES: &[&str] = &["core", "serve", "stream"];

/// Last-segment names that acquire the atomic-write funnel.
const FUNNEL_WRITES: &[&str] = &["write_atomic", "write_hashed", "write_framed"];

fn funnel_callee(call: &CallEvent) -> Option<String> {
    let last = call.segs.last()?;
    if FUNNEL_WRITES.contains(&last.as_str()) {
        return Some(call.segs.join("::"));
    }
    let n = call.segs.len();
    if n >= 2 && call.segs[n - 2] == "AppendLog" && last == "open" {
        return Some("AppendLog::open".to_string());
    }
    None
}

/// Whether this function body consults a failpoint registry directly.
fn is_checker(node: &crate::graph::FnNode) -> bool {
    node.events.iter().any(|ev| match ev {
        Event::Call(call) => {
            call.dotted
                && matches!(
                    call.segs.last().map(String::as_str),
                    Some("check") | Some("trip")
                )
        }
        _ => false,
    })
}

fn inc014(ws: &Workspace, findings: &mut Vec<Finding>, fuel: &mut u64) {
    // Forward reachability from every checker over resolved call edges:
    // anything a failpoint-consulting function can reach is swept.
    let mut swept = vec![false; ws.fns.len()];
    let mut queue: Vec<usize> = Vec::new();
    for (i, node) in ws.fns.iter().enumerate() {
        *fuel += node.events.len() as u64;
        if is_checker(node) {
            swept[i] = true;
            queue.push(i);
        }
    }
    while let Some(i) = queue.pop() {
        *fuel += 1;
        for &callee in &ws.fns[i].edges {
            if !swept[callee] {
                swept[callee] = true;
                queue.push(callee);
            }
        }
    }

    for (i, node) in ws.fns.iter().enumerate() {
        let file = &ws.files[node.file];
        if node.in_test
            || !INC014_CRATES.contains(&file.crate_name.as_str())
            || file.path.ends_with("atomic_io.rs")
        {
            continue;
        }
        for ev in &node.events {
            let Event::Call(call) = ev else { continue };
            let Some(callee) = funnel_callee(call) else {
                continue;
            };
            if swept[i] {
                continue;
            }
            let line = items::line_at(&file.lines, call.off);
            if file.masked.in_test_region(line) || file.masked.is_suppressed("INC014", line) {
                continue;
            }
            findings.push(Finding {
                rule: "INC014",
                severity: Severity::Error,
                file: file.path.clone(),
                line,
                message: format!(
                    "unswept checkpoint write: `{callee}` in `{}` is not reachable from any \
                     failpoint `check`/`trip` site, so the kill sweep cannot cover it",
                    qualified(ws, i)
                ),
                trace: Vec::new(),
            });
        }
    }
}

// ------------------------------------------------------------------
// INC015 — unordered-float-fold
// ------------------------------------------------------------------

/// Mutable float locals (`let mut x = 0.0f32;`, `let mut y: f64 = …;`)
/// declared in `bytes[start..end)`, with their names.
fn mut_float_locals(bytes: &[u8], start: usize, end: usize) -> Vec<String> {
    let text = match std::str::from_utf8(&bytes[start..end]) {
        Ok(text) => text,
        Err(_) => return Vec::new(),
    };
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = text[from..].find("let mut ") {
        let at = from + rel;
        from = at + "let mut ".len();
        if at > 0 && items::is_ident_byte(text.as_bytes()[at - 1]) {
            continue;
        }
        let rest = &text[from..];
        let name_len = rest
            .bytes()
            .take_while(|&b| items::is_ident_byte(b))
            .count();
        if name_len == 0 {
            continue;
        }
        let name = &rest[..name_len];
        // Declaration tail up to the statement end: the type annotation
        // and/or initializer decide floatness.
        let tail_end = rest.find(';').unwrap_or(rest.len()).min(200);
        let tail = &rest[name_len..tail_end];
        if is_float_decl_tail(tail) {
            out.push(name.to_string());
        }
    }
    out
}

/// Whether a `let mut <name>` declaration tail declares a scalar float:
/// an `f32`/`f64` annotation or suffix, or a bare `= <digits>.<digits>`
/// initializer. Collections of floats (`vec![0.0f32; n]`) are slot
/// targets, not fold accumulators, and stay out.
fn is_float_decl_tail(tail: &str) -> bool {
    if tail.contains("vec!") || tail.contains("Vec<") || tail.contains('[') {
        return false;
    }
    for needle in ["f32", "f64"] {
        let mut from = 0;
        while let Some(rel) = tail[from..].find(needle) {
            let at = from + rel;
            from = at + needle.len();
            let before_ok = at == 0 || !items::is_ident_byte(tail.as_bytes()[at - 1]);
            let after_ok = from >= tail.len() || !items::is_ident_byte(tail.as_bytes()[from]);
            // `0.0f32` has a digit before the suffix: allow digits too.
            let before_suffix = at > 0 && tail.as_bytes()[at - 1].is_ascii_digit();
            if (before_ok || before_suffix) && after_ok {
                return true;
            }
        }
    }
    if let Some(eq) = tail.find('=') {
        let rhs = tail[eq + 1..].trim_start();
        let digits = rhs.bytes().take_while(u8::is_ascii_digit).count();
        if digits > 0 && rhs.as_bytes().get(digits) == Some(&b'.') {
            return true;
        }
    }
    false
}

/// Byte offsets in `bytes[from..to)` where `name` is compound-assigned
/// (`name += …`) or self-assigned through an operator (`name = name + …`).
fn fold_mutations(bytes: &[u8], from: usize, to: usize, name: &str) -> Vec<usize> {
    let Ok(text) = std::str::from_utf8(&bytes[from..to]) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(rel) = text[at..].find(name) {
        let pos = at + rel;
        at = pos + name.len();
        let bounded_left = pos == 0 || !items::is_ident_byte(text.as_bytes()[pos - 1]);
        let bounded_right = at >= text.len() || !items::is_ident_byte(text.as_bytes()[at]);
        if !bounded_left || !bounded_right {
            continue;
        }
        let rest = text[at..].trim_start();
        let compound = ["+=", "-=", "*=", "/="]
            .iter()
            .any(|op| rest.starts_with(op));
        let self_assign = rest.starts_with('=') && !rest.starts_with("==") && {
            let rhs = rest[1..].trim_start();
            rhs.strip_prefix(name).is_some_and(|after| {
                let after = after.trim_start();
                after.starts_with('+')
                    || after.starts_with('-')
                    || after.starts_with('*')
                    || after.starts_with('/')
            })
        };
        if compound || self_assign {
            out.push(from + pos);
        }
    }
    out
}

fn inc015(ws: &Workspace, findings: &mut Vec<Finding>, fuel: &mut u64) {
    for node in &ws.fns {
        if node.in_test {
            continue;
        }
        let Some(body) = node.body else { continue };
        let file = &ws.files[node.file];
        let bytes = file.masked.masked.as_bytes();
        for ev in &node.events {
            let Event::Call(call) = ev else { continue };
            if call.segs.last().map(String::as_str) != Some("map_indexed") {
                continue;
            }
            *fuel += (call.off.saturating_sub(body.start)) as u64;
            let accumulators = mut_float_locals(bytes, body.start, call.off);
            if accumulators.is_empty() {
                continue;
            }
            let close = matching_paren(bytes, call.off, body.end);
            // The closure is the last argument: its body runs from after
            // the parameter list (`|i|`) to the call's closing paren.
            let Some(bar1) = (call.off..close).find(|&j| bytes[j] == b'|') else {
                continue;
            };
            let Some(bar2) = (bar1 + 1..close).find(|&j| bytes[j] == b'|') else {
                continue;
            };
            for name in &accumulators {
                for off in fold_mutations(bytes, bar2 + 1, close, name) {
                    let line = items::line_at(&file.lines, off);
                    if file.masked.in_test_region(line) || file.masked.is_suppressed("INC015", line)
                    {
                        continue;
                    }
                    findings.push(Finding {
                        rule: "INC015",
                        severity: Severity::Error,
                        file: file.path.clone(),
                        line,
                        message: format!(
                            "unordered float fold: `{name}` is accumulated inside a \
                             `map_indexed` closure, so the result depends on worker \
                             completion order; return per-slot values and fold the \
                             slot vector sequentially"
                        ),
                        trace: Vec::new(),
                    });
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// INC016 — unchecked-wire-arithmetic
// ------------------------------------------------------------------

/// The wire decoders under interval discipline.
const INC016_FILES: &[&str] = &[
    "corpus/src/jsonl.rs",
    "stream/src/event.rs",
    "stream/src/state.rs",
];

/// Needles whose results are attacker-controlled wire values.
const WIRE_SOURCES: &[&str] = &[
    "from_le_bytes",
    "from_be_bytes",
    "from_ne_bytes",
    ".parse(",
    "parse::<",
    "serde_json::from_str(",
];

/// Cast targets narrow enough that an unbounded wire value truncates.
const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

fn contains_word(text: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = text[from..].find(word) {
        let at = from + rel;
        from = at + word.len();
        let left = at == 0 || !items::is_ident_byte(text.as_bytes()[at - 1]);
        let right = from >= text.len() || !items::is_ident_byte(text.as_bytes()[from]);
        if left && right {
            return true;
        }
    }
    false
}

/// The ident token ending immediately before byte `pos` (skipping back
/// over whitespace), or `None` if the preceding token is not an ident.
fn ident_before(text: &str, pos: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut j = pos;
    while j > 0 && bytes[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    let end = j;
    while j > 0 && items::is_ident_byte(bytes[j - 1]) {
        j -= 1;
    }
    (j < end).then(|| &text[j..end])
}

/// The ident token starting at or after byte `pos` (skipping whitespace).
fn ident_after(text: &str, pos: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut j = pos;
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    let start = j;
    while j < bytes.len() && items::is_ident_byte(bytes[j]) {
        j += 1;
    }
    (j > start).then(|| &text[start..j])
}

/// Splits a body into statement-ish segments at `;`, `{` and `}` so a
/// multi-line binding is analyzed as one unit. Returns `(offset, text)`
/// pairs with offsets absolute in the masked file.
fn segments(bytes: &[u8], start: usize, end: usize) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut seg_start = start;
    let mut i = start;
    while i < end {
        if matches!(bytes[i], b';' | b'{' | b'}') {
            if i > seg_start {
                if let Ok(text) = std::str::from_utf8(&bytes[seg_start..i]) {
                    out.push((seg_start, text.to_string()));
                }
            }
            seg_start = i + 1;
        }
        i += 1;
    }
    if end > seg_start {
        if let Ok(text) = std::str::from_utf8(&bytes[seg_start..end]) {
            out.push((seg_start, text.to_string()));
        }
    }
    out
}

/// The ident bound by a `let` segment, if any: first ident after `let`
/// that is not `mut`, with the rest of the segment as the initializer.
fn let_binding(seg: &str) -> Option<(String, &str)> {
    let at = seg.find("let ")?;
    let left_ok = at == 0 || !items::is_ident_byte(seg.as_bytes()[at - 1]);
    if !left_ok {
        return None;
    }
    let mut rest = seg[at + 4..].trim_start();
    if let Some(after) = rest.strip_prefix("mut ") {
        rest = after.trim_start();
    }
    let name_len = rest
        .bytes()
        .take_while(|&b| items::is_ident_byte(b))
        .count();
    if name_len == 0 {
        return None;
    }
    let name = rest[..name_len].to_string();
    let init = rest[name_len..].split_once('=').map(|(_, rhs)| rhs)?;
    Some((name, init))
}

/// Whether an initializer expression carries wire taint: it mentions a
/// source needle or a tainted ident, and is not a `.len()` measurement
/// (collection lengths are bounded by the buffer already in memory).
fn init_is_tainted(init: &str, tainted: &BTreeSet<String>) -> bool {
    if init.contains(".len()") {
        return false;
    }
    WIRE_SOURCES.iter().any(|s| init.contains(s)) || tainted.iter().any(|t| contains_word(init, t))
}

/// Reports unchecked `+`/`*` arithmetic and narrowing casts on tainted
/// idents inside one segment. Returns the flagged `(offset, detail)`s.
fn segment_flags(seg_off: usize, seg: &str, tainted: &BTreeSet<String>) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    if seg.contains("checked_") || seg.contains("saturating_") || seg.contains("wrapping_") {
        return out;
    }
    let bytes = seg.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'+' | b'*' => {
                // Binary arithmetic only: both neighbors must be value
                // tokens (`a + b`), which filters derefs (`*x`), unary
                // plus in formats, and `+=`' handled below.
                let next_eq = bytes.get(i + 1) == Some(&b'=');
                let left = ident_before(seg, i);
                if next_eq {
                    // `x += wire` or `wire += n`: flag when either side
                    // carries taint.
                    let rhs = &seg[i + 2..];
                    let lhs_tainted = left.is_some_and(|l| tainted.contains(l));
                    let rhs_tainted = tainted.iter().any(|t| contains_word(rhs, t));
                    if lhs_tainted || rhs_tainted {
                        out.push((
                            seg_off + i,
                            format!("compound `{}=` on a wire-derived value", b as char),
                        ));
                    }
                    continue;
                }
                let right = ident_after(seg, i + 1);
                let (Some(left), Some(right)) = (left, right) else {
                    continue;
                };
                if tainted.contains(left) || tainted.contains(right) {
                    out.push((
                        seg_off + i,
                        format!("`{left} {} {right}` on a wire-derived value", b as char),
                    ));
                }
            }
            _ => {}
        }
    }
    // Narrowing casts: `<tainted> as u32` and friends.
    let mut from = 0;
    while let Some(rel) = seg[from..].find(" as ") {
        let at = from + rel;
        from = at + 4;
        let Some(src) = ident_before(seg, at) else {
            continue;
        };
        let Some(dst) = ident_after(seg, at + 4) else {
            continue;
        };
        if tainted.contains(src) && NARROW_CASTS.contains(&dst) {
            out.push((
                seg_off + at,
                format!("narrowing cast `{src} as {dst}` on a wire-derived value"),
            ));
        }
    }
    out
}

fn inc016(ws: &Workspace, findings: &mut Vec<Finding>, fuel: &mut u64) {
    for node in &ws.fns {
        if node.in_test {
            continue;
        }
        let file = &ws.files[node.file];
        if !INC016_FILES.iter().any(|f| file.path.ends_with(f)) {
            continue;
        }
        let Some(body) = node.body else { continue };
        let bytes = file.masked.masked.as_bytes();
        *fuel += (body.end.saturating_sub(body.start)) as u64;

        let mut tainted: BTreeSet<String> = BTreeSet::new();
        for (seg_off, seg) in segments(bytes, body.start, body.end) {
            // Bound guards first: a comparison, `.min(…)` or `.get(…)`
            // mentioning a tainted ident discharges its taint for the
            // rest of the function.
            let guarded = [" < ", " <= ", " > ", " >= ", ".min(", ".get("]
                .iter()
                .any(|g| seg.contains(g));
            if guarded {
                tainted.retain(|t| !contains_word(&seg, t));
            }

            for (off, detail) in segment_flags(seg_off, &seg, &tainted) {
                let line = items::line_at(&file.lines, off);
                if file.masked.in_test_region(line) || file.masked.is_suppressed("INC016", line) {
                    continue;
                }
                findings.push(Finding {
                    rule: "INC016",
                    severity: Severity::Error,
                    file: file.path.clone(),
                    line,
                    message: format!(
                        "unchecked wire arithmetic: {detail}; bound it first or use a \
                         `checked_*` operation"
                    ),
                    trace: Vec::new(),
                });
            }

            // Taint propagation after flagging, so `let y = wire + 1;`
            // both fires and taints `y`.
            if let Some((name, init)) = let_binding(&seg) {
                if init_is_tainted(init, &tainted) {
                    tainted.insert(name);
                }
            } else if let Some(eq) = seg.find(" = ") {
                // Plain reassignment: `x = tainted_expr` propagates.
                if let Some(lhs) = ident_before(&seg, eq) {
                    let rhs = &seg[eq + 3..];
                    if init_is_tainted(rhs, &tainted) {
                        tainted.insert(lhs.to_string());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;
    use crate::lexer::MaskedFile;

    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        let masked: Vec<(String, MaskedFile)> = files
            .iter()
            .map(|(path, src)| (path.to_string(), MaskedFile::new(src)))
            .collect();
        let refs: Vec<(String, &MaskedFile)> = masked.iter().map(|(p, m)| (p.clone(), m)).collect();
        let ws = graph::build(&refs);
        check(&ws).0
    }

    #[test]
    fn inc014_fires_on_unreachable_write_and_spares_swept_one() {
        let src = "\
pub struct S { fp: Reg }
impl S {
    pub fn sweep(&self) {
        self.fp.check(\"site\");
        self.save();
    }
    fn save(&self) {
        atomic_io::write_hashed(&self.p(), b\"x\");
    }
    pub fn orphan(&self) {
        atomic_io::write_hashed(&self.p(), b\"y\");
    }
    fn p(&self) -> PathBuf { PathBuf::new() }
}
";
        let findings = run_on(&[("crates/core/src/demo.rs", src)]);
        let inc014: Vec<_> = findings.iter().filter(|f| f.rule == "INC014").collect();
        assert_eq!(inc014.len(), 1, "{findings:?}");
        assert_eq!(inc014[0].line, 11);
        assert!(inc014[0].message.contains("S::orphan"));
    }

    #[test]
    fn inc014_ignores_out_of_scope_crates_and_tests() {
        let src = "\
pub fn orphan() {
    atomic_io::write_hashed(&p(), b\"y\");
}
";
        assert!(run_on(&[("crates/ml/src/demo.rs", src)])
            .iter()
            .all(|f| f.rule != "INC014"));
        let test_src = "\
#[cfg(test)]
mod tests {
    fn orphan() {
        atomic_io::write_hashed(&p(), b\"y\");
    }
}
";
        assert!(run_on(&[("crates/core/src/demo.rs", test_src)])
            .iter()
            .all(|f| f.rule != "INC014"));
    }

    #[test]
    fn inc014_counts_append_log_acquisition() {
        let src = "\
pub fn open_log(path: &Path) -> Result<AppendLog, E> {
    let log = atomic_io::AppendLog::open(path)?;
    Ok(log)
}
";
        let findings = run_on(&[("crates/serve/src/demo.rs", src)]);
        assert!(
            findings.iter().any(|f| f.rule == "INC014"
                && f.line == 2
                && f.message.contains("AppendLog::open")),
            "{findings:?}"
        );
    }

    #[test]
    fn inc015_flags_captured_accumulator_not_slot_writes() {
        let src = "\
pub fn bad(vals: &[f32], threads: usize) -> f32 {
    let mut total = 0.0f32;
    let _ = map_indexed(vals.len(), threads, |i| {
        total += vals[i];
        0u32
    });
    total
}
pub fn good(vals: &[f32], threads: usize) -> f32 {
    let slots = map_indexed(vals.len(), threads, |i| vals[i] * 2.0);
    let mut total = 0.0f32;
    for s in slots.unwrap_or_default() {
        total += s;
    }
    total
}
";
        let findings = run_on(&[("crates/core/src/demo.rs", src)]);
        let inc015: Vec<_> = findings.iter().filter(|f| f.rule == "INC015").collect();
        assert_eq!(inc015.len(), 1, "{findings:?}");
        assert_eq!(inc015[0].line, 4);
        assert!(inc015[0].message.contains("total"));
    }

    #[test]
    fn inc015_allows_accumulator_declared_inside_closure() {
        let src = "\
pub fn ok(vals: &[f32], threads: usize) {
    let _ = map_indexed(vals.len(), threads, |i| {
        let mut acc = 0.0f32;
        acc += vals[i];
        acc
    });
}
";
        assert!(run_on(&[("crates/core/src/demo.rs", src)])
            .iter()
            .all(|f| f.rule != "INC015"));
    }

    #[test]
    fn inc016_flags_arithmetic_and_narrowing_until_bounded() {
        let src = "\
pub fn decode(bytes: &[u8]) -> u32 {
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let end = len + 4;
    let short = len as u16;
    if len < 1024 {
        let fine = len + 1;
        return fine;
    }
    end + u32::from(short)
}
";
        let findings = run_on(&[("crates/corpus/src/jsonl.rs", src)]);
        let inc016: Vec<_> = findings.iter().filter(|f| f.rule == "INC016").collect();
        let lines: Vec<usize> = inc016.iter().map(|f| f.line).collect();
        // `len + 4` and `len as u16` fire; after the `<` bound, `len + 1`
        // is clean. `end` is tainted transitively, so `end + …` fires.
        assert_eq!(lines, vec![3, 4, 9], "{findings:?}");
    }

    #[test]
    fn inc016_accepts_checked_math_and_len_measurements() {
        let src = "\
pub fn decode(bytes: &[u8], table: &[u8]) -> Option<u32> {
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let end = len.checked_add(4)?;
    let n = table.len() as u32;
    let total = n + 7;
    Some(end.min(total))
}
";
        assert!(run_on(&[("crates/corpus/src/jsonl.rs", src)])
            .iter()
            .all(|f| f.rule != "INC016"));
    }

    #[test]
    fn inc016_only_watches_the_wire_decoders() {
        let src = "\
pub fn decode(bytes: &[u8]) -> u32 {
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    len + 4
}
";
        assert!(run_on(&[("crates/corpus/src/scan.rs", src)])
            .iter()
            .all(|f| f.rule != "INC016"));
    }
}
