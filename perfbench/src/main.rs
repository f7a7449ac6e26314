//! End-to-end benchmark of `incite`: the paper pipeline, the checkpointed
//! watch loop and the loopback inference service, from one seed.
//!
//! ```text
//! perfbench --workload <small|tiny> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets up its inputs from the seed (several times, to time
//! set-up), then spends `--seconds` on the three paths and checks every
//! output against a reference computed in set-up. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the run records spans around its calls into each
//! layer and reports per-layer metrics and the tracing overhead instead,
//! and writes the spans to `.bench_out/trace-<workload>-<seed>.jsonl`.
//! Scratch files live under `.bench_out/` in the working directory.

mod affinity;
mod inputs;
mod pipeline;
mod serve;
mod trace;
mod watch;

use inputs::{doc_texts, setup, workload, Inputs, Sizes, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Operations attempted, operations failed, and every wrong output.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation; `None` (and a failure) on `Err`.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        self.check_op(what, r)
    }

    /// [`Tally::op`] for an operation already counted as attempted.
    pub fn check_op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        r.map_err(|e| {
            self.failed += 1;
            self.problems.push(format!("{what}: {e}"));
        })
        .ok()
    }

    /// Records a wrong output when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// One printed metric: name, value, unit.
pub struct Metric(pub String, pub f64, pub &'static str);

pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line. A value that is not finite is printed as -1 and
    /// makes the run incorrect (JSON has no NaN), as does a run that
    /// attempted nothing.
    pub fn json(&self) -> String {
        let mut correct = self.tally.correct() && self.tally.attempted > 0;
        let mut metrics = String::new();
        for (i, Metric(name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() {
                *value
            } else {
                correct = false;
                -1.0
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.attempted.max(1),
            self.tally.failed
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Bytes and file count of everything under `dir`.
pub fn dir_size(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (b, f) = dir_size(&path);
            bytes += b;
            files += f;
        } else if let Ok(meta) = entry.metadata() {
            bytes += meta.len();
            files += 1;
        }
    }
    (bytes, files)
}

/// Resets the peak-RSS watermark, so `VmHWM` covers only what follows.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sets up `reps` times and keeps the last inputs; returns them with the
/// median set-up seconds.
pub fn setup_timed(
    w: Workload,
    sizes: Sizes,
    seed: u64,
    work: &Path,
    reps: usize,
) -> Result<(Inputs, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let dir = work.join("setup");
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        last = Some(setup(w, sizes, seed, &dir)?);
        times.push(started.elapsed().as_secs_f64());
    }
    let inputs = last.ok_or("no set-up ran")?;
    Ok((inputs, median(&times)))
}

/// Runs `f` at least once, and again while another run of the same
/// length as the last still fits in `budget`.
fn repeat_for(budget: Duration, mut f: impl FnMut()) {
    let started = Instant::now();
    loop {
        let at = Instant::now();
        f();
        if started.elapsed() + at.elapsed() > budget {
            return;
        }
    }
}

/// The decoded corpus and the quick run's classifier: what the watch loop
/// reads besides the event stream.
fn watch_docs(
    inputs: &Inputs,
    tally: &mut Tally,
) -> Option<(incite_corpus::Corpus, incite_ml::TextClassifier)> {
    let decoded = incite_corpus::jsonl::read_jsonl_quarantine(inputs.corpus_jsonl.as_slice());
    let (documents, _) = tally.op("decode corpus", decoded)?;
    let classifier = tally.op(
        "load model",
        incite_core::load_latest_classifier(&inputs.model_dir),
    )?;
    let corpus = incite_corpus::Corpus {
        documents,
        config: incite_corpus::CorpusConfig::default(),
    };
    Some((corpus, classifier))
}

/// Target shares of `--seconds` for watch segments, pipeline iterations
/// and serve slices. A watch pass takes a few times as long as a pipeline
/// iteration, and only whole passes give samples.
const SHARES: [f64; 3] = [0.5, 0.3, 0.2];

/// The untraced run: every end-to-end metric.
///
/// The run interleaves watch segments, pipeline iterations and serve
/// slices while another step fits in `seconds`, each time taking the path
/// furthest below its share in [`SHARES`]. Interleaving spreads every
/// path's samples over the whole run, so a slow spell on a shared machine
/// lands on all of them alike.
pub fn measure(inputs: &Inputs, seconds: f64, setup_s: f64, work: &Path) -> Report {
    let mut tally = Tally::default();
    let mut t = Tracer::new(false, 0);
    let mut pipeline_s = Vec::new();
    let mut ws = watch::WatchSamples::default();
    let mut ss = serve::ServeSamples::default();
    let docs = watch_docs(inputs, &mut tally);
    let server = serve::Bench::start(inputs, &mut t, &mut tally);
    if let (Some((corpus, classifier)), Some(server)) = (&docs, &server) {
        let texts = doc_texts(corpus);
        let watch_dir = work.join("watch");
        let pipeline_dir = work.join("pipeline");
        let drivers = &[watch::Driver::RunWatch, watch::Driver::Direct];
        let mut watch = watch::Watch::new(inputs, &texts, classifier, &watch_dir, drivers);
        let mut spent = [0.0; SHARES.len()];
        repeat_for(Duration::from_secs_f64(seconds), || {
            let total: f64 = spent.iter().sum();
            let behind = |p: usize| spent[p] - SHARES[p] * total;
            let next = (0..SHARES.len())
                .min_by(|&a, &b| behind(a).total_cmp(&behind(b)))
                .unwrap_or(0);
            if next == 1 {
                pipeline::clear(&pipeline_dir);
            }
            let started = Instant::now();
            match next {
                0 => watch.segment(&mut t, &mut tally, &mut ws),
                1 => pipeline::iteration(inputs, &pipeline_dir, &mut t, &mut tally),
                _ => server.slice(inputs, &mut t, &mut tally, &mut ss),
            }
            let s = started.elapsed().as_secs_f64();
            spent[next] += s;
            if next == 1 {
                pipeline_s.push(s);
            }
        });
    }
    if let Some(server) = server {
        server.stop(&mut t, &mut tally);
    }

    let epochs = sorted(&ws.epoch_ms);
    let open = sorted(&ss.open_us);
    // Open-loop tail latency is a per-layer metric of the traced run only:
    // on a shared two-CPU virtual machine, hypervisor stalls moved p90 by up
    // to 3x and p99 by up to 10x between otherwise identical runs.
    let metrics = vec![
        Metric("setup_s".into(), setup_s, "s"),
        Metric("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        Metric("pipeline_s".into(), median(&pipeline_s), "s"),
        Metric("watch_events_per_s".into(), median(&ws.events_per_s), "1/s"),
        Metric("watch_epoch_p50_ms".into(), percentile(&epochs, 0.50), "ms"),
        Metric("watch_epoch_p90_ms".into(), percentile(&epochs, 0.90), "ms"),
        Metric("watch_recover_ms".into(), ws.recover_ms(), "ms"),
        Metric("serve_p50_us".into(), percentile(&open, 0.50), "us"),
        Metric("serve_rps".into(), median(&ss.rps), "1/s"),
        Metric(
            "serve_batch_docs_per_s".into(),
            median(&ss.batch_docs_per_s),
            "1/s",
        ),
    ];
    eprintln!(
        "samples: {} pipeline iteration(s) {:.3?} s; {} run_watch pass(es) {:.0?} events/s, \
         {} recovery(ies); {} epoch(s) of direct passes; {} open-loop request(s), p90 {:.0} us, p99 {:.0} us; {} closed-loop \
         and {} batch window(s)",
        pipeline_s.len(),
        pipeline_s,
        ws.events_per_s.len(),
        ws.events_per_s,
        ws.recover_ms.iter().map(Vec::len).sum::<usize>(),
        ws.epoch_ms.len(),
        ss.open_us.len(),
        percentile(&open, 0.90),
        percentile(&open, 0.99),
        ss.rps.len(),
        ss.batch_docs_per_s.len(),
    );
    Report { tally, metrics }
}

/// One pipeline iteration and one whole watch pass; returns their wall time.
fn timed_pair(
    inputs: &Inputs,
    work: &Path,
    watch: &mut watch::Watch,
    t: &mut Tracer,
    tally: &mut Tally,
) -> f64 {
    let dir = work.join("pipeline");
    pipeline::clear(&dir);
    let started = Instant::now();
    pipeline::iteration(inputs, &dir, t, tally);
    watch.pass(t, tally, &mut watch::WatchSamples::default());
    started.elapsed().as_secs_f64()
}

/// Spans whose summed seconds the traced run reports as `<span>_s`.
const TIMED_SPANS: [&str; 17] = [
    "corpus.decode",
    "core.engine.build",
    "core.engine.score_all",
    "core.pipeline.cth",
    "core.pipeline.dox",
    "core.checkpoint.reopen",
    "analysis.pii_tables",
    "analysis.harm_risk",
    "analysis.repeats",
    "analysis.attack_types",
    "analysis.gender",
    "core.attack_classifier.train",
    "stream.decode",
    "stream.rank",
    "stream.save",
    "stream.load",
    "serve.start",
];

/// Counters the traced run reports summed, with their units.
const COUNTERS: [(&str, &str); 19] = [
    ("corpus.docs", "count"),
    ("corpus.quarantined", "count"),
    ("core.engine.nnz", "count"),
    ("core.engine.featurize_passes", "count"),
    ("core.engine.score_passes", "count"),
    ("core.checkpoint.bytes", "bytes"),
    ("core.checkpoint.files", "count"),
    ("core.active_learning.crowd_annotations", "count"),
    ("analysis.docs", "count"),
    ("stream.events", "count"),
    ("stream.epochs", "count"),
    ("stream.bytes_written", "bytes"),
    ("stream.state_bytes", "bytes"),
    ("stream.resumes", "count"),
    ("serve.requests", "count"),
    ("serve.failed", "count"),
    ("serve.rejected_overload", "count"),
    ("serve.batches", "count"),
    ("serve.docs_per_batch", "docs"),
];

/// The traced run: a pipeline iteration and a watch pass untraced, traced,
/// and untraced again, then the engine kernels and one slice of each serve
/// phase traced. Reports every per-layer metric and the tracing overhead.
pub fn measure_traced(inputs: &Inputs, work: &Path, run_id: u64, spans_out: &Path) -> Report {
    let mut tally = Tally::default();
    let mut t = Tracer::new(true, run_id);
    let mut ss = serve::ServeSamples::default();
    let mut overhead_pct = f64::NAN;
    if let Some((corpus, classifier)) = watch_docs(inputs, &mut tally) {
        let texts = doc_texts(&corpus);
        let watch_dir = work.join("watch");
        let drivers = &[watch::Driver::Direct];
        let mut watch = watch::Watch::new(inputs, &texts, &classifier, &watch_dir, drivers);
        // Untraced, traced, untraced: comparing against the mean of the
        // two untraced passes cancels drift in the machine's speed.
        let mut off = Tracer::new(false, run_id);
        let before = timed_pair(inputs, work, &mut watch, &mut off, &mut tally);
        let traced = timed_pair(inputs, work, &mut watch, &mut t, &mut tally);
        let after = timed_pair(inputs, work, &mut watch, &mut off, &mut tally);
        overhead_pct = 100.0 * (2.0 * traced / (before + after) - 1.0);
    }
    t.span("bench.layers", |t| {
        pipeline::engine_layer(inputs, &work.join("pipeline"), t, &mut tally)
    });
    if let Some(server) = serve::Bench::start(inputs, &mut t, &mut tally) {
        server.slice(inputs, &mut t, &mut tally, &mut ss);
        server.stop(&mut t, &mut tally);
    }
    serve::score_texts_layer(inputs, &mut t, &mut tally);

    eprintln!("self time by layer (traced run {run_id}):");
    for (layer, secs) in t.self_time_by_layer() {
        eprintln!("  {layer:<24} {secs:>10.4} s");
    }
    eprintln!("tracing overhead: {overhead_pct:+.2} % on a pipeline iteration and watch pass");
    if let Err(e) = t.write_jsonl(spans_out) {
        tally.problems.push(format!("write spans: {e}"));
    }

    // Per-layer metrics: seconds summed over each span name, then counts
    // summed over each counter name, then the rest.
    let mut metrics: Vec<Metric> = TIMED_SPANS
        .iter()
        .map(|span| Metric(format!("{span}_s"), t.total_secs(span), "s"))
        .collect();
    metrics.extend(
        COUNTERS
            .iter()
            .map(|&(name, unit)| Metric(name.to_string(), t.counter_sum(name), unit)),
    );
    let us = |span: &str| median(&t.durations(span)) * 1e6;
    let late = sorted(&ss.late_ms);
    let open = sorted(&ss.open_us);
    metrics.extend([
        Metric("serve.p90_us".into(), percentile(&open, 0.90), "us"),
        Metric("serve.p99_us".into(), percentile(&open, 0.99), "us"),
        Metric(
            "core.engine.score_texts_us".into(),
            us("core.engine.score_texts"),
            "us",
        ),
        Metric(
            "core.engine.score_texts_batch_us".into(),
            us("core.engine.score_texts_batch"),
            "us",
        ),
        Metric("serve.gen_late_ms".into(), percentile(&late, 0.99), "ms"),
        Metric("trace.overhead_pct".into(), overhead_pct, "%"),
    ]);
    Report { tally, metrics }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workload(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, out: &Path) -> Result<Report, String> {
    let run_id = u64::from(std::process::id()) << 32 ^ args.seed;
    let work = out.join(format!("work-{}", std::process::id()));
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (inputs, setup_s) = setup_timed(args.workload, Sizes::FULL, args.seed, &work, reps)?;
    reset_peak_rss();
    let report = if args.trace {
        let spans = out.join(format!("trace-{}-{}.jsonl", args.workload.name, args.seed));
        measure_traced(&inputs, &work, run_id, &spans)
    } else {
        measure(&inputs, args.seconds, setup_s, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    Ok(report)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let out = PathBuf::from(".bench_out");
    let result = parse_args(&argv).and_then(|args| run(&args, &out));
    match result {
        Ok(report) => {
            for problem in &report.tally.problems {
                eprintln!("check failed: {problem}");
            }
            println!("{}", report.json());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The benchmark's self-test, at reduced size: every metric named in
/// `BENCHMARK.json` is printed with its unit, and a planted wrong
/// expectation makes the output check fail.
#[cfg(test)]
mod selftest {
    use super::*;
    use serde::Value;

    fn object(v: &Value) -> &serde::Map {
        v.as_object().expect("a JSON object")
    }

    /// `(name, unit)` of every metric in `BENCHMARK.json` under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Some(Value::Array(list)) = object(&bench).get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        list.iter()
            .map(|m| {
                let m = object(m);
                let field = |f: &str| m[f].as_str().expect("a string").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// `(name, unit)` of every metric in a printed result line.
    fn printed(report: &Report) -> Vec<(String, String)> {
        let line: Value = serde_json::from_str(&report.json()).expect("result line parses");
        let line = object(&line);
        let mut keys: Vec<&str> = line.keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        object(&line["metrics"])
            .iter()
            .map(|(name, m)| {
                let m = object(m);
                assert!(matches!(m["value"], Value::Float(_) | Value::Int(_)));
                (
                    name.clone(),
                    m["unit"].as_str().expect("a unit").to_string(),
                )
            })
            .collect()
    }

    fn sorted_pairs(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
        v.sort();
        v
    }

    #[test]
    fn reduced_run_prints_every_metric_and_planted_faults_fail() {
        let work = PathBuf::from(format!(".bench_out/selftest-{}", std::process::id()));
        let tiny = workload("tiny").expect("the tiny workload");
        let (mut inputs, setup_s) = setup_timed(tiny, Sizes::REDUCED, 7, &work, 1).expect("set-up");

        let report = measure(&inputs, 8.0, setup_s, &work);
        assert!(report.tally.correct(), "{:?}", report.tally.problems);
        assert!(report.tally.attempted > 0);
        assert_eq!(
            sorted_pairs(printed(&report)),
            sorted_pairs(declared("end_to_end"))
        );

        let traced = measure_traced(&inputs, &work, 1, &work.join("spans.jsonl"));
        assert!(traced.tally.correct(), "{:?}", traced.tally.problems);
        assert_eq!(
            sorted_pairs(printed(&traced)),
            sorted_pairs(declared("per_layer"))
        );

        // A flipped score bit must fail the serve check.
        inputs.single[0].bits[0] ^= 1;
        let mut tally = Tally::default();
        let mut off = Tracer::new(false, 0);
        let server = serve::Bench::start(&inputs, &mut off, &mut tally).expect("server");
        server.slice(
            &inputs,
            &mut off,
            &mut tally,
            &mut serve::ServeSamples::default(),
        );
        server.stop(&mut off, &mut tally);
        assert!(!tally.correct(), "a wrong score bit passed the serve check");
        inputs.single[0].bits[0] ^= 1;

        // A changed ranking byte must fail the watch check, whichever
        // driver runs the pass.
        let mut bytes = std::mem::take(&mut inputs.rankings).into_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        inputs.rankings = String::from_utf8(bytes).expect("ASCII rankings");
        let (corpus, classifier) = watch_docs(&inputs, &mut Tally::default()).expect("docs");
        let texts = doc_texts(&corpus);
        let dir = work.join("watch");
        let drivers = &[watch::Driver::RunWatch, watch::Driver::Direct];
        let mut watch = watch::Watch::new(&inputs, &texts, &classifier, &dir, drivers);
        for driver in drivers {
            let mut tally = Tally::default();
            watch.pass(&mut off, &mut tally, &mut watch::WatchSamples::default());
            assert_eq!(tally.failed, 0, "{driver:?}: {:?}", tally.problems);
            assert!(
                !tally.correct(),
                "a wrong ranking byte passed the {driver:?} watch check"
            );
        }

        let _ = std::fs::remove_dir_all(&work);
    }
}
