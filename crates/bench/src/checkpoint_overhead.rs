//! The `checkpoint_overhead` experiment: plain pipeline vs the
//! checkpointed, crash-recoverable pipeline.
//!
//! [`incite_core::run_pipeline_resumable`] persists a verified snapshot at
//! every step boundary (DESIGN.md §12): the RNG words, annotation ledger,
//! model weights, thresholds and engine stats, each written atomically with
//! an FNV-64 integrity footer and recorded in the run manifest. This
//! experiment times both entry points on the same corpus and
//! configuration in interleaved pairs, gates on the median of the
//! per-pair overhead ratios, checks the two outcomes are byte-identical
//! (`PartialEq` plus [`incite_core::PipelineOutcome::digest`]), and emits a single
//! machine-readable `BENCH {...}` line that CI greps for
//! `"overhead_ok":true` — the acceptance bar is checkpointing costing
//! under 10 % of wall-clock on quick corpora.

use crate::context::ReproContext;
use incite_core::checkpoint::{Manifest, MANIFEST_FILE};
use incite_core::{clear_run_dir, run_pipeline, run_pipeline_resumable, Task};
use incite_stats::descriptive::median;
use std::fmt::Write as _;
use std::time::Instant;

/// The machine-readable payload printed as the `BENCH {...}` line.
#[derive(serde::Serialize)]
struct BenchReport {
    experiment: &'static str,
    task: &'static str,
    docs: usize,
    steps_checkpointed: usize,
    pairs: usize,
    plain_secs: f64,
    resumable_secs: f64,
    overhead_frac: f64,
    overhead_ok: bool,
    outcome_identical: bool,
}

/// Wall-clock fraction the checkpoint funnel may add (ISSUE acceptance
/// criterion: < 10 % on quick corpora).
const OVERHEAD_BUDGET: f64 = 0.10;

/// Minimum corpus size for the overhead measurement; below this the
/// wall-clock is fixed-latency-bound and the ratio is noise.
const MIN_MEASUREMENT_DOCS: usize = 20_000;

/// Interleaved plain/resumable pairs. Each pair runs both paths back to
/// back (alternating which goes first), so a slow stretch of the host
/// slows both halves of a pair alike; the gate is the median of the
/// per-pair overhead ratios, which one noisy pair cannot move. An odd
/// count keeps the median a measured pair.
const PAIRS: usize = 41;

/// Number of steps the finished run recorded, read from the manifest
/// (core snapshots are embedded there; there is no per-step state file).
fn manifest_steps(run_dir: &std::path::Path) -> Option<usize> {
    let payload =
        incite_core::checkpoint::atomic_io::read_hashed(&run_dir.join(MANIFEST_FILE)).ok()?;
    let text = String::from_utf8(payload).ok()?;
    let manifest: Manifest = serde_json::from_str(&text).ok()?;
    Some(manifest.steps.len())
}

pub fn run(ctx: &mut ReproContext) -> String {
    let mut s = String::from(
        "\n================ checkpoint_overhead — resumable pipeline tax ================\n",
    );
    let task = Task::Dox;
    // The acceptance criterion is phrased against quick corpora: the
    // `quick` pipeline configuration on a corpus large enough that the
    // measurement reflects checkpoint design rather than fixed per-file
    // filesystem latency. A tiny corpus finishes in tens of
    // milliseconds, where the ~10 atomic renames of a run dominate any
    // conceivable checkpoint implementation; floor the corpus at small
    // scale so the ratio is meaningful.
    let config = incite_core::PipelineConfig::quick(1);
    let generated;
    let corpus = if ctx.corpus.len() >= MIN_MEASUREMENT_DOCS {
        &ctx.corpus
    } else {
        generated = incite_corpus::generate(&incite_corpus::CorpusConfig::small(1404));
        &generated
    };
    let run_dir = std::env::temp_dir().join(format!("incite-bench-ckpt-{}", std::process::id()));

    // Plain path: the in-memory pipeline, no persistence at all.
    // Resumable path: a fresh run directory each time, so every run pays
    // the full cost of writing (never reading) each checkpoint. One
    // untimed plain run first warms the allocator and page cache.
    let _ = run_pipeline(corpus, task, &config);
    let mut plain_times = Vec::with_capacity(PAIRS);
    let mut resumable_times = Vec::with_capacity(PAIRS);
    let mut ratios = Vec::with_capacity(PAIRS);
    let mut plain_outcome = None;
    let mut resumable_outcome = None;
    let mut steps = 0;
    for pair in 0..PAIRS {
        if clear_run_dir(&run_dir).is_err() {
            s.push_str("checkpoint_overhead: cannot clear bench run dir; skipping\n");
            return s;
        }
        let mut plain_secs = 0.0;
        let mut resumable_secs = 0.0;
        for leg in 0..2 {
            let start = Instant::now();
            if (pair + leg) % 2 == 0 {
                plain_outcome = run_pipeline(corpus, task, &config).ok();
                plain_secs = start.elapsed().as_secs_f64();
            } else {
                resumable_outcome = run_pipeline_resumable(corpus, task, &config, &run_dir).ok();
                resumable_secs = start.elapsed().as_secs_f64();
            }
        }
        steps = manifest_steps(&run_dir).unwrap_or(0);
        plain_times.push(plain_secs);
        resumable_times.push(resumable_secs);
        ratios.push(resumable_secs / plain_secs.max(1e-9) - 1.0);
    }
    clear_run_dir(&run_dir).ok();
    std::fs::remove_dir(&run_dir).ok();
    let plain_secs = median(&plain_times);
    let resumable_secs = median(&resumable_times);

    let (Some(plain), Some(resumable)) = (plain_outcome, resumable_outcome) else {
        s.push_str("checkpoint_overhead: a pipeline run failed; no BENCH line\n");
        return s;
    };

    // The determinism contract (DESIGN.md §12): checkpointing must not
    // perturb the outcome by a single byte.
    let outcome_identical = plain == resumable && plain.digest() == resumable.digest();
    let overhead_frac = median(&ratios).max(0.0);

    let _ = writeln!(
        s,
        "documents: {} | task: {} | checkpointed steps: {steps} | pairs: {PAIRS} (interleaved, medians)",
        corpus.len(),
        task.slug(),
    );
    let _ = writeln!(s, "plain pipeline     : {plain_secs:>8.3}s");
    let _ = writeln!(s, "resumable pipeline : {resumable_secs:>8.3}s");
    let _ = writeln!(
        s,
        "checkpoint overhead: {:.1}% (median per-pair ratio; budget {:.0}%) | outcome identical: {outcome_identical} | digest {:016x}",
        100.0 * overhead_frac,
        100.0 * OVERHEAD_BUDGET,
        resumable.digest(),
    );

    let bench = BenchReport {
        experiment: "checkpoint_overhead",
        task: task.slug(),
        docs: corpus.len(),
        steps_checkpointed: steps,
        pairs: PAIRS,
        plain_secs,
        resumable_secs,
        overhead_frac,
        overhead_ok: overhead_frac < OVERHEAD_BUDGET,
        outcome_identical,
    };
    match serde_json::to_string(&bench) {
        Ok(line) => {
            let _ = writeln!(s, "BENCH {line}");
        }
        Err(err) => {
            let _ = writeln!(s, "BENCH serialization failed: {err}");
        }
    }
    s
}
