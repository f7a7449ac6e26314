//! The `featurize_throughput` experiment: rolling n-gram hashing vs the
//! legacy per-gram string path.
//!
//! `Featurizer::features` hashes every n-gram incrementally with
//! [`incite_textkit::RollingSlot`] — no per-gram string assembly — while
//! `features_legacy` keeps the original formatted-string path as the
//! differential reference. This experiment times both over the repro
//! corpus for every feature mode, verifies the sparse vectors are
//! byte-identical per document (index equality and `f32::to_bits` value
//! equality), and emits a `BENCH {...}` line for CI.
//!
//! The line also carries the fit kernel: `fit_words_per_sec` is a subword
//! [`Featurizer::fit`] (WordPiece training) over every text of the
//! corpus, the median of [`FIT_RUNS`] timed runs.

use crate::context::ReproContext;
use incite_ml::{FeatureMode, Featurizer, FeaturizerConfig};
use incite_stats::descriptive::median;
use incite_textkit::{normalize, tokenize, TokenKind};
use std::fmt::Write as _;
use std::time::Instant;

/// The machine-readable payload printed as the `BENCH {...}` line.
#[derive(serde::Serialize)]
struct BenchReport {
    experiment: &'static str,
    docs: usize,
    modes: usize,
    legacy_docs_per_sec: f64,
    rolling_docs_per_sec: f64,
    speedup: f64,
    speedup_ok: bool,
    byte_identical: bool,
    fit_words: usize,
    fit_words_per_sec: f64,
}

/// Timed subword fits; the reported rate is their median.
const FIT_RUNS: usize = 5;

/// Median-of-[`FIT_RUNS`] wall seconds of a subword fit over `texts`.
fn fit_secs(texts: &[&str]) -> f64 {
    let config = FeaturizerConfig {
        mode: FeatureMode::Subword,
        ..FeaturizerConfig::default()
    };
    let secs: Vec<f64> = (0..FIT_RUNS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(Featurizer::fit(config.clone(), texts.iter().copied()));
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

pub fn run(ctx: &mut ReproContext) -> String {
    let mut s = String::from(
        "\n================ featurize_throughput — rolling n-gram hashing ================\n",
    );
    let texts: Vec<&str> = ctx
        .corpus
        .documents
        .iter()
        .map(|d| d.text.as_str())
        .collect();

    let mut legacy_elapsed = 0.0f64;
    let mut rolling_elapsed = 0.0f64;
    let mut byte_identical = true;
    let mut modes = 0usize;
    for mode in [FeatureMode::Word, FeatureMode::Subword, FeatureMode::Char] {
        modes += 1;
        let featurizer = Featurizer::fit(
            FeaturizerConfig {
                mode,
                ..FeaturizerConfig::default()
            },
            texts.iter().take(512).copied(),
        );

        let start = Instant::now();
        let legacy: Vec<_> = texts
            .iter()
            .map(|t| featurizer.features_legacy(t))
            .collect();
        let mode_legacy = start.elapsed().as_secs_f64();
        legacy_elapsed += mode_legacy;

        let start = Instant::now();
        let rolling: Vec<_> = texts.iter().map(|t| featurizer.features(t)).collect();
        let mode_rolling = start.elapsed().as_secs_f64();
        rolling_elapsed += mode_rolling;

        // The equivalence contract: identical indices, bit-identical values,
        // for every document in the corpus.
        let identical = legacy.iter().zip(&rolling).all(|(a, b)| {
            a.len() == b.len()
                && a.iter()
                    .zip(b.iter())
                    .all(|((i, x), (j, y))| i == j && x.to_bits() == y.to_bits())
        });
        byte_identical &= identical;

        let _ = writeln!(
            s,
            "{mode:?}: legacy {:>9.1} docs/sec | rolling {:>9.1} docs/sec | {:.2}x | byte-identical: {identical}",
            texts.len() as f64 / mode_legacy.max(1e-9),
            texts.len() as f64 / mode_rolling.max(1e-9),
            mode_legacy / mode_rolling.max(1e-9),
        );
    }

    let work = (texts.len() * modes) as f64;
    let legacy_rate = work / legacy_elapsed.max(1e-9);
    let rolling_rate = work / rolling_elapsed.max(1e-9);
    let speedup = legacy_elapsed / rolling_elapsed.max(1e-9);
    let _ = writeln!(
        s,
        "all modes: {legacy_rate:.1} -> {rolling_rate:.1} docs/sec | speedup: {speedup:.2}x | byte-identical: {byte_identical}"
    );

    // The words a subword fit trains on: the non-punctuation tokens of
    // every normalized text.
    let fit_words: usize = texts
        .iter()
        .map(|t| {
            tokenize(&normalize(t))
                .iter()
                .filter(|tok| tok.kind != TokenKind::Punct)
                .count()
        })
        .sum();
    let fit_rate = fit_words as f64 / fit_secs(&texts).max(1e-9);
    let _ = writeln!(
        s,
        "subword fit: {fit_words} words | {fit_rate:.1} words/sec (median of {FIT_RUNS})"
    );

    let bench = BenchReport {
        experiment: "featurize_throughput",
        docs: texts.len(),
        modes,
        legacy_docs_per_sec: legacy_rate,
        rolling_docs_per_sec: rolling_rate,
        speedup,
        speedup_ok: speedup >= 1.0,
        byte_identical,
        fit_words,
        fit_words_per_sec: fit_rate,
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
