//! The paper path: decode the corpus, run both checkpointed pipelines,
//! re-open the finished run directories, characterise the annotated sets.

use crate::inputs::{pipeline_config, Inputs, THREADS};
use crate::trace::Tracer;
use crate::{dir_size, Tally};
use incite_analysis::{attack_types, gender, harm_risk, pii_tables, repeats};
use incite_core::attack_classifier::default_featurizer;
use incite_core::{
    load_latest_classifier, run_pipeline_resumable, AttackTypeClassifier, PipelineOutcome,
    ScoringEngine, Task,
};
use incite_corpus::jsonl::read_jsonl_quarantine;
use incite_corpus::{Corpus, CorpusConfig, DocId, Document};
use incite_ml::TrainConfig;
use incite_pii::PiiExtractor;
use incite_taxonomy::Platform;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;

fn select<'a>(
    corpus: &'a Corpus,
    ids: &[DocId],
    keep: impl Fn(&Document) -> bool,
) -> Vec<&'a Document> {
    let ids: BTreeSet<DocId> = ids.iter().copied().collect();
    corpus
        .documents
        .iter()
        .filter(|d| ids.contains(&d.id) && keep(d))
        .collect()
}

/// Runs one task fresh into `dir`, then re-opens the finished directory.
/// Both outcomes must carry the in-memory reference digest.
fn task_run(
    corpus: &Corpus,
    task: Task,
    expected: u64,
    dir: &Path,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Option<PipelineOutcome> {
    let config = pipeline_config();
    let span = match task {
        Task::Cth => "core.pipeline.cth",
        Task::Dox => "core.pipeline.dox",
    };
    let fresh = t.span(span, |_| run_pipeline_resumable(corpus, task, &config, dir));
    let outcome = tally.op(task.slug(), fresh)?;
    t.count("core.engine.nnz", outcome.engine.nnz as f64);
    t.count(
        "core.engine.featurize_passes",
        outcome.engine.featurize_passes as f64,
    );
    t.count(
        "core.engine.score_passes",
        outcome.engine.score_passes as f64,
    );
    t.count(
        "core.active_learning.crowd_annotations",
        outcome.counts.crowd_annotations as f64,
    );
    tally.check(outcome.digest() == expected, || {
        format!(
            "{} outcome digest differs from the in-memory run",
            task.slug()
        )
    });
    tally.check(outcome.engine.featurize_passes == 1, || {
        format!("{} featurized the corpus more than once", task.slug())
    });

    let reopened = t.span("core.checkpoint.reopen", |_| {
        run_pipeline_resumable(corpus, task, &config, dir)
    });
    if let Some(r) = tally.op("re-open run dir", reopened) {
        tally.check(r.digest() == expected, || {
            format!("re-opened {} run dir gives another digest", task.slug())
        });
    }
    if t.enabled() {
        let (bytes, files) = dir_size(dir);
        t.count("core.checkpoint.bytes", bytes as f64);
        t.count("core.checkpoint.files", files as f64);
    }
    Some(outcome)
}

/// The §6/§7 characterisation of the expert-confirmed sets.
fn characterise(corpus: &Corpus, cth: &PipelineOutcome, dox: &PipelineOutcome, t: &mut Tracer) {
    let cth_docs = select(corpus, &cth.annotated_positive_ids(), |_| true);
    let dox_docs = select(corpus, &dox.annotated_positive_ids(), |d| {
        d.platform != Platform::Blogs
    });
    t.count("analysis.docs", (cth_docs.len() + dox_docs.len()) as f64);
    let extractor = PiiExtractor::new();
    black_box(t.span("analysis.pii_tables", |_| {
        pii_tables::tabulate_pii(&extractor, &dox_docs)
    }));
    black_box(t.span("analysis.harm_risk", |_| {
        harm_risk::figure2(&extractor, &dox_docs)
    }));
    black_box(t.span("analysis.repeats", |_| {
        repeats::repeated_doxes(&extractor, &dox_docs)
    }));
    black_box(t.span("analysis.attack_types", |_| {
        attack_types::tabulate(&cth_docs)
    }));
    black_box(t.span("analysis.gender", |_| gender::tabulate_by_gender(&cth_docs)));
    let labeled: Vec<_> = cth_docs
        .iter()
        .map(|d| (d.text.clone(), d.truth.labels))
        .collect();
    black_box(t.span("core.attack_classifier.train", |_| {
        AttackTypeClassifier::train(&labeled, default_featurizer(), TrainConfig::default())
    }));
}

/// Removes the run directories a previous [`iteration`] left in `dir`.
pub fn clear(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// One pipeline iteration into `dir`, which [`clear`] has emptied: the
/// iteration leaves the two run directories there.
pub fn iteration(inputs: &Inputs, dir: &Path, t: &mut Tracer, tally: &mut Tally) {
    t.span("bench.pipeline", |t| {
        let decoded = t.span("corpus.decode", |_| {
            read_jsonl_quarantine(inputs.corpus_jsonl.as_slice())
        });
        let Some((documents, quarantine)) = tally.op("decode corpus", decoded) else {
            return;
        };
        t.count("corpus.docs", documents.len() as f64);
        t.count("corpus.quarantined", quarantine.quarantined() as f64);
        tally.check(quarantine.quarantined() == 0, || {
            "corpus decode quarantined records".to_string()
        });
        let corpus = Corpus {
            documents,
            config: CorpusConfig::default(),
        };
        let [cth_digest, dox_digest] = inputs.pipeline_digests;
        let cth = task_run(&corpus, Task::Cth, cth_digest, &dir.join("cth"), t, tally);
        let dox = task_run(&corpus, Task::Dox, dox_digest, &dir.join("dox"), t, tally);
        if let (Some(cth), Some(dox)) = (cth, dox) {
            tally.attempted += 1;
            characterise(&corpus, &cth, &dox, t);
        }
    });
}

/// Traced run only: one `ScoringEngine::build` and one `score_all` over the
/// decoded corpus with the CTH run's final model, so the engine's two
/// kernels get spans of their own (the pipeline calls them internally).
/// `dir` is the directory the last [`iteration`] left behind.
pub fn engine_layer(inputs: &Inputs, dir: &Path, t: &mut Tracer, tally: &mut Tally) {
    let Some(classifier) = tally.op("load CTH model", load_latest_classifier(&dir.join("cth")))
    else {
        return;
    };
    let decoded = read_jsonl_quarantine(inputs.corpus_jsonl.as_slice());
    let Some((documents, _)) = tally.op("decode corpus", decoded) else {
        return;
    };
    let docs: Vec<&Document> = documents.iter().collect();
    let built = t.span("core.engine.build", |_| {
        ScoringEngine::build(classifier.featurizer(), &docs, THREADS)
    });
    let Some(mut engine) = tally.op("engine build", built) else {
        return;
    };
    let scored = t.span("core.engine.score_all", |_| {
        engine.score_all(classifier.model(), THREADS)
    });
    if let Some(scores) = tally.op("engine score_all", scored) {
        let offline = docs.iter().map(|d| classifier.score(&d.text).to_bits());
        let served = scores.iter().map(|s| s.1.to_bits());
        tally.check(offline.eq(served), || {
            "engine scores differ from classifier.score".to_string()
        });
    }
}
