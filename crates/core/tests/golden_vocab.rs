//! Golden pins for the subword vocabulary each pipeline task fits, and
//! for the outcome it leads to, on the tiny corpus.
//!
//! Every other outcome digest in the workspace (the perfbench reference
//! digests, `checkpoint_overhead`'s `outcome_identical`) is computed by
//! the same binary it checks, so a WordPiece trainer whose merges drifted
//! would agree with itself there. These constants were computed with the
//! original per-merge-recount trainer; any trainer must reproduce them
//! piece for piece and bit for bit.

use incite_core::{clear_run_dir, load_latest_classifier, run_pipeline_resumable};
use incite_core::{PipelineConfig, Task};
use incite_corpus::{generate, CorpusConfig};
use incite_textkit::fnv1a;

/// (task, vocabulary length, piece-list hash, outcome digest).
const GOLDEN: [(Task, usize, u64, u64); 2] = [
    (Task::Cth, 301, 0x4ad1_b0f2_473f_fd55, 0x2308_dc4c_1b59_cd43),
    (
        Task::Dox,
        1214,
        0xcf29_e904_9e71_de00,
        0x518a_1265_5dce_e387,
    ),
];

/// FNV-1a over the pieces in id order, each followed by a NUL byte.
fn piece_list_hash<'a>(pieces: impl Iterator<Item = &'a str>) -> u64 {
    let mut bytes = Vec::new();
    for piece in pieces {
        bytes.extend_from_slice(piece.as_bytes());
        bytes.push(0);
    }
    fnv1a(&bytes, 0)
}

#[test]
fn tiny_corpus_vocabularies_and_digests_are_pinned() {
    let corpus = generate(&CorpusConfig::tiny(3));
    let config = PipelineConfig {
        threads: 2,
        ..PipelineConfig::default()
    };
    let mut got = Vec::new();
    for (task, ..) in GOLDEN {
        let dir = std::env::temp_dir().join(format!(
            "incite-golden-vocab-{}-{}",
            task.slug(),
            std::process::id()
        ));
        clear_run_dir(&dir).expect("clean run dir");
        let outcome = run_pipeline_resumable(&corpus, task, &config, &dir).expect("pipeline");
        let classifier = load_latest_classifier(&dir).expect("model");
        clear_run_dir(&dir).ok();
        std::fs::remove_dir(&dir).ok();
        let vocab = classifier
            .featurizer()
            .vocab()
            .expect("the default pipeline fits a subword vocabulary");
        got.push((
            task,
            vocab.len(),
            piece_list_hash(vocab.iter()),
            outcome.digest(),
        ));
    }
    assert_eq!(got, GOLDEN);
}
