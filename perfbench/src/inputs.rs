//! Set-up: everything the timed run needs, generated from the seed.
//!
//! The program under test receives only bytes made here — the corpus as
//! JSONL, the event stream as `incite-events-v1` JSONL and HTTP request
//! bodies — plus the quick run directory the classifier is loaded from.
//! The expected outputs (pipeline digests, rankings, score bits) are
//! computed here too, by paths independent of the ones the run times.

use incite_core::{
    load_latest_classifier, run_pipeline, run_pipeline_resumable, PipelineConfig, Task,
};
use incite_corpus::jsonl::write_jsonl;
use incite_corpus::{generate, Corpus, CorpusConfig};
use incite_ml::TextClassifier;
use incite_stream::{run_watch, simulate, RankerConfig, SimConfig, WatchConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Threads for every parallel step in the program under test.
pub const THREADS: usize = 2;

/// Documents per batch request in the batch phase.
pub const BATCH_DOCS: usize = 32;

/// One workload: a corpus preset of the repository. Every workload runs
/// all three user-facing paths on inputs generated from that preset.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub corpus: fn(u64) -> CorpusConfig,
}

pub const WORKLOADS: [Workload; 2] = [
    // The integration-test preset: 1/10 000 of the paper's volume with
    // positives at 10 % of its annotated counts, which keeps the
    // paper-scale default's share of positives (~59k documents).
    Workload {
        name: "small",
        corpus: CorpusConfig::small,
    },
    // The CI smoke preset: 1/100 000 of the volume (~6k documents), where
    // the per-run fixed costs (active-learning rounds, checkpoint writes,
    // model loads) weigh more than the per-document ones.
    Workload {
        name: "tiny",
        corpus: CorpusConfig::tiny,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Sizes of the inputs made beside the corpus; [`Sizes::FULL`] is the
/// benchmark, [`Sizes::REDUCED`] the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Documents of the corpus the event stream is simulated over: every
    /// n-th document, so the stream keeps the corpus mix. The ranker's
    /// state (and so each checkpoint) grows with the actors they bring.
    pub stream_docs: usize,
    /// Epochs of 256 events in the event stream, at most: a corpus too
    /// small for this many gives its whole stream.
    pub stream_epochs: usize,
    /// Distinct single-document request bodies.
    pub single_bodies: usize,
    /// Distinct batch request bodies.
    pub batch_bodies: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        stream_docs: 10_000,
        stream_epochs: 105,
        single_bodies: 4096,
        batch_bodies: 256,
    };
    pub const REDUCED: Sizes = Sizes {
        stream_docs: 2_000,
        stream_epochs: 12,
        single_bodies: 64,
        batch_bodies: 8,
    };
}

/// The paper's pipeline configuration, on [`THREADS`] threads.
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        threads: THREADS,
        ..PipelineConfig::default()
    }
}

/// The shipped ranker configuration (`epoch_len` 256), on [`THREADS`].
pub fn ranker_config() -> RankerConfig {
    RankerConfig {
        threads: THREADS,
        ..RankerConfig::default()
    }
}

/// One HTTP request body and the score bits the response must carry.
pub struct Request {
    pub body: String,
    pub texts: Vec<String>,
    pub bits: Vec<u32>,
}

pub struct Inputs {
    pub corpus_jsonl: Vec<u8>,
    /// In-memory `run_pipeline` outcome digests, CTH then dox.
    pub pipeline_digests: [u64; 2],
    pub events: Vec<u8>,
    /// Quick CTH run directory: the classifier for watch and serve.
    pub model_dir: PathBuf,
    /// Rankings of an uncheckpointed `run_watch` over the whole stream.
    pub rankings: String,
    pub single: Vec<Request>,
    pub batch: Vec<Request>,
}

/// SplitMix64: the request sampler's only randomness.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn request(classifier: &TextClassifier, texts: Vec<String>) -> Request {
    let body = if texts.len() == 1 {
        format!("{{\"text\": {}}}", json_string(&texts[0]))
    } else {
        let items: Vec<String> = texts.iter().map(|t| json_string(t)).collect();
        format!("{{\"texts\": [{}]}}", items.join(", "))
    };
    let bits = texts
        .iter()
        .map(|t| classifier.score(t).to_bits())
        .collect();
    Request { body, texts, bits }
}

/// `doc id → text` for every document, as the watch loop takes it.
pub fn doc_texts(corpus: &Corpus) -> BTreeMap<u64, &str> {
    corpus
        .documents
        .iter()
        .map(|d| (d.id.0, d.text.as_str()))
        .collect()
}

/// Generates every input for `workload` from `seed`. `work` is a fresh
/// directory for the quick run directory.
pub fn setup(workload: Workload, sizes: Sizes, seed: u64, work: &Path) -> Result<Inputs, String> {
    let corpus = generate(&(workload.corpus)(seed));
    let mut corpus_jsonl = Vec::new();
    write_jsonl(&mut corpus_jsonl, &corpus.documents).map_err(|e| format!("encode corpus: {e}"))?;

    let config = pipeline_config();
    let mut pipeline_digests = [0u64; 2];
    for (slot, task) in [Task::Cth, Task::Dox].into_iter().enumerate() {
        let outcome = run_pipeline(&corpus, task, &config)
            .map_err(|e| format!("reference {} pipeline: {e}", task.slug()))?;
        pipeline_digests[slot] = outcome.digest();
    }

    let model_dir = work.join("model-run");
    let quick = PipelineConfig {
        threads: THREADS,
        ..PipelineConfig::quick(seed)
    };
    run_pipeline_resumable(&corpus, Task::Cth, &quick, &model_dir)
        .map_err(|e| format!("quick run dir: {e}"))?;
    let classifier = load_latest_classifier(&model_dir).map_err(|e| format!("load model: {e}"))?;

    let step = corpus.documents.len().div_ceil(sizes.stream_docs).max(1);
    let stream_corpus = Corpus {
        documents: corpus.documents.iter().step_by(step).cloned().collect(),
        config: corpus.config.clone(),
    };
    let stream = simulate(
        &stream_corpus,
        &SimConfig {
            seed,
            max_events: sizes.stream_epochs * ranker_config().epoch_len,
            ..SimConfig::default()
        },
    );
    let events = stream.encode().map_err(|e| format!("encode events: {e}"))?;
    let watch = WatchConfig {
        ranker: ranker_config(),
        ..WatchConfig::default()
    };
    let rankings = run_watch(&stream, &doc_texts(&corpus), &classifier, &watch)
        .map_err(|e| format!("reference watch: {e}"))?
        .rankings;

    let mut rng = SplitMix::new(seed ^ 0x5e4e_e5ee_d000_0001);
    let n = corpus.documents.len();
    let mut pick = |k: usize| -> Vec<String> {
        (0..k)
            .map(|_| corpus.documents[rng.below(n)].text.clone())
            .collect()
    };
    let single = (0..sizes.single_bodies)
        .map(|_| request(&classifier, pick(1)))
        .collect();
    let batch = (0..sizes.batch_bodies)
        .map(|_| request(&classifier, pick(BATCH_DOCS)))
        .collect();

    Ok(Inputs {
        corpus_jsonl,
        pipeline_digests,
        events,
        model_dir,
        rankings,
        single,
        batch,
    })
}
