//! Document → sparse-feature pipeline.
//!
//! Mirrors the paper's preprocessing (§5.2): normalize, reduce long
//! documents with a span-sampling strategy against the max-length
//! hyperparameter, tokenize with punctuation splitting, segment into
//! WordPiece subwords (or plain words / char n-grams for the feature-space
//! ablation), extract n-grams, and hash into a fixed-dimensional space.

use crate::sparse::{merge, SparseVec};
use incite_textkit::{
    char_ngrams, fnv1a, normalize, sample_spans, tokenize, EncodeScratch, FeatureHasher,
    SpanStrategy, SplitMix64, TokenKind, WordPieceEncoder, WordPieceTrainer, WordPieceVocab,
};

/// Which token stream feeds the n-gram extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FeatureMode {
    /// Plain word unigrams + bigrams.
    Word,
    /// WordPiece subword unigrams + bigrams (the pipeline default,
    /// mirroring the paper's tokenization).
    Subword,
    /// Character 3–5-grams.
    Char,
}

/// Featurizer configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FeaturizerConfig {
    /// Max text length in characters — the Table 3 hyperparameter
    /// (128 for CTH, 512 for dox).
    pub max_len: usize,
    /// Maximum number of spans sampled per document.
    pub max_spans: usize,
    /// Long-document strategy (§5.2); random non-overlapping by default.
    pub strategy: SpanStrategy,
    /// Token stream choice.
    pub mode: FeatureMode,
    /// Feature-hash dimensionality in bits (2^bits slots).
    pub hash_bits: u32,
    /// WordPiece vocabulary size (only used in `Subword` mode).
    pub vocab_size: usize,
    /// Seed for span sampling.
    pub seed: u64,
}

impl Default for FeaturizerConfig {
    fn default() -> Self {
        FeaturizerConfig {
            max_len: 512,
            max_spans: 4,
            strategy: SpanStrategy::RandomNonOverlapping,
            mode: FeatureMode::Subword,
            hash_bits: 18,
            vocab_size: 4096,
            seed: 0x1ce_bee5,
        }
    }
}

/// The fitted token stream: the `Subword` variant *owns* its trained
/// WordPiece encoder, so "subword mode without an encoder" is
/// unrepresentable and the featurizer needs no runtime absence check.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
enum TokenStream {
    /// Plain word unigrams + bigrams.
    Word,
    /// WordPiece subwords with the vocabulary trained at fit time.
    Subword(WordPieceEncoder),
    /// Character 3–5-grams.
    Char,
}

/// A fitted featurizer. In `Subword` mode it owns a trained WordPiece
/// encoder; `Word`/`Char` modes are stateless.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Featurizer {
    config: FeaturizerConfig,
    hasher: FeatureHasher,
    stream: TokenStream,
}

impl Featurizer {
    /// Fits a featurizer. `corpus_sample` trains the WordPiece vocabulary in
    /// `Subword` mode and is ignored otherwise.
    pub fn fit<'a, I>(config: FeaturizerConfig, corpus_sample: I) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let hasher = FeatureHasher::new(config.hash_bits);
        let stream = match config.mode {
            FeatureMode::Word => TokenStream::Word,
            FeatureMode::Char => TokenStream::Char,
            FeatureMode::Subword => {
                let trainer = WordPieceTrainer::new(config.vocab_size);
                let mut words: Vec<String> = Vec::new();
                for doc in corpus_sample {
                    let norm = normalize(doc);
                    for tok in tokenize(&norm) {
                        if tok.kind != TokenKind::Punct {
                            words.push(tok.text.to_string());
                        }
                    }
                }
                TokenStream::Subword(WordPieceEncoder::new(
                    trainer.train(words.iter().map(|s| s.as_str())),
                ))
            }
        };
        Featurizer {
            config,
            hasher,
            stream,
        }
    }

    /// Configuration access.
    pub fn config(&self) -> &FeaturizerConfig {
        &self.config
    }

    /// The WordPiece vocabulary trained at fit time (`Subword` mode only).
    pub fn vocab(&self) -> Option<&WordPieceVocab> {
        match &self.stream {
            TokenStream::Subword(encoder) => Some(encoder.vocab()),
            TokenStream::Word | TokenStream::Char => None,
        }
    }

    /// Number of feature dimensions.
    pub fn dimensions(&self) -> usize {
        self.hasher.dimensions()
    }

    /// Featurizes one document. Deterministic: the span-sampling RNG is
    /// seeded from the config seed and a hash of the document.
    ///
    /// Runs the rolling-FNV n-gram path: grams are hashed straight from
    /// token byte slices, never materialized as `String`s. Byte-identical
    /// to [`Featurizer::features_legacy`] (enforced by tests).
    pub fn features(&self, text: &str) -> SparseVec {
        self.features_with(text, |span| self.span_features(span))
    }

    /// The original string-allocating featurize path, kept as the reference
    /// implementation for the rolling path's byte-identity tests and the
    /// `featurize_throughput` before/after measurement.
    pub fn features_legacy(&self, text: &str) -> SparseVec {
        self.features_with(text, |span| self.span_features_legacy(span))
    }

    /// Shared span-sampling + merge + L2 skeleton of both featurize paths.
    fn features_with(&self, text: &str, span_features: impl Fn(&str) -> SparseVec) -> SparseVec {
        let norm = normalize(text);
        let doc_hash = fnv1a(norm.as_bytes(), 0);
        let mut rng = SplitMix64::new(self.config.seed ^ doc_hash);
        let spans = sample_spans(
            &norm,
            self.config.max_len,
            self.config.max_spans,
            self.config.strategy,
            &mut rng,
        );
        let mut acc: SparseVec = Vec::new();
        for span in spans {
            let span_feats = span_features(span);
            // `merge(&[], &b)` copies `b` verbatim; taking it directly is
            // bit-identical and skips the copy for the common 1-span doc.
            acc = if acc.is_empty() {
                span_feats
            } else {
                merge(&acc, &span_feats)
            };
        }
        // L2 normalize the combined vector so documents of different span
        // counts are comparable.
        let n: f32 = acc.iter().map(|(_, v)| v * v).sum::<f32>().sqrt();
        if n > 0.0 {
            for (_, v) in &mut acc {
                *v /= n;
            }
        }
        acc
    }

    fn span_features(&self, span: &str) -> SparseVec {
        let mut pairs: Vec<(u32, f32)> = Vec::new();
        match &self.stream {
            TokenStream::Word => {
                let words: Vec<&[u8]> = tokenize(span)
                    .iter()
                    .filter(|t| t.kind != TokenKind::Punct)
                    .map(|t| t.text.as_bytes())
                    .collect();
                self.hasher.hash_ngrams_rolling(&words, &mut pairs);
            }
            TokenStream::Subword(encoder) => {
                // Piece units live as `"p{id}"` byte runs in one arena;
                // `bounds` holds the run boundaries. No per-piece String.
                let mut ids: Vec<u32> = Vec::new();
                let mut scratch = EncodeScratch::default();
                for tok in tokenize(span) {
                    if tok.kind == TokenKind::Punct {
                        continue;
                    }
                    encoder.encode_word_into(tok.text, &mut ids, &mut scratch);
                }
                let mut arena: Vec<u8> = Vec::with_capacity(ids.len() * 4);
                let mut bounds: Vec<usize> = Vec::with_capacity(ids.len() + 1);
                bounds.push(0);
                for &id in &ids {
                    arena.push(b'p');
                    push_decimal(&mut arena, id);
                    bounds.push(arena.len());
                }
                let units: Vec<&[u8]> = bounds.windows(2).map(|w| &arena[w[0]..w[1]]).collect();
                self.hasher.hash_ngrams_rolling(&units, &mut pairs);
            }
            TokenStream::Char => {
                self.hasher.hash_char_ngrams_rolling(span, 3, 5, &mut pairs);
            }
        }
        self.hasher.finalize_hashed(pairs, false)
    }

    fn span_features_legacy(&self, span: &str) -> SparseVec {
        let mut grams: Vec<String> = Vec::new();
        match &self.stream {
            TokenStream::Word => {
                let words: Vec<String> = tokenize(span)
                    .into_iter()
                    .filter(|t| t.kind != TokenKind::Punct)
                    .map(|t| t.text.to_string())
                    .collect();
                push_ngrams(&mut grams, &words);
            }
            TokenStream::Subword(encoder) => {
                let mut pieces: Vec<String> = Vec::new();
                for tok in tokenize(span) {
                    if tok.kind == TokenKind::Punct {
                        continue;
                    }
                    for id in encoder.encode_word(tok.text) {
                        pieces.push(format!("p{id}"));
                    }
                }
                push_ngrams(&mut grams, &pieces);
            }
            TokenStream::Char => {
                for n in 3..=5 {
                    for g in char_ngrams(span, n) {
                        grams.push(format!("c{n}|{g}"));
                    }
                }
            }
        }
        self.hasher
            .hash_features(grams.iter().map(|s| s.as_str()), false)
    }
}

fn push_ngrams(grams: &mut Vec<String>, units: &[String]) {
    for u in units {
        grams.push(format!("1|{u}"));
    }
    for w in units.windows(2) {
        grams.push(format!("2|{} {}", w[0], w[1]));
    }
}

/// Appends the decimal digits of `v`, matching `format!("{v}")`.
fn push_decimal(buf: &mut Vec<u8>, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus() -> Vec<&'static str> {
        vec![
            "we need to report him to the platform",
            "lets mass flag her account",
            "post his address and phone number",
            "raid the stream tonight",
        ]
    }

    fn fit(mode: FeatureMode) -> Featurizer {
        let config = FeaturizerConfig {
            mode,
            hash_bits: 14,
            vocab_size: 512,
            ..Default::default()
        };
        Featurizer::fit(config, sample_corpus())
    }

    #[test]
    fn features_are_deterministic() {
        let f = fit(FeatureMode::Subword);
        let text = "we need to report him right now, spread the word";
        assert_eq!(f.features(text), f.features(text));
    }

    #[test]
    fn features_are_l2_normalized() {
        let f = fit(FeatureMode::Word);
        let v = f.features("report report report flag flag");
        let norm: f32 = v.iter().map(|(_, x)| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn different_documents_differ() {
        let f = fit(FeatureMode::Word);
        assert_ne!(f.features("report him"), f.features("ignore her"));
    }

    #[test]
    fn empty_document_is_empty_vector() {
        for mode in [FeatureMode::Word, FeatureMode::Subword, FeatureMode::Char] {
            let f = fit(mode);
            assert!(f.features("").is_empty(), "{mode:?}");
            assert!(f.features("   \n\t ").is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn indices_within_dimensions() {
        let f = fit(FeatureMode::Char);
        let v = f.features("mass flagging campaign against the account");
        assert!(!v.is_empty());
        for (i, _) in v {
            assert!((i as usize) < f.dimensions());
        }
    }

    #[test]
    fn long_documents_are_reduced_not_dropped() {
        let f = fit(FeatureMode::Word);
        let long = "we need to report him ".repeat(500);
        let v = f.features(&long);
        assert!(!v.is_empty());
    }

    #[test]
    fn case_is_normalized_away() {
        let f = fit(FeatureMode::Word);
        assert_eq!(f.features("REPORT Him"), f.features("report him"));
    }

    #[test]
    fn subword_mode_generalizes_to_unseen_forms() {
        let f = fit(FeatureMode::Subword);
        // "reporting" unseen; shares subword pieces with "report".
        let a = f.features("reporting");
        assert!(!a.is_empty());
    }

    #[test]
    fn rolling_path_is_byte_identical_to_legacy() {
        let docs = [
            "we need to report him to the platform",
            "lets mass flag her account right now, spread the word",
            "post his address and phone number: 555-0147 — dox incoming",
            "RAID the stream tonight!!! bring everyone",
            "报告 この アカウント héllo wörld",
            "",
            "   \n\t ",
            "a",
            "short",
        ];
        let long = "we need to report him right now ".repeat(300);
        for mode in [FeatureMode::Word, FeatureMode::Subword, FeatureMode::Char] {
            let f = fit(mode);
            for doc in docs.iter().copied().chain(std::iter::once(long.as_str())) {
                let rolling = f.features(doc);
                let legacy = f.features_legacy(doc);
                assert_eq!(rolling.len(), legacy.len(), "{mode:?}: {doc:?}");
                for (r, l) in rolling.iter().zip(legacy.iter()) {
                    assert_eq!(r.0, l.0, "{mode:?}: {doc:?}");
                    assert_eq!(r.1.to_bits(), l.1.to_bits(), "{mode:?}: {doc:?}");
                }
            }
        }
    }
}
