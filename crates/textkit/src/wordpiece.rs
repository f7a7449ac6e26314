//! Trainable WordPiece-style subword segmentation.
//!
//! DistilBERT's tokenizer segments each word into subword units from a fixed
//! vocabulary, using greedy longest-match-first with `##`-prefixed
//! continuation pieces and an `[UNK]` fallback. This module provides:
//!
//! * [`WordPieceTrainer`] — learns a vocabulary from a corpus by iterative
//!   pair merging (BPE-style frequency merges, which is the practical
//!   procedure behind WordPiece vocabularies);
//! * [`WordPieceVocab`] — the learned vocabulary;
//! * [`WordPieceEncoder`] — greedy longest-match encoding of words into
//!   subword ids.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

/// Id of the unknown token, always present at index 0.
pub const UNK_ID: u32 = 0;
/// Text of the unknown token.
pub const UNK_TOKEN: &str = "[UNK]";

/// A learned subword vocabulary.
///
/// Pieces that begin a word are stored verbatim; continuation pieces carry
/// the `##` prefix, exactly as in BERT vocabularies.
///
/// Serializes as its piece list; the id index is rebuilt on load.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
#[serde(from = "Vec<String>", into = "Vec<String>")]
pub struct WordPieceVocab {
    pieces: Vec<String>,
    index: HashMap<String, u32>,
    /// Continuation pieces indexed by their text *without* the `##`
    /// prefix, so the encoder can look up a candidate as a plain slice of
    /// the word instead of assembling a `##`-prefixed string per probe.
    /// Derived from `index`; rebuilt on deserialize like it.
    continuations: HashMap<String, u32>,
}

impl WordPieceVocab {
    /// Builds a vocabulary from a piece list. `[UNK]` is inserted at id 0 if
    /// absent. Duplicate pieces keep their first id.
    pub fn from_pieces<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut pieces = Vec::new();
        let mut index = HashMap::new();
        let mut continuations = HashMap::new();
        index.insert(UNK_TOKEN.to_string(), UNK_ID);
        pieces.push(UNK_TOKEN.to_string());
        for piece in iter {
            if piece == UNK_TOKEN {
                continue;
            }
            if !index.contains_key(&piece) {
                let id = pieces.len() as u32;
                if let Some(core) = piece.strip_prefix("##") {
                    continuations.insert(core.to_string(), id);
                }
                index.insert(piece.clone(), id);
                pieces.push(piece);
            }
        }
        WordPieceVocab {
            pieces,
            index,
            continuations,
        }
    }

    /// Number of pieces, including `[UNK]`.
    pub fn len(&self) -> usize {
        self.pieces.len()
    }

    /// Whether only `[UNK]` is present.
    pub fn is_empty(&self) -> bool {
        self.pieces.len() <= 1
    }

    /// Looks up a piece id.
    pub fn id(&self, piece: &str) -> Option<u32> {
        self.index.get(piece).copied()
    }

    /// Looks up a continuation piece by its text without the `##` prefix:
    /// `id_continuation("port") == id("##port")`, with no string assembly
    /// on the caller's side.
    pub fn id_continuation(&self, core: &str) -> Option<u32> {
        self.continuations.get(core).copied()
    }

    /// Looks up the piece text for an id.
    pub fn piece(&self, id: u32) -> Option<&str> {
        self.pieces.get(id as usize).map(|s| s.as_str())
    }

    /// Iterates all pieces.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.pieces.iter().map(|s| s.as_str())
    }
}

/// Learns a WordPiece vocabulary by frequency-based pair merging.
#[derive(Debug, Clone)]
pub struct WordPieceTrainer {
    /// Target vocabulary size (including `[UNK]` and single characters).
    pub vocab_size: usize,
    /// Minimum frequency for a merge to be performed.
    pub min_pair_frequency: usize,
}

impl Default for WordPieceTrainer {
    fn default() -> Self {
        WordPieceTrainer {
            vocab_size: 8_192,
            min_pair_frequency: 2,
        }
    }
}

impl WordPieceTrainer {
    /// Creates a trainer with a target vocabulary size.
    pub fn new(vocab_size: usize) -> Self {
        WordPieceTrainer {
            vocab_size,
            ..Default::default()
        }
    }

    /// Trains a vocabulary from an iterator of words (typically the output
    /// of [`crate::tokenize::word_tokens`] over the corpus).
    ///
    /// Byte-pair merging with the pair counts kept across merges: a merge
    /// re-counts only the words that contain its pair, and the best pair
    /// comes from a lazily invalidated max-heap. The vocabulary is the one
    /// a full recount of every pair before every merge would produce
    /// (DESIGN.md §16 states the invariants).
    pub fn train<'a, I: IntoIterator<Item = &'a str>>(&self, words: I) -> WordPieceVocab {
        let mut word_freq: HashMap<&str, usize> = HashMap::new();
        for w in words {
            if !w.is_empty() {
                *word_freq.entry(w).or_default() += 1;
            }
        }

        // Each word starts as its characters; continuations carry `##`.
        // The map's iteration order decides piece ids, which never decide
        // a merge: the heap orders pairs by their text.
        let mut table = PieceTable::default();
        let mut sequences: Vec<(Vec<u32>, usize)> = word_freq
            .into_iter()
            .map(|(w, f)| {
                let pieces = w
                    .chars()
                    .enumerate()
                    .map(|(i, c)| {
                        if i == 0 {
                            table.intern(c.encode_utf8(&mut [0; 4]))
                        } else {
                            table.intern(&format!("##{c}"))
                        }
                    })
                    .collect();
                (pieces, f)
            })
            .collect();

        // Seed vocabulary: all single-character pieces.
        let mut vocab: Vec<String> = table.text.iter().map(|t| t.to_string()).collect();
        vocab.sort();

        let mut counts: HashMap<Pair, usize> = HashMap::new();
        let mut occurs: HashMap<Pair, Vec<u32>> = HashMap::new();
        for (wi, (pieces, f)) in sequences.iter().enumerate() {
            for w in pieces.windows(2) {
                *counts.entry((w[0], w[1])).or_default() += f;
                occurs.entry((w[0], w[1])).or_default().push(wi as u32);
            }
        }
        let mut heap: BinaryHeap<Candidate> = counts
            .iter()
            .map(|(&pair, &count)| table.candidate(pair, count))
            .collect();

        let mut delta: HashMap<Pair, isize> = HashMap::new();
        while vocab.len() + 1 < self.vocab_size {
            // Entries whose count is no longer the pair's count are stale.
            let Some(best) =
                std::iter::from_fn(|| heap.pop()).find(|c| counts.get(&c.pair) == Some(&c.count))
            else {
                break;
            };
            if best.count < self.min_pair_frequency {
                break;
            }
            let (left, right) = best.pair;
            let merged_text = merge_pieces(&table.text[left as usize], &table.text[right as usize]);
            let merged = table.intern(&merged_text);

            // A list may name a word twice, or a word a merge has since
            // changed; a word without the pair is skipped.
            for wi in occurs.remove(&best.pair).unwrap_or_default() {
                let (pieces, f) = &mut sequences[wi as usize];
                if !pieces.windows(2).any(|w| (w[0], w[1]) == best.pair) {
                    continue;
                }
                let f = *f as isize;
                for w in pieces.windows(2) {
                    *delta.entry((w[0], w[1])).or_default() -= f;
                }
                let mut i = 0;
                while i + 1 < pieces.len() {
                    if pieces[i] == left && pieces[i + 1] == right {
                        pieces[i] = merged;
                        pieces.remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
                // Windows without the merged piece were already in this
                // word, which is therefore already on their lists.
                for w in pieces.windows(2) {
                    *delta.entry((w[0], w[1])).or_default() += f;
                    if w[0] == merged || w[1] == merged {
                        occurs.entry((w[0], w[1])).or_default().push(wi);
                    }
                }
            }
            for (pair, d) in delta.drain() {
                if d == 0 {
                    continue;
                }
                let count = counts.get(&pair).map_or(0, |&c| c as isize) + d;
                if count > 0 {
                    counts.insert(pair, count as usize);
                    heap.push(table.candidate(pair, count as usize));
                } else {
                    counts.remove(&pair);
                }
            }
            vocab.push(merged_text);
        }

        WordPieceVocab::from_pieces(vocab)
    }
}

/// An adjacent pair of interned piece ids.
type Pair = (u32, u32);

/// Pieces interned by their text, so two pairs whose merges spell the same
/// string yield the same id — exactly as string equality would.
#[derive(Default)]
struct PieceTable {
    text: Vec<Rc<str>>,
    ids: HashMap<Rc<str>, u32>,
}

impl PieceTable {
    fn intern(&mut self, piece: &str) -> u32 {
        if let Some(&id) = self.ids.get(piece) {
            return id;
        }
        let id = self.text.len() as u32;
        let text: Rc<str> = Rc::from(piece);
        self.text.push(text.clone());
        self.ids.insert(text, id);
        id
    }

    fn candidate(&self, pair: Pair, count: usize) -> Candidate {
        Candidate {
            count,
            text: Reverse((
                self.text[pair.0 as usize].clone(),
                self.text[pair.1 as usize].clone(),
            )),
            pair,
        }
    }
}

/// A max-heap entry: the highest count wins, ties go to the
/// lexicographically smallest `(left, right)` text. `pair` is a function
/// of `text`, so it never decides the order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    count: usize,
    text: Reverse<(Rc<str>, Rc<str>)>,
    pair: Pair,
}

/// Concatenates two pieces, keeping the `##` continuation marker semantics:
/// `("re", "##port") -> "report"`, `("##re", "##port") -> "##report"`.
fn merge_pieces(left: &str, right: &str) -> String {
    let right_core = right.strip_prefix("##").unwrap_or(right);
    format!("{left}{right_core}")
}

impl From<Vec<String>> for WordPieceVocab {
    fn from(pieces: Vec<String>) -> Self {
        WordPieceVocab::from_pieces(pieces)
    }
}

impl From<WordPieceVocab> for Vec<String> {
    fn from(vocab: WordPieceVocab) -> Self {
        vocab.pieces
    }
}

/// Reusable working storage for [`WordPieceEncoder::encode_word_into`].
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// Byte offsets of the word's char starts, plus an end sentinel —
    /// every match candidate is `&word[offsets[i]..offsets[j]]`.
    offsets: Vec<usize>,
}

/// Greedy longest-match-first WordPiece encoder.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WordPieceEncoder {
    vocab: WordPieceVocab,
    /// Words longer than this many characters encode to `[UNK]` directly
    /// (matches BERT's `max_input_chars_per_word`, default 100).
    pub max_word_chars: usize,
}

impl WordPieceEncoder {
    /// Wraps a vocabulary in an encoder.
    pub fn new(vocab: WordPieceVocab) -> Self {
        WordPieceEncoder {
            vocab,
            max_word_chars: 100,
        }
    }

    /// Access to the underlying vocabulary.
    pub fn vocab(&self) -> &WordPieceVocab {
        &self.vocab
    }

    /// Encodes one word into piece ids. If any position fails to match, the
    /// whole word becomes a single `[UNK]` (BERT semantics).
    pub fn encode_word(&self, word: &str) -> Vec<u32> {
        let mut ids = Vec::new();
        let mut scratch = EncodeScratch::default();
        self.encode_word_into(word, &mut ids, &mut scratch);
        ids
    }

    /// `encode_word` appending into `ids`, with all working storage drawn
    /// from a caller-held [`EncodeScratch`] — the hot-loop variant used by
    /// the featurizer so a corpus sweep does zero per-word allocation.
    /// Candidates are probed as plain slices of `word` (continuations via
    /// [`WordPieceVocab::id_continuation`]), never assembled into strings.
    pub fn encode_word_into(&self, word: &str, ids: &mut Vec<u32>, scratch: &mut EncodeScratch) {
        let offsets = &mut scratch.offsets;
        offsets.clear();
        offsets.extend(word.char_indices().map(|(i, _)| i));
        if offsets.is_empty() {
            return;
        }
        offsets.push(word.len());
        let n = offsets.len() - 1;
        if n > self.max_word_chars {
            ids.push(UNK_ID);
            return;
        }
        let first_piece = ids.len();
        let mut start = 0;
        while start < n {
            let mut end = n;
            let mut matched = None;
            while end > start {
                let candidate = &word[offsets[start]..offsets[end]];
                let id = if start == 0 {
                    self.vocab.id(candidate)
                } else {
                    self.vocab.id_continuation(candidate)
                };
                if let Some(id) = id {
                    matched = Some((id, end));
                    break;
                }
                end -= 1;
            }
            match matched {
                Some((id, e)) => {
                    ids.push(id);
                    start = e;
                }
                None => {
                    ids.truncate(first_piece);
                    ids.push(UNK_ID);
                    return;
                }
            }
        }
    }

    /// Encodes a sequence of words into a flat piece-id stream.
    pub fn encode_words<'a, I: IntoIterator<Item = &'a str>>(&self, words: I) -> Vec<u32> {
        let mut out = Vec::new();
        for w in words {
            out.extend(self.encode_word(w));
        }
        out
    }

    /// Decodes piece ids back into a readable string (for diagnostics).
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut out = String::new();
        for &id in ids {
            let piece = self.vocab.piece(id).unwrap_or(UNK_TOKEN);
            if let Some(cont) = piece.strip_prefix("##") {
                out.push_str(cont);
            } else {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(piece);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference trainer: recounts every adjacent pair of every word
    /// before each merge, then rewrites every word. The incremental
    /// [`WordPieceTrainer::train`] must match it piece for piece.
    fn train_naive<'a, I: IntoIterator<Item = &'a str>>(
        trainer: &WordPieceTrainer,
        words: I,
    ) -> WordPieceVocab {
        let mut word_freq: HashMap<&str, usize> = HashMap::new();
        for w in words {
            if !w.is_empty() {
                *word_freq.entry(w).or_default() += 1;
            }
        }
        let mut sequences: Vec<(Vec<String>, usize)> = word_freq
            .iter()
            .map(|(w, f)| {
                let pieces: Vec<String> = w
                    .chars()
                    .enumerate()
                    .map(|(i, c)| {
                        if i == 0 {
                            c.to_string()
                        } else {
                            format!("##{c}")
                        }
                    })
                    .collect();
                (pieces, *f)
            })
            .collect();
        sequences.sort_by(|a, b| a.0.cmp(&b.0));

        let mut vocab: Vec<String> = Vec::new();
        let mut seen: HashMap<String, ()> = HashMap::new();
        for (pieces, _) in &sequences {
            for p in pieces {
                if seen.insert(p.clone(), ()).is_none() {
                    vocab.push(p.clone());
                }
            }
        }
        vocab.sort();

        while vocab.len() + 1 < trainer.vocab_size {
            let mut pair_freq: HashMap<(String, String), usize> = HashMap::new();
            for (pieces, f) in &sequences {
                for pair in pieces.windows(2) {
                    *pair_freq
                        .entry((pair[0].clone(), pair[1].clone()))
                        .or_default() += f;
                }
            }
            let best = pair_freq
                .into_iter()
                .filter(|(_, f)| *f >= trainer.min_pair_frequency)
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            let Some(((left, right), _)) = best else {
                break;
            };
            let merged = merge_pieces(&left, &right);
            for (pieces, _) in &mut sequences {
                let mut i = 0;
                while i + 1 < pieces.len() {
                    if pieces[i] == left && pieces[i + 1] == right {
                        pieces[i] = merged.clone();
                        pieces.remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
            }
            vocab.push(merged);
        }
        WordPieceVocab::from_pieces(vocab)
    }

    /// Both trainers' piece lists, in id order.
    fn both(words: &[&str], vocab_size: usize, min_pair_frequency: usize) -> [Vec<String>; 2] {
        let trainer = WordPieceTrainer {
            vocab_size,
            min_pair_frequency,
        };
        let pieces = |v: WordPieceVocab| -> Vec<String> { v.into() };
        [
            pieces(trainer.train(words.iter().copied())),
            pieces(train_naive(&trainer, words.iter().copied())),
        ]
    }

    /// Word parts drawn by the differential property: repeated characters
    /// (overlapping pairs), multi-byte UTF-8, `#` (pieces that look like
    /// continuation markers) and parts whose merges collide on one string
    /// (`ab`+`##c` and `a`+`##bc` both spell `abc`).
    const PARTS: &[&str] = &[
        "a", "b", "c", "ab", "bc", "abc", "aa", "aaaa", "é", "漢字", "ß", "#", "x",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn incremental_trainer_matches_naive_recount(
            words in prop::collection::vec(
                prop::collection::vec(prop::sample::select(PARTS.to_vec()), 1..5)
                    .prop_map(|parts| parts.concat()),
                0..40,
            ),
            vocab_size in prop::sample::select(vec![1usize, 2, 8, 12, 16, 24, 40, 400]),
            min_pair_frequency in 1usize..4,
        ) {
            let words: Vec<&str> = words.iter().map(|w| w.as_str()).collect();
            let [incremental, naive] = both(&words, vocab_size, min_pair_frequency);
            prop_assert_eq!(incremental, naive, "words {:?}", words);
        }
    }

    #[test]
    fn overlapping_pairs_count_like_windows() {
        // "aaaa" holds (a,##a) once and (##a,##a) twice per occurrence.
        let words = ["aaaa", "aaaa", "aaa", "baaab"];
        for size in 2..12 {
            for min in 1..4 {
                let [incremental, naive] = both(&words, size, min);
                assert_eq!(incremental, naive, "vocab_size {size}, min {min}");
            }
        }
    }

    #[test]
    fn colliding_merges_share_one_piece() {
        // "abc" is reachable as ab+##c and as a+##bc; both words must end
        // up on the one "abc" piece, which is pushed (and deduplicated) once
        // per merge that spells it.
        let words = ["abc", "abc", "abx", "abx", "zbc", "zbc", "abc"];
        for size in 2..16 {
            let [incremental, naive] = both(&words, size, 2);
            assert_eq!(incremental, naive, "vocab_size {size}");
        }
        let [full, _] = both(&words, 64, 1);
        assert_eq!(full.iter().filter(|p| *p == "abc").count(), 1);
    }

    #[test]
    fn multibyte_words_train_identically() {
        let words = ["漢字漢字", "漢字", "héllo", "héllo", "wörld", "wörld", "ßß"];
        for size in 2..24 {
            let [incremental, naive] = both(&words, size, 1);
            assert_eq!(incremental, naive, "vocab_size {size}");
        }
    }

    #[test]
    fn corpus_sized_fit_matches_naive_recount() {
        let text = "we need to report him to the platform reporting reported reporter \
                    mass flag her account flagging flagged raid the stream raiding \
                    post his address and phone number doxing doxxed harass harassment";
        let words: Vec<&str> = text.split_whitespace().cycle().take(3_000).collect();
        for (size, min) in [(64, 2), (128, 1), (256, 3), (4_096, 2)] {
            let [incremental, naive] = both(&words, size, min);
            assert_eq!(incremental, naive, "vocab_size {size}, min {min}");
        }
    }

    fn train_on(words: &[&str], vocab_size: usize) -> WordPieceEncoder {
        let trainer = WordPieceTrainer {
            vocab_size,
            min_pair_frequency: 2,
        };
        let repeated: Vec<&str> = words
            .iter()
            .cycle()
            .take(words.len() * 5)
            .copied()
            .collect();
        WordPieceEncoder::new(trainer.train(repeated))
    }

    #[test]
    fn merge_pieces_handles_continuations() {
        assert_eq!(merge_pieces("re", "##port"), "report");
        assert_eq!(merge_pieces("##re", "##port"), "##report");
        assert_eq!(merge_pieces("a", "b"), "ab");
    }

    #[test]
    fn vocab_always_contains_unk_at_zero() {
        let vocab = WordPieceVocab::from_pieces(vec!["a".into(), "b".into()]);
        assert_eq!(vocab.id(UNK_TOKEN), Some(UNK_ID));
        assert_eq!(vocab.piece(UNK_ID), Some(UNK_TOKEN));
        assert_eq!(vocab.len(), 3);
    }

    #[test]
    fn duplicate_pieces_are_ignored() {
        let vocab = WordPieceVocab::from_pieces(vec!["a".into(), "a".into(), "[UNK]".into()]);
        assert_eq!(vocab.len(), 2);
    }

    #[test]
    fn trained_vocab_encodes_training_words_without_unk() {
        let enc = train_on(&["report", "reporting", "reported"], 64);
        for w in ["report", "reporting", "reported"] {
            let ids = enc.encode_word(w);
            assert!(!ids.contains(&UNK_ID), "{w} should encode cleanly: {ids:?}");
            assert_eq!(enc.decode(&ids), w);
        }
    }

    #[test]
    fn shared_stems_get_merged() {
        let enc = train_on(&["report", "reporting", "reporter", "reported"], 128);
        // After enough merges, "report" should be a single piece.
        let ids = enc.encode_word("report");
        assert_eq!(ids.len(), 1, "expected single piece, got {:?}", ids);
    }

    #[test]
    fn unknown_characters_become_unk() {
        let enc = train_on(&["abc"], 16);
        assert_eq!(enc.encode_word("xyz"), vec![UNK_ID]);
    }

    #[test]
    fn novel_words_decompose_into_subwords() {
        let enc = train_on(&["report", "harass", "harassment"], 256);
        // "reportment" is unseen but decomposable from learned pieces.
        let ids = enc.encode_word("reportment");
        assert!(ids.len() >= 2);
        assert!(!ids.contains(&UNK_ID));
        assert_eq!(enc.decode(&ids), "reportment");
    }

    #[test]
    fn empty_word_encodes_to_nothing() {
        let enc = train_on(&["abc"], 16);
        assert!(enc.encode_word("").is_empty());
    }

    #[test]
    fn overlong_word_is_unk() {
        let enc = train_on(&["abc"], 16);
        let long: String = std::iter::repeat_n('a', 200).collect();
        assert_eq!(enc.encode_word(&long), vec![UNK_ID]);
    }

    #[test]
    fn encode_words_flattens() {
        let enc = train_on(&["mass", "flag"], 64);
        let ids = enc.encode_words(["mass", "flag"]);
        let a = enc.encode_word("mass");
        let b = enc.encode_word("flag");
        assert_eq!(ids.len(), a.len() + b.len());
    }

    #[test]
    fn training_is_deterministic() {
        let words = ["raid", "raiding", "report", "reporting", "dox", "doxing"];
        let t = WordPieceTrainer {
            vocab_size: 64,
            min_pair_frequency: 2,
        };
        let v1 = t.train(words.iter().copied());
        let v2 = t.train(words.iter().copied());
        let p1: Vec<_> = v1.iter().collect();
        let p2: Vec<_> = v2.iter().collect();
        assert_eq!(p1, p2);
    }

    #[test]
    fn vocab_size_is_respected() {
        let words = ["abcdefgh", "ijklmnop", "qrstuvwx"];
        let t = WordPieceTrainer {
            vocab_size: 30,
            min_pair_frequency: 1,
        };
        let v = t.train(words.iter().copied().cycle().take(30));
        assert!(v.len() <= 30, "vocab has {} pieces", v.len());
    }
}
