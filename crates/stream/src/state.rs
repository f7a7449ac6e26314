//! Checkpoint/resume of ranker state: a binary snapshot plus an
//! append-only log of per-epoch deltas, both through the `atomic_io`
//! funnel.
//!
//! A state directory holds two files:
//!
//! * `STREAM.ckpt` — the **snapshot**: every row of the ranker, written
//!   with [`atomic_io::write_framed`] (tmp + rename + FNV footer), so a
//!   reader sees the whole old snapshot or the whole new one.
//! * `STREAM.log` — the **delta log**: one [`AppendLog`] record per save
//!   since the snapshot. A record holds the epoch range it covers
//!   (`from`, `to`], the snapshot's hash, and a whole-row upsert of every
//!   actor, document, follower set and target that those epochs changed
//!   (the ranker stamps each row with the epoch that last changed it).
//!
//! Rows are fixed-width little-endian integers, with floats as raw f32
//! bits, so a save/load cycle is byte-exact and resumed runs produce
//! byte-identical rankings. Log payloads must be newline-free, so the
//! record bytes are stuffed: `\n` becomes `\` `n` and `\` becomes `\` `\`.
//!
//! **Saving.** [`save_state`] appends one record holding the rows
//! changed since the directory's last durable epoch. It *compacts* —
//! writes a fresh snapshot, then resets the log to empty — instead when
//! the log would grow past the snapshot (so the log never outweighs the
//! snapshot and the bytes written stay linear in the stream), or when it
//! cannot show that the directory holds exactly what this ranker last
//! saved there: a fresh or cloned ranker, another directory or stream, a
//! log whose length is not the one this ranker left, or a log that loaded
//! with a torn tail or stale records.
//!
//! **Loading.** [`load_state`] reads the snapshot, then replays in order
//! every log record past the snapshot's epoch. Records at or before it
//! are what a compaction killed before its log reset left behind, and are
//! skipped. Replayed records must be contiguous (`from` of each is `to`
//! of the one before), or loading fails with [`StreamError::StateGap`].
//!
//! **What survives a kill.** Before the snapshot rename: the old snapshot
//! and log, i.e. the previous durable epoch. Between the rename and the
//! log reset (failpoint `stream-mid-compaction-<n>`): the new snapshot;
//! the stale log is skipped. Mid-append: `read_log` verifies each record
//! on its own, so the torn record and everything after it is dropped, the
//! clean prefix is replayed, and the lost epochs are recomputed; the next
//! save compacts, because appending after a torn tail would hide every
//! later record from `read_log`.
//!
//! A snapshot is bound to the stream digest, the ranker-config
//! fingerprint and the actor count it was written under; loading it
//! against anything else — or a file in another format, such as the
//! JSON state of earlier versions — is a typed
//! [`StreamError::StateMismatch`]. Bytes that pass their hash but do not
//! decode are a typed [`StreamError::StateCorrupt`]; every decoded length
//! is checked against the remaining input before anything is allocated.

use crate::ranker::{
    ActorState, DocState, FollowerSet, RankerConfig, TargetState, ThreatEntry, ThreatRanker,
};
use crate::StreamError;
use incite_core::checkpoint::atomic_io::{self, AppendLog};
use incite_core::failpoint::FailpointRegistry;
use incite_ml::fingerprint::FINGERPRINT_DIM;
use incite_ml::TopicFingerprint;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Snapshot file name inside the state directory.
pub const STATE_FILE: &str = "STREAM.ckpt";

/// Delta-log file name inside the state directory.
pub const LOG_FILE: &str = "STREAM.log";

const SNAPSHOT_MAGIC: &[u8; 8] = b"ISTSNAP2";
const RECORD_MAGIC: &[u8; 8] = b"ISTDELT2";

/// Encoded size of one fingerprint.
const FINGERPRINT_BYTES: usize = 4 * FINGERPRINT_DIM;

/// Smallest encoding of each row kind: the bound that every decoded row
/// count is checked against before allocating.
const ACTOR_ROW_MIN: usize = 4 + FINGERPRINT_BYTES + 8 + 8;
const FOLLOW_ROW_MIN: usize = 4 + 8;
const DOC_ROW_MIN: usize = 8 + 4 + 1 + 4 + FINGERPRINT_BYTES + 8;
const TARGET_ROW_MIN: usize = 4 + 8 + 4 + 4 + 8;
const ENTRY_ROW_MIN: usize = 8 + 8 + 4 + 4 + 4 + 4 + 8;

/// What a ranker last made durable in a state directory.
#[derive(Debug, Clone)]
pub(crate) struct Durable {
    dir: PathBuf,
    stream_digest: String,
    /// Epochs the directory holds: the snapshot plus the replayable log.
    epoch: u64,
    /// FNV-64 of the snapshot payload; every log record names it.
    snapshot_hash: u64,
    /// Snapshot file length: the log is compacted before it outgrows it.
    snapshot_len: u64,
    /// Log length in bytes right after this ranker's last write.
    log_len: u64,
}

/// A ranker's link to its last durable save. Empty for a fresh ranker,
/// which makes its first save a compaction.
#[derive(Debug, Default)]
pub(crate) struct DurableLink(Mutex<Option<Durable>>);

impl Clone for DurableLink {
    /// A clone has saved nothing yet: its first save compacts, so two
    /// copies of one ranker can never append to one log.
    fn clone(&self) -> Self {
        DurableLink::default()
    }
}

impl DurableLink {
    fn get(&self) -> Option<Durable> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn set(&self, durable: Durable) {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = Some(durable);
    }
}

/// Saves the ranker to `state_dir`, bound to `stream_digest`: a delta
/// record appended to `STREAM.log`, or a compaction into a fresh
/// `STREAM.ckpt` (see the module docs for when). Returns the content hash
/// of what it wrote; a save with no epoch since the last one writes
/// nothing and returns the snapshot's hash.
pub fn save_state(
    state_dir: &Path,
    ranker: &ThreatRanker,
    stream_digest: &str,
) -> Result<String, StreamError> {
    save_swept(state_dir, ranker, stream_digest, &FailpointRegistry::new())
}

/// [`save_state`] with the `stream-mid-compaction-<n>` failpoint site
/// armed from `failpoints` (the watch loop's registry).
pub(crate) fn save_swept(
    state_dir: &Path,
    ranker: &ThreatRanker,
    stream_digest: &str,
    failpoints: &FailpointRegistry,
) -> Result<String, StreamError> {
    let (snapshot_path, log_path) = (state_dir.join(STATE_FILE), state_dir.join(LOG_FILE));
    if let Some(last) = ranker.durable.get() {
        let same_dir = last.dir == state_dir
            && last.stream_digest == stream_digest
            && file_len(&snapshot_path) == last.snapshot_len
            && file_len(&log_path) == last.log_len;
        if same_dir && ranker.epochs_done == last.epoch {
            return Ok(format!("{:016x}", last.snapshot_hash));
        }
        if same_dir && ranker.epochs_done > last.epoch {
            let record = escape(&encode_record(ranker, &last));
            if last.log_len.saturating_add(record.len() as u64) <= last.snapshot_len {
                AppendLog::open(&log_path)?.append(&record)?;
                ranker.durable.set(Durable {
                    epoch: ranker.epochs_done,
                    log_len: file_len(&log_path),
                    ..last
                });
                return Ok(atomic_io::fnv64_hex(&record));
            }
        }
    }

    // Compaction: the new snapshot first, then the log reset. A kill in
    // between leaves a snapshot past every record in the log.
    let snapshot = encode_snapshot(ranker, stream_digest);
    let snapshot_hash = atomic_io::fnv64(&snapshot);
    let hash = format!("{snapshot_hash:016x}");
    atomic_io::write_framed(&snapshot_path, &snapshot, &hash)?;
    failpoints.check(&format!("stream-mid-compaction-{}", ranker.epochs_done))?;
    atomic_io::write_atomic(&log_path, &[])?;
    ranker.durable.set(Durable {
        dir: state_dir.to_path_buf(),
        stream_digest: stream_digest.to_string(),
        epoch: ranker.epochs_done,
        snapshot_hash,
        snapshot_len: file_len(&snapshot_path),
        log_len: 0,
    });
    Ok(hash)
}

/// Loads a ranker from `state_dir`: the snapshot, then every log record
/// past it. The snapshot must have been written for the same stream
/// digest, an equivalent config and the same actor count.
pub fn load_state(
    state_dir: &Path,
    config: RankerConfig,
    n_actors: usize,
    stream_digest: &str,
) -> Result<ThreatRanker, StreamError> {
    let snapshot_path = state_dir.join(STATE_FILE);
    let snapshot = atomic_io::read_hashed(&snapshot_path)?;
    let mut ranker = decode_snapshot(&snapshot, config, n_actors, stream_digest)?;
    let snapshot_hash = atomic_io::fnv64(&snapshot);

    let log_path = state_dir.join(LOG_FILE);
    let (records, damage) = if log_path.is_file() {
        atomic_io::read_log(&log_path)?
    } else {
        (Vec::new(), None)
    };
    let snapshot_epoch = ranker.epochs_done;
    let mut clean = damage.is_none();
    for record in &records {
        clean &= apply_record(
            &mut ranker,
            &unescape(record)?,
            snapshot_hash,
            snapshot_epoch,
        )?;
    }
    // Appending is safe only after a log this load fully accounted for;
    // otherwise the ranker stays unlinked and its next save compacts.
    if clean {
        ranker.durable.set(Durable {
            dir: state_dir.to_path_buf(),
            stream_digest: stream_digest.to_string(),
            epoch: ranker.epochs_done,
            snapshot_hash,
            snapshot_len: file_len(&snapshot_path),
            log_len: file_len(&log_path),
        });
    }
    Ok(ranker)
}

/// Whether a state checkpoint exists in `state_dir`.
pub fn has_state(state_dir: &Path) -> bool {
    state_dir.join(STATE_FILE).is_file()
}

/// Length of `path` in bytes; a missing file counts as empty.
fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

// ------------------------------------------------------------------
// Encoding
// ------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u64(out, n as u64);
}

fn put_fingerprint(out: &mut Vec<u8>, fp: &TopicFingerprint) {
    for slot in fp.slots() {
        put_u32(out, slot.to_bits());
    }
}

fn encode_snapshot(ranker: &ThreatRanker, stream_digest: &str) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    for text in [stream_digest, &ranker.config.fingerprint()] {
        put_len(&mut out, text.len());
        out.extend_from_slice(text.as_bytes());
    }
    put_len(&mut out, ranker.actors.len());
    put_len(&mut out, ranker.next_event);
    put_u64(&mut out, ranker.epochs_done);
    put_rows(&mut out, ranker, None);
    out
}

fn encode_record(ranker: &ThreatRanker, since: &Durable) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(RECORD_MAGIC);
    put_u64(&mut out, since.snapshot_hash);
    put_u64(&mut out, since.epoch);
    put_len(&mut out, ranker.next_event);
    put_u64(&mut out, ranker.epochs_done);
    put_rows(&mut out, ranker, Some(since.epoch));
    out
}

/// Writes the four row sections: every row when `since` is `None` (a
/// snapshot), else the rows stamped after epoch `since` (a delta).
/// Actors that never posted are left out: the decoder starts every
/// actor at its default.
fn put_rows(out: &mut Vec<u8>, ranker: &ThreatRanker, since: Option<u64>) {
    let fresh = |changed: u64| since.is_none_or(|epoch| changed > epoch);

    let actors = || {
        (0u32..)
            .zip(&ranker.actors)
            .filter(|(_, a)| a.posts > 0 && fresh(a.changed))
    };
    put_len(out, actors().count());
    for (id, actor) in actors() {
        put_u32(out, id);
        put_fingerprint(out, &actor.fingerprint);
        put_len(out, actor.history.len());
        for doc in &actor.history {
            put_u64(out, *doc);
        }
        put_u64(out, actor.posts);
    }

    let follows = || ranker.follows.iter().filter(|(_, s)| fresh(s.changed));
    put_len(out, follows().count());
    for (followee, set) in follows() {
        put_u32(out, *followee);
        put_len(out, set.followers.len());
        for follower in &set.followers {
            put_u32(out, *follower);
        }
    }

    let docs = || ranker.docs.iter().filter(|(_, d)| fresh(d.changed));
    put_len(out, docs().count());
    for (id, doc) in docs() {
        put_u64(out, *id);
        put_u32(out, doc.author);
        match doc.target {
            Some(target) => {
                out.push(1);
                put_u32(out, target);
            }
            None => out.push(0),
        }
        put_u32(out, doc.toxicity_bits);
        put_fingerprint(out, &doc.fingerprint);
        put_len(out, doc.exposed.len());
        for actor in &doc.exposed {
            put_u32(out, *actor);
        }
    }

    let targets = || ranker.targets.iter().filter(|(_, t)| fresh(t.changed));
    put_len(out, targets().count());
    for (id, target) in targets() {
        put_u32(out, *id);
        put_len(out, target.ladder_idx);
        put_u32(out, target.seen);
        put_u32(out, target.admitted);
        put_len(out, target.entries.len());
        for e in &target.entries {
            put_u64(out, e.event);
            put_u64(out, e.doc);
            put_u32(out, e.audience);
            put_u32(out, e.toxicity_bits);
            put_u32(out, e.overlap_bits);
            put_u32(out, e.threat_bits);
            put_len(out, e.contributors.len());
            for doc in &e.contributors {
                put_u64(out, *doc);
            }
        }
    }
}

/// Byte-stuffs a record so it holds no newline (the log's framing).
fn escape(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() + raw.len() / 64);
    for &b in raw {
        match b {
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\\' => out.extend_from_slice(b"\\\\"),
            _ => out.push(b),
        }
    }
    out
}

fn unescape(stuffed: &[u8]) -> Result<Vec<u8>, StreamError> {
    let mut out = Vec::with_capacity(stuffed.len());
    let mut bytes = stuffed.iter().enumerate();
    while let Some((offset, &b)) = bytes.next() {
        if b != b'\\' {
            out.push(b);
            continue;
        }
        match bytes.next() {
            Some((_, b'n')) => out.push(b'\n'),
            Some((_, b'\\')) => out.push(b'\\'),
            _ => return Err(StreamError::StateCorrupt { offset }),
        }
    }
    Ok(out)
}

// ------------------------------------------------------------------
// Decoding
// ------------------------------------------------------------------

/// A bounds-checked cursor over decoded bytes. Every failure is a typed
/// [`StreamError::StateCorrupt`] naming the offset.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn corrupt(&self) -> StreamError {
        StreamError::StateCorrupt { offset: self.pos }
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StreamError> {
        if n > self.remaining() {
            return Err(self.corrupt());
        }
        let start = self.pos;
        self.pos = start.saturating_add(n);
        self.bytes.get(start..self.pos).ok_or(self.corrupt())
    }

    fn u8(&mut self) -> Result<u8, StreamError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StreamError> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self) -> Result<u64, StreamError> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn usize(&mut self) -> Result<usize, StreamError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.corrupt())
    }

    /// A count of items at least `item_min` bytes each, checked against
    /// the remaining input before the caller allocates for it.
    fn len(&mut self, item_min: usize) -> Result<usize, StreamError> {
        let n = self.u64()?;
        if n > (self.remaining() / item_min.max(1)) as u64 {
            return Err(self.corrupt());
        }
        usize::try_from(n).map_err(|_| self.corrupt())
    }

    fn u32s(&mut self) -> Result<Vec<u32>, StreamError> {
        let n = self.len(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    fn u64s(&mut self) -> Result<Vec<u64>, StreamError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn text(&mut self) -> Result<&'a [u8], StreamError> {
        let n = self.len(1)?;
        self.take(n)
    }

    fn fingerprint(&mut self) -> Result<TopicFingerprint, StreamError> {
        let mut slots = [0f32; FINGERPRINT_DIM];
        for slot in &mut slots {
            *slot = f32::from_bits(self.u32()?);
        }
        TopicFingerprint::from_slots(&slots).ok_or(self.corrupt())
    }

    fn finish(&self) -> Result<(), StreamError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.corrupt())
        }
    }
}

fn decode_snapshot(
    payload: &[u8],
    config: RankerConfig,
    n_actors: usize,
    stream_digest: &str,
) -> Result<ThreatRanker, StreamError> {
    // Foreign bytes (earlier JSON state included) are another format, not
    // damage: the footer verified them.
    let body = payload
        .strip_prefix(SNAPSHOT_MAGIC.as_slice())
        .ok_or(StreamError::StateMismatch)?;
    let mut r = Reader::new(body);
    let digest = r.text()?;
    let fingerprint = r.text()?;
    let actors = r.usize()?;
    if digest != stream_digest.as_bytes()
        || fingerprint != config.fingerprint().as_bytes()
        || actors != n_actors
    {
        return Err(StreamError::StateMismatch);
    }
    let mut ranker = ThreatRanker::new(config, n_actors);
    ranker.next_event = r.usize()?;
    ranker.epochs_done = r.u64()?;
    // Each epoch consumes at least one event.
    if ranker.epochs_done > ranker.next_event as u64 {
        return Err(r.corrupt());
    }
    apply_rows(&mut ranker, &mut r)?;
    r.finish()?;
    Ok(ranker)
}

/// Replays one unstuffed log record onto `ranker`. Returns `false` for a
/// stale record — one ending at or before the snapshot's epoch, left by
/// a compaction killed before its log reset — which is skipped.
fn apply_record(
    ranker: &mut ThreatRanker,
    record: &[u8],
    snapshot_hash: u64,
    snapshot_epoch: u64,
) -> Result<bool, StreamError> {
    let body = record
        .strip_prefix(RECORD_MAGIC.as_slice())
        .ok_or(StreamError::StateCorrupt { offset: 0 })?;
    let mut r = Reader::new(body);
    let snapshot = r.u64()?;
    let from = r.u64()?;
    let position_at = r.pos;
    let next_event = r.usize()?;
    let to = r.u64()?;
    if ranker.epochs_done == snapshot_epoch && to <= snapshot_epoch {
        return Ok(false);
    }
    if snapshot != snapshot_hash {
        return Err(StreamError::StateMismatch);
    }
    if from != ranker.epochs_done {
        return Err(StreamError::StateGap {
            expected: ranker.epochs_done,
            found: from,
        });
    }
    // Each epoch consumes at least one event.
    if to <= from || to > next_event as u64 || next_event < ranker.next_event {
        return Err(StreamError::StateCorrupt {
            offset: position_at,
        });
    }
    ranker.next_event = next_event;
    ranker.epochs_done = to;
    apply_rows(ranker, &mut r)?;
    r.finish()?;
    Ok(true)
}

/// Decodes the four row sections, upserting each row into `ranker`.
fn apply_rows(ranker: &mut ThreatRanker, r: &mut Reader) -> Result<(), StreamError> {
    let history_cap = ranker.config.history_cap;
    for _ in 0..r.len(ACTOR_ROW_MIN)? {
        let id = r.u32()? as usize;
        let fingerprint = r.fingerprint()?;
        let history = r.u64s()?;
        let posts = r.u64()?;
        if posts == 0 || history.len() > history_cap {
            return Err(r.corrupt());
        }
        let slot = ranker.actors.get_mut(id).ok_or(r.corrupt())?;
        *slot = ActorState {
            fingerprint,
            history,
            posts,
            changed: 0,
        };
    }

    for _ in 0..r.len(FOLLOW_ROW_MIN)? {
        let followee = r.u32()?;
        let followers = r.u32s()?.into_iter().collect();
        ranker.follows.insert(
            followee,
            FollowerSet {
                followers,
                changed: 0,
            },
        );
    }

    for _ in 0..r.len(DOC_ROW_MIN)? {
        let id = r.u64()?;
        let author = r.u32()?;
        let target = match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            _ => return Err(r.corrupt()),
        };
        let toxicity_bits = r.u32()?;
        let fingerprint = r.fingerprint()?;
        let exposed = r.u32s()?.into_iter().collect();
        ranker.docs.insert(
            id,
            DocState {
                author,
                target,
                toxicity_bits,
                fingerprint,
                exposed,
                changed: 0,
            },
        );
    }

    let ladder = ranker.config.thresholds.candidates.len();
    let window = ranker.config.adaptive_window;
    let top_k = ranker.config.top_k;
    for _ in 0..r.len(TARGET_ROW_MIN)? {
        let id = r.u32()?;
        let ladder_idx = r.usize()?;
        let seen = r.u32()?;
        let admitted = r.u32()?;
        let n_entries = r.len(ENTRY_ROW_MIN)?;
        if ladder_idx >= ladder || seen >= window || admitted > seen || n_entries > top_k {
            return Err(r.corrupt());
        }
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            entries.push(ThreatEntry {
                event: r.u64()?,
                doc: r.u64()?,
                audience: r.u32()?,
                toxicity_bits: r.u32()?,
                overlap_bits: r.u32()?,
                threat_bits: r.u32()?,
                contributors: r.u64s()?,
            });
        }
        ranker.targets.insert(
            id,
            TargetState {
                ladder_idx,
                seen,
                admitted,
                entries,
                changed: 0,
            },
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranker::RankerConfig;
    use incite_textkit::SplitMix64;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("incite-stream-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fingerprint(seed: u32) -> TopicFingerprint {
        let slots: Vec<f32> = (0..FINGERPRINT_DIM as u32)
            .map(|i| (seed.wrapping_mul(31).wrapping_add(i) % 17) as f32 - 8.0)
            .collect();
        TopicFingerprint::from_slots(&slots).expect("fingerprint width")
    }

    /// Stands in for `process_epoch`: changes a few rows of every kind,
    /// stamped with the new epoch, the way a real epoch does.
    fn advance(ranker: &mut ThreatRanker) {
        let epoch = ranker.epochs_done + 1;
        let n = ranker.actors.len() as u32;
        let a = (epoch as u32 * 7) % n;
        let actor = &mut ranker.actors[a as usize];
        actor.fingerprint.merge(&fingerprint(epoch as u32));
        actor.history.push(100 + epoch);
        if actor.history.len() > 8 {
            actor.history.remove(0);
        }
        actor.posts += 1;
        actor.changed = epoch;
        let set = ranker.follows.entry(a).or_default();
        set.followers.insert((a + 1) % n);
        set.followers.insert((a + 3) % n);
        set.changed = epoch;
        ranker.docs.insert(
            100 + epoch,
            DocState {
                author: a,
                target: epoch.is_multiple_of(2).then_some((a + 2) % n),
                toxicity_bits: (0.5f32 + epoch as f32 / 1000.0).to_bits(),
                fingerprint: fingerprint(epoch as u32 + 1),
                exposed: [a, (a + 1) % n].into_iter().collect(),
                changed: epoch,
            },
        );
        if let Some(old) = ranker.docs.get_mut(&(100 + epoch / 2)) {
            old.exposed.insert((a + 5) % n);
            old.changed = epoch;
        }
        let target = ranker.targets.entry((a + 2) % n).or_default();
        target.seen = (target.seen + 1) % 32;
        target.admitted = target.admitted.min(target.seen);
        target.ladder_idx = (epoch % 3) as usize;
        if target.entries.len() < 10 {
            target.entries.push(ThreatEntry {
                event: epoch * 10,
                doc: 100 + epoch,
                audience: (a + 1) % n,
                toxicity_bits: 0.75f32.to_bits(),
                overlap_bits: 0.5f32.to_bits(),
                threat_bits: 0.375f32.to_bits(),
                contributors: vec![100 + epoch, 99 + epoch],
            });
        }
        target.changed = epoch;
        ranker.next_event += 25;
        ranker.epochs_done = epoch;
    }

    /// The whole state, rendered for byte comparison (stamps excluded:
    /// they only say what the next save must write).
    fn render(r: &ThreatRanker) -> String {
        let actors: Vec<_> = r
            .actors
            .iter()
            .map(|a| (a.fingerprint.slots().map(f32::to_bits), &a.history, a.posts))
            .collect();
        let follows: Vec<_> = r.follows.iter().map(|(k, s)| (k, &s.followers)).collect();
        let docs: Vec<_> = r
            .docs
            .iter()
            .map(|(k, d)| {
                let fp = d.fingerprint.slots().map(f32::to_bits);
                (k, d.author, d.target, d.toxicity_bits, fp, &d.exposed)
            })
            .collect();
        let targets: Vec<_> = r
            .targets
            .iter()
            .map(|(k, t)| (k, t.ladder_idx, t.seen, t.admitted, &t.entries))
            .collect();
        format!(
            "{} {} {actors:?} {follows:?} {docs:?} {targets:?}",
            r.next_event, r.epochs_done
        )
    }

    /// A ranker `epochs` epochs in, saved once to `dir` (a compaction),
    /// so that the next few saves append.
    fn grown(dir: &Path, epochs: u64) -> Result<ThreatRanker, StreamError> {
        let mut ranker = ThreatRanker::new(RankerConfig::default(), 13);
        for _ in 0..epochs {
            advance(&mut ranker);
        }
        save_state(dir, &ranker, "digest-a")?;
        Ok(ranker)
    }

    fn load(dir: &Path, n_actors: usize) -> Result<ThreatRanker, StreamError> {
        load_state(dir, RankerConfig::default(), n_actors, "digest-a")
    }

    #[test]
    fn save_load_roundtrip_preserves_everything() -> Result<(), StreamError> {
        let dir = temp_dir("roundtrip");
        let mut ranker = ThreatRanker::new(RankerConfig::default(), 13);
        for _ in 0..6 {
            advance(&mut ranker);
            save_state(&dir, &ranker, "digest-a")?;
            assert!(has_state(&dir));
            assert_eq!(render(&load(&dir, 13)?), render(&ranker));
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn saves_append_deltas_and_compact_before_the_log_outgrows_the_snapshot(
    ) -> Result<(), StreamError> {
        let dir = temp_dir("compact");
        let mut ranker = ThreatRanker::new(RankerConfig::default(), 13);
        let (mut appends, mut compactions) = (0, 0);
        for _ in 0..40 {
            advance(&mut ranker);
            save_state(&dir, &ranker, "digest-a")?;
            let snapshot = file_len(&dir.join(STATE_FILE));
            let log = file_len(&dir.join(LOG_FILE));
            assert!(log <= snapshot, "log {log} outgrew snapshot {snapshot}");
            if log == 0 {
                compactions += 1;
            } else {
                appends += 1;
            }
        }
        assert!(
            appends > compactions,
            "{appends} appends, {compactions} compactions"
        );
        assert!(compactions > 1, "never compacted after the first save");
        assert_eq!(render(&load(&dir, 13)?), render(&ranker));
        // Saving again with nothing new writes nothing.
        let log = std::fs::read(dir.join(LOG_FILE)).expect("read log");
        save_state(&dir, &ranker, "digest-a")?;
        assert_eq!(std::fs::read(dir.join(LOG_FILE)).ok(), Some(log));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn a_loaded_ranker_appends_where_it_left_off() -> Result<(), StreamError> {
        let dir = temp_dir("resume-append");
        let mut ranker = grown(&dir, 12)?;
        for _ in 0..2 {
            advance(&mut ranker);
            save_state(&dir, &ranker, "digest-a")?;
        }
        let mut resumed = load(&dir, 13)?;
        let snapshot = std::fs::read(dir.join(STATE_FILE)).ok();
        advance(&mut resumed);
        advance(&mut ranker);
        save_state(&dir, &resumed, "digest-a")?;
        assert_eq!(std::fs::read(dir.join(STATE_FILE)).ok(), snapshot);
        assert_eq!(render(&load(&dir, 13)?), render(&ranker));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn a_fresh_clone_or_other_ranker_compacts_instead_of_appending() -> Result<(), StreamError> {
        let dir = temp_dir("foreign");
        let mut a = ThreatRanker::new(RankerConfig::default(), 13);
        for _ in 0..3 {
            advance(&mut a);
            save_state(&dir, &a, "digest-a")?;
        }
        // A clone of `a` saving a divergent epoch would corrupt `a`'s log
        // if it appended; it compacts instead, and so must `a` after it.
        let mut b = a.clone();
        advance(&mut b);
        b.actors[0].posts += 1;
        b.actors[0].changed = b.epochs_done;
        save_state(&dir, &b, "digest-a")?;
        assert_eq!(file_len(&dir.join(LOG_FILE)), 0);
        assert_eq!(render(&load(&dir, 13)?), render(&b));
        advance(&mut a);
        save_state(&dir, &a, "digest-a")?;
        assert_eq!(file_len(&dir.join(LOG_FILE)), 0);
        assert_eq!(render(&load(&dir, 13)?), render(&a));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn save_cadence_may_skip_epochs() -> Result<(), StreamError> {
        let dir = temp_dir("cadence");
        let mut ranker = ThreatRanker::new(RankerConfig::default(), 13);
        for step in 1..=12u64 {
            advance(&mut ranker);
            if step.is_multiple_of(3) {
                save_state(&dir, &ranker, "digest-a")?;
                assert_eq!(render(&load(&dir, 13)?), render(&ranker));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn a_torn_tail_is_dropped_and_the_next_save_compacts() -> Result<(), StreamError> {
        let dir = temp_dir("torn");
        let mut ranker = grown(&dir, 12)?;
        let mut states = vec![render(&ranker)];
        for _ in 0..3 {
            advance(&mut ranker);
            save_state(&dir, &ranker, "digest-a")?;
            states.push(render(&ranker));
        }
        let log_path = dir.join(LOG_FILE);
        let log = std::fs::read(&log_path).expect("read log");
        assert!(!log.is_empty(), "the last save should have appended");
        std::fs::write(&log_path, &log[..log.len() - 7]).expect("tear log");
        let mut resumed = load(&dir, 13)?;
        assert_eq!(resumed.epochs_done, 14);
        assert_eq!(
            render(&resumed),
            states[2],
            "a torn tail must replay the clean prefix"
        );
        let mut reference = ThreatRanker::new(RankerConfig::default(), 13);
        for _ in 0..resumed.epochs_done + 1 {
            advance(&mut reference);
        }
        advance(&mut resumed);
        save_state(&dir, &resumed, "digest-a")?;
        assert_eq!(
            file_len(&log_path),
            0,
            "the save after a torn tail compacts"
        );
        assert_eq!(render(&load(&dir, 13)?), render(&reference));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn a_gap_in_the_log_is_a_typed_error() -> Result<(), StreamError> {
        let dir = temp_dir("gap");
        let mut ranker = grown(&dir, 12)?;
        for _ in 0..3 {
            advance(&mut ranker);
            save_state(&dir, &ranker, "digest-a")?;
        }
        let log_path = dir.join(LOG_FILE);
        let (records, damage) = atomic_io::read_log(&log_path)?;
        assert!(records.len() >= 2 && damage.is_none());
        // Drop the first record: the second no longer starts where the
        // snapshot ends.
        std::fs::remove_file(&log_path).expect("remove log");
        let mut log = AppendLog::open(&log_path)?;
        for record in &records[1..] {
            log.append(record)?;
        }
        assert!(matches!(load(&dir, 13), Err(StreamError::StateGap { .. })));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn mismatched_digest_or_config_is_refused() -> Result<(), StreamError> {
        let dir = temp_dir("mismatch");
        let ranker = ThreatRanker::new(RankerConfig::default(), 2);
        save_state(&dir, &ranker, "digest-a")?;
        assert!(matches!(
            load_state(&dir, RankerConfig::default(), 2, "digest-b"),
            Err(StreamError::StateMismatch)
        ));
        assert!(matches!(
            load_state(&dir, RankerConfig::default(), 3, "digest-a"),
            Err(StreamError::StateMismatch)
        ));
        let other_config = RankerConfig {
            top_k: 99,
            ..RankerConfig::default()
        };
        assert!(matches!(
            load_state(&dir, other_config, 2, "digest-a"),
            Err(StreamError::StateMismatch)
        ));
        // Thread count is not part of the fingerprint: state written at
        // one thread count loads at another.
        let threads_config = RankerConfig {
            threads: 8,
            ..RankerConfig::default()
        };
        assert!(load_state(&dir, threads_config, 2, "digest-a").is_ok());
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn json_state_of_earlier_versions_is_refused() -> Result<(), StreamError> {
        let dir = temp_dir("v1");
        let v1 = br#"{"version":1,"stream_digest":"digest-a","config_fingerprint":"0","next_event":0,"epochs_done":0,"actors":[],"follows":[],"docs":[],"targets":[]}"#;
        atomic_io::write_hashed(&dir.join(STATE_FILE), v1)?;
        assert!(has_state(&dir));
        assert!(matches!(load(&dir, 0), Err(StreamError::StateMismatch)));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    /// A snapshot and a few delta records of a ranker grown by `advance`.
    fn sample() -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut ranker = ThreatRanker::new(RankerConfig::default(), 13);
        for _ in 0..12 {
            advance(&mut ranker);
        }
        let snapshot = encode_snapshot(&ranker, "digest-a");
        let mut since = Durable {
            dir: PathBuf::new(),
            stream_digest: "digest-a".to_string(),
            epoch: ranker.epochs_done,
            snapshot_hash: atomic_io::fnv64(&snapshot),
            snapshot_len: 0,
            log_len: 0,
        };
        let mut records = Vec::new();
        for _ in 0..3 {
            advance(&mut ranker);
            records.push(encode_record(&ranker, &since));
            since.epoch = ranker.epochs_done;
        }
        (snapshot, records)
    }

    fn decode_all(snapshot: &[u8], records: &[Vec<u8>]) -> Result<ThreatRanker, StreamError> {
        let mut ranker = decode_snapshot(snapshot, RankerConfig::default(), 13, "digest-a")?;
        let (hash, epoch) = (atomic_io::fnv64(snapshot), ranker.epochs_done);
        for record in records {
            apply_record(&mut ranker, record, hash, epoch)?;
        }
        Ok(ranker)
    }

    #[test]
    fn stuffing_roundtrips_and_refuses_bad_escapes() {
        let raw: Vec<u8> = (0..=255u8).chain([b'\n', b'\\', b'\n']).collect();
        let stuffed = escape(&raw);
        assert!(!stuffed.contains(&b'\n'));
        assert_eq!(unescape(&stuffed).ok(), Some(raw));
        for bad in [&b"ab\\"[..], b"\\x", b"\\\n"] {
            assert!(matches!(
                unescape(bad),
                Err(StreamError::StateCorrupt { .. })
            ));
        }
    }

    /// Decoder-level hostile sweep: bit flips, truncations and inflated
    /// 8-byte fields over payloads that already passed their hash. Every
    /// mutation must decode or fail typed — never panic.
    #[test]
    fn mutated_payloads_decode_or_fail_typed() {
        let (snapshot, records) = sample();
        assert!(decode_all(&snapshot, &records).is_ok());
        let mut rng = SplitMix64::new(0x5eed_57a7);
        let mut typed = 0usize;
        for round in 0..3000 {
            let mut snap = snapshot.clone();
            let mut recs = records.clone();
            let which = rng.next_u64() as usize % (recs.len() + 1);
            let target = if which == 0 {
                &mut snap
            } else {
                &mut recs[which - 1]
            };
            let at = rng.next_u64() as usize % target.len();
            match round % 3 {
                0 => target[at] ^= 1 << (rng.next_u64() % 8),
                1 => target.truncate(at),
                _ => {
                    let end = (at + 8).min(target.len());
                    let inflated = (u64::MAX - rng.next_u64() % 1024).to_le_bytes();
                    target[at..end].copy_from_slice(&inflated[..end - at]);
                }
            }
            if decode_all(&snap, &recs).is_err() {
                typed += 1;
            }
        }
        assert!(typed > 1000, "only {typed} mutations were refused");
    }

    #[test]
    fn inflated_lengths_are_refused_before_allocating() {
        let mut payload = Vec::new();
        put_u64(&mut payload, u64::MAX / 2);
        let mut r = Reader::new(&payload);
        assert!(matches!(r.u64s(), Err(StreamError::StateCorrupt { .. })));
        let mut r = Reader::new(&payload);
        assert!(matches!(
            r.len(ACTOR_ROW_MIN),
            Err(StreamError::StateCorrupt { offset: 8 })
        ));
    }
}
