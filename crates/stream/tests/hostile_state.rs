//! Hostile-input sweep over a real checkpoint: a snapshot and delta log
//! written by the watch loop, mutated by a seeded, std-only mutator (bit
//! flips, truncations, inflated 8-byte length fields) and loaded back.
//!
//! * Raw damage to the snapshot file is refused with a typed error (its
//!   FNV footer no longer verifies).
//! * Raw damage to the log file replays a clean, shorter prefix: the
//!   loaded state equals the uninterrupted run's state at that epoch.
//! * Mutations re-framed under a valid footer reach the decoder itself,
//!   which must decode them or fail typed.
//! * Never a panic, and no load allocates a larger block than the clean
//!   load does: every decoded length is checked against the remaining
//!   input before anything is allocated for it.

mod common;

use common::{state_dir, Fixture};
use incite_core::checkpoint::atomic_io::{self, AppendLog};
use incite_stream::state::{load_state, save_state, LOG_FILE, STATE_FILE};
use incite_stream::{StreamError, ThreatRanker};
use incite_textkit::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest single allocation requested since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Tracking;

// SAFETY: forwards every call to the system allocator unchanged; the
// only addition is a relaxed atomic max over requested sizes.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Runs `f`, returning its result and the largest block it allocated.
fn largest_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let out = f();
    (out, LARGEST.load(Ordering::Relaxed))
}

/// Mutates `bytes` in place: a bit flip, a truncation, or an 8-byte
/// field overwritten with a huge little-endian length.
fn mutate(bytes: &mut Vec<u8>, rng: &mut SplitMix64, kind: u64) {
    if bytes.is_empty() {
        return;
    }
    let at = (rng.next_u64() % bytes.len() as u64) as usize;
    match kind % 3 {
        0 => bytes[at] ^= 1 << (rng.next_u64() % 8),
        1 => bytes.truncate(at),
        _ => {
            let huge = (u64::MAX >> (rng.next_u64() % 40)).to_le_bytes();
            let end = (at + 8).min(bytes.len());
            bytes[at..end].copy_from_slice(&huge[..end - at]);
        }
    }
}

/// `payload` framed under a valid footer, as `write_hashed` frames it.
fn reframed(spare: &Path, payload: &[u8]) -> Vec<u8> {
    let path = spare.join("reframed.ckpt");
    atomic_io::write_hashed(&path, payload).expect("reframe");
    std::fs::read(path).expect("reread")
}

/// `records` appended to a fresh log, as `AppendLog` frames them. A
/// mutation that put a newline in a record ends the log there.
fn relogged(spare: &Path, records: &[Vec<u8>]) -> Vec<u8> {
    let path = spare.join("relogged.log");
    std::fs::remove_file(&path).ok();
    let mut log = AppendLog::open(&path).expect("open log");
    for record in records {
        if log.append(record).is_err() {
            break;
        }
    }
    drop(log);
    std::fs::read(path).expect("reread")
}

fn write_dir(dir: &Path, snapshot: &[u8], log: &[u8]) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("create dir");
    std::fs::write(dir.join(STATE_FILE), snapshot).expect("write snapshot");
    std::fs::write(dir.join(LOG_FILE), log).expect("write log");
}

#[test]
fn mutated_checkpoints_load_a_prefix_or_fail_typed() {
    let fx = Fixture::new();
    let doc_texts = fx.doc_texts();
    let digest = fx.stream.digest();
    let n_actors = fx.stream.actors.len();
    let config = || fx.ranker_config(1);

    // A real checkpoint: save every epoch until the log holds several
    // records, remembering each epoch's rankings for the prefix check.
    let dir = state_dir("hostile-clean");
    let mut ranker = ThreatRanker::new(config(), n_actors);
    let mut renders: BTreeMap<u64, (usize, String)> = BTreeMap::new();
    let mut records = 0;
    while records < 3 {
        let consumed = ranker
            .process_epoch(&fx.stream, &doc_texts, &fx.classifier)
            .expect("epoch");
        assert!(consumed > 0, "stream ended before the log held 3 records");
        save_state(&dir, &ranker, &digest).expect("save");
        renders.insert(
            ranker.epochs_done(),
            (
                ranker.next_event(),
                ranker.render_rankings(&fx.stream.actors),
            ),
        );
        records = atomic_io::read_log(&dir.join(LOG_FILE))
            .expect("read log")
            .0
            .len();
    }
    let snapshot_file = std::fs::read(dir.join(STATE_FILE)).expect("read snapshot");
    let log_file = std::fs::read(dir.join(LOG_FILE)).expect("read log");
    let snapshot = atomic_io::read_hashed(&dir.join(STATE_FILE)).expect("snapshot payload");
    let (log_records, _) = atomic_io::read_log(&dir.join(LOG_FILE)).expect("log records");
    let (clean, clean_largest) = largest_during(|| load_state(&dir, config(), n_actors, &digest));
    assert_eq!(
        clean.expect("clean load").epochs_done(),
        ranker.epochs_done()
    );

    let work = state_dir("hostile-mutated");
    let spare = state_dir("hostile-spare");
    std::fs::create_dir_all(&spare).expect("create spare");
    let mut rng = SplitMix64::new(0x4057_11e5);
    let (mut refused, mut prefixes) = (0, 0);
    for round in 0..600u64 {
        let kind = rng.next_u64();
        let (mut snap, mut log) = (snapshot_file.clone(), log_file.clone());
        let raw = round % 4;
        match raw {
            // Raw damage to either file.
            0 => mutate(&mut snap, &mut rng, kind),
            1 => mutate(&mut log, &mut rng, kind),
            // Re-framed damage, past the footers, into the decoder.
            2 => {
                let mut payload = snapshot.clone();
                mutate(&mut payload, &mut rng, kind);
                snap = reframed(&spare, &payload);
            }
            _ => {
                let mut records = log_records.clone();
                let victim = (rng.next_u64() % records.len() as u64) as usize;
                mutate(&mut records[victim], &mut rng, kind);
                log = relogged(&spare, &records);
            }
        }
        write_dir(&work, &snap, &log);
        let (loaded, largest) = largest_during(|| load_state(&work, config(), n_actors, &digest));
        assert!(
            largest <= clean_largest,
            "round {round}: a {largest}-byte allocation beats the clean load's {clean_largest}"
        );
        match loaded {
            Err(e) => {
                assert_ne!(
                    raw, 1,
                    "round {round}: log damage must not fail the load: {e}"
                );
                if raw == 0 {
                    assert!(
                        matches!(e, StreamError::Checkpoint(_)),
                        "round {round}: {e}"
                    );
                }
                refused += 1;
            }
            Ok(loaded) if raw == 1 => {
                let expected = renders
                    .get(&loaded.epochs_done())
                    .unwrap_or_else(|| panic!("round {round}: no epoch {}", loaded.epochs_done()));
                assert_eq!(
                    (
                        loaded.next_event(),
                        loaded.render_rankings(&fx.stream.actors)
                    ),
                    expected.clone(),
                    "round {round}: log damage must replay a clean prefix"
                );
                prefixes += 1;
            }
            Ok(_) => assert_ne!(raw, 0, "round {round}: a damaged snapshot loaded"),
        }
    }
    assert!(refused > 100, "only {refused} mutations refused");
    assert_eq!(prefixes, 150, "every raw log mutation replays a prefix");
    for dir in [dir, work, spare] {
        std::fs::remove_dir_all(dir).ok();
    }
}
