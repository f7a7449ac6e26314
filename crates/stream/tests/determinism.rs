//! The stream determinism contract, end to end:
//!
//! 1. rankings are byte-identical at 1, 2 and 8 threads;
//! 2. a split run (checkpoint after a few epochs, resume in a fresh
//!    invocation) reproduces the uninterrupted run byte for byte;
//! 3. with `--features failpoints`, a kill-point sweep crashes the watch
//!    loop on both sides of every early checkpoint boundary
//!    (`stream-mid-epoch-N` before the save, `stream-after-epoch-N`
//!    after it), resumes disarmed, and demands byte-identical rankings —
//!    the same discipline as the core pipeline's crash-recovery sweep —
//!    plus a kill inside a later compaction (`stream-mid-compaction-N`,
//!    between the snapshot rename and the log reset);
//! 4. a log torn mid-record resumes from its clean prefix, and the saves
//!    after it stay durable (they compact instead of appending behind
//!    the damage, where `read_log` would never see them);
//! 5. saving every few epochs instead of every epoch changes nothing.

mod common;

use common::{state_dir, Fixture};
use incite_core::checkpoint::atomic_io;
use incite_stream::state::{load_state, save_state, LOG_FILE, STATE_FILE};
use incite_stream::{run_watch, ThreatRanker};

#[test]
fn rankings_are_byte_identical_across_thread_counts() {
    let fx = Fixture::new();
    let doc_texts = fx.doc_texts();
    let mut rendered: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        let outcome = run_watch(&fx.stream, &doc_texts, &fx.classifier, &fx.config(threads))
            .expect("watch run");
        assert!(outcome.epochs > 2, "stream too short to exercise epochs");
        assert!(
            outcome.rankings.contains("target "),
            "no targets ranked at {threads} threads"
        );
        rendered.push(outcome.rankings);
    }
    assert_eq!(rendered[0], rendered[1], "1 vs 2 threads diverged");
    assert_eq!(rendered[0], rendered[2], "1 vs 8 threads diverged");
}

#[test]
fn split_run_resume_is_byte_identical() {
    let fx = Fixture::new();
    let doc_texts = fx.doc_texts();
    let reference = run_watch(&fx.stream, &doc_texts, &fx.classifier, &fx.config(2))
        .expect("uninterrupted run");

    let dir = state_dir("split");
    // First invocation: a few checkpointed epochs, then stop.
    let mut first = fx.config(1);
    first.state_dir = Some(dir.clone());
    first.max_epochs = Some(2);
    let partial = run_watch(&fx.stream, &doc_texts, &fx.classifier, &first).expect("partial run");
    assert_eq!(partial.epochs, 2);
    assert!(partial.resumed_at.is_none());

    // Second invocation: resumes from the checkpoint, different thread
    // count, runs to the end.
    let mut second = fx.config(4);
    second.state_dir = Some(dir.clone());
    let resumed = run_watch(&fx.stream, &doc_texts, &fx.classifier, &second).expect("resumed run");
    assert_eq!(resumed.resumed_at, Some(partial.events as u64));
    assert_eq!(resumed.epochs, reference.epochs);
    assert_eq!(
        resumed.rankings, reference.rankings,
        "resumed rankings diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash on both sides of each early checkpoint boundary and resume.
/// `stream-mid-epoch-N` fires with epoch N computed but unsaved (resume
/// replays it); `stream-after-epoch-N` fires with epoch N durable
/// (resume skips it). Then crash inside the first two compactions after
/// the first save, between the new snapshot's rename and the log reset
/// (resume loads the snapshot and skips the stale log). Either way the
/// final rankings must match the uninterrupted run byte for byte.
#[cfg(feature = "failpoints")]
#[test]
fn kill_resume_sweep_is_byte_identical() {
    use incite_stream::StreamError;

    let fx = Fixture::new();
    let doc_texts = fx.doc_texts();
    let reference = run_watch(&fx.stream, &doc_texts, &fx.classifier, &fx.config(2))
        .expect("uninterrupted run");

    // Arms every site in `armed`, runs until one fires, resumes disarmed
    // and checks the rankings. Returns the site that fired and the log's
    // length at the kill.
    let kill_and_resume = |tag: &str, armed: &[String]| -> (String, u64) {
        let dir = state_dir(&format!("kill-{tag}"));
        let mut config = fx.config(2);
        config.state_dir = Some(dir.clone());
        for site in armed {
            config.failpoints.arm(site);
        }
        let fired = match run_watch(&fx.stream, &doc_texts, &fx.classifier, &config) {
            Err(StreamError::Fault(fault)) if armed.contains(&fault.site) => fault.site,
            other => panic!("{tag}: expected an injected fault, got {other:?}"),
        };
        let log_len = std::fs::metadata(dir.join(LOG_FILE)).map_or(0, |m| m.len());

        let mut disarmed = fx.config(2);
        disarmed.state_dir = Some(dir.clone());
        let recovered = run_watch(&fx.stream, &doc_texts, &fx.classifier, &disarmed)
            .unwrap_or_else(|e| panic!("{fired}: resume failed: {e}"));
        // mid-epoch-1 dies before the first save: nothing to resume from.
        if fired != "stream-mid-epoch-1" {
            assert!(
                recovered.resumed_at.is_some(),
                "{fired}: expected a checkpoint to resume from"
            );
        }
        assert_eq!(
            recovered.rankings, reference.rankings,
            "{fired}: recovered rankings diverged from the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
        (fired, log_len)
    };

    for epoch in 1..=3 {
        for site in [
            format!("stream-mid-epoch-{epoch}"),
            format!("stream-after-epoch-{epoch}"),
        ] {
            kill_and_resume(&site, std::slice::from_ref(&site));
        }
    }

    // The first save always compacts; arm every later epoch's compaction
    // site, so the run dies in the first compaction after it, then in
    // the one after that.
    let compaction = |from: u64| -> Vec<String> {
        (from..=reference.epochs)
            .map(|epoch| format!("stream-mid-compaction-{epoch}"))
            .collect()
    };
    let (first, _) = kill_and_resume("compaction-a", &compaction(2));
    let epoch: u64 = first
        .rsplit('-')
        .next()
        .and_then(|n| n.parse().ok())
        .expect("compaction site names its epoch");
    let (_, stale) = kill_and_resume("compaction-b", &compaction(epoch + 1));
    assert!(
        stale > 0,
        "no compaction kill left stale log records to skip"
    );
}

/// A log torn in the middle of its last record — a kill mid-append —
/// resumes from the clean prefix. The two epochs saved after that resume
/// must be durable: appending them behind the damage would hide them from
/// `read_log`, and the next resume would silently start two epochs back.
#[test]
fn torn_log_tail_resumes_byte_identical() {
    let fx = Fixture::new();
    let doc_texts = fx.doc_texts();
    let reference = run_watch(&fx.stream, &doc_texts, &fx.classifier, &fx.config(2))
        .expect("uninterrupted run");

    let dir = state_dir("torn");
    let log = dir.join(LOG_FILE);
    let mut config = fx.config(2);
    config.state_dir = Some(dir.clone());
    config.max_epochs = Some(1);
    // One epoch per invocation, until the log holds two records and is
    // under half the snapshot: then two more appends fit before the size
    // rule would compact, so a save that appended behind the damage would
    // not be rescued by a compaction.
    let (epoch, last_record) = loop {
        let out = run_watch(&fx.stream, &doc_texts, &fx.classifier, &config).expect("one epoch");
        assert!(out.epochs + 3 < reference.epochs, "no room for two appends");
        let (records, damage) = atomic_io::read_log(&log).expect("read log");
        assert_eq!(damage, None);
        let snapshot = std::fs::metadata(dir.join(STATE_FILE)).map_or(0, |m| m.len());
        let log_len = std::fs::metadata(&log).map_or(0, |m| m.len());
        if records.len() >= 2 && 2 * log_len < snapshot {
            break (out.epochs, records[records.len() - 1].len());
        }
    };

    // Cut the last record mid-payload: its footer and half its bytes go.
    let bytes = std::fs::read(&log).expect("read log bytes");
    let cut = bytes.len() - 25 - last_record / 2;
    std::fs::write(&log, &bytes[..cut]).expect("tear log");

    config.max_epochs = Some(2);
    let two = run_watch(&fx.stream, &doc_texts, &fx.classifier, &config).expect("resume");
    assert_eq!(two.resumed_at, Some(fx.events_at(epoch - 1)));
    assert_eq!(two.epochs, epoch + 1);

    config.max_epochs = None;
    let last = run_watch(&fx.stream, &doc_texts, &fx.classifier, &config).expect("resume again");
    assert_eq!(
        last.resumed_at,
        Some(fx.events_at(epoch + 1)),
        "the saves after the torn tail were lost"
    );
    assert_eq!(last.rankings, reference.rankings);
    std::fs::remove_dir_all(&dir).ok();
}

/// Saving every third epoch, and resuming from every other save, lands on
/// the uninterrupted rankings: a delta record may cover several epochs.
#[test]
fn save_cadence_may_skip_epochs() {
    let fx = Fixture::new();
    let doc_texts = fx.doc_texts();
    let reference = run_watch(&fx.stream, &doc_texts, &fx.classifier, &fx.config(2))
        .expect("uninterrupted run");

    let dir = state_dir("cadence");
    let digest = fx.stream.digest();
    let n_actors = fx.stream.actors.len();
    let mut ranker = ThreatRanker::new(fx.ranker_config(2), n_actors);
    let mut saves = 0u32;
    loop {
        let consumed = ranker
            .process_epoch(&fx.stream, &doc_texts, &fx.classifier)
            .expect("epoch");
        if consumed == 0 {
            break;
        }
        if !ranker.epochs_done().is_multiple_of(3) {
            continue;
        }
        save_state(&dir, &ranker, &digest).expect("save");
        saves += 1;
        let loaded = load_state(&dir, fx.ranker_config(1), n_actors, &digest).expect("load");
        assert_eq!(loaded.next_event(), ranker.next_event());
        assert_eq!(
            loaded.render_rankings(&fx.stream.actors),
            ranker.render_rankings(&fx.stream.actors)
        );
        if saves.is_multiple_of(2) {
            ranker = loaded;
        }
    }
    assert!(saves >= 2, "stream too short for the cadence test");
    assert_eq!(
        ranker.render_rankings(&fx.stream.actors),
        reference.rankings
    );
    std::fs::remove_dir_all(&dir).ok();
}
