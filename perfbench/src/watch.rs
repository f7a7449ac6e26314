//! The `incite watch --state` path: decode the event stream and rank it
//! epoch by epoch with a checkpoint after every epoch, killed at fixed
//! points and resumed from the state directory.
//!
//! Passes over the stream take turns between two drivers:
//!
//! - [`Driver::RunWatch`] calls `run_watch` with a state directory, as
//!   `incite watch --state` does. Each part of the pass between kills is
//!   one invocation that decodes the stream and resumes from the state
//!   directory. After each kill, [`RECOVERIES`] resumed invocations
//!   stopped after one epoch each (`max_epochs` 1, killed again) are timed
//!   as recoveries. These passes give the events per second and the
//!   recovery times.
//! - [`Driver::Direct`] makes the calls `run_watch` makes itself —
//!   `process_epoch` and `save_state` per epoch, `load_state` on resume —
//!   so that each epoch is timed on its own and, in the traced run, each
//!   call gets a span. These passes give the per-epoch times.
//!
//! Either way, the rankings a pass ends with must equal those of the
//! uncheckpointed `run_watch` rendered in set-up.

use crate::inputs::{ranker_config, Inputs};
use crate::trace::Tracer;
use crate::{dir_size, Tally};
use incite_ml::TextClassifier;
use incite_stream::state::{load_state, save_state};
use incite_stream::{run_watch, EventStream, ThreatRanker, WatchConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Fractions of the stream's epochs after which the run is killed; each
/// kill is followed by a resume from the state directory.
const KILL_POINTS: [f64; 2] = [1.0 / 3.0, 2.0 / 3.0];

/// Segments per pass: one before each kill, and the last.
const SEGMENTS: usize = KILL_POINTS.len() + 1;

/// One-epoch resumes timed after each kill of a [`Driver::RunWatch`] pass.
const RECOVERIES: usize = 3;

/// What drives a pass over the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Driver {
    RunWatch,
    Direct,
}

#[derive(Default)]
pub struct WatchSamples {
    /// Events per second of each whole [`Driver::RunWatch`] pass.
    pub events_per_s: Vec<f64>,
    /// Milliseconds per epoch, `process_epoch` plus its `save_state`, of
    /// each whole [`Driver::Direct`] pass.
    pub epoch_ms: Vec<f64>,
    /// Milliseconds of each resumed `run_watch` up to its first new
    /// durable epoch, of each whole [`Driver::RunWatch`] pass, by kill
    /// point.
    pub recover_ms: [Vec<f64>; KILL_POINTS.len()],
}

impl WatchSamples {
    /// Recovery time: the mean over kill points of each one's median.
    /// The state, and so the time to load it, grows along the stream, so
    /// one median over all kill points would jump between them.
    pub fn recover_ms(&self) -> f64 {
        let medians = self.recover_ms.iter().map(|v| crate::median(v));
        medians.sum::<f64>() / KILL_POINTS.len() as f64
    }
}

/// One pass over the stream, between segments. Its samples are kept
/// only if the pass completes, so that a pass cut by the end of the run
/// does not tilt them towards the start of the stream.
struct Pass {
    driver: Driver,
    /// Segments run so far.
    segment: usize,
    wall: f64,
    samples: WatchSamples,
}

/// Where a segment left the pass.
struct SegmentEnd {
    epochs_done: u64,
    /// The rankings, when the segment ran to the end of the stream.
    rankings: Option<String>,
}

/// The watch loop over one state directory, advanced a segment at a time:
/// a segment runs from the start of a pass or a resume to the next kill
/// point or the end of the stream.
pub struct Watch<'a> {
    inputs: &'a Inputs,
    texts: &'a BTreeMap<u64, &'a str>,
    classifier: &'a TextClassifier,
    dir: &'a Path,
    /// Pass `i` is driven by `drivers[i % drivers.len()]`.
    drivers: &'static [Driver],
    passes: usize,
    pass: Option<Pass>,
}

/// Epoch count at which segment `segment` of a pass over `stream` ends;
/// `None` for the last segment, which runs to the end of the stream.
fn kill_at(stream: &EventStream, segment: usize) -> Option<u64> {
    let epochs = stream.events.len().div_ceil(ranker_config().epoch_len) as f64;
    KILL_POINTS.get(segment).map(|f| (f * epochs) as u64)
}

impl<'a> Watch<'a> {
    pub fn new(
        inputs: &'a Inputs,
        texts: &'a BTreeMap<u64, &'a str>,
        classifier: &'a TextClassifier,
        dir: &'a Path,
        drivers: &'static [Driver],
    ) -> Self {
        Watch {
            inputs,
            texts,
            classifier,
            dir,
            drivers,
            passes: 0,
            pass: None,
        }
    }

    /// Runs segments until the current pass over the stream completes.
    pub fn pass(&mut self, t: &mut Tracer, tally: &mut Tally, samples: &mut WatchSamples) {
        let failed = tally.failed;
        loop {
            self.segment(t, tally, samples);
            if self.pass.is_none() || tally.failed != failed {
                return;
            }
        }
    }

    /// Runs one segment. Starting a pass empties the state directory
    /// first, outside the segment's time.
    pub fn segment(&mut self, t: &mut Tracer, tally: &mut Tally, samples: &mut WatchSamples) {
        if self.pass.is_none() {
            let _ = std::fs::remove_dir_all(self.dir);
            if tally
                .op("create state dir", std::fs::create_dir_all(self.dir))
                .is_none()
            {
                return;
            }
            self.pass = Some(Pass {
                driver: self.drivers[self.passes % self.drivers.len()],
                segment: 0,
                wall: 0.0,
                samples: WatchSamples::default(),
            });
            self.passes += 1;
        }
        let Some(mut pass) = self.pass.take() else {
            return;
        };
        let started = Instant::now();
        let done = t.span("bench.watch", |t| {
            let stream = t.span("stream.decode", |_| {
                EventStream::decode(&self.inputs.events)
            });
            let stream = tally.op("decode events", stream)?;
            let end = match pass.driver {
                Driver::RunWatch => self.run_watch_segment(&stream, &mut pass, tally)?,
                Driver::Direct => self.direct_segment(&stream, &mut pass, t, tally)?,
            };
            pass.segment += 1;
            if pass.segment < SEGMENTS {
                return Some(None);
            }
            t.count("stream.events", stream.events.len() as f64);
            t.count("stream.epochs", end.epochs_done as f64);
            if t.enabled() {
                t.count("stream.state_bytes", dir_size(self.dir).0 as f64);
            }
            tally.check(end.rankings.as_ref() == Some(&self.inputs.rankings), || {
                format!(
                    "rankings after kill/resume ({:?}) differ from the uncheckpointed run_watch",
                    pass.driver
                )
            });
            Some(Some(stream.events.len()))
        });
        pass.wall += started.elapsed().as_secs_f64();
        match done {
            Some(None) => self.pass = Some(pass),
            Some(Some(events)) => {
                let mut s = pass.samples;
                if pass.driver == Driver::RunWatch {
                    s.events_per_s.push(events as f64 / pass.wall);
                }
                samples.events_per_s.append(&mut s.events_per_s);
                samples.epoch_ms.append(&mut s.epoch_ms);
                for (all, mut new) in samples.recover_ms.iter_mut().zip(s.recover_ms) {
                    all.append(&mut new);
                }
            }
            // A failed segment abandons its pass.
            None => {}
        }
    }

    /// One segment through `run_watch`.
    fn run_watch_segment(
        &self,
        stream: &EventStream,
        pass: &mut Pass,
        tally: &mut Tally,
    ) -> Option<SegmentEnd> {
        let config = |max_epochs| WatchConfig {
            ranker: ranker_config(),
            state_dir: Some(self.dir.to_path_buf()),
            max_epochs,
            ..WatchConfig::default()
        };
        let mut epochs = 0;
        if let Some(killed) = pass.segment.checked_sub(1) {
            for _ in 0..RECOVERIES {
                let started = Instant::now();
                let resumed = run_watch(stream, self.texts, self.classifier, &config(Some(1)));
                let ms = started.elapsed().as_secs_f64() * 1e3;
                let resumed = tally.op("run_watch resume", resumed)?;
                tally.attempted += 1;
                tally.check(resumed.resumed_at.is_some(), || {
                    "run_watch did not resume from the state directory".to_string()
                });
                pass.samples.recover_ms[killed].push(ms);
                epochs = resumed.epochs;
            }
        }
        let kill = kill_at(stream, pass.segment);
        let out = run_watch(
            stream,
            self.texts,
            self.classifier,
            &config(kill.map(|k| k.saturating_sub(epochs))),
        );
        let out = tally.op("run_watch", out)?;
        tally.attempted += out.epochs - epochs;
        if let Some(k) = kill {
            tally.check(out.epochs == k, || {
                format!("run_watch stopped at epoch {}, not {k}", out.epochs)
            });
        }
        Some(SegmentEnd {
            epochs_done: out.epochs,
            rankings: kill.is_none().then_some(out.rankings),
        })
    }

    /// One segment through `process_epoch`, `save_state` and `load_state`.
    fn direct_segment(
        &self,
        stream: &EventStream,
        pass: &mut Pass,
        t: &mut Tracer,
        tally: &mut Tally,
    ) -> Option<SegmentEnd> {
        let digest = stream.digest();
        let mut ranker = if pass.segment == 0 {
            ThreatRanker::new(ranker_config(), stream.actors.len())
        } else {
            let loaded = t.span("stream.load", |_| {
                load_state(self.dir, ranker_config(), stream.actors.len(), &digest)
            });
            t.count("stream.resumes", 1.0);
            tally.op("load_state", loaded)?
        };
        let kill = kill_at(stream, pass.segment);
        while kill != Some(ranker.epochs_done()) {
            let started = Instant::now();
            let consumed = t.span("stream.rank", |_| {
                ranker.process_epoch(stream, self.texts, self.classifier)
            });
            match consumed {
                Ok(0) => break,
                Ok(_) => tally.attempted += 1,
                Err(e) => return tally.check_op("process_epoch", Err(e)),
            }
            let saved = t.span("stream.save", |_| save_state(self.dir, &ranker, &digest));
            tally.check_op("save_state", saved)?;
            pass.samples
                .epoch_ms
                .push(started.elapsed().as_secs_f64() * 1e3);
            if t.enabled() {
                t.count("stream.bytes_written", dir_size(self.dir).0 as f64);
            }
        }
        // At a kill the in-memory ranker is dropped; the next segment
        // resumes from the state directory.
        Some(SegmentEnd {
            epochs_done: ranker.epochs_done(),
            rankings: kill
                .is_none()
                .then(|| ranker.render_rankings(&stream.actors)),
        })
    }
}
