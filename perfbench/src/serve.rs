//! The `incite serve` path on loopback, in three phases:
//!
//! 1. open loop: single-document requests on a fixed schedule well below
//!    capacity, each timed from the moment it was due;
//! 2. closed loop: single-document requests back to back;
//! 3. closed loop: 32-document batches back to back.
//!
//! The phases run in short slices, interleaved with the other paths, so
//! each samples the whole run.
//!
//! Single documents are dominated by HTTP parsing, admission, queueing and
//! the response write; batches by the scoring kernel. So a change to the
//! HTTP layers should move phases 1–2 and not 3, a kernel change the
//! reverse.

use crate::affinity;
use crate::inputs::{Inputs, Request, THREADS};
use crate::trace::Tracer;
use crate::Tally;
use incite_core::{load_latest_classifier, ScoringEngine};
use incite_serve::client::HttpClient;
use incite_serve::{ServeConfig, Server, ServerHandle};
use std::time::{Duration, Instant};

/// Open-loop request rate (requests per second, both connections).
pub const OPEN_RATE: f64 = 2000.0;

/// Load-generator connections (one thread each).
const CONNECTIONS: usize = 2;

/// Unmeasured open-loop traffic at the start of each slice: after the
/// other paths ran, the first requests stall for milliseconds at a time
/// while the server's threads wake and their caches refill.
const WARMUP: Duration = Duration::from_millis(250);

/// Length of the open-loop phase per slice.
const OPEN_FOR: Duration = Duration::from_millis(750);

/// Length of each closed-loop phase per slice.
const CLOSED_FOR: Duration = Duration::from_millis(750);

/// Closed-loop throughput is taken per window of this length; the
/// metric is the median window.
const RATE_WINDOW: Duration = Duration::from_millis(100);

#[derive(Default)]
pub struct ServeSamples {
    /// Every measured open-loop latency (µs); a failed request reads
    /// `f64::INFINITY`, so it misses any latency limit.
    pub open_us: Vec<f64>,
    /// How late the generator sent each measured open-loop request (ms).
    pub late_ms: Vec<f64>,
    /// Closed-loop single-document requests per second, per window.
    pub rps: Vec<f64>,
    /// Closed-loop batch documents per second, per window.
    pub batch_docs_per_s: Vec<f64>,
}

/// The `"bits"` array of a `/v1/score` response.
fn parse_bits(body: &str) -> Option<Vec<u32>> {
    let start = body.find("\"bits\":")? + "\"bits\":".len();
    let rest = body[start..].trim_start().strip_prefix('[')?;
    let list = &rest[..rest.find(']')?];
    list.split(',')
        .map(|v| v.trim().parse::<u32>().ok())
        .collect()
}

/// One request's outcome as the load generator saw it.
struct Sent {
    seq: usize,
    start_ns: u64,
    end_ns: u64,
    latency_us: f64,
    late_ms: f64,
    docs: usize,
    /// Why the request failed: a refusal, a socket error or a wrong bit.
    problem: Option<String>,
}

/// One keep-alive connection that reconnects after a socket error.
struct Conn<'a> {
    addr: &'a str,
    client: Option<HttpClient>,
}

impl Conn<'_> {
    /// Sends `req`; `Err` describes a refusal, a socket error or a wrong
    /// score bit.
    fn send(&mut self, req: &Request) -> Result<(), String> {
        if self.client.is_none() {
            self.client =
                Some(HttpClient::connect(self.addr).map_err(|e| format!("connect: {e}"))?);
        }
        let client = self.client.as_mut().expect("connected just above");
        match client.post_json("/v1/score", &req.body) {
            Ok(resp) if resp.status == 200 => match parse_bits(&resp.body) {
                Some(bits) if bits == req.bits => Ok(()),
                _ => Err("response bits differ from offline classifier.score".to_string()),
            },
            Ok(resp) => Err(format!("status {}", resp.status)),
            Err(e) => {
                self.client = None;
                Err(format!("socket: {e}"))
            }
        }
    }
}

/// Sleeps until `due`. The generator shares the server's CPU, so it
/// must not spin; the sleep's overshoot is the lateness it reports.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs `CONNECTIONS` generator threads. With `rate`, connection `c`
/// sends request `k ≡ c (mod CONNECTIONS)` when it falls due at
/// `k / rate`; without, each sends back to back until `duration` ends.
fn generate(
    addr: &str,
    reqs: &[Request],
    rate: Option<f64>,
    duration: Duration,
    origin: Instant,
    cpu: Option<usize>,
) -> Vec<Sent> {
    let t0 = Instant::now() + Duration::from_millis(5);
    let end = t0 + duration;
    let ns = |at: Instant| at.saturating_duration_since(origin).as_nanos() as u64;
    let per_thread: Vec<Vec<Sent>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    if let Some(cpu) = cpu {
                        affinity::pin(&[cpu]);
                    }
                    let mut conn = Conn { addr, client: None };
                    let mut out = Vec::new();
                    let mut k = c;
                    loop {
                        let due = match rate {
                            Some(r) => t0 + Duration::from_secs_f64(k as f64 / r),
                            None => Instant::now().max(t0),
                        };
                        if due >= end {
                            break;
                        }
                        wait_until(due);
                        let sent = Instant::now();
                        let req = &reqs[k % reqs.len()];
                        let result = conn.send(req);
                        let done = Instant::now();
                        out.push(Sent {
                            seq: k,
                            start_ns: ns(sent),
                            end_ns: ns(done),
                            latency_us: (done - due).as_secs_f64() * 1e6,
                            late_ms: (sent - due).as_secs_f64() * 1e3,
                            docs: req.texts.len(),
                            problem: result.err(),
                        });
                        k += CONNECTIONS;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    per_thread.into_iter().flatten().collect()
}

/// Folds one phase's requests into the tally and the trace.
fn account(sent: &[Sent], t: &mut Tracer, tally: &mut Tally) {
    for s in sent {
        tally.attempted += 1;
        if let Some(problem) = &s.problem {
            tally.failed += 1;
            if tally.problems.len() < 16 {
                tally.problems.push(format!("request {}: {problem}", s.seq));
            }
        }
        t.record("serve.request", s.start_ns, s.end_ns);
    }
    t.count("serve.requests", sent.len() as f64);
    let failed = sent.iter().filter(|s| s.problem.is_some()).count();
    t.count("serve.failed", failed as f64);
}

/// Ok documents per second in each whole [`RATE_WINDOW`] of a closed-loop
/// phase of [`CLOSED_FOR`].
fn docs_per_s(sent: &[Sent]) -> Vec<f64> {
    let Some(start) = sent.iter().map(|s| s.start_ns).min() else {
        return Vec::new();
    };
    let window_ns = RATE_WINDOW.as_nanos() as u64;
    let mut docs = vec![0usize; (CLOSED_FOR.as_nanos() / RATE_WINDOW.as_nanos()) as usize];
    for s in sent.iter().filter(|s| s.problem.is_none()) {
        if let Some(w) = docs.get_mut(((s.end_ns - start) / window_ns) as usize) {
            *w += s.docs;
        }
    }
    docs.iter()
        .map(|d| *d as f64 / RATE_WINDOW.as_secs_f64())
        .collect()
}

/// `incite_serve_<name> <value>` from a `/metrics` body.
fn scrape(metrics: &str, name: &str) -> f64 {
    let key = format!("incite_serve_{name} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&key))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(f64::NAN)
}

/// A running server pinned to one CPU, with the load generator's CPU.
pub struct Bench {
    server: ServerHandle,
    addr: String,
    cpu: Option<usize>,
}

impl Bench {
    /// Boots the server from the quick run directory.
    pub fn start(inputs: &Inputs, t: &mut Tracer, tally: &mut Tally) -> Option<Bench> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: THREADS,
            deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        // Server threads inherit the spawning thread's CPU mask: pin this
        // thread to the serve CPU while the server starts, then restore it.
        let cpus = affinity::allowed();
        let cpu = cpus.first().copied();
        if let Some(cpu) = cpu {
            affinity::pin(&[cpu]);
        }
        let started = t.span("serve.start", |_| {
            Server::start_from_run_dir(&inputs.model_dir, config)
        });
        affinity::pin(&cpus);
        let server = tally.op("start server", started)?;
        let addr = server.local_addr().to_string();
        Some(Bench { server, addr, cpu })
    }

    /// One slice of each phase, after a [`WARMUP`]: [`OPEN_FOR`] of
    /// open-loop requests, then [`CLOSED_FOR`] of closed-loop single
    /// documents and of closed-loop batches.
    pub fn slice(
        &self,
        inputs: &Inputs,
        t: &mut Tracer,
        tally: &mut Tally,
        samples: &mut ServeSamples,
    ) {
        let origin = t.origin();
        t.span("bench.serve_warmup", |t| {
            let sent = generate(
                &self.addr,
                &inputs.single,
                Some(OPEN_RATE),
                WARMUP,
                origin,
                self.cpu,
            );
            account(&sent, t, tally);
        });
        t.span("bench.serve_open", |t| {
            let sent = generate(
                &self.addr,
                &inputs.single,
                Some(OPEN_RATE),
                OPEN_FOR,
                origin,
                self.cpu,
            );
            account(&sent, t, tally);
            samples.open_us.extend(sent.iter().map(|s| match s.problem {
                None => s.latency_us,
                Some(_) => f64::INFINITY,
            }));
            samples.late_ms.extend(sent.iter().map(|s| s.late_ms));
        });
        t.span("bench.serve_closed", |t| {
            let sent = generate(
                &self.addr,
                &inputs.single,
                None,
                CLOSED_FOR,
                origin,
                self.cpu,
            );
            account(&sent, t, tally);
            samples.rps.extend(docs_per_s(&sent));
        });
        t.span("bench.serve_batch", |t| {
            let sent = generate(
                &self.addr,
                &inputs.batch,
                None,
                CLOSED_FOR,
                origin,
                self.cpu,
            );
            account(&sent, t, tally);
            samples.batch_docs_per_s.extend(docs_per_s(&sent));
        });
    }

    /// Drains and joins the server; a traced run first scrapes `/metrics`.
    pub fn stop(self, t: &mut Tracer, tally: &mut Tally) {
        if t.enabled() {
            let metrics =
                HttpClient::connect(self.addr.as_str()).and_then(|mut c| c.get("/metrics"));
            if let Some(resp) = tally.op("scrape /metrics", metrics) {
                let batches = scrape(&resp.body, "batches_total");
                t.count("serve.batches", batches);
                t.count(
                    "serve.docs_per_batch",
                    scrape(&resp.body, "documents_scored_total") / batches,
                );
                t.count(
                    "serve.rejected_overload",
                    scrape(&resp.body, "rejected_overload_total"),
                );
            }
        }
        let report = self.server.join();
        tally.check(report.panicked_threads == 0, || {
            "a server thread panicked".to_string()
        });
    }
}

/// Traced run only: `ScoringEngine::score_texts` on each request's texts,
/// in process, with the server stopped. A request's round trip minus this
/// is its HTTP, admission and queue share.
pub fn score_texts_layer(inputs: &Inputs, t: &mut Tracer, tally: &mut Tally) {
    let Some(classifier) = tally.op("load model", load_latest_classifier(&inputs.model_dir)) else {
        return;
    };
    for (span, reqs) in [
        ("core.engine.score_texts", &inputs.single),
        ("core.engine.score_texts_batch", &inputs.batch),
    ] {
        for req in reqs.iter() {
            let texts: Vec<&str> = req.texts.iter().map(String::as_str).collect();
            let scored = t.span(span, |_| {
                ScoringEngine::score_texts(&classifier, &texts, THREADS)
            });
            if let Some(scores) = tally.op("score_texts", scored) {
                let bits: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
                tally.check(bits == req.bits, || {
                    "score_texts differs from classifier.score".to_string()
                });
            }
        }
    }
}
