//! Open-loop load generation against a front door.
//!
//! The generator drives a **fixed-schedule arrival clock**: request `k`
//! is due at `t0 + k/rps`, decided before the run starts and never
//! adjusted by server behavior. Latency is measured from that *scheduled*
//! instant — not from when the request was finally written — so a slow
//! server inflates the recorded tail instead of silently slowing the
//! arrival rate. This is the standard defense against coordinated
//! omission: a closed-loop client that waits for each reply before
//! sending the next one only measures the latencies the server chose to
//! let it see.
//!
//! Requests round-robin over `conns` pipelined line-protocol connections,
//! each with a writer thread (sleeps until each arrival time, writes the
//! `LABEL` line) and a reader thread (matches reply lines to scheduled
//! sends in order, records latency into a shared [`Histogram`]). A reply
//! that misses its per-request budget marks the connection dead and the
//! rest of its schedule is counted as timeouts — responses after an
//! unanswered request would be misattributed otherwise.

use crate::protocol::{
    parse_response, LabelSpec, LineEvent, LineReader, Response, MAX_REPLY_BYTES,
};
use ssg_error::SsgError;
use ssg_telemetry::hist::{HistSnapshot, Histogram};
use ssg_telemetry::json::Json;
use ssg_telemetry::report::ReportEnvelope;
use ssg_telemetry::{EventKind, Metrics, SpanEvent};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for [`run_loadgen`].
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Open-loop arrival rate, requests per second.
    pub rps: f64,
    /// How long to keep the schedule running.
    pub duration: Duration,
    /// Pipelined connections to spread arrivals over.
    pub conns: usize,
    /// The request template; request `k` is sent with `seed + k` so every
    /// arrival names a distinct (but reproducible) instance.
    pub spec: LabelSpec,
    /// Per-request latency budget measured from the *scheduled* arrival;
    /// replies slower than this count as timeouts.
    pub timeout: Duration,
    /// Send `SHUTDOWN` to the server after the run (used by the verify.sh
    /// smoke test to tear the server down without signals).
    pub drain: bool,
    /// Telemetry handle. When it carries a flight recorder
    /// ([`Metrics::with_tracing`]), every request is sent with a
    /// wire-propagated `trace=` context (trace id from
    /// [`loadgen_trace_id`], parent span id minted from the recorder) and
    /// the reader records one `client.request` span per reply, spanning
    /// scheduled arrival to reply receipt. Disabled metrics send plain
    /// untraced requests — byte-identical to the pre-tracing wire format.
    pub metrics: Metrics,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7878".into(),
            rps: 50.0,
            duration: Duration::from_secs(10),
            conns: 4,
            spec: LabelSpec {
                workload: crate::protocol::Workload::Corridor,
                n: 64,
                seed: 42,
                sep: ssg_labeling::SeparationVector::two(2, 1).expect("2,1 is non-increasing"),
                solver: None,
                deadline_ms: None,
                trace: None,
            },
            timeout: Duration::from_secs(1),
            drain: false,
            metrics: Metrics::disabled(),
        }
    }
}

/// The deterministic trace id request `k` of a run seeded with `seed`
/// carries: a splitmix64 mix of the two, forced nonzero so it never
/// collides with the recorder's "untraced" lane. Deterministic on purpose —
/// a test (or an operator reading two dumps) can recompute the id a given
/// request must appear under in the server's flight recorder.
pub fn loadgen_trace_id(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z | 1
}

/// Aggregated totals shared by all connection threads.
#[derive(Default)]
struct Totals {
    sent: AtomicU64,
    ok: AtomicU64,
    server_errors: AtomicU64,
    protocol_errors: AtomicU64,
    timeouts: AtomicU64,
}

/// The final report of one load-generation run (`ssg-load/v1`).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Configured arrival rate.
    pub target_rps: f64,
    /// Configured run length.
    pub duration: Duration,
    /// Wall time from the first scheduled arrival to the last reply.
    pub elapsed: Duration,
    /// Requests actually written to a socket.
    pub sent: u64,
    /// Replies answered `OK`.
    pub ok: u64,
    /// Replies answered `ERR` (the server refused or failed the request).
    pub server_errors: u64,
    /// Replies that could not be parsed, or connections that broke.
    pub protocol_errors: u64,
    /// Requests with no reply within the per-request budget.
    pub timeouts: u64,
    /// Completed replies (ok + server errors) divided by elapsed time.
    pub achieved_rps: f64,
    /// Reply latency from scheduled arrival, nanoseconds.
    pub latency: HistSnapshot,
    /// `ERR` code → count, for the failure breakdown.
    pub err_kinds: BTreeMap<String, u64>,
}

/// The envelope stamped on every loadgen report.
pub const LOAD_ENVELOPE: ReportEnvelope = ReportEnvelope::new("ssg-load/v1");

impl LoadReport {
    /// The `ssg-load/v1` JSON document.
    pub fn to_json(&self) -> Json {
        LOAD_ENVELOPE.stamp(vec![
            ("target_rps".into(), Json::F64(self.target_rps)),
            (
                "duration_ms".into(),
                Json::U64(self.duration.as_millis() as u64),
            ),
            (
                "elapsed_ms".into(),
                Json::U64(self.elapsed.as_millis() as u64),
            ),
            ("sent".into(), Json::U64(self.sent)),
            ("ok".into(), Json::U64(self.ok)),
            ("server_errors".into(), Json::U64(self.server_errors)),
            ("protocol_errors".into(), Json::U64(self.protocol_errors)),
            ("timeouts".into(), Json::U64(self.timeouts)),
            ("achieved_rps".into(), Json::F64(self.achieved_rps)),
            ("latency_ns".into(), self.latency.summary_json()),
            (
                "err_kinds".into(),
                Json::Object(
                    self.err_kinds
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable multi-line summary.
    pub fn to_text(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = format!(
            "loadgen: target {:.1} rps for {:.1}s -> achieved {:.1} rps over {:.2}s\n\
             requests: sent {} ok {} server-err {} protocol-err {} timeout {}\n\
             latency (from scheduled send): p50 {:.2}ms p90 {:.2}ms p99 {:.2}ms max {:.2}ms\n",
            self.target_rps,
            self.duration.as_secs_f64(),
            self.achieved_rps,
            self.elapsed.as_secs_f64(),
            self.sent,
            self.ok,
            self.server_errors,
            self.protocol_errors,
            self.timeouts,
            ms(self.latency.p50()),
            ms(self.latency.p90()),
            ms(self.latency.p99()),
            ms(self.latency.max()),
        );
        if !self.err_kinds.is_empty() {
            out.push_str("err breakdown:");
            for (kind, count) in &self.err_kinds {
                out.push_str(&format!(" {kind}={count}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Runs one open-loop load generation against `cfg.addr` and reports.
pub fn run_loadgen(cfg: &LoadgenConfig) -> Result<LoadReport, SsgError> {
    if !(cfg.rps.is_finite() && cfg.rps > 0.0) {
        return Err(SsgError::Usage("loadgen: --rps must be positive".into()));
    }
    let conns = cfg.conns.max(1);
    let total = (cfg.rps * cfg.duration.as_secs_f64()).ceil() as u64;
    if total == 0 {
        return Err(SsgError::Usage(
            "loadgen: rps x duration yields zero requests".into(),
        ));
    }
    let interval = Duration::from_secs_f64(1.0 / cfg.rps);

    let totals = Arc::new(Totals::default());
    let latency = Arc::new(Histogram::new());
    let err_kinds: Arc<Mutex<BTreeMap<String, u64>>> = Arc::new(Mutex::new(BTreeMap::new()));

    // Connect everything up front so a dead server fails fast instead of
    // producing a report full of timeouts.
    let mut streams = Vec::with_capacity(conns);
    for _ in 0..conns {
        let stream =
            TcpStream::connect(&cfg.addr).map_err(|e| SsgError::io(cfg.addr.clone(), &e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| SsgError::io(cfg.addr.clone(), &e))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| SsgError::io(cfg.addr.clone(), &e))?;
        streams.push(stream);
    }

    let t0 = Instant::now() + Duration::from_millis(5);
    let mut handles = Vec::with_capacity(conns * 2);
    for (c, stream) in streams.into_iter().enumerate() {
        let reader_stream = stream
            .try_clone()
            .map_err(|e| SsgError::io(cfg.addr.clone(), &e))?;
        // Each schedule entry is (scheduled arrival, trace id, client span
        // id); both ids are 0 when the run is untraced.
        let (sched_tx, sched_rx) = mpsc::channel::<(Instant, u64, u64)>();

        // Writer: fire this connection's slice of the global schedule.
        let spec = cfg.spec.clone();
        let totals_w = Arc::clone(&totals);
        let recorder_w = cfg.metrics.recorder().cloned();
        let mut writer = stream;
        handles.push(std::thread::spawn(move || {
            let mut k = c as u64;
            while k < total {
                let due = t0 + interval.mul_f64(k as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let mut spec_k = spec.clone();
                spec_k.seed = spec.seed.wrapping_add(k);
                // Mint the trace context here; the reader owns the span's
                // lifetime (scheduled arrival -> reply) and records it.
                let (trace_id, span_id) = match &recorder_w {
                    Some(rec) => (loadgen_trace_id(spec.seed, k), rec.next_span_id()),
                    None => (0, 0),
                };
                if trace_id != 0 {
                    spec_k.trace = Some((trace_id, span_id));
                }
                let line = format!("{}\n", spec_k.render());
                // Tell the reader about the arrival before writing, so a
                // reply can never race its own bookkeeping.
                if sched_tx.send((due, trace_id, span_id)).is_err() {
                    break;
                }
                if writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err() {
                    break;
                }
                totals_w.sent.fetch_add(1, Ordering::Relaxed);
                k += conns as u64;
            }
            // Dropping sched_tx tells the reader the schedule is complete.
        }));

        // Reader: one reply line per scheduled arrival, in order.
        let totals_r = Arc::clone(&totals);
        let latency_r = Arc::clone(&latency);
        let err_kinds_r = Arc::clone(&err_kinds);
        let budget = cfg.timeout;
        let recorder_r = cfg.metrics.recorder().cloned();
        handles.push(std::thread::spawn(move || {
            let mut reader = LineReader::new(reader_stream, MAX_REPLY_BYTES);
            let mut dead = false;
            while let Ok((scheduled, trace_id, span_id)) = sched_rx.recv() {
                if dead {
                    totals_r.timeouts.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let deadline = scheduled + budget;
                loop {
                    match reader.next_line() {
                        Ok(LineEvent::Line(line)) => {
                            latency_r.record(scheduled.elapsed().as_nanos() as u64);
                            // The client-side request span: scheduled
                            // arrival to reply receipt. Built by hand
                            // because the start was measured on the writer
                            // thread and thread-local span guards cannot
                            // cross that boundary.
                            if let (Some(rec), true) = (&recorder_r, trace_id != 0) {
                                rec.record(SpanEvent {
                                    trace_id,
                                    span_id,
                                    parent_id: 0,
                                    name: "client.request",
                                    kind: EventKind::Span,
                                    start_ns: rec.instant_ns(scheduled),
                                    end_ns: rec.now_ns(),
                                });
                            }
                            match parse_response(&line) {
                                Ok(Response::Ok { trace, .. }) => {
                                    // A traced request must echo its own
                                    // trace id; anything else means the
                                    // reply was stitched to the wrong
                                    // request.
                                    if trace_id != 0 && trace != Some(trace_id) {
                                        totals_r.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                    } else {
                                        totals_r.ok.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                Ok(Response::Err { code, .. }) => {
                                    totals_r.server_errors.fetch_add(1, Ordering::Relaxed);
                                    *err_kinds_r
                                        .lock()
                                        .expect("err kind map poisoned")
                                        .entry(code)
                                        .or_insert(0) += 1;
                                }
                                Ok(_) | Err(_) => {
                                    totals_r.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            break;
                        }
                        Ok(LineEvent::Overlong) => {
                            totals_r.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        Ok(LineEvent::TimedOut) => {
                            if Instant::now() >= deadline {
                                totals_r.timeouts.fetch_add(1, Ordering::Relaxed);
                                dead = true;
                                break;
                            }
                        }
                        Ok(LineEvent::Eof) | Err(_) => {
                            totals_r.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            dead = true;
                            break;
                        }
                    }
                }
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let elapsed = t0.elapsed();

    if cfg.drain {
        drain_server(&cfg.addr)?;
    }

    let latency = latency.snapshot();
    let completed =
        totals.ok.load(Ordering::Relaxed) + totals.server_errors.load(Ordering::Relaxed);
    Ok(LoadReport {
        target_rps: cfg.rps,
        duration: cfg.duration,
        elapsed,
        sent: totals.sent.load(Ordering::Relaxed),
        ok: totals.ok.load(Ordering::Relaxed),
        server_errors: totals.server_errors.load(Ordering::Relaxed),
        protocol_errors: totals.protocol_errors.load(Ordering::Relaxed),
        timeouts: totals.timeouts.load(Ordering::Relaxed),
        achieved_rps: if elapsed.as_secs_f64() > 0.0 {
            completed as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        latency,
        err_kinds: Arc::try_unwrap(err_kinds)
            .map(|m| m.into_inner().expect("err kind map poisoned"))
            .unwrap_or_default(),
    })
}

/// Sends `SHUTDOWN` on a fresh loopback connection and waits for `BYE`.
fn drain_server(addr: &str) -> Result<(), SsgError> {
    let mut stream = TcpStream::connect(addr).map_err(|e| SsgError::io(addr, &e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| SsgError::io(addr, &e))?;
    stream
        .write_all(b"SHUTDOWN\n")
        .map_err(|e| SsgError::io(addr, &e))?;
    let reader_stream = stream.try_clone().map_err(|e| SsgError::io(addr, &e))?;
    let mut reader = LineReader::new(reader_stream, MAX_REPLY_BYTES);
    match reader.next_line() {
        Ok(LineEvent::Line(line)) if line == "BYE" => Ok(()),
        Ok(other) => Err(SsgError::parse(
            "response",
            format!("expected BYE to SHUTDOWN, got {other:?}"),
        )),
        Err(e) => Err(SsgError::io(addr, &e)),
    }
}
