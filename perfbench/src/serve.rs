//! The served path: a loopback `ssg_net::Server`, a closed-loop client,
//! and the stage-by-stage replay of the same schedule that the traced run
//! uses to attribute a request's time.

use crate::check::{conflict_graph, instance, spec, Reference};
use ssg_engine::{Engine, LabelResponse};
use ssg_net::protocol::{
    parse_request, parse_response, render_ok, LineEvent, LineReader, Request, Response,
};
use ssg_net::{LabelSpec, Server, ServerConfig, Workload as Family, MAX_REQUEST_N};
use ssg_telemetry::{EventKind, FlightRecorder, Metrics, SpanEvent};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest legal `OK` line: `OK <span>`, then `MAX_REQUEST_N` labels of
/// at most ten digits each with a separating space, then a trace echo.
/// (`ssg loadgen` reads replies under the 64 KiB request cap, so a
/// backbone reply at n = 32768 or more is a protocol error there.)
pub const REPLY_CAP: usize = "OK ".len() + 10 + MAX_REQUEST_N * 11 + " trace=".len() + 16;

/// How long one request may take before it counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Trace ids of the traced load phase; replay ids use [`REPLAY_TRACE`].
const LOAD_TRACE: u64 = 1 << 40;
/// Trace ids of the stage replay.
const REPLAY_TRACE: u64 = 2 << 40;

/// The fixed pool of served instances, with their wire lines and checked
/// answers.
pub struct Pool {
    /// `LABEL` lines, without a newline.
    pub lines: Vec<String>,
    /// Parsed specs, parallel to `lines`.
    pub specs: Vec<LabelSpec>,
    /// One reference per pool entry.
    pub refs: Vec<Reference>,
    seed: u64,
}

impl Pool {
    /// `size` instances of `family` at size `n`, seeds derived from `seed`;
    /// `solver` is the algorithm the server's auto-dispatch picks.
    pub fn build(
        family: Family,
        n: usize,
        sep: &[u32],
        solver: &str,
        size: usize,
        seed: u64,
    ) -> Result<Pool, String> {
        let specs: Vec<LabelSpec> = (0..size as u64)
            .map(|i| spec(family, n, crate::derive(seed, 0x9001, i), sep))
            .collect();
        let refs = specs
            .iter()
            .map(|s| Reference::build(&instance(s), &s.sep, solver))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Pool {
            lines: specs.iter().map(LabelSpec::render).collect(),
            specs,
            refs,
            seed,
        })
    }

    /// Whether `span` and `colors` are a correct answer for entry `idx`; a
    /// labeling other than the reference is verified on an instance
    /// rebuilt from the spec.
    pub fn accepts(&self, idx: usize, span: u32, colors: &[u32]) -> bool {
        let spec = &self.specs[idx];
        self.refs[idx].accepts(&spec.sep, span, colors, || conflict_graph(&instance(spec)))
    }

    /// The pool entry request `k` of the schedule uses.
    pub fn pick(&self, k: u64) -> usize {
        (crate::derive(self.seed, 0x5c4e, k) % self.lines.len() as u64) as usize
    }
}

/// Whether a reply line is a correct `OK` for pool entry `idx`, echoing
/// `trace` when the request carried one.
pub fn judge(line: &str, pool: &Pool, idx: usize, trace: Option<u64>) -> bool {
    match parse_response(line) {
        Ok(Response::Ok {
            span,
            colors,
            trace: echo,
        }) => echo == trace && pool.accepts(idx, span, &colors),
        _ => false,
    }
}

/// One client connection speaking the line protocol.
struct Conn {
    writer: TcpStream,
    reader: LineReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(REQUEST_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer: stream,
            reader: LineReader::new(reader, REPLY_CAP),
        })
    }

    fn send(&mut self, line: &str) -> bool {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .is_ok()
    }

    /// The next reply line, or `None` on timeout, EOF or an overlong line.
    fn recv(&mut self, deadline: Instant) -> Option<String> {
        loop {
            match self.reader.next_line() {
                Ok(LineEvent::Line(line)) => return Some(line),
                Ok(LineEvent::TimedOut) if Instant::now() < deadline => {}
                _ => return None,
            }
        }
    }
}

/// The line for request `k`, with a trace context when `rec` is set.
fn wire_line(
    pool: &Pool,
    idx: usize,
    k: u64,
    rec: Option<&Arc<FlightRecorder>>,
) -> (String, u64, u64) {
    match rec {
        Some(rec) => {
            let (tid, sid) = (LOAD_TRACE | (k + 1), rec.next_span_id());
            (
                format!("{} trace={tid:016x}/{sid:016x}", pool.lines[idx]),
                tid,
                sid,
            )
        }
        None => (pool.lines[idx].clone(), 0, 0),
    }
}

fn record_client_span(rec: Option<&Arc<FlightRecorder>>, tid: u64, sid: u64, start: Instant) {
    if let Some(rec) = rec {
        rec.record(SpanEvent {
            trace_id: tid,
            span_id: sid,
            parent_id: 0,
            name: "client.request",
            kind: EventKind::Span,
            start_ns: rec.instant_ns(start),
            end_ns: rec.now_ns(),
        });
    }
}

/// What one or more load phases measured.
#[derive(Default)]
pub struct Load {
    /// Per request, when it was sent and its latency in ms; failed
    /// requests are `f64::INFINITY`.
    pub samples: Vec<(Instant, f64)>,
    /// Gap from each reply to the next send on its connection, in ms.
    pub send_lag_ms: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// Wall time from the first send to the last reply, summed over
    /// merged phases.
    pub elapsed: Duration,
}

impl Load {
    /// Adds another phase's requests.
    pub fn merge(&mut self, other: Load) {
        self.samples.extend(other.samples);
        self.send_lag_ms.extend(other.send_lag_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed += other.elapsed;
    }

    fn note(&mut self, start: Instant, latency: Duration, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.samples
            .push((start, if ok { ms(latency) } else { f64::INFINITY }));
    }

    /// Latencies in ms, in the order the requests were sent.
    pub fn latency_ms(&self) -> Vec<f64> {
        let mut samples = self.samples.clone();
        samples.sort_by_key(|&(start, _)| start);
        samples.into_iter().map(|(_, l)| l).collect()
    }

    /// Correct replies per second of the phase.
    pub fn ok_per_sec(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Binds a server and times it through its first `OK` reply.
pub fn bind_until_first_ok(
    pool: &Pool,
    workers: usize,
    metrics: Metrics,
) -> Result<(Server, f64, bool), String> {
    let start = Instant::now();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            metrics,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let mut conn = Conn::open(server.local_addr())?;
    let reply = if conn.send(&pool.lines[0]) {
        conn.recv(Instant::now() + REQUEST_TIMEOUT)
    } else {
        None
    };
    let secs = start.elapsed().as_secs_f64();
    let ok = reply.is_some_and(|l| judge(&l, pool, 0, None));
    Ok((server, secs, ok))
}

/// Closed loop: `conns` connections, each with one request outstanding,
/// for `secs`; connection `c` sends requests `first + c`, `first + c +
/// conns`, ... Latency runs from the send. Each reply is checked while
/// the server works on the next request.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    secs: f64,
    conns: usize,
    first: u64,
    rec: Option<&Arc<FlightRecorder>>,
) -> Result<Load, String> {
    let links = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(secs);
    let mut load = Load::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = links
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                s.spawn(move || {
                    let mut out = Load::default();
                    // (reply, pool index, trace id, sent, received) of the
                    // request whose reply is not yet checked.
                    type Pending = (Option<String>, usize, u64, Instant, Instant);
                    let settle = |out: &mut Load, (reply, idx, tid, sent, got): Pending| {
                        let ok =
                            reply.is_some_and(|l| judge(&l, pool, idx, (tid != 0).then_some(tid)));
                        out.note(sent, got - sent, ok);
                    };
                    let mut pending: Option<Pending> = None;
                    let mut last_reply = Instant::now();
                    let mut k = first + c as u64;
                    while Instant::now() < stop {
                        let idx = pool.pick(k);
                        let (line, tid, sid) = wire_line(pool, idx, k, rec);
                        let sent = Instant::now();
                        out.send_lag_ms.push(ms(sent - last_reply));
                        let delivered = conn.send(&line);
                        if let Some(p) = pending.take() {
                            settle(&mut out, p);
                        }
                        let reply = if delivered {
                            conn.recv(sent + REQUEST_TIMEOUT)
                        } else {
                            None
                        };
                        last_reply = Instant::now();
                        record_client_span(rec, tid, sid, sent);
                        let broken = reply.is_none();
                        pending = Some((reply, idx, tid, sent, last_reply));
                        if broken {
                            break;
                        }
                        k += conns as u64;
                    }
                    if let Some(p) = pending {
                        settle(&mut out, p);
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            load.merge(h.join().expect("client thread panicked"));
        }
    });
    load.elapsed = start.elapsed();
    Ok(load)
}

/// Per-stage timings of the replay, one entry per request.
#[derive(Default)]
pub struct Replay {
    /// `parse_request`, µs.
    pub parse_us: Vec<f64>,
    /// `LabelSpec::to_request`, ms.
    pub to_request_ms: Vec<f64>,
    /// `Engine::submit` through the response, minus the solve, ms.
    pub wait_ms: Vec<f64>,
    /// `LabelOutcome.wall`, ms.
    pub solve_ms: Vec<f64>,
    /// `render_ok`, ms.
    pub render_ms: Vec<f64>,
    /// Sum of the four stages, ms.
    pub stage_sum_ms: Vec<f64>,
    /// Engine steals over the replay.
    pub steals: u64,
    /// Requests replayed and failed.
    pub attempted: u64,
    /// Requests whose rendered reply the reference rejected.
    pub failed: u64,
}

impl Replay {
    fn merge(&mut self, o: Replay) {
        self.parse_us.extend(o.parse_us);
        self.to_request_ms.extend(o.to_request_ms);
        self.wait_ms.extend(o.wait_ms);
        self.solve_ms.extend(o.solve_ms);
        self.render_ms.extend(o.render_ms);
        self.stage_sum_ms.extend(o.stage_sum_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Replays the closed-loop schedule stage by stage in-process for
/// `secs`: `parse_request` → `to_request` → `Engine::submit` →
/// `render_ok`, from `conns` generator threads into an engine with the
/// server's default queue settings and `workers` workers. Each request
/// gets its own trace id; its stage spans and the engine's spans nest
/// under one root span.
pub fn replay(pool: &Pool, secs: f64, conns: usize, workers: usize, m: &Metrics) -> Replay {
    let defaults = ServerConfig::default();
    let engine = Engine::builder()
        .workers(workers)
        .queue_capacity(defaults.queue_capacity)
        .backpressure(defaults.backpressure)
        .metrics(m.clone())
        .build();
    let stop = Instant::now() + Duration::from_secs_f64(secs);
    let mut out = Replay::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let engine = &engine;
                s.spawn(move || {
                    let mut r = Replay::default();
                    let (tx, rx) = mpsc::channel::<LabelResponse>();
                    let mut k = c as u64;
                    while Instant::now() < stop {
                        let idx = pool.pick(k);
                        let ok = replay_one(
                            engine,
                            &tx,
                            &rx,
                            pool,
                            idx,
                            REPLAY_TRACE | (k + 1),
                            m,
                            &mut r,
                        );
                        r.attempted += 1;
                        r.failed += u64::from(!ok);
                        k += conns as u64;
                    }
                    r
                })
            })
            .collect();
        for h in handles {
            out.merge(h.join().expect("replay thread panicked"));
        }
    });
    out.steals = engine.stats().steals;
    engine.shutdown();
    out
}

#[allow(clippy::too_many_arguments)]
fn replay_one(
    engine: &Engine,
    tx: &mpsc::Sender<LabelResponse>,
    rx: &mpsc::Receiver<LabelResponse>,
    pool: &Pool,
    idx: usize,
    tid: u64,
    m: &Metrics,
    r: &mut Replay,
) -> bool {
    let root = m.recorder().map(|rec| (rec.next_span_id(), rec.now_ns()));
    let _scope = m.trace_scope_with_parent(tid, root.map_or(0, |(sid, _)| sid));
    let t = Instant::now();
    let parsed = {
        let _span = m.span("net.parse_request");
        parse_request(&pool.lines[idx])
    };
    let t_parse = t.elapsed();
    let Ok(Request::Label(spec)) = parsed else {
        return false;
    };
    let t = Instant::now();
    let req = {
        let _span = m.span("netsim.to_request");
        let req = spec.to_request(tid);
        match root {
            Some((sid, _)) => req.trace(tid, sid),
            None => req,
        }
    };
    let t_build = t.elapsed();
    let t = Instant::now();
    let resp = {
        let _span = m.span("engine.submit");
        engine.submit(req, tx).ok().and_then(|()| rx.recv().ok())
    };
    let t_engine = t.elapsed();
    let Some(Ok(outcome)) = resp.map(|r| r.result) else {
        return false;
    };
    let t = Instant::now();
    let reply = {
        let _span = m.span("net.render_ok");
        render_ok(&outcome, None)
    };
    let t_render = t.elapsed();
    if let (Some(rec), Some((sid, start_ns))) = (m.recorder(), root) {
        rec.record(SpanEvent {
            trace_id: tid,
            span_id: sid,
            parent_id: 0,
            name: "replay.request",
            kind: EventKind::Span,
            start_ns,
            end_ns: rec.now_ns(),
        });
    }
    r.parse_us.push(t_parse.as_secs_f64() * 1e6);
    r.to_request_ms.push(ms(t_build));
    r.solve_ms.push(ms(outcome.wall));
    r.wait_ms.push(ms(t_engine.saturating_sub(outcome.wall)));
    r.render_ms.push(ms(t_render));
    r.stage_sum_ms
        .push(ms(t_parse + t_build + t_engine + t_render));
    judge(&reply, pool, idx, None)
}
