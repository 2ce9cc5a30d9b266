//! Loopback integration tests: a real [`Server`] on an ephemeral port,
//! real sockets, both protocols. Every request/response byte sequence
//! here is derivable from `PROTOCOL.md` alone.

use ssg_net::protocol::{parse_response, Response};
use ssg_net::{Server, ServerConfig};
use ssg_telemetry::Metrics;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn connect(server: &Server) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect to loopback server");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (reader, stream)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply line");
    line.trim_end().to_string()
}

#[test]
fn line_protocol_round_trip() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut reader, mut writer) = connect(&server);

    writer.write_all(b"PING\n").unwrap();
    assert_eq!(read_line(&mut reader), "PONG");

    writer
        .write_all(b"LABEL corridor 40 7 2,1\nLABEL backbone 25 3 1,1\n")
        .unwrap();
    for expect_n in [40usize, 25] {
        let reply = read_line(&mut reader);
        match parse_response(&reply).unwrap() {
            Response::Ok {
                span,
                colors,
                trace,
            } => {
                assert_eq!(trace, None, "untraced requests get no trace echo: {reply}");
                assert_eq!(colors.len(), expect_n, "one label per station: {reply}");
                assert_eq!(
                    span,
                    colors.iter().copied().max().unwrap(),
                    "span is the largest label: {reply}"
                );
            }
            other => panic!("expected OK, got {other:?}"),
        }
    }

    // Identical requests are reproducible: same (workload, n, seed, sep)
    // names the same instance, so the reply bytes match.
    writer
        .write_all(b"LABEL corridor 40 7 2,1\nLABEL corridor 40 7 2,1\n")
        .unwrap();
    let a = read_line(&mut reader);
    let b = read_line(&mut reader);
    assert_eq!(a, b);

    writer.write_all(b"QUIT\n").unwrap();
    assert_eq!(read_line(&mut reader), "BYE");
    let stats = server.shutdown();
    assert_eq!(stats.completed, 4);
}

#[test]
fn malformed_requests_answer_err_without_killing_the_connection() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut reader, mut writer) = connect(&server);

    for (bad, expect_kind) in [
        ("FROB", "parse"),
        ("LABEL mesh 10 1 2,1", "parse"),
        ("LABEL corridor 10 1 1,2", "spec"), // increasing separations
        ("LABEL corridor ten 1 2,1", "parse"),
        ("PING extra", "parse"),
    ] {
        writer.write_all(format!("{bad}\n").as_bytes()).unwrap();
        let reply = read_line(&mut reader);
        match parse_response(&reply).unwrap() {
            Response::Err { code, .. } => {
                assert_eq!(code, expect_kind, "for request {bad:?}: {reply}")
            }
            other => panic!("expected ERR for {bad:?}, got {other:?}"),
        }
    }

    // The connection survived all of that.
    writer.write_all(b"LABEL platoon 30 1 3,1\nQUIT\n").unwrap();
    assert!(read_line(&mut reader).starts_with("OK "));
    assert_eq!(read_line(&mut reader), "BYE");
    server.shutdown();
}

#[test]
fn oversized_request_line_answers_err_and_recovers() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut reader, mut writer) = connect(&server);

    let mut big = vec![b'X'; ssg_net::MAX_LINE_BYTES + 100];
    big.push(b'\n');
    writer.write_all(&big).unwrap();
    let reply = read_line(&mut reader);
    match parse_response(&reply).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, "parse"),
        other => panic!("expected ERR, got {other:?}"),
    }
    writer.write_all(b"PING\n").unwrap();
    assert_eq!(read_line(&mut reader), "PONG");
    server.shutdown();
}

#[test]
fn http_endpoints_on_the_same_port() {
    let cfg = ServerConfig {
        metrics: Metrics::enabled(),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();

    let http = |request: String| -> (u16, String) {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw).into_owned();
        let (head, body) = text.split_once("\r\n\r\n").expect("header break");
        let status: u16 = head
            .lines()
            .next()
            .unwrap()
            .split(' ')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        (status, body.to_string())
    };

    let (status, body) = http("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".into());
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // Warm the counters, then scrape.
    let payload = "LABEL corridor 40 7 2,1";
    let (status, body) = http(format!(
        "POST /label HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    ));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"schema\": \"ssg-reply/v1\""), "{body}");
    assert!(body.contains("\"status\": \"ok\""), "{body}");
    assert!(body.contains("\"span\""), "{body}");

    let (status, body) = http("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n".into());
    assert_eq!(status, 200);
    assert!(body.contains("ssg_net_requests_total 1"), "{body}");
    assert!(body.contains("ssg_net_http_requests_total"), "{body}");

    // A malformed LABEL body is a 400 with the same err-kind table.
    let bad = "LABEL mesh 10 1 2,1";
    let (status, body) = http(format!(
        "POST /label HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{bad}",
        bad.len()
    ));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\": \"parse\""), "{body}");

    let (status, _) = http("GET /nope HTTP/1.1\r\nHost: t\r\n\r\n".into());
    assert_eq!(status, 404);

    let (status, _) = http("DELETE /healthz HTTP/1.1\r\nHost: t\r\n\r\n".into());
    assert_eq!(status, 405);

    server.shutdown();
}

#[test]
fn metrics_endpoint_matches_the_cli_renderer() {
    // The one-function-two-callers satellite: the /metrics body IS
    // prometheus_text() of the server's handle, byte for byte.
    let cfg = ServerConfig {
        metrics: Metrics::enabled(),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let (_, body) = text.split_once("\r\n\r\n").unwrap();
    // Rendered after the scrape, so the scrape's own counter bump is
    // already visible in both. The uptime gauge keeps ticking between the
    // two renders, so its sample line is compared by value, not by bytes.
    let direct = ssg_net::prometheus_text(server.metrics());
    let (scraped_up, scraped_rest) = split_uptime(body);
    let (direct_up, direct_rest) = split_uptime(&direct);
    assert_eq!(scraped_rest, direct_rest);
    assert!(
        scraped_up <= direct_up,
        "uptime went backwards: {scraped_up} > {direct_up}"
    );
    server.shutdown();
}

/// Splits a Prometheus body into its `ssg_uptime_seconds` sample value
/// and every other line, panicking when the sample is missing.
fn split_uptime(body: &str) -> (f64, Vec<&str>) {
    let mut uptime = None;
    let mut rest = Vec::new();
    for line in body.split_inclusive('\n') {
        match line.strip_prefix("ssg_uptime_seconds ") {
            Some(value) => uptime = Some(value.trim().parse().unwrap()),
            None => rest.push(line),
        }
    }
    (uptime.expect("ssg_uptime_seconds sample present"), rest)
}

#[test]
fn deadline_miss_under_saturating_burst_answers_deadline_exceeded() {
    // One worker and zero-millisecond deadlines: every request has
    // expired by the time the worker dequeues it.
    let cfg = ServerConfig {
        workers: 1,
        metrics: Metrics::with_tracing(4096),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let (mut reader, mut writer) = connect(&server);

    let burst: String = (0..4)
        .map(|_| "LABEL corridor 200 7 2,1 deadline_ms=0\n")
        .collect();
    writer.write_all(burst.as_bytes()).unwrap();
    let mut misses = 0u64;
    for _ in 0..4 {
        let reply = read_line(&mut reader);
        if let Response::Err { code, .. } = parse_response(&reply).unwrap() {
            assert_eq!(code, "deadline_exceeded", "{reply}");
            misses += 1;
        }
    }
    assert!(misses > 0, "a 0ms deadline must miss");

    // The miss left an incident in the flight recorder (the serve-path
    // auto-dump trigger), and the connection is still usable.
    let recorder = server.metrics().recorder().expect("tracing enabled");
    assert!(recorder.incident_count() > 0);
    writer.write_all(b"LABEL corridor 40 7 2,1\n").unwrap();
    assert!(read_line(&mut reader).starts_with("OK "));

    let stats = server.shutdown();
    assert_eq!(stats.deadline_misses, misses);
}

#[test]
fn graceful_drain_completes_in_flight_requests() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut reader, mut writer) = connect(&server);

    // Pipeline a backlog, then immediately begin shutdown from another
    // thread before reading any replies: the drain must serve the whole
    // received backlog, not cut it off with ERR shutting_down.
    let backlog: String = (0..6).map(|_| "LABEL corridor 300 7 2,1\n").collect();
    writer.write_all(backlog.as_bytes()).unwrap();
    writer.flush().unwrap();
    let drainer = std::thread::spawn(move || server.shutdown());

    let mut ok = 0;
    for _ in 0..6 {
        let reply = read_line(&mut reader);
        match parse_response(&reply).unwrap() {
            Response::Ok { .. } => ok += 1,
            other => panic!("drain dropped an in-flight request: {other:?}"),
        }
    }
    assert_eq!(ok, 6);
    let stats = drainer.join().unwrap();
    assert_eq!(stats.completed, 6);

    // New connections are refused once the listener is down.
    assert!(
        TcpStream::connect_timeout(&"127.0.0.1:1".parse().unwrap(), Duration::from_millis(1))
            .is_err()
    );
}

#[test]
fn shutdown_verb_is_loopback_gated_and_sets_the_flag() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    assert!(!server.shutdown_requested());
    let (mut reader, mut writer) = connect(&server);
    writer.write_all(b"SHUTDOWN\n").unwrap();
    assert_eq!(read_line(&mut reader), "BYE");
    assert!(server.shutdown_requested());
    server.shutdown();
}

#[test]
fn traced_label_echoes_the_trace_id_and_tags_the_server_recorder() {
    let cfg = ServerConfig {
        metrics: Metrics::with_tracing(4096),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let (mut reader, mut writer) = connect(&server);

    let trace_id = 0x00c0_ffee_0000_0001u64;
    writer
        .write_all(
            format!("LABEL corridor 40 7 2,1 trace={trace_id:016x}/000000000000002a\n").as_bytes(),
        )
        .unwrap();
    let reply = read_line(&mut reader);
    match parse_response(&reply).unwrap() {
        Response::Ok { trace, .. } => {
            assert_eq!(
                trace,
                Some(trace_id),
                "OK line echoes the trace id: {reply}"
            )
        }
        other => panic!("expected OK, got {other:?}"),
    }

    // The server's whole engine chain landed on the propagated lane, and
    // the solve span adopted the client's span id as its wire parent.
    let recorder = server.metrics().recorder().expect("tracing enabled");
    let events = recorder.events_for(trace_id);
    let names: Vec<&str> = events.iter().map(|e| e.name).collect();
    for needle in ["engine.enqueue", "engine.dequeue", "engine.solve"] {
        assert!(names.contains(&needle), "{needle} missing from {names:?}");
    }
    let solve = events.iter().find(|e| e.name == "engine.solve").unwrap();
    assert_eq!(solve.parent_id, 0x2a, "solve nests under the client span");

    // An untraced request on the same connection stays off that lane.
    writer.write_all(b"LABEL corridor 40 8 2,1\n").unwrap();
    assert!(read_line(&mut reader).starts_with("OK "));
    assert_eq!(recorder.events_for(trace_id).len(), events.len());
    server.shutdown();
}

#[test]
fn loadgen_initiated_traces_stitch_into_one_merged_chrome_trace() {
    use ssg_net::loadgen::{loadgen_trace_id, run_loadgen, LoadgenConfig};
    use ssg_telemetry::json::Json;
    use ssg_telemetry::{export, Metrics, TraceDump};

    let cfg = ServerConfig {
        metrics: Metrics::with_tracing(8192),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();

    let client_metrics = Metrics::with_tracing(8192);
    let lg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        rps: 200.0,
        duration: Duration::from_millis(100),
        conns: 2,
        metrics: client_metrics.clone(),
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&lg).expect("loadgen run");
    assert!(report.ok > 0, "some requests completed: {report:?}");
    assert_eq!(report.protocol_errors, 0, "every echo matched: {report:?}");

    // The first scheduled request's trace id — recomputed, not captured —
    // appears verbatim in the server's recorder.
    let first = loadgen_trace_id(lg.spec.seed, 0);
    let server_rec = server.metrics().recorder().unwrap();
    assert!(
        !server_rec.events_for(first).is_empty(),
        "loadgen trace id {first:#x} missing from the server dump"
    );
    let client_rec = client_metrics.recorder().unwrap();
    assert!(!client_rec.events_for(first).is_empty());

    // Merge the two dumps: one valid trace-event JSON whose client
    // request span wraps the server's engine chain for the same trace.
    let client_dump = TraceDump::from_json(&client_rec.to_json()).unwrap();
    let server_dump = TraceDump::from_json(&server_rec.to_json()).unwrap();
    let merged = export::merged_chrome_trace(&client_dump, &server_dump);
    let rendered = merged.render();
    let reparsed = Json::parse(&rendered).expect("merged export is valid JSON");
    let events = match &reparsed {
        Json::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents"),
        other => panic!("{other:?}"),
    };
    let Json::Array(events) = events else {
        panic!("traceEvents is an array")
    };
    // For the recomputed trace id: client.request must open before and
    // close after every server-side engine span of that trace.
    let of_name = |name: &str, ph: &str| -> Vec<f64> {
        events
            .iter()
            .filter_map(|e| {
                let Json::Object(f) = e else { return None };
                let get = |k: &str| f.iter().find(|(n, _)| n == k).map(|(_, v)| v);
                let is = |k: &str, want: &str| matches!(get(k), Some(Json::Str(s)) if s == want);
                let traced = match get("args") {
                    Some(Json::Object(a)) => a.iter().any(|(n, v)| {
                        n == "trace_id"
                            && matches!(v, Json::Str(s) if *s == format!("{first:016x}"))
                    }),
                    _ => false,
                };
                if is("name", name) && is("ph", ph) && traced {
                    match get("ts") {
                        Some(Json::F64(ts)) => Some(*ts),
                        Some(Json::U64(ts)) => Some(*ts as f64),
                        _ => None,
                    }
                } else {
                    None
                }
            })
            .collect()
    };
    let open = of_name("client.request", "B");
    let close = of_name("client.request", "E");
    assert_eq!(open.len(), 1, "one client.request B for the first trace");
    assert_eq!(close.len(), 1);
    let solve_b = of_name("engine.solve", "B");
    let solve_e = of_name("engine.solve", "E");
    assert_eq!(solve_b.len(), 1, "one engine.solve B for the first trace");
    assert!(open[0] <= solve_b[0], "client span opens before the solve");
    assert!(close[0] >= solve_e[0], "client span closes after the solve");

    server.shutdown();
}

#[test]
fn max_conns_refuses_excess_connections() {
    let cfg = ServerConfig {
        max_conns: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let (mut reader1, mut writer1) = connect(&server);
    // Prove the first connection is established and being served.
    writer1.write_all(b"PING\n").unwrap();
    assert_eq!(read_line(&mut reader1), "PONG");

    // The second connection is turned away with a best-effort ERR.
    let (mut reader2, _writer2) = connect(&server);
    let reply = read_line(&mut reader2);
    match parse_response(&reply).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, "queue_full"),
        other => panic!("expected refusal, got {other:?}"),
    }

    // Once the first hangs up, a slot frees.
    writer1.write_all(b"QUIT\n").unwrap();
    assert_eq!(read_line(&mut reader1), "BYE");
    drop((reader1, writer1));
    for attempt in 0.. {
        let (mut r, mut w) = connect(&server);
        w.write_all(b"PING\n").unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        if line.trim_end() == "PONG" {
            break;
        }
        assert!(attempt < 100, "slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
