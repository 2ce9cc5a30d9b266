//! `ssg loadgen` against a real [`Server`] on an ephemeral port, with
//! replies longer than the request-line cap. Kept out of `loopback.rs` so
//! the large solves do not run alongside its timing-sensitive tests.

use ssg_net::loadgen::{run_loadgen, LoadgenConfig};
use ssg_net::protocol::{LabelSpec, Workload};
use ssg_net::{Server, ServerConfig};
use std::time::Duration;

/// A `backbone` reply at n = 32768 is past the 64 KiB request cap; the
/// reader must take it whole, not count it as a protocol error.
#[test]
fn loadgen_reads_replies_longer_than_the_request_cap() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let lg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        rps: 10.0,
        duration: Duration::from_millis(250),
        conns: 1,
        spec: LabelSpec {
            workload: Workload::Backbone,
            n: 32_768,
            ..LoadgenConfig::default().spec
        },
        timeout: Duration::from_secs(30),
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&lg).expect("loadgen run");
    assert!(report.ok > 0, "some requests completed: {report:?}");
    assert_eq!(report.protocol_errors, 0, "every OK parsed: {report:?}");
    assert_eq!(report.ok, report.sent, "{report:?}");
    server.shutdown();
}
