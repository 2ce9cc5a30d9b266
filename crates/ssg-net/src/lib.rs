//! # ssg-net
//!
//! The network front door for the labeling stack, and the load generator
//! that pressures it — both built on `std::net` alone, like everything
//! else in this workspace.
//!
//! Three layers:
//!
//! * [`protocol`] — the `ssg-proto/1` wire grammar: `LABEL`/`PING`/
//!   `QUIT`/`SHUTDOWN` request lines, `OK`/`ERR`/`PONG`/`BYE` replies,
//!   and the bounded [`LineReader`](protocol::LineReader) both sides
//!   frame through. The normative spec is the repository's `PROTOCOL.md`.
//! * [`Server`] — a `TcpListener` acceptor feeding the sharded
//!   [`Engine`](ssg_engine::Engine): line protocol for pipelined label
//!   traffic and minimal HTTP/1.1 (`GET /healthz`, `GET /metrics`,
//!   `POST /label`) sniffed on the same port.
//! * [`run_loadgen`] — an open-loop load generator with a fixed-schedule
//!   arrival clock, measuring latency from each request's *scheduled*
//!   time so the report is free of coordinated omission.
//!
//! ```no_run
//! use ssg_net::{run_loadgen, LoadgenConfig, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let cfg = LoadgenConfig {
//!     addr: server.local_addr().to_string(),
//!     ..LoadgenConfig::default()
//! };
//! let report = run_loadgen(&cfg)?;
//! println!("{}", report.to_text());
//! server.shutdown();
//! # Ok::<(), ssg_error::SsgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod loadgen;
pub mod protocol;
mod server;

pub use http::status_for;
pub use loadgen::{loadgen_trace_id, run_loadgen, LoadReport, LoadgenConfig, LOAD_ENVELOPE};
pub use protocol::{
    LabelSpec, Workload, MAX_LINE_BYTES, MAX_REPLY_BYTES, MAX_REQUEST_N, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig};

use ssg_telemetry::Metrics;

/// Renders the Prometheus text exposition for a metrics handle.
///
/// This is the single renderer behind both metrics surfaces: the `GET
/// /metrics` endpoint and the `ssg metrics` CLI command call this same
/// function, so the two outputs can never drift.
pub fn prometheus_text(metrics: &Metrics) -> String {
    metrics.snapshot().to_prometheus("ssg")
}
