#![warn(missing_docs)]

//! `thinslice-serve`: a long-lived, multi-tenant slice server.
//!
//! The PR 4 session architecture made one program's analysis reusable
//! across queries; this crate makes it a **service**: a daemon speaking a
//! line-delimited JSON protocol (one request per line, one response line
//! per request) over stdin or a Unix socket, multiplexing many programs
//! and many clients over one process.
//!
//! The three layers:
//!
//! * [`protocol`] — request parsing and deterministic response
//!   serialization (`thinslice.serve_response.v1`), hardened so any
//!   malformed line becomes a structured error response;
//! * [`pool`] — the session pool: program-hash keying, LRU eviction
//!   under a session cap, a govern-backed resident watermark, and
//!   quarantine-and-rebuild for sessions poisoned by a panicking query;
//! * [`server`] — the request loop: per-client fair scheduling,
//!   admission control walking the CS → CI → truncated degradation
//!   ladder fleet-wide under load, per-request `catch_unwind`
//!   isolation with bounded retry, deadlines, deterministic fault
//!   injection, and graceful shutdown that drains in-flight queries.
//!
//! An always-on observability plane rides along: a fixed-capacity flight
//! recorder of structured lifecycle events, per-tenant and per-session
//! latency/counter tables, and a slow-query log, all reported by the
//! `stats` op as an embedded `thinslice.serve_stats.v3` document —
//! without ever touching the bytes of non-stats responses.
//!
//! # Examples
//!
//! Drive a server in-process (exactly what the chaos suite does):
//!
//! ```
//! use std::io::Cursor;
//! use thinslice_serve::{shared_out, ServeConfig, Server};
//!
//! let script = concat!(
//!     r#"{"op":"load","id":1,"sources":[{"name":"t.mj","text":"class Main { static void main() {\nint x = 1;\nprint(x);\n} }"}]}"#,
//!     "\n",
//!     r#"{"op":"slice","id":2,"sources":[{"name":"t.mj","text":"class Main { static void main() {\nint x = 1;\nprint(x);\n} }"}],"seed":{"file":"t.mj","line":3}}"#,
//!     "\n",
//!     r#"{"op":"shutdown","id":3}"#,
//!     "\n",
//! );
//! let out = shared_out(Vec::new());
//! let server = Server::new(ServeConfig::default());
//! let summary = server.serve(Cursor::new(script), out.clone());
//! assert_eq!(summary.served, 3);
//! assert_eq!(summary.errors, 0);
//! ```

pub mod pool;
pub mod protocol;
pub mod server;

pub use pool::{PoolConfig, SessionPool};
pub use protocol::{Admission, RESPONSE_SCHEMA, SERVE_STATS_SCHEMA};
pub use server::{shared_out, Ingest, ServeConfig, ServeSummary, Server, SharedOut};
