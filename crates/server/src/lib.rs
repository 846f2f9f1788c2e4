//! # server — parallelization as a service
//!
//! A persistent daemon over the compile-and-verify pipeline of the ICPP
//! 2011 reproduction: clients submit MiniF77 programs (plus optional
//! annotation registries and an inlining mode) over a length-prefixed
//! TCP protocol and receive Table-II-style parallelization decisions —
//! or structured errors — per request.
//!
//! The crate is organised as the request's journey:
//!
//! * [`proto`] — framing (`<len>\n<payload>`, each frame sent in one
//!   write) and the JSON request/response vocabulary, read and written
//!   through [`ipp_core::json`], the workspace's one JSON layer;
//! * [`admission`] — the degradation ladder: per-client token buckets
//!   denominated in interpreter ops, and the evaluation gate that bounds
//!   running and waiting evaluations and answers overflow with explicit
//!   load-shedding rejections;
//! * [`daemon`] — a blocking acceptor and one thread per connection.
//!   After the drain flag and the token bucket, a connection thread looks
//!   an evaluate request up in the shared
//!   [`ipp_core::service::RequestCache`] and answers a hit itself; a miss
//!   or a tournament passes the evaluation gate and runs on the same
//!   thread through [`ipp_core::service`]'s per-request entry points.
//!
//! ## Invariants (asserted by `tests/server_soak.rs` and the CI soak)
//!
//! * the daemon never exits and never leaks a panic, whatever bytes
//!   arrive — a panicking cell degrades to one structured error;
//! * identical well-formed requests get byte-identical responses,
//!   across runs, worker counts, and cache states;
//! * every malformed input gets a structured protocol error where the
//!   transport still permits an answer;
//! * overload is shed with `"rejected"` + retry hints, never buffered
//!   without bound;
//! * shutdown is a drain: admitted evaluations finish, then a final
//!   [`ipp_core::service::ServerMetrics`] snapshot is flushed.

#![warn(missing_docs)]

pub mod admission;
pub mod daemon;
pub mod proto;

pub use daemon::{spawn, ServerHandle, ServerOptions};
pub use proto::{
    decode_request, encode_evaluate, read_frame, write_frame, EvaluateRequest, FrameError, Request,
};
