//! Wire protocol: length-prefixed frames carrying JSON documents.
//!
//! A frame is `<decimal byte length>\n<payload>`. The header is 1–8
//! ASCII digits — anything else (garbage bytes, a declared length above
//! the cap, a connection that stalls mid-payload) is a [`FrameError`]
//! with enough structure for the daemon to answer with a located
//! protocol error before closing, and for metrics to count it. The
//! payload is one UTF-8 JSON document.
//!
//! Requests (client → daemon):
//!
//! ```json
//! {"op":"evaluate","id":"r-1","client":"ci","name":"ADM",
//!  "mode":"annotation","source":"      PROGRAM ...","annotations":""}
//! {"op":"tournament","id":"r-2","client":"ci","name":"ADM",
//!  "source":"      PROGRAM ...","annotations":""}
//! {"op":"metrics"}   {"op":"ping"}   {"op":"shutdown"}
//! ```
//!
//! `tournament` is `evaluate` without a mode: the daemon runs the whole
//! configuration portfolio ([`ipp_core::tournament::portfolio`]) for the
//! program and answers with every arm's cost-model score plus the
//! winner ([`ipp_core::service::TournamentReport`]). One admission
//! charge covers the whole portfolio — the arms share the request cache,
//! a single parse, and a single baseline run, so a tournament costs the
//! daemon far less than arms × evaluate.
//!
//! Responses (daemon → client) always carry `"status"`: `"ok"`,
//! `"error"` (the request was understood and failed structurally —
//! `code` is a [`ipp_core::FailCause::code`] string or `"protocol"`), or
//! `"rejected"` (admission control refused it — `code` is
//! `"overloaded"`, `"budget"`, `"busy"`, or `"draining"`, with a
//! `retry_after_hint_ms`). Responses to well-formed `evaluate` requests
//! are pure functions of the request document: byte-identical across
//! runs, worker counts, and daemon instances. Every document is read
//! and written through [`ipp_core::json`].

use ipp_core::error::PipelineError;
use ipp_core::json::{self, Json};
use ipp_core::json_object;
use ipp_core::pipeline::InlineMode;
use ipp_core::service::{RequestReport, ServerMetrics, TournamentReport};
use std::fmt;
use std::io::{Read, Write};

/// Hard cap on identifier-ish request fields (`id`, `client`, `name`).
pub const MAX_IDENT_BYTES: usize = 256;

/// Default frame cap: 1 MiB — far above any legitimate MiniF77 program,
/// far below anything that could pressure memory.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Maximum header digits (10^8-1 bytes ≫ any sane frame cap).
const MAX_HEADER_DIGITS: usize = 8;

/// Why a frame could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Clean EOF before the first header byte — the peer is done.
    Closed,
    /// The header was not `<digits>\n`, or the payload was not UTF-8.
    Malformed(String),
    /// The declared length exceeds the cap. The payload was *not* read.
    Oversized {
        /// Declared payload length.
        declared: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// EOF mid-header or mid-payload (truncated frame / mid-request
    /// disconnect).
    Truncated,
    /// A read timed out (slow-loris defence: the socket's read timeout
    /// expired before the frame completed).
    TimedOut,
    /// Any other transport error.
    Io(std::io::ErrorKind),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::Oversized { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
            FrameError::Truncated => write!(f, "frame truncated by peer"),
            FrameError::TimedOut => write!(f, "frame read timed out"),
            FrameError::Io(k) => write!(f, "transport error: {k:?}"),
        }
    }
}

impl FrameError {
    /// True when the daemon can still write a structured rejection on
    /// this connection before closing it (the stream is positioned at a
    /// frame boundary from our side; the peer may or may not read it).
    pub fn answerable(&self) -> bool {
        !matches!(self, FrameError::Closed)
    }
}

fn map_io(e: std::io::Error, started: bool) -> FrameError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => FrameError::TimedOut,
        std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
        std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe if !started => {
            FrameError::Closed
        }
        k => FrameError::Io(k),
    }
}

/// Read one frame, enforcing `max` on the declared payload length.
///
/// The header is read a byte at a time, so `r` should be buffered (the
/// daemon reads each connection through one `BufReader`): unbuffered, each
/// header byte is a syscall. Bytes read ahead stay in the buffer for the
/// next call, so pipelined frames come back in order.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<String, FrameError> {
    // Header: byte-at-a-time until '\n' (bounded at MAX_HEADER_DIGITS).
    let mut len: usize = 0;
    let mut digits = 0usize;
    loop {
        let mut b = [0u8; 1];
        match r.read(&mut b) {
            Ok(0) => {
                return Err(if digits == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                });
            }
            Ok(_) => match b[0] {
                b'0'..=b'9' => {
                    digits += 1;
                    if digits > MAX_HEADER_DIGITS {
                        return Err(FrameError::Malformed("frame header too long".into()));
                    }
                    len = len * 10 + (b[0] - b'0') as usize;
                }
                b'\n' if digits > 0 => break,
                other => {
                    return Err(FrameError::Malformed(format!(
                        "unexpected header byte 0x{other:02X}"
                    )));
                }
            },
            Err(e) => return Err(map_io(e, digits > 0)),
        }
    }
    if len > max {
        return Err(FrameError::Oversized { declared: len, max });
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) => return Err(map_io(e, true)),
        }
    }
    String::from_utf8(payload).map_err(|_| FrameError::Malformed("payload is not UTF-8".into()))
}

/// Write one frame. Header and payload go out in a single `write_all`,
/// so under `TCP_NODELAY` a small frame leaves in one segment, not in
/// three (digits, newline, payload).
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(MAX_HEADER_DIGITS + 1 + payload.len());
    writeln!(frame, "{}", payload.len())?;
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// A decoded, validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile-and-parallelize one program under one mode.
    Evaluate(EvaluateRequest),
    /// Run the configuration portfolio for one program and report the
    /// best arm.
    Tournament(TournamentRequest),
    /// Report the daemon-wide [`ServerMetrics`] snapshot.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Begin graceful drain.
    Shutdown,
}

/// The payload of an `evaluate` request.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluateRequest {
    /// Client-chosen request id, echoed verbatim in the response.
    pub id: String,
    /// Client identity for per-client budgeting (`"anon"` when absent).
    pub client: String,
    /// Application name (echoed in error context).
    pub name: String,
    /// Inlining configuration.
    pub mode: InlineMode,
    /// MiniF77 source text.
    pub source: String,
    /// Optional annotation registry source.
    pub annotations: String,
}

/// The payload of a `tournament` request — [`EvaluateRequest`] minus the
/// mode (the portfolio supplies the configurations).
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentRequest {
    /// Client-chosen request id, echoed verbatim in the response.
    pub id: String,
    /// Client identity for per-client budgeting (`"anon"` when absent).
    pub client: String,
    /// Application name (echoed in error context).
    pub name: String,
    /// MiniF77 source text.
    pub source: String,
    /// Optional annotation registry source.
    pub annotations: String,
}

fn ident_field(doc: &Json, key: &str, default: Option<&str>) -> Result<String, String> {
    match doc.get(key) {
        None => match default {
            Some(d) => Ok(d.to_string()),
            None => Err(format!("missing required field \"{key}\"")),
        },
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| format!("field \"{key}\" must be a string"))?;
            if s.len() > MAX_IDENT_BYTES {
                return Err(format!("field \"{key}\" exceeds {MAX_IDENT_BYTES} bytes"));
            }
            Ok(s.to_string())
        }
    }
}

fn text_field(doc: &Json, key: &str, default: Option<&str>) -> Result<String, String> {
    match doc.get(key) {
        None => match default {
            Some(d) => Ok(d.to_string()),
            None => Err(format!("missing required field \"{key}\"")),
        },
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("field \"{key}\" must be a string")),
    }
}

/// Decode and validate a request document. The error string is the
/// protocol-rejection message (already located by the JSON decoder when
/// the document itself was malformed).
pub fn decode_request(payload: &str) -> Result<Request, String> {
    let doc = json::parse(payload).map_err(|e| e.to_string())?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing required field \"op\"")?;
    match op {
        "metrics" => Ok(Request::Metrics),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "evaluate" => {
            let id = ident_field(&doc, "id", None)?;
            let client = ident_field(&doc, "client", Some("anon"))?;
            let name = ident_field(&doc, "name", None)?;
            let mode_label = ident_field(&doc, "mode", None)?;
            let mode = InlineMode::from_label(&mode_label)
                .ok_or_else(|| format!("unknown mode \"{mode_label}\""))?;
            let source = text_field(&doc, "source", None)?;
            let annotations = text_field(&doc, "annotations", Some(""))?;
            Ok(Request::Evaluate(EvaluateRequest {
                id,
                client,
                name,
                mode,
                source,
                annotations,
            }))
        }
        "tournament" => {
            let id = ident_field(&doc, "id", None)?;
            let client = ident_field(&doc, "client", Some("anon"))?;
            let name = ident_field(&doc, "name", None)?;
            let source = text_field(&doc, "source", None)?;
            let annotations = text_field(&doc, "annotations", Some(""))?;
            Ok(Request::Tournament(TournamentRequest {
                id,
                client,
                name,
                source,
                annotations,
            }))
        }
        other => Err(format!("unknown op \"{other}\"")),
    }
}

/// Serialize an `evaluate` request (the client side; also what the load
/// generator mutates).
pub fn encode_evaluate(req: &EvaluateRequest) -> String {
    json_object!({
        "op": "evaluate", "id": req.id, "client": req.client, "name": req.name,
        "mode": req.mode.label(), "source": req.source, "annotations": req.annotations,
    })
}

/// Serialize a `tournament` request (the client side).
pub fn encode_tournament(req: &TournamentRequest) -> String {
    json_object!({
        "op": "tournament", "id": req.id, "client": req.client, "name": req.name,
        "source": req.source, "annotations": req.annotations,
    })
}

/// `status:"ok"` response for a completed tournament.
pub fn tournament_response(id: &str, report: &TournamentReport) -> String {
    json_object!({ "status": "ok", "id": id, "tournament": report })
}

/// `status:"ok"` response for a completed evaluation.
pub fn ok_response(id: &str, report: &RequestReport) -> String {
    json_object!({ "status": "ok", "id": id, "report": report })
}

/// `status:"error"` response for a structured per-request failure.
pub fn error_response(id: &str, e: &PipelineError) -> String {
    json_object!({
        "status": "error", "id": id, "code": e.code(), "stage": e.stage.label(),
        "mode": e.mode.map(InlineMode::label), "app": e.app, "message": e.cause_message(),
    })
}

/// `status:"error"` response for a frame/document the daemon could not
/// decode (code `"protocol"`; no id — the request never had one).
pub fn protocol_error_response(message: &str) -> String {
    json_object!({ "status": "error", "code": "protocol", "message": message })
}

/// `status:"rejected"` response from admission control.
pub fn reject_response(id: &str, code: &str, retry_after_hint_ms: u64, message: &str) -> String {
    json_object!({
        "status": "rejected", "id": id, "code": code,
        "retry_after_hint_ms": retry_after_hint_ms, "message": message,
    })
}

/// `status:"ok"` metrics snapshot.
pub fn metrics_response(m: &ServerMetrics) -> String {
    json_object!({ "status": "ok", "metrics": m })
}

/// `status:"ok"` liveness reply.
pub fn pong_response() -> String {
    json_object!({ "status": "ok", "pong": true })
}

/// `status:"ok"` acknowledgement that drain has begun.
pub fn draining_response() -> String {
    json_object!({ "status": "ok", "draining": true })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipp_core::error::{FailCause, FailStage};
    use std::io::Cursor;

    fn roundtrip(payload: &str) -> String {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        read_frame(&mut Cursor::new(buf), DEFAULT_MAX_FRAME).unwrap()
    }

    #[test]
    fn frames_roundtrip() {
        for p in ["", "x", "{\"op\":\"ping\"}", &"y".repeat(100_000)] {
            assert_eq!(roundtrip(p), p);
        }
        // Two frames back to back on one stream.
        let mut buf = Vec::new();
        write_frame(&mut buf, "first").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut c = Cursor::new(buf);
        assert_eq!(read_frame(&mut c, 64).unwrap(), "first");
        assert_eq!(read_frame(&mut c, 64).unwrap(), "second");
        assert_eq!(read_frame(&mut c, 64).unwrap_err(), FrameError::Closed);
    }

    /// A writer that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A reader that counts `read` calls.
    struct CountingReader {
        inner: Cursor<Vec<u8>>,
        reads: usize,
    }

    impl Read for CountingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        for p in ["", "{\"op\":\"ping\"}", &"z".repeat(70_000)] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, p).unwrap();
            assert_eq!(w.writes, 1, "a {}-byte frame", p.len());
            assert_eq!(w.bytes, format!("{}\n{p}", p.len()).into_bytes());
        }
    }

    #[test]
    fn pipelined_frames_survive_read_ahead() {
        // Two frames arrive in one segment; one buffered reader takes both
        // in one read and must hand them back in order, dropping neither.
        let mut both = Vec::new();
        write_frame(&mut both, "first").unwrap();
        write_frame(&mut both, "second").unwrap();
        let mut r = std::io::BufReader::new(CountingReader {
            inner: Cursor::new(both),
            reads: 0,
        });
        assert_eq!(read_frame(&mut r, 64).unwrap(), "first");
        assert_eq!(read_frame(&mut r, 64).unwrap(), "second");
        assert_eq!(read_frame(&mut r, 64).unwrap_err(), FrameError::Closed);
        // One read for both frames (header bytes included), one for EOF.
        assert_eq!(r.get_ref().reads, 2);
    }

    #[test]
    fn hostile_frames_are_classified() {
        let read = |bytes: &[u8]| read_frame(&mut Cursor::new(bytes.to_vec()), 64);
        assert_eq!(read(b""), Err(FrameError::Closed));
        assert_eq!(read(b"12"), Err(FrameError::Truncated));
        assert_eq!(read(b"5\nab"), Err(FrameError::Truncated));
        assert!(matches!(read(b"garbage"), Err(FrameError::Malformed(_))));
        assert!(matches!(read(b"\n"), Err(FrameError::Malformed(_))));
        assert!(matches!(
            read(b"999999999\n"),
            Err(FrameError::Malformed(_))
        ));
        assert_eq!(
            read(b"100\n"),
            Err(FrameError::Oversized {
                declared: 100,
                max: 64
            })
        );
        assert!(matches!(
            read(b"2\n\xFF\xFE"),
            Err(FrameError::Malformed(_))
        ));
        assert!(!FrameError::Closed.answerable());
        assert!(FrameError::Truncated.answerable());
    }

    #[test]
    fn evaluate_requests_roundtrip() {
        let req = EvaluateRequest {
            id: "r-1".into(),
            client: "soak".into(),
            name: "ADM".into(),
            mode: InlineMode::Annotation,
            source: "      PROGRAM MAIN\n      END\n".into(),
            annotations: "".into(),
        };
        let decoded = decode_request(&encode_evaluate(&req)).unwrap();
        assert_eq!(decoded, Request::Evaluate(req));
        let treq = TournamentRequest {
            id: "r-2".into(),
            client: "soak".into(),
            name: "ADM".into(),
            source: "      PROGRAM MAIN\n      END\n".into(),
            annotations: "".into(),
        };
        let decoded = decode_request(&encode_tournament(&treq)).unwrap();
        assert_eq!(decoded, Request::Tournament(treq));
        assert_eq!(decode_request("{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            decode_request("{\"op\":\"metrics\"}").unwrap(),
            Request::Metrics
        );
        assert_eq!(
            decode_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_requests_get_located_messages() {
        for (payload, needle) in [
            ("", "invalid JSON"),
            ("[]", "must be a JSON object"),
            ("{}", "\"op\""),
            ("{\"op\":\"evaluate\"}", "\"id\""),
            ("{\"op\":\"launch\"}", "unknown op"),
            (
                "{\"op\":\"evaluate\",\"id\":\"x\",\"name\":\"A\",\"mode\":\"turbo\",\"source\":\"\"}",
                "unknown mode",
            ),
            (
                "{\"op\":\"evaluate\",\"id\":7,\"name\":\"A\",\"mode\":\"no-inline\",\"source\":\"\"}",
                "must be a string",
            ),
        ] {
            let e = decode_request(payload).expect_err(payload);
            assert!(e.contains(needle), "{payload}: {e}");
        }
        let long = format!(
            "{{\"op\":\"evaluate\",\"id\":{},\"name\":\"A\",\"mode\":\"no-inline\",\"source\":\"\"}}",
            json::to_string(&"i".repeat(MAX_IDENT_BYTES + 1))
        );
        assert!(decode_request(&long).unwrap_err().contains("exceeds"));
    }

    /// Text carrying every character class the writer escapes or must
    /// pass through untouched: quote, backslash, newline, tab, a raw
    /// control byte, a two-byte and a four-byte UTF-8 scalar.
    const NASTY: &str = "q\"b\\s\nt\tc\u{1}é😀";

    #[test]
    fn responses_are_valid_json() {
        let report = RequestReport {
            mode: InlineMode::None,
            loc: 3,
            matches_original: true,
            parallel_consistent: true,
            races: 0,
            total_ops: 42,
            loops: vec![ipp_core::service::LoopSummary {
                unit: "MAIN".into(),
                idx: 1,
                parallel: false,
                blockers: vec!["array-dep"],
            }],
            loops_parallel: 0,
            speedups: vec![ipp_core::tournament::MachineScore {
                machine: "intel8".into(),
                speedup_micros: 1_500_000,
                tuned_off: 0,
            }],
            source_key: 0xABC,
        };
        let err = PipelineError::in_cell(
            "ADM",
            InlineMode::None,
            FailStage::Verify,
            FailCause::Timeout {
                max_ops: 10,
                wall_ms: 0,
            },
        );
        let modeless =
            PipelineError::pre_pipeline(NASTY, FailStage::Parse, FailCause::Panic(NASTY.into()));
        let tournament = TournamentReport {
            winner: Some("annotation".into()),
            winner_mode: Some(InlineMode::Annotation),
            winner_score_micros: 2_000_000,
            gained: vec!["MAIN#2".into()],
            lost: vec![],
            arms: vec![
                ipp_core::service::ArmSummary {
                    arm: "annotation".into(),
                    mode: InlineMode::Annotation,
                    score_micros: Some(2_000_000),
                    verified: true,
                    loops_parallel: 2,
                    loc: 10,
                    error: None,
                },
                ipp_core::service::ArmSummary {
                    arm: "no-inline".into(),
                    mode: InlineMode::None,
                    score_micros: None,
                    verified: false,
                    loops_parallel: 0,
                    loc: 0,
                    error: Some("timeout".into()),
                },
            ],
        };
        let eval = EvaluateRequest {
            id: NASTY.into(),
            client: "soak".into(),
            name: NASTY.into(),
            mode: InlineMode::AutoAnnot,
            source: NASTY.into(),
            annotations: "".into(),
        };
        let treq = TournamentRequest {
            id: NASTY.into(),
            client: NASTY.into(),
            name: "ADM".into(),
            source: NASTY.into(),
            annotations: NASTY.into(),
        };
        let payloads = [
            ok_response(NASTY, &report),
            error_response(NASTY, &err),
            error_response("r", &modeless),
            tournament_response(NASTY, &tournament),
            protocol_error_response(NASTY),
            reject_response(NASTY, "overloaded", 50, NASTY),
            metrics_response(&ServerMetrics::default()),
            pong_response(),
            draining_response(),
            encode_evaluate(&eval),
            encode_tournament(&treq),
        ];
        let pinned = [
            r#"{"status":"ok","id":"q\"b\\s\nt\tc\u0001é😀","report":{"mode":"no-inline","loc":3,"verified":true,"matches_original":true,"parallel_consistent":true,"races":0,"total_ops":42,"loops_total":1,"loops_parallel":0,"source_key":"00000000000000000000000000000abc","speedups":[{"machine":"intel8","speedup_micros":1500000,"tuned_off":0}],"loops":[{"unit":"MAIN","idx":1,"parallel":false,"blockers":["array-dep"]}]}}"#,
            r#"{"status":"error","id":"q\"b\\s\nt\tc\u0001é😀","code":"timeout","stage":"verify","mode":"no-inline","app":"ADM","message":"verification exceeded the op-budget deadline (10 ops)"}"#,
            r#"{"status":"error","id":"r","code":"panic","stage":"parse","mode":null,"app":"q\"b\\s\nt\tc\u0001é😀","message":"panic: q\"b\\s\nt\tc\u0001é😀"}"#,
            r#"{"status":"ok","id":"q\"b\\s\nt\tc\u0001é😀","tournament":{"winner":"annotation","winner_mode":"annotation","winner_score_micros":2000000,"gained":["MAIN#2"],"lost":[],"arms":[{"arm":"annotation","mode":"annotation","verified":true,"score_micros":2000000,"loops_parallel":2,"loc":10,"error":null},{"arm":"no-inline","mode":"no-inline","verified":false,"score_micros":null,"loops_parallel":0,"loc":0,"error":"timeout"}]}}"#,
            r#"{"status":"error","code":"protocol","message":"q\"b\\s\nt\tc\u0001é😀"}"#,
            r#"{"status":"rejected","id":"q\"b\\s\nt\tc\u0001é😀","code":"overloaded","retry_after_hint_ms":50,"message":"q\"b\\s\nt\tc\u0001é😀"}"#,
            r#"{"status":"ok","metrics":{"wall_ns":0,"connections":0,"connections_rejected":0,"protocol_errors":0,"requests":0,"tournament_requests":0,"shed":0,"throttled":0,"rejected_draining":0,"completed_ok":0,"failed":0,"timed_out":0,"panicked":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"cache_entries":0,"queue_peak":0,"in_flight_at_drain":0,"failure_codes":{},"vm":{"insns_retired":0,"fused_insns":0,"fused_ticks":0,"fused_int":0,"calls":0,"pool_hits":0,"pool_misses":0,"peak_call_depth":0,"warm_allocs":0,"chunks_run":0,"chunk_undo_writes":0,"typed_specializations":0,"reference_runs":0}}}"#,
            r#"{"status":"ok","pong":true}"#,
            r#"{"status":"ok","draining":true}"#,
            r#"{"op":"evaluate","id":"q\"b\\s\nt\tc\u0001é😀","client":"soak","name":"q\"b\\s\nt\tc\u0001é😀","mode":"auto-annot","source":"q\"b\\s\nt\tc\u0001é😀","annotations":""}"#,
            r#"{"op":"tournament","id":"q\"b\\s\nt\tc\u0001é😀","client":"q\"b\\s\nt\tc\u0001é😀","name":"ADM","source":"q\"b\\s\nt\tc\u0001é😀","annotations":"q\"b\\s\nt\tc\u0001é😀"}"#,
        ];
        for (payload, want) in payloads.iter().zip(pinned) {
            // The exact wire bytes: clients and the soak compare them.
            assert_eq!(payload, want);
            let doc = json::parse(payload).expect(payload);
            assert!(doc.get("status").or(doc.get("op")).is_some(), "{payload}");
        }
        assert_eq!(
            decode_request(&encode_evaluate(&eval)).unwrap(),
            Request::Evaluate(eval)
        );
        assert_eq!(
            decode_request(&encode_tournament(&treq)).unwrap(),
            Request::Tournament(treq)
        );
        let ok = json::parse(&ok_response("r", &report)).unwrap();
        let rep = ok.get("report").unwrap();
        assert_eq!(rep.get("loops_total").and_then(Json::as_u64), Some(1));
        assert_eq!(
            rep.get("source_key").and_then(Json::as_str),
            Some("00000000000000000000000000000abc")
        );
        let e = json::parse(&error_response("r", &err)).unwrap();
        assert_eq!(e.get("code").and_then(Json::as_str), Some("timeout"));
        assert_eq!(e.get("stage").and_then(Json::as_str), Some("verify"));
        let e = json::parse(&error_response("r", &modeless)).unwrap();
        assert_eq!(e.get("app").and_then(Json::as_str), Some(NASTY));
        assert_eq!(e.get("mode"), Some(&Json::Null));
        let t = json::parse(&tournament_response("r", &tournament)).unwrap();
        let tr = t.get("tournament").unwrap();
        assert_eq!(tr.get("winner").and_then(Json::as_str), Some("annotation"));
        assert_eq!(
            tr.get("winner_score_micros").and_then(Json::as_u64),
            Some(2_000_000)
        );
    }
}
