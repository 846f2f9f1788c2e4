//! Hostile-load traffic generator for the service daemon.
//!
//! The compile-pipeline half of this crate mutates *programs*; this
//! module mutates *the protocol*. A campaign drives a fixed-seed stream
//! of requests at a live daemon, interleaving well-formed evaluations
//! and portfolio tournaments (drawn from [`corpus::mixed_requests`],
//! revisiting a program pool so the server cache is exercised) with
//! wire-level abuse:
//!
//! * truncated frames (declared length never delivered);
//! * oversized declared lengths;
//! * garbage header bytes;
//! * structurally broken or type-confused JSON documents;
//! * slow-loris dribble writes;
//! * mid-request disconnects.
//!
//! Every abuse slot is followed (per batch) by a **canary**: a fixed
//! well-formed request whose response must match, byte for byte, the
//! response recorded the first time. The campaign is pure in its seed —
//! position `i` always produces the same action — so a failure
//! reproduces from `(seed, i)` alone, matching the pipeline-chaos
//! harness's contract.
//!
//! The generator never panics on transport trouble: refused
//! connections, resets, and timeouts are counted, not thrown.

use corpus::{mixed_requests, RequestSpec, Rng};
use ipp_core::json::{self, Json};
use ipp_core::json_object;
use server::proto::{
    encode_evaluate, encode_tournament, read_frame, write_frame, EvaluateRequest, TournamentRequest,
};
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Campaign seed (determines everything).
    pub seed: u64,
    /// Total request slots (well-formed + hostile).
    pub requests: u64,
    /// Distinct corpus programs the well-formed stream draws from.
    pub pool: u64,
    /// Distinct client identities minted for token-bucket pressure.
    pub clients: u64,
    /// Approximate fraction of hostile slots, as a percentage (0–100).
    pub hostile_percent: u64,
    /// Approximate fraction of well-formed slots upgraded to portfolio
    /// tournament requests, as a percentage (0–100).
    pub tournament_percent: u64,
    /// Run the byte-identity canary every `canary_every` slots (0 =
    /// never).
    pub canary_every: u64,
    /// Per-connection socket timeout.
    pub io_timeout: Duration,
    /// Maximum frame the daemon accepts (used to craft oversized
    /// declarations just past the limit).
    pub server_max_frame: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            seed: 0xC11E_2011,
            requests: 200,
            pool: 12,
            clients: 4,
            hostile_percent: 35,
            tournament_percent: 10,
            canary_every: 10,
            io_timeout: Duration::from_millis(5_000),
            server_max_frame: server::proto::DEFAULT_MAX_FRAME,
        }
    }
}

/// What a campaign observed. `mismatches` and `canary_failures` are the
/// correctness gates; the rest is accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Slots executed.
    pub sent: u64,
    /// Well-formed evaluate requests sent.
    pub well_formed: u64,
    /// Well-formed slots that were portfolio tournament requests (a
    /// subset of `well_formed`).
    pub tournaments: u64,
    /// Hostile slots executed.
    pub hostile: u64,
    /// `status:"ok"` responses.
    pub ok: u64,
    /// `status:"error"` responses with a pipeline cause code.
    pub structured_errors: u64,
    /// `status:"error"` responses with code `"protocol"`.
    pub protocol_errors: u64,
    /// `status:"rejected"` responses (shed / throttled / draining).
    pub rejected: u64,
    /// Slots where the transport failed (refused, reset, timeout) —
    /// expected for disconnect-style abuse, fatal for well-formed slots
    /// only if the daemon died (which the canary would catch).
    pub transport_failures: u64,
    /// Responses that did not parse as JSON, or well-formed evaluations
    /// answered with something other than ok/error/rejected.
    pub malformed_responses: u64,
    /// Identical well-formed requests that received differing response
    /// bytes — determinism violations. Must be zero.
    pub mismatches: u64,
    /// Canary probes that failed (no answer, or bytes differing from the
    /// first recorded answer). Must be zero.
    pub canary_failures: u64,
    /// Canary probes run.
    pub canaries: u64,
}

impl LoadStats {
    /// The campaign's pass/fail verdict: the daemon answered every
    /// canary identically and never broke response determinism.
    pub fn clean(&self) -> bool {
        self.mismatches == 0 && self.canary_failures == 0 && (self.canaries > 0 || self.sent == 0)
    }

    /// JSON rendering for harness gating.
    pub fn to_json(&self) -> String {
        json_object!({
            "sent": self.sent, "well_formed": self.well_formed, "tournaments": self.tournaments,
            "hostile": self.hostile, "ok": self.ok, "structured_errors": self.structured_errors,
            "protocol_errors": self.protocol_errors, "rejected": self.rejected,
            "transport_failures": self.transport_failures,
            "malformed_responses": self.malformed_responses, "mismatches": self.mismatches,
            "canary_failures": self.canary_failures, "canaries": self.canaries,
            "clean": self.clean(),
        })
    }
}

/// The canary program: small, valid, parallelizable — and fixed forever,
/// so its response bytes are a stable liveness-and-determinism probe.
pub const CANARY_SOURCE: &str = "      PROGRAM CANARY
      COMMON /C/ A(32)
      DO I = 1, 32
        A(I) = I*2.0
      ENDDO
      END
";

/// Build the canary request (same bytes every call).
pub fn canary_request() -> EvaluateRequest {
    EvaluateRequest {
        id: "canary".into(),
        client: "canary".into(),
        name: "CANARY".into(),
        mode: ipp_core::InlineMode::Annotation,
        source: CANARY_SOURCE.into(),
        annotations: String::new(),
    }
}

fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Send one well-formed frame and read one response frame.
fn exchange(addr: &str, payload: &str, timeout: Duration) -> std::io::Result<String> {
    let mut stream = connect(addr, timeout)?;
    write_frame(&mut stream, payload)?;
    read_frame(&mut stream, usize::MAX)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// The retry hint of a `"rejected"` answer, or `None` for any other.
fn rejection_hint(resp: &str) -> Option<u64> {
    let doc = json::parse(resp).ok()?;
    (doc.get("status").and_then(Json::as_str) == Some("rejected")).then(|| {
        doc.get("retry_after_hint_ms")
            .and_then(Json::as_u64)
            .unwrap_or(0)
    })
}

/// [`exchange`] for a well-formed request that honours the daemon's
/// retry hint: a `"rejected"` answer is counted in `rejected`, and the
/// request is resent once after the hinted delay. The resend's answer is
/// the one returned.
fn exchange_with_retry(
    addr: &str,
    payload: &str,
    timeout: Duration,
    stats: &mut LoadStats,
) -> std::io::Result<String> {
    let resp = exchange(addr, payload, timeout)?;
    let Some(hint_ms) = rejection_hint(&resp) else {
        return Ok(resp);
    };
    stats.rejected += 1;
    std::thread::sleep(Duration::from_millis(hint_ms));
    exchange(addr, payload, timeout)
}

/// Ask a live daemon to begin graceful drain.
pub fn send_shutdown(addr: &str, timeout: Duration) -> std::io::Result<String> {
    exchange(addr, "{\"op\":\"shutdown\"}", timeout)
}

/// The protocol-mutation catalog. Order is part of the campaign's
/// determinism contract — append, don't reorder.
const WIRE_MUTATIONS: [&str; 8] = [
    "truncated-frame",
    "oversized-length",
    "garbage-header",
    "broken-json",
    "type-confusion",
    "missing-fields",
    "slow-loris",
    "mid-request-disconnect",
];

fn hostile_slot(
    addr: &str,
    rng: &mut Rng,
    spec: &RequestSpec,
    opts: &LoadOptions,
    stats: &mut LoadStats,
) {
    let req = EvaluateRequest {
        id: format!("h{}", stats.sent),
        client: format!("c{}", rng.below(opts.clients.max(1))),
        name: spec.name.clone(),
        mode: ipp_core::InlineMode::from_label(spec.mode).unwrap_or(ipp_core::InlineMode::None),
        source: spec.source.clone(),
        annotations: spec.annotations.clone(),
    };
    let payload = encode_evaluate(&req);
    let kind = *rng.pick(&WIRE_MUTATIONS);
    let timeout = opts.io_timeout;
    let outcome: std::io::Result<Option<String>> = (|| {
        match kind {
            "truncated-frame" => {
                let mut s = connect(addr, timeout)?;
                let keep = payload.len() / 2;
                writeln!(s, "{}", payload.len())?;
                s.write_all(&payload.as_bytes()[..keep])?;
                // Close with the frame half-delivered.
                drop(s);
                Ok(None)
            }
            "oversized-length" => {
                let mut s = connect(addr, timeout)?;
                writeln!(
                    s,
                    "{}",
                    opts.server_max_frame + 1 + rng.below(1000) as usize
                )?;
                Ok(Some(read_frame(&mut s, usize::MAX).map_err(to_io)?))
            }
            "garbage-header" => {
                let mut s = connect(addr, timeout)?;
                let junk: Vec<u8> = (0..rng.range(1, 32))
                    .map(|_| rng.below(256) as u8)
                    .collect();
                s.write_all(&junk)?;
                s.flush()?;
                Ok(read_frame(&mut s, usize::MAX).ok())
            }
            "broken-json" => {
                let mut s = connect(addr, timeout)?;
                let cut = 1 + rng.index(payload.len().saturating_sub(2).max(1));
                let broken: String = payload.chars().take(cut).collect();
                write_frame(&mut s, &broken)?;
                Ok(Some(read_frame(&mut s, usize::MAX).map_err(to_io)?))
            }
            "type-confusion" => {
                let mut s = connect(addr, timeout)?;
                let doc = match rng.below(3) {
                    0 => {
                        "{\"op\":\"evaluate\",\"id\":42,\"name\":true,\"mode\":[],\"source\":null}"
                            .to_string()
                    }
                    1 => "[\"evaluate\"]".to_string(),
                    _ => ipp_core::json_object!({
                        "op": "evaluate", "id": "x", "name": "A", "mode": "warp",
                        "source": spec.source,
                    }),
                };
                write_frame(&mut s, &doc)?;
                Ok(Some(read_frame(&mut s, usize::MAX).map_err(to_io)?))
            }
            "missing-fields" => {
                let mut s = connect(addr, timeout)?;
                write_frame(&mut s, "{\"op\":\"evaluate\",\"id\":\"only\"}")?;
                Ok(Some(read_frame(&mut s, usize::MAX).map_err(to_io)?))
            }
            "slow-loris" => {
                let mut s = connect(addr, timeout)?;
                // Dribble a byte at a time with pauses; the daemon's
                // read timeout decides when to give up on us.
                let bytes = format!("{}\n{}", payload.len(), payload);
                for chunk in bytes.as_bytes().chunks(1).take(6) {
                    s.write_all(chunk)?;
                    s.flush()?;
                    std::thread::sleep(Duration::from_millis(15));
                }
                drop(s);
                Ok(None)
            }
            "mid-request-disconnect" => {
                let mut s = connect(addr, timeout)?;
                writeln!(s, "{}", payload.len())?;
                s.write_all(&payload.as_bytes()[..payload.len().min(3)])?;
                s.flush()?;
                // Hard close mid-payload.
                drop(s);
                Ok(None)
            }
            _ => unreachable!("unknown wire mutation"),
        }
    })();
    match outcome {
        Ok(Some(resp)) => classify(&resp, false, stats),
        Ok(None) => {}
        Err(_) => stats.transport_failures += 1,
    }
}

fn to_io(e: server::proto::FrameError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// Bucket one response's `status`/`code` into the stats.
fn classify(resp: &str, well_formed: bool, stats: &mut LoadStats) {
    match json::parse(resp) {
        Err(_) => stats.malformed_responses += 1,
        Ok(doc) => match doc.get("status").and_then(Json::as_str) {
            Some("ok") => stats.ok += 1,
            Some("rejected") => stats.rejected += 1,
            Some("error") => {
                if doc.get("code").and_then(Json::as_str) == Some("protocol") {
                    stats.protocol_errors += 1;
                } else {
                    stats.structured_errors += 1;
                }
            }
            _ => {
                if well_formed {
                    stats.malformed_responses += 1;
                }
            }
        },
    }
}

/// Run a hostile-load campaign against a live daemon at `addr`.
///
/// Well-formed responses are recorded per request payload; a repeat of
/// the same payload must receive the same bytes (`mismatches` counts
/// violations). Rejected responses are exempt — admission is load-, not
/// content-, dependent. Every `canary_every` slots the canary probes
/// that the daemon still answers correctly and identically. A rejected
/// well-formed or canary request is resent once after its retry hint,
/// and the resend's answer is the one classified and gated: so a clean
/// campaign also shows that the daemon's hints are honest.
pub fn run(addr: &str, opts: &LoadOptions) -> LoadStats {
    let mut stats = LoadStats::default();
    let mut seen: HashMap<String, String> = HashMap::new();
    let mut canary_expected: Option<String> = None;
    let canary_payload = encode_evaluate(&canary_request());

    let specs: Vec<RequestSpec> =
        mixed_requests(opts.seed, opts.requests, opts.pool, opts.tournament_percent).collect();
    for (i, spec) in specs.iter().enumerate() {
        let mut rng = Rng::for_index(opts.seed ^ 0x10AD_C0DE, i as u64);
        stats.sent += 1;
        if rng.chance(opts.hostile_percent.min(100), 100) {
            stats.hostile += 1;
            hostile_slot(addr, &mut rng, spec, opts, &mut stats);
        } else {
            stats.well_formed += 1;
            let id = format!("r{i}");
            let client = format!("c{}", rng.below(opts.clients.max(1)));
            let payload = if spec.tournament {
                stats.tournaments += 1;
                encode_tournament(&TournamentRequest {
                    id,
                    client,
                    name: spec.name.clone(),
                    source: spec.source.clone(),
                    annotations: spec.annotations.clone(),
                })
            } else {
                encode_evaluate(&EvaluateRequest {
                    id,
                    client,
                    name: spec.name.clone(),
                    mode: ipp_core::InlineMode::from_label(spec.mode)
                        .unwrap_or(ipp_core::InlineMode::None),
                    source: spec.source.clone(),
                    annotations: spec.annotations.clone(),
                })
            };
            match exchange_with_retry(addr, &payload, opts.io_timeout, &mut stats) {
                Err(_) => stats.transport_failures += 1,
                Ok(resp) => {
                    classify(&resp, true, &mut stats);
                    // Determinism gate: identical request payload ⇒
                    // identical response bytes (rejections exempt — they
                    // depend on load, not content).
                    if rejection_hint(&resp).is_none() {
                        match seen.get(&payload) {
                            Some(prev) if prev != &resp => stats.mismatches += 1,
                            Some(_) => {}
                            None => {
                                seen.insert(payload.clone(), resp);
                            }
                        }
                    }
                }
            }
        }
        if opts.canary_every > 0 && (i as u64 + 1).is_multiple_of(opts.canary_every) {
            stats.canaries += 1;
            match exchange_with_retry(addr, &canary_payload, opts.io_timeout, &mut stats) {
                Err(_) => stats.canary_failures += 1,
                Ok(resp) => match &canary_expected {
                    None => {
                        let ok = json::parse(&resp)
                            .ok()
                            .and_then(|d| {
                                d.get("status").and_then(Json::as_str).map(str::to_string)
                            })
                            .as_deref()
                            == Some("ok");
                        if ok {
                            canary_expected = Some(resp);
                        } else {
                            stats.canary_failures += 1;
                        }
                    }
                    Some(expected) if expected != &resp => stats.canary_failures += 1,
                    Some(_) => {}
                },
            }
        }
    }
    stats
}

/// The soak gates over a campaign's `--json` report and the daemon's
/// drain-flushed [`ipp_core::ServerMetrics`] snapshot, both parsed
/// through [`ipp_core::json`]. The campaign must be clean (no mismatch,
/// no canary failure), have seen ok, hostile and tournament traffic, and
/// no malformed response. The daemon must show no escaped panic, real
/// completions, tournaments, structured protocol rejections and cache
/// hits, and a balanced request ledger. Returns the summary line, or the
/// first violation.
pub fn soak_gate(campaign: &Json, metrics: &Json) -> Result<String, String> {
    let count = |doc: &Json, name: &str, key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{name} lacks the count \"{key}\""))
    };
    let c = |key| count(campaign, "campaign", key);
    let m = |key| count(metrics, "metrics", key);
    let settled =
        m("completed_ok")? + m("failed")? + m("shed")? + m("throttled")? + m("rejected_draining")?;
    let gates = [
        (
            campaign.get("clean").and_then(Json::as_bool) == Some(true),
            "campaign dirty".to_string(),
        ),
        (
            c("mismatches")? == 0 && c("canary_failures")? == 0,
            format!(
                "{} mismatches, {} canary failures",
                c("mismatches")?,
                c("canary_failures")?
            ),
        ),
        (
            c("ok")? > 0 && c("hostile")? > 0,
            format!("campaign inert: {} ok, {} hostile", c("ok")?, c("hostile")?),
        ),
        (c("tournaments")? > 0, "no tournament traffic".to_string()),
        (
            c("malformed_responses")? == 0,
            format!("{} malformed responses", c("malformed_responses")?),
        ),
        (
            m("panicked")? == 0,
            format!("escaped panics: {}", m("panicked")?),
        ),
        (m("completed_ok")? > 0, "no completed requests".to_string()),
        (
            m("tournament_requests")? > 0,
            "tournament op never exercised".to_string(),
        ),
        (
            m("protocol_errors")? > 0,
            "abuse left no structured trace".to_string(),
        ),
        (m("cache_hits")? > 0, "shared cache never hit".to_string()),
        (
            m("requests")? == settled,
            format!(
                "request ledger leaks: {} requests, {settled} settled",
                m("requests")?
            ),
        ),
    ];
    if let Some((_, violation)) = gates.into_iter().find(|(holds, _)| !holds) {
        return Err(violation);
    }
    Ok(format!(
        "server-soak ok: {} requests, {} ok, {} protocol errors, {} cache hits, 0 panics",
        m("requests")?,
        m("completed_ok")?,
        m("protocol_errors")?,
        m("cache_hits")?
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One way to spoil a healthy report, and the violation it must
    /// produce.
    type Spoil<T> = (fn(&mut T), &'static str);

    #[test]
    fn soak_gate_passes_a_healthy_soak_and_names_each_violation() {
        let stats = LoadStats {
            sent: 10,
            well_formed: 6,
            tournaments: 1,
            hostile: 4,
            ok: 5,
            protocol_errors: 3,
            canaries: 2,
            ..Default::default()
        };
        let metrics = ipp_core::ServerMetrics {
            requests: 7,
            tournament_requests: 1,
            completed_ok: 5,
            failed: 1,
            shed: 1,
            protocol_errors: 3,
            cache_hits: 2,
            ..Default::default()
        };
        let parse = |text: &str| json::parse(text).unwrap();
        let gate = |s: &LoadStats, m: &ipp_core::ServerMetrics| {
            soak_gate(&parse(&s.to_json()), &parse(&m.to_json()))
        };
        assert_eq!(
            gate(&stats, &metrics).unwrap(),
            "server-soak ok: 7 requests, 5 ok, 3 protocol errors, 2 cache hits, 0 panics"
        );
        let bad_stats: [Spoil<LoadStats>; 5] = [
            (|s| s.canaries = 0, "campaign dirty"),
            (|s| s.hostile = 0, "campaign inert"),
            (|s| s.tournaments = 0, "no tournament traffic"),
            (|s| s.malformed_responses = 1, "malformed"),
            (|s| s.mismatches = 1, "campaign dirty"),
        ];
        for (spoil, needle) in bad_stats {
            let mut s = stats.clone();
            spoil(&mut s);
            let e = gate(&s, &metrics).unwrap_err();
            assert!(e.contains(needle), "{e}");
        }
        let bad_metrics: [Spoil<ipp_core::ServerMetrics>; 6] = [
            (|m| m.panicked = 1, "escaped panics: 1"),
            (|m| m.completed_ok = 0, "no completed requests"),
            (|m| m.tournament_requests = 0, "tournament op"),
            (|m| m.protocol_errors = 0, "no structured trace"),
            (|m| m.cache_hits = 0, "never hit"),
            (|m| m.requests = 8, "ledger leaks"),
        ];
        for (spoil, needle) in bad_metrics {
            let mut m = metrics.clone();
            spoil(&mut m);
            let e = gate(&stats, &m).unwrap_err();
            assert!(e.contains(needle), "{e}");
        }
        let e = soak_gate(&parse("{}"), &parse(&metrics.to_json())).unwrap_err();
        assert!(e.contains("campaign lacks the count"), "{e}");
    }

    #[test]
    fn campaign_honours_retry_hints_from_a_tight_bucket() {
        // One request of burst per client: back-to-back requests, the
        // canary's included, are throttled, and each resend after the
        // daemon's hint must be admitted for the campaign to stay clean.
        let handle = server::spawn(server::ServerOptions {
            client_burst: 1,
            wall_budget_ms: 60_000,
            ..Default::default()
        })
        .expect("spawn");
        let stats = run(
            &handle.addr().to_string(),
            &LoadOptions {
                seed: 0x4E7E_2011,
                requests: 30,
                pool: 4,
                clients: 2,
                hostile_percent: 0,
                tournament_percent: 0,
                canary_every: 2,
                ..Default::default()
            },
        );
        let m = handle.shutdown();
        assert!(stats.clean(), "{}", stats.to_json());
        assert!(stats.rejected > 0, "{}", stats.to_json());
        assert_eq!(stats.ok, stats.well_formed, "{}", stats.to_json());
        assert_eq!(m.throttled, stats.rejected, "{}", m.to_json());
    }

    #[test]
    fn canary_request_is_stable() {
        let a = encode_evaluate(&canary_request());
        let b = encode_evaluate(&canary_request());
        assert_eq!(a, b);
        assert!(a.contains("\"mode\":\"annotation\""));
        fir::parse(CANARY_SOURCE).expect("canary parses");
    }

    #[test]
    fn load_stats_json_and_verdict() {
        let mut s = LoadStats {
            sent: 10,
            canaries: 1,
            ..Default::default()
        };
        assert!(s.clean());
        assert!(s.to_json().contains("\"clean\":true"));
        s.mismatches = 1;
        assert!(!s.clean());
        s.mismatches = 0;
        s.canary_failures = 2;
        assert!(!s.clean());
        // A campaign that ran but never probed the canary is not clean.
        let unprobed = LoadStats {
            sent: 5,
            ..Default::default()
        };
        assert!(!unprobed.clean());
    }

    #[test]
    fn request_stream_is_pure_and_revisits_the_pool() {
        let a: Vec<_> = corpus::requests(9, 40, 6).collect();
        let b: Vec<_> = corpus::requests(9, 40, 6).collect();
        assert_eq!(a, b);
        let names: std::collections::HashSet<_> = a.iter().map(|r| r.name.clone()).collect();
        assert!(names.len() <= 6, "{}", names.len());
        // Repeated (name, mode) pairs exist — the cache-hit shape.
        let mut pairs = std::collections::HashMap::new();
        for r in &a {
            *pairs.entry((r.name.clone(), r.mode)).or_insert(0) += 1;
        }
        assert!(pairs.values().any(|&c| c > 1));
    }
}
