//! Hostile-load soak for the service daemon (`crates/server`).
//!
//! The invariants under test, per `ISSUE`/`DESIGN` failure model:
//!
//! * the daemon never exits and never leaks a panic, whatever bytes or
//!   programs arrive — a panicking cell degrades to one structured
//!   error while sibling requests and the shared caches stay healthy;
//! * identical well-formed requests receive byte-identical responses —
//!   across repeats, worker counts, daemon instances, and cache states;
//! * every malformed input is answered with a structured protocol
//!   error where the transport still allows an answer;
//! * overload is shed with explicit `"rejected"` responses carrying
//!   retry hints (never unbounded buffering), a cache hit is answered
//!   even while every run slot is taken, and per-client budgets throttle
//!   one client without starving another;
//! * shutdown is a graceful drain: in-flight work completes and the
//!   final `ServerMetrics` snapshot is well-formed.

use chaos::client_load::{self, canary_request, LoadOptions};
use ipp_core::json::{self, Json};
use server::proto::{encode_evaluate, read_frame, write_frame, EvaluateRequest};
use server::{daemon, ServerOptions};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// One request/response exchange on a fresh connection.
fn exchange(addr: &str, payload: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
    stream.set_write_timeout(Some(IO_TIMEOUT)).unwrap();
    write_frame(&mut stream, payload).expect("send");
    read_frame(&mut stream, usize::MAX).expect("recv")
}

fn status_of(resp: &str) -> String {
    json::parse(resp)
        .unwrap_or_else(|e| panic!("unparseable response {resp:?}: {e}"))
        .get("status")
        .and_then(Json::as_str)
        .unwrap_or("<none>")
        .to_string()
}

fn evaluate(name: &str, source: &str, mode: ipp_core::InlineMode, id: &str) -> EvaluateRequest {
    EvaluateRequest {
        id: id.into(),
        client: "soak".into(),
        name: name.into(),
        mode,
        source: source.into(),
        annotations: String::new(),
    }
}

/// A program slow enough (in a debug build) to hold a run slot for a
/// while, but far under every budget.
const SLOW_SOURCE: &str = "      PROGRAM SLOW
      COMMON /C/ A(100)
      DO J = 1, 5000
      DO I = 1, 100
        A(I) = A(I) + 1.0
      ENDDO
      ENDDO
      END
";

fn generous() -> ServerOptions {
    ServerOptions {
        workers: 2,
        queue_capacity: 64,
        client_burst: 10_000,
        client_refill_per_sec: 10_000.0,
        // Roomy: a debug-build interpreter must never trip the deadline
        // in tests that assert on `ok` responses.
        wall_budget_ms: 60_000,
        ..Default::default()
    }
}

#[test]
fn hostile_load_soak_daemon_survives_and_stays_deterministic() {
    let handle = daemon::spawn(ServerOptions {
        read_timeout_ms: 150,
        ..generous()
    })
    .expect("spawn");
    let addr = handle.addr().to_string();

    let stats = client_load::run(
        &addr,
        &LoadOptions {
            seed: 0x50AC_2011,
            requests: 120,
            pool: 10,
            clients: 3,
            hostile_percent: 35,
            canary_every: 8,
            io_timeout: IO_TIMEOUT,
            ..Default::default()
        },
    );
    assert!(stats.clean(), "dirty campaign: {}", stats.to_json());
    assert!(stats.well_formed > 0 && stats.hostile > 0, "{stats:?}");
    assert!(stats.ok > 0, "{stats:?}");
    assert_eq!(stats.malformed_responses, 0, "{stats:?}");

    // The daemon answered abuse with protocol errors and kept serving.
    let m = handle.metrics();
    assert!(m.protocol_errors > 0, "{}", m.to_json());
    assert_eq!(m.panicked, 0, "{}", m.to_json());
    assert!(m.completed_ok > 0, "{}", m.to_json());
    // The canary after all abuse still answers ok.
    let resp = exchange(&addr, &encode_evaluate(&canary_request()));
    assert_eq!(status_of(&resp), "ok", "{resp}");

    let final_metrics = handle.shutdown();
    // The flushed snapshot is machine-readable and panic-free.
    let doc = json::parse(&final_metrics.to_json()).expect("metrics JSON");
    assert!(doc.get("panicked").is_some());
    assert!(final_metrics.panic_free());
}

#[test]
fn responses_are_byte_identical_across_worker_counts_and_cache_states() {
    let reqs: Vec<String> = corpus::requests(0xB17E, 24, 6)
        .enumerate()
        .map(|(i, spec)| {
            encode_evaluate(&EvaluateRequest {
                id: format!("d{i}"),
                client: "det".into(),
                name: spec.name,
                mode: ipp_core::InlineMode::from_label(spec.mode).unwrap(),
                source: spec.source,
                annotations: spec.annotations,
            })
        })
        .collect();

    let mut by_workers: Vec<BTreeMap<String, String>> = Vec::new();
    for workers in [1usize, 4] {
        let handle = daemon::spawn(ServerOptions {
            workers,
            ..generous()
        })
        .expect("spawn");
        let addr = handle.addr().to_string();
        let mut first = BTreeMap::new();
        for payload in &reqs {
            let resp = exchange(&addr, payload);
            assert_ne!(status_of(&resp), "rejected", "{resp}");
            first.insert(payload.clone(), resp);
        }
        // Second pass: cache hits must be byte-identical to the cold run.
        for payload in &reqs {
            let resp = exchange(&addr, payload);
            assert_eq!(&resp, first.get(payload).unwrap(), "cache altered bytes");
        }
        let m = handle.shutdown();
        assert!(m.cache_hits > 0, "{}", m.to_json());
        by_workers.push(first);
    }
    assert_eq!(
        by_workers[0], by_workers[1],
        "responses differ between 1 and 4 workers"
    );
}

#[test]
fn overload_sheds_with_structured_rejections_and_recovers() {
    let handle = daemon::spawn(ServerOptions {
        workers: 1,
        queue_capacity: 1,
        ..generous()
    })
    .expect("spawn");
    let addr = Arc::new(handle.addr().to_string());

    let barrier = Arc::new(std::sync::Barrier::new(8));
    let mut threads = Vec::new();
    for i in 0..8 {
        let addr = Arc::clone(&addr);
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            // The cache key is (mode, source, annotations, budget), not
            // the id: a trailing comment gives each request a source of
            // its own, so none can be answered from the cache, while the
            // evaluation cost stays identical.
            let req = evaluate(
                "SLOW",
                &format!("{SLOW_SOURCE}C {i}\n"),
                ipp_core::InlineMode::None,
                &format!("s{i}"),
            );
            barrier.wait();
            exchange(&addr, &encode_evaluate(&req))
        }));
    }
    let responses: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let rejected: Vec<&String> = responses
        .iter()
        .filter(|r| status_of(r) == "rejected")
        .collect();
    let served = responses.len() - rejected.len();
    assert!(served >= 1, "{responses:?}");
    assert!(
        !rejected.is_empty(),
        "8 concurrent slow requests against queue=1/workers=1 shed nothing: {responses:?}"
    );
    for r in &rejected {
        let doc = json::parse(r).unwrap();
        assert_eq!(
            doc.get("code").and_then(Json::as_str),
            Some("overloaded"),
            "{r}"
        );
        assert!(
            doc.get("retry_after_hint_ms")
                .and_then(Json::as_u64)
                .unwrap()
                > 0,
            "{r}"
        );
    }
    // Shedding is an admission decision, not damage: the canary answers.
    let resp = exchange(&addr, &encode_evaluate(&canary_request()));
    assert_eq!(status_of(&resp), "ok", "{resp}");
    let m = handle.shutdown();
    assert_eq!(m.shed, rejected.len() as u64, "{}", m.to_json());
    assert!(m.queue_peak <= 1, "{}", m.to_json());
}

/// A miss that holds its run slot for about a second in either build: a
/// scaled-up [`SLOW_SOURCE`] whose trailing comment gives it a cache key
/// of its own.
fn slow_miss(tag: &str) -> String {
    let iters = if cfg!(debug_assertions) {
        5_000
    } else {
        40_000
    };
    let source = SLOW_SOURCE.replace("5000", &iters.to_string());
    encode_evaluate(&evaluate(
        "SLOW",
        &format!("{source}C {tag}\n"),
        ipp_core::InlineMode::None,
        tag,
    ))
}

/// Poll the daemon's metrics until `done` holds (or fail after 20 s).
fn wait_until(handle: &server::ServerHandle, done: impl Fn(&ipp_core::ServerMetrics) -> bool) {
    let start = std::time::Instant::now();
    while !done(&handle.metrics()) {
        assert!(
            start.elapsed() < IO_TIMEOUT,
            "{}",
            handle.metrics().to_json()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn code_of(resp: &str) -> Option<String> {
    json::parse(resp)
        .ok()?
        .get("code")
        .and_then(Json::as_str)
        .map(str::to_string)
}

#[test]
fn cache_hit_bypasses_a_saturated_pool() {
    let handle = daemon::spawn(ServerOptions {
        workers: 1,
        queue_capacity: 1,
        ..generous()
    })
    .expect("spawn");
    let addr = Arc::new(handle.addr().to_string());
    let k = encode_evaluate(&canary_request());
    let first = exchange(&addr, &k);
    assert_eq!(status_of(&first), "ok", "{first}");

    // Saturate the evaluation gate: one slow miss running, one waiting.
    let send = |tag: &'static str| {
        let addr = Arc::clone(&addr);
        std::thread::spawn(move || exchange(&addr, &slow_miss(tag)))
    };
    // The metrics count a request before it reaches the gate, and taking
    // a run permit is not visible at all, so a short pause follows each
    // count; each slow miss holds its run slot for about a second.
    let running = send("running");
    wait_until(&handle, |m| m.requests == 2);
    std::thread::sleep(Duration::from_millis(50));
    let queued = send("queued");
    wait_until(&handle, |m| m.requests == 3);
    std::thread::sleep(Duration::from_millis(50));
    let shed_before = exchange(&addr, &slow_miss("shed-before"));
    assert_eq!(
        code_of(&shed_before).as_deref(),
        Some("overloaded"),
        "{shed_before}"
    );

    // The hit needs no run slot: it is answered at once, byte for byte.
    let hit = exchange(&addr, &k);
    assert_eq!(
        hit, first,
        "a cache hit must not wait for, or be shed by, the pool"
    );

    // The gate was still saturated after the hit was answered.
    let shed_after = exchange(&addr, &slow_miss("shed-after"));
    assert_eq!(
        code_of(&shed_after).as_deref(),
        Some("overloaded"),
        "{shed_after}"
    );
    for t in [running, queued] {
        let resp = t.join().unwrap();
        assert_eq!(status_of(&resp), "ok", "{resp}");
    }

    let m = handle.shutdown();
    assert_eq!(
        m.shed,
        2,
        "only the two extra misses are shed: {}",
        m.to_json()
    );
    assert_eq!(m.completed_ok, 4, "{}", m.to_json());
    assert_eq!((m.cache_hits, m.cache_misses), (1, 5), "{}", m.to_json());
    assert_eq!(
        m.requests,
        m.completed_ok + m.failed + m.shed + m.throttled + m.rejected_draining,
        "request ledger leaks: {}",
        m.to_json()
    );
}

#[test]
fn per_client_budgets_throttle_without_collateral() {
    let handle = daemon::spawn(ServerOptions {
        workers: 2,
        client_burst: 2,
        client_refill_per_sec: 0.01,
        ..Default::default()
    })
    .expect("spawn");
    let addr = handle.addr().to_string();

    let mut greedy_statuses = Vec::new();
    for i in 0..5 {
        let mut req = canary_request();
        req.id = format!("g{i}");
        req.client = "greedy".into();
        let resp = exchange(&addr, &encode_evaluate(&req));
        greedy_statuses.push((status_of(&resp), resp));
    }
    assert_eq!(greedy_statuses[0].0, "ok", "{:?}", greedy_statuses[0].1);
    assert_eq!(greedy_statuses[1].0, "ok", "{:?}", greedy_statuses[1].1);
    let throttled: Vec<_> = greedy_statuses
        .iter()
        .filter(|(s, _)| s == "rejected")
        .collect();
    assert_eq!(throttled.len(), 3, "{greedy_statuses:?}");
    for (_, r) in &throttled {
        let doc = json::parse(r).unwrap();
        assert_eq!(
            doc.get("code").and_then(Json::as_str),
            Some("budget"),
            "{r}"
        );
        assert!(
            doc.get("retry_after_hint_ms")
                .and_then(Json::as_u64)
                .unwrap()
                > 0,
            "{r}"
        );
    }
    // A different client is untouched by greedy's exhaustion.
    let mut other = canary_request();
    other.client = "frugal".into();
    let resp = exchange(&addr, &encode_evaluate(&other));
    assert_eq!(status_of(&resp), "ok", "{resp}");
    let m = handle.shutdown();
    assert_eq!(m.throttled, 3, "{}", m.to_json());
}

/// Satellite: panic a cell mid-request while sibling requests are in
/// flight; the shared caches stay usable and sibling responses are
/// byte-identical to an uncontended run.
#[test]
fn poisoned_cell_under_concurrent_load_leaves_siblings_identical() {
    let siblings: Vec<String> = corpus::requests(0x90150, 10, 4)
        .enumerate()
        .map(|(i, spec)| {
            encode_evaluate(&EvaluateRequest {
                id: format!("sib{i}"),
                client: "sib".into(),
                name: spec.name,
                mode: ipp_core::InlineMode::from_label(spec.mode).unwrap(),
                source: spec.source,
                annotations: spec.annotations,
            })
        })
        .collect();
    let opts = || ServerOptions {
        workers: 4,
        inject_fault_names: vec!["POISON".into()],
        ..generous()
    };

    // Uncontended reference run: siblings only, sequential.
    let reference = daemon::spawn(opts()).expect("spawn");
    let ref_addr = reference.addr().to_string();
    let expected: BTreeMap<String, String> = siblings
        .iter()
        .map(|p| (p.clone(), exchange(&ref_addr, p)))
        .collect();
    reference.shutdown();

    // Contended run: poison requests racing the same siblings.
    let handle = daemon::spawn(opts()).expect("spawn");
    let addr = Arc::new(handle.addr().to_string());
    let poisoner = {
        let addr = Arc::clone(&addr);
        std::thread::spawn(move || {
            (0..6)
                .map(|i| {
                    let req = evaluate(
                        "POISON",
                        client_load::CANARY_SOURCE,
                        ipp_core::InlineMode::None,
                        &format!("p{i}"),
                    );
                    exchange(&addr, &encode_evaluate(&req))
                })
                .collect::<Vec<_>>()
        })
    };
    let mut contended = BTreeMap::new();
    for p in &siblings {
        contended.insert(p.clone(), exchange(&addr, p));
    }
    let poison_responses = poisoner.join().unwrap();

    for resp in &poison_responses {
        let doc = json::parse(resp).unwrap();
        assert_eq!(
            doc.get("status").and_then(Json::as_str),
            Some("error"),
            "{resp}"
        );
        assert_eq!(
            doc.get("code").and_then(Json::as_str),
            Some("panic"),
            "{resp}"
        );
        assert_eq!(
            doc.get("stage").and_then(Json::as_str),
            Some("driver"),
            "{resp}"
        );
    }
    assert_eq!(
        contended, expected,
        "sibling responses changed under poisoned concurrency"
    );

    // Caches survived the panics: a repeat pass hits them and still
    // matches the reference bytes.
    for p in &siblings {
        assert_eq!(&exchange(&addr, p), expected.get(p).unwrap());
    }
    let m = handle.shutdown();
    assert!(m.panicked >= 6, "{}", m.to_json());
    assert!(m.cache_hits > 0, "{}", m.to_json());
    // Panic outcomes must not be cached (host-condition-dependent).
    assert!(m.cache_entries as usize <= 10, "{}", m.to_json());
}

#[test]
fn graceful_drain_finishes_in_flight_work_and_flushes_metrics() {
    let handle = daemon::spawn(ServerOptions {
        workers: 1,
        ..generous()
    })
    .expect("spawn");
    let addr = Arc::new(handle.addr().to_string());

    let slow = {
        let addr = Arc::clone(&addr);
        std::thread::spawn(move || {
            let req = evaluate("SLOW", SLOW_SOURCE, ipp_core::InlineMode::None, "inflight");
            exchange(&addr, &encode_evaluate(&req))
        })
    };
    // Give the slow request time to be admitted, then drain over the
    // wire while it runs.
    std::thread::sleep(Duration::from_millis(100));
    let ack = exchange(&addr, "{\"op\":\"shutdown\"}");
    assert_eq!(status_of(&ack), "ok", "{ack}");

    // The in-flight request still completes with a real answer.
    let resp = slow.join().unwrap();
    assert_eq!(status_of(&resp), "ok", "{resp}");

    let m = handle.join();
    let doc = json::parse(&m.to_json()).expect("final snapshot parses");
    assert!(doc.get("wall_ns").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(m.completed_ok, 1, "{}", m.to_json());
    assert!(m.panic_free());
}

#[test]
fn fresh_connections_are_accepted_without_polling_delay() {
    let handle = daemon::spawn(generous()).expect("spawn");
    let addr = handle.addr().to_string();
    let start = std::time::Instant::now();
    for _ in 0..50 {
        let resp = exchange(&addr, "{\"op\":\"ping\"}");
        assert_eq!(status_of(&resp), "ok", "{resp}");
    }
    let took = start.elapsed();
    handle.shutdown();
    // A blocking acceptor takes each connection as it arrives; a 10 ms
    // accept poll alone would cost at least 500 ms here.
    assert!(
        took < Duration::from_millis(250),
        "50 fresh-connection pings took {took:?}"
    );
}

#[test]
fn shutdown_of_an_idle_daemon_returns_and_closes_the_port() {
    let handle = daemon::spawn(generous()).expect("spawn");
    let addr = handle.addr();
    let m = handle.shutdown();
    assert_eq!(
        (m.requests, m.in_flight_at_drain),
        (0, 0),
        "{}",
        m.to_json()
    );
    let err = TcpStream::connect(addr).expect_err("the drained daemon still listens");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused, "{err}");
}
