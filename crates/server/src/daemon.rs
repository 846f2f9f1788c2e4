//! The daemon: acceptor, connection threads, and the degradation
//! ladder.
//!
//! Life of a request: the acceptor blocks in `accept` and admits a
//! connection (bounded by [`ServerOptions::max_connections`] — beyond
//! it, a `"busy"` rejection and close) onto a thread of its own. That
//! connection thread reads length-prefixed frames through one buffered
//! reader under a read timeout (slow-loris defence), decodes and
//! validates the JSON document, then walks the admission ladder — drain
//! flag, per-client token bucket, evaluation gate. Each gate that
//! refuses answers with a structured `"rejected"` response carrying a
//! retry hint; the evaluation gate is the load-shedding point (never
//! unbounded buffering). Between gates 2 and 3 an evaluate request makes
//! its one counted lookup in the shared content-addressed
//! [`RequestCache`]: a hit is answered right there, so only misses and
//! tournaments pass the gate. Past it, the connection thread runs the
//! evaluation itself while it holds one of the
//! [`ServerOptions::workers`] run permits. Every failure mode — panics
//! included — flows back over the wire as a structured error while the
//! daemon keeps serving, and every response leaves as one frame in one
//! write.
//!
//! The scope of every degradation is one request. The daemon process
//! itself only exits on graceful drain: stop accepting, refuse new
//! admissions, finish everything admitted, flush a final
//! [`ServerMetrics`] snapshot.

use crate::admission::{EvalGate, Refusal, TokenBuckets};
use crate::proto::{
    self, EvaluateRequest, FrameError, Request, TournamentRequest, DEFAULT_MAX_FRAME,
};
use ipp_core::driver::DriverOptions;
use ipp_core::error::PipelineError;
use ipp_core::service::{
    evaluate_request_metered, evaluate_tournament_metered, request_key, CachedOutcome,
    RequestCache, ServerMetrics,
};
use std::collections::BTreeMap;
use std::io::{self, BufReader};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address (`127.0.0.1:0` for an ephemeral test port).
    pub addr: String,
    /// Evaluations (cache misses and tournaments) running at once.
    pub workers: usize,
    /// Evaluations allowed to wait for a run slot — the load-shedding
    /// threshold.
    pub queue_capacity: usize,
    /// Concurrent-connection cap.
    pub max_connections: usize,
    /// Frame-size cap in bytes.
    pub max_frame_bytes: usize,
    /// Socket read timeout, milliseconds (slow-loris defence).
    pub read_timeout_ms: u64,
    /// Request-cache capacity (entries; 0 disables).
    pub cache_capacity: usize,
    /// Per-run interpreter op budget (also the token-bucket currency).
    pub verify_max_ops: u64,
    /// Per-request wall-clock deadline, milliseconds (0 = none).
    pub wall_budget_ms: u64,
    /// Token-bucket burst, in requests.
    pub client_burst: u32,
    /// Token-bucket refill, requests per second.
    pub client_refill_per_sec: f64,
    /// Bound on tracked clients.
    pub max_clients: usize,
    /// Interpreter engine for all runs.
    pub engine: fruntime::Engine,
    /// Chaos seam: program names whose evaluation panics deliberately
    /// (exercises the isolation boundary under live traffic).
    pub inject_fault_names: Vec<String>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        let d = DriverOptions::default();
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            max_connections: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME,
            read_timeout_ms: 2_000,
            cache_capacity: 256,
            verify_max_ops: d.verify_max_ops,
            wall_budget_ms: 2_000,
            client_burst: 8,
            client_refill_per_sec: 16.0,
            max_clients: 1024,
            engine: d.engine,
            inject_fault_names: Vec::new(),
        }
    }
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    connections_rejected: AtomicU64,
    protocol_errors: AtomicU64,
    requests: AtomicU64,
    tournament_requests: AtomicU64,
    shed: AtomicU64,
    throttled: AtomicU64,
    rejected_draining: AtomicU64,
    completed_ok: AtomicU64,
    failed: AtomicU64,
    timed_out: AtomicU64,
    panicked: AtomicU64,
    in_flight_at_drain: AtomicU64,
}

struct Shared {
    opts: ServerOptions,
    /// The bound address, which [`Shared::begin_drain`] connects to once
    /// to wake the blocked acceptor.
    addr: SocketAddr,
    gate: EvalGate,
    buckets: TokenBuckets,
    cache: RequestCache,
    draining: AtomicBool,
    started: Instant,
    active_conns: AtomicUsize,
    counters: Counters,
    failure_codes: Mutex<BTreeMap<String, u64>>,
    /// Aggregate VM counters of verification work actually executed
    /// (cache-served requests contribute zeros — the metered evaluate
    /// entry points only report fresh runs).
    vm: Mutex<fruntime::VmCounters>,
}

impl Shared {
    fn driver_options(&self) -> DriverOptions {
        DriverOptions {
            verify_max_ops: self.opts.verify_max_ops,
            wall_budget_ms: self.opts.wall_budget_ms,
            engine: self.opts.engine,
            inject_panic: self.opts.inject_fault_names.clone(),
            ..Default::default()
        }
    }

    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            let in_flight = self.gate.drain() as u64;
            self.counters
                .in_flight_at_drain
                .store(in_flight, Ordering::SeqCst);
            // Wake the acceptor from its blocking `accept`: it sees the
            // drain flag on the next connection and stops.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(if wake.is_ipv4() {
                    Ipv4Addr::LOCALHOST.into()
                } else {
                    Ipv6Addr::LOCALHOST.into()
                });
            }
            let _ = TcpStream::connect(wake);
        }
    }

    fn absorb_vm(&self, vm: &fruntime::VmCounters) {
        self.vm
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .absorb(vm);
    }

    /// Count and render the answer to an evaluate request, whether the
    /// outcome came from the cache or from a fresh evaluation.
    fn answer(&self, req: &EvaluateRequest, outcome: CachedOutcome) -> String {
        match outcome {
            Ok(report) => {
                self.counters.completed_ok.fetch_add(1, Ordering::SeqCst);
                proto::ok_response(&req.id, &report)
            }
            // The cache key is (mode, source, annotations, budget): a hit
            // may carry another requester's name, which `fail` replaces.
            Err(e) => self.fail(&req.id, &req.name, e),
        }
    }

    /// Count and render a refusal: gate 1's drain check, or gate 3.
    fn refuse(&self, id: &str, refusal: Refusal) -> String {
        let c = &self.counters;
        match refusal {
            Refusal::Overloaded { retry_ms } => {
                c.shed.fetch_add(1, Ordering::SeqCst);
                proto::reject_response(id, "overloaded", retry_ms, "admission queue full")
            }
            Refusal::Draining => {
                c.rejected_draining.fetch_add(1, Ordering::SeqCst);
                proto::reject_response(id, "draining", 0, "daemon is draining")
            }
        }
    }

    /// The one failure path of evaluate and tournament requests: count a
    /// structured request failure and render its response. The
    /// error is re-attributed to this request's `name`, because a cache
    /// hit may carry the *first* requester's name and the response must
    /// stay a pure function of this request.
    fn fail(&self, id: &str, name: &str, mut e: PipelineError) -> String {
        let c = &self.counters;
        c.failed.fetch_add(1, Ordering::SeqCst);
        if e.is_timeout() {
            c.timed_out.fetch_add(1, Ordering::SeqCst);
        }
        if e.code() == "panic" {
            c.panicked.fetch_add(1, Ordering::SeqCst);
        }
        let mut codes = self
            .failure_codes
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *codes.entry(e.code().to_string()).or_insert(0) += 1;
        drop(codes);
        e.app = name.to_string();
        proto::error_response(id, &e)
    }

    fn snapshot(&self) -> ServerMetrics {
        let c = &self.counters;
        let cache = self.cache.stats();
        ServerMetrics {
            wall_nanos: self.started.elapsed().as_nanos() as u64,
            connections: c.connections.load(Ordering::SeqCst),
            connections_rejected: c.connections_rejected.load(Ordering::SeqCst),
            protocol_errors: c.protocol_errors.load(Ordering::SeqCst),
            requests: c.requests.load(Ordering::SeqCst),
            tournament_requests: c.tournament_requests.load(Ordering::SeqCst),
            shed: c.shed.load(Ordering::SeqCst),
            throttled: c.throttled.load(Ordering::SeqCst),
            rejected_draining: c.rejected_draining.load(Ordering::SeqCst),
            completed_ok: c.completed_ok.load(Ordering::SeqCst),
            failed: c.failed.load(Ordering::SeqCst),
            timed_out: c.timed_out.load(Ordering::SeqCst),
            panicked: c.panicked.load(Ordering::SeqCst),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries,
            queue_peak: self.gate.peak() as u64,
            in_flight_at_drain: c.in_flight_at_drain.load(Ordering::SeqCst),
            failure_codes: self
                .failure_codes
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            vm: *self.vm.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// A running daemon. Dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`] (initiate drain and wait) or
/// [`ServerHandle::join`] (wait for a wire-initiated drain).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current metrics snapshot (also available over the wire).
    pub fn metrics(&self) -> ServerMetrics {
        self.shared.snapshot()
    }

    /// Initiate graceful drain: stop accepting, refuse new admissions,
    /// finish admitted evaluations, return the final metrics snapshot.
    pub fn shutdown(self) -> ServerMetrics {
        self.shared.begin_drain();
        self.join()
    }

    /// Wait for the daemon to drain (e.g. via a wire `shutdown` op) and
    /// return the final metrics snapshot.
    pub fn join(self) -> ServerMetrics {
        let _ = self.acceptor.join();
        self.shared.gate.wait_idle();
        self.shared.snapshot()
    }
}

/// The daemon entry point: bind, start the acceptor, return a handle.
pub fn spawn(opts: ServerOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        addr,
        gate: EvalGate::new(opts.workers, opts.queue_capacity),
        buckets: TokenBuckets::new(
            opts.verify_max_ops,
            opts.client_burst,
            opts.client_refill_per_sec,
            opts.max_clients,
        ),
        cache: RequestCache::new(opts.cache_capacity),
        draining: AtomicBool::new(false),
        started: Instant::now(),
        active_conns: AtomicUsize::new(0),
        counters: Counters::default(),
        failure_codes: Mutex::new(BTreeMap::new()),
        vm: Mutex::new(fruntime::VmCounters::default()),
        opts,
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("ipp-acceptor".into())
            .spawn(move || acceptor_loop(listener, &shared))
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor,
    })
}

fn acceptor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.draining.load(Ordering::SeqCst) {
            // Dropping the listener refuses every later connect.
            return;
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            // A genuine accept failure (descriptor exhaustion, say):
            // back off briefly rather than spin on it.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.active_conns.load(Ordering::SeqCst) >= shared.opts.max_connections {
            shared
                .counters
                .connections_rejected
                .fetch_add(1, Ordering::SeqCst);
            // Best-effort structured refusal; then close.
            let mut s = stream;
            let _ = proto::write_frame(
                &mut s,
                &proto::reject_response("", "busy", 100, "connection limit reached"),
            );
            continue;
        }
        shared.counters.connections.fetch_add(1, Ordering::SeqCst);
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("ipp-conn".into())
            .spawn(move || {
                connection_loop(stream, &shared);
                shared.active_conns.fetch_sub(1, Ordering::SeqCst);
            });
    }
}

fn connection_loop(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.opts.read_timeout_ms.max(1),
    )));
    let _ = stream.set_nodelay(true);
    // One buffer per connection: a frame header costs one read, not one
    // per byte. Responses are written straight to the socket underneath.
    let mut reader = BufReader::new(stream);
    loop {
        match proto::read_frame(&mut reader, shared.opts.max_frame_bytes) {
            Err(FrameError::Closed) => return,
            Err(e) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::SeqCst);
                if e.answerable() {
                    let _ = proto::write_frame(
                        reader.get_mut(),
                        &proto::protocol_error_response(&e.to_string()),
                    );
                }
                // The stream is no longer at a trustworthy frame
                // boundary — close it.
                return;
            }
            Ok(payload) => {
                let resp = match proto::decode_request(&payload) {
                    Err(msg) => {
                        // The *frame* was fine; the document was not.
                        // Answer and keep serving this connection.
                        shared
                            .counters
                            .protocol_errors
                            .fetch_add(1, Ordering::SeqCst);
                        proto::protocol_error_response(&msg)
                    }
                    Ok(Request::Ping) => proto::pong_response(),
                    Ok(Request::Metrics) => proto::metrics_response(&shared.snapshot()),
                    Ok(Request::Shutdown) => {
                        let _ = proto::write_frame(reader.get_mut(), &proto::draining_response());
                        shared.begin_drain();
                        return;
                    }
                    Ok(Request::Evaluate(req)) => admit_evaluate(shared, req),
                    Ok(Request::Tournament(req)) => admit_tournament(shared, req),
                };
                if proto::write_frame(reader.get_mut(), &resp).is_err() {
                    return;
                }
            }
        }
    }
}

/// Ladder gates 1–2 for an evaluate or tournament request: count it,
/// then refuse it while draining or when its client's op bucket is
/// empty. `Err` is the structured rejection to send. Together with gate
/// 3 ([`Shared::refuse`]) every request lands in exactly one ledger
/// bucket — `requests == completed_ok + failed + shed + throttled +
/// rejected_draining` holds with cache hits and tournaments in the mix.
fn pass_gates(shared: &Shared, id: &str, client: &str) -> Result<(), String> {
    let c = &shared.counters;
    c.requests.fetch_add(1, Ordering::SeqCst);
    if shared.draining.load(Ordering::SeqCst) {
        return Err(shared.refuse(id, Refusal::Draining));
    }
    if let Err(retry_ms) = shared.buckets.try_admit(client) {
        c.throttled.fetch_add(1, Ordering::SeqCst);
        return Err(proto::reject_response(
            id,
            "budget",
            retry_ms,
            "per-client op budget exhausted",
        ));
    }
    Ok(())
}

/// Serve one evaluate request. Past gates 1–2 it makes its one counted
/// cache lookup: a hit is answered at once, without the evaluation gate,
/// so saturated run slots do not delay it. A miss takes a run permit
/// and is evaluated on this thread; the re-check under the permit is an
/// uncounted peek, so a duplicate of a miss that ran ahead of it finds
/// that miss's outcome there and identical misses pay one evaluation.
fn admit_evaluate(shared: &Shared, req: EvaluateRequest) -> String {
    if let Err(rejection) = pass_gates(shared, &req.id, &req.client) {
        return rejection;
    }
    let key = request_key(
        req.mode,
        &req.source,
        &req.annotations,
        shared.opts.verify_max_ops,
    );
    if let Some(hit) = shared.cache.lookup(key) {
        return shared.answer(&req, hit);
    }
    let _permit = match shared.gate.enter() {
        Ok(permit) => permit,
        Err(refusal) => return shared.refuse(&req.id, refusal),
    };
    let outcome = match shared.cache.peek(key) {
        Some(done) => done,
        None => {
            let opts = shared.driver_options();
            let (outcome, vm) =
                evaluate_request_metered(&req.name, &req.source, &req.annotations, req.mode, &opts);
            let outcome = outcome.map(Arc::new);
            shared.absorb_vm(&vm);
            shared.cache.insert(key, outcome.clone());
            outcome
        }
    };
    shared.answer(&req, outcome)
}

/// Serve one tournament request: gates 1–3, then the whole portfolio on
/// this thread under one run permit. A tournament is one request — one
/// admission charge, one permit — even though it evaluates every arm:
/// the arms share the request cache (the per-arm entries plain evaluate
/// requests use, [`ipp_core::service::arm_key`]), one parse and one
/// baseline run, so its cost is bounded.
fn admit_tournament(shared: &Shared, req: TournamentRequest) -> String {
    shared
        .counters
        .tournament_requests
        .fetch_add(1, Ordering::SeqCst);
    if let Err(rejection) = pass_gates(shared, &req.id, &req.client) {
        return rejection;
    }
    let _permit = match shared.gate.enter() {
        Ok(permit) => permit,
        Err(refusal) => return shared.refuse(&req.id, refusal),
    };
    let (outcome, vm) = evaluate_tournament_metered(
        &req.name,
        &req.source,
        &req.annotations,
        &shared.driver_options(),
        Some(&shared.cache),
    );
    shared.absorb_vm(&vm);
    match outcome {
        Ok(report) => {
            shared.counters.completed_ok.fetch_add(1, Ordering::SeqCst);
            proto::tournament_response(&req.id, &report)
        }
        Err(e) => shared.fail(&req.id, &req.name, e),
    }
}
