//! Per-request evaluation for the service front-end.
//!
//! [`crate::driver::run_suite`] is a batch API: one call owns the worker
//! pool, the caches, and the whole matrix. A long-lived daemon
//! (`crates/server`) has the opposite shape — many independent requests
//! arriving over time, each asking for one (program × mode) cell or one
//! portfolio tournament, sharing caches *across* requests instead of
//! within one run. This module is that per-request surface:
//!
//! * [`evaluate_request`] — parse → compile → verify for a single
//!   (source, annotations, mode) triple;
//! * [`evaluate_tournament`] — every portfolio arm for one request, with
//!   one shared parse, one memo (baseline and verify dedup) and one
//!   wall-clock deadline;
//! * [`RequestCache`] — a bounded, content-addressed compile/verify
//!   cache shared across requests, keyed by [`arm_key`] over (arm label,
//!   source, annotations, op budget); values are the deterministic
//!   [`RequestReport`]s, so a cache hit is byte-identical to
//!   recomputation. Capacity-bounded with FIFO eviction and full
//!   accounting — a hostile client cannot grow it without bound;
//! * [`ServerMetrics`] — the daemon-wide observability report, the
//!   service counterpart of [`crate::phase::SuiteMetrics`].
//!
//! The verdict itself is the batch driver's: each request compiles, runs
//! the baseline and verifies through the driver's one cell evaluator
//! (`driver::evaluate_cell`) over a per-request `ProgramMemo`, under the
//! budgets of [`DriverOptions`] and the stage checks of [`WallDeadline`].
//! A failed baseline or verification is memoized like a success, so a
//! tournament pays for it once. The per-machine scores (computed once per
//! verification in the memo's verify slot and read through
//! `MachineScore::all`), the tournament ranking (arm scores, winner rule
//! and the winner's loop diff, `tournament::rank`) and the FNV-1a content
//! hash of [`crate::driver::source_key`] are shared too. Every failure
//! mode, panics included, comes back as a structured [`PipelineError`].
//!
//! Determinism contract: a [`RequestReport`] is a pure function of
//! (source, annotations, mode, op budget, engine, machines).
//! Schedule-dependent measurements (timings, cache luck) are
//! deliberately excluded — the hostile-load soak asserts byte-identical
//! responses for identical requests across runs and worker counts, and
//! this is the struct those responses are rendered from.

use crate::driver::{
    evaluate_cell, source_key, CellConfig, CellDone, DriverOptions, Fnv128, ProgramMemo,
    WallDeadline,
};
use crate::error::{panic_message, FailCause, FailStage, PipelineError};
use crate::json::{self, ToJson};
use crate::json_object;
use crate::phase::blocker_key;
use crate::pipeline::InlineMode;
use crate::tournament::{portfolio, rank, ArmRun, MachineScore};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

/// One loop's decision in a [`RequestReport`] — the Table-II-style
/// per-loop verdict sent over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSummary {
    /// Program unit that contains the loop.
    pub unit: String,
    /// Loop index within the unit (parse order).
    pub idx: u32,
    /// Judged parallelizable.
    pub parallel: bool,
    /// Distinct blocker kinds recorded against the loop (sorted, stable
    /// keys from [`blocker_key`]); empty when parallel.
    pub blockers: Vec<&'static str>,
}

/// Everything a completed service request reports. Pure function of the
/// request content (plus the daemon's fixed op budget, engine and
/// machines): no wall-clock, no cache statistics, no schedule-dependent
/// counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestReport {
    /// Inlining configuration the request asked for.
    pub mode: InlineMode,
    /// Emitted-source size (non-comment lines, the paper's metric).
    pub loc: usize,
    /// Gate 1: optimized output ≡ original output.
    pub matches_original: bool,
    /// Gate 2: chunked run ≡ sequential run.
    pub parallel_consistent: bool,
    /// Advisory cross-iteration race count.
    pub races: usize,
    /// Total interpreter ops of the sequential verification run.
    pub total_ops: u64,
    /// Per-loop decisions for the original program's loops, in
    /// (unit, index) order (annotation-body loops excluded — they do not
    /// exist in the emitted program).
    pub loops: Vec<LoopSummary>,
    /// Loops judged parallel (count of `loops` with `parallel`).
    pub loops_parallel: usize,
    /// Cost-model scores on [`DriverOptions::machines`] (the paper's
    /// two hosts, [`crate::tournament::default_machines`], when empty): tuned speedup per machine in
    /// micro-units.
    /// Derived from the verification run's event trace — deterministic,
    /// so cache-safe and comparison-safe like every other field.
    pub speedups: Vec<MachineScore>,
    /// 128-bit FNV-1a content address of the emitted source
    /// ([`crate::driver::source_key`]).
    pub source_key: u128,
}

impl RequestReport {
    /// Both correctness gates green.
    pub fn verified(&self) -> bool {
        self.matches_original && self.parallel_consistent
    }
}

impl ToJson for LoopSummary {
    fn write_json(&self, out: &mut String) {
        json_object!(out, {
            "unit": self.unit, "idx": self.idx, "parallel": self.parallel,
            "blockers": self.blockers,
        });
    }
}

/// The `report` of an `ok` evaluate response.
impl ToJson for RequestReport {
    fn write_json(&self, out: &mut String) {
        json_object!(out, {
            "mode": self.mode.label(), "loc": self.loc, "verified": self.verified(),
            "matches_original": self.matches_original,
            "parallel_consistent": self.parallel_consistent, "races": self.races,
            "total_ops": self.total_ops, "loops_total": self.loops.len(),
            "loops_parallel": self.loops_parallel,
            "source_key": format!("{:032x}", self.source_key),
            "speedups": self.speedups, "loops": self.loops,
        });
    }
}

/// Evaluate one service request: parse both texts, compile under `mode`,
/// run the baseline and the verification with the driver's budgets.
///
/// Reuses from [`DriverOptions`]: `verify_max_ops` (per-run op budget,
/// expiry → [`FailCause::Timeout`]), `wall_budget_ms` (per-request
/// wall-clock deadline via [`WallDeadline`], checked at every stage
/// boundary), `engine`, `effective_verify_threads`, `machines` (the
/// paper's two hosts when empty), and the
/// `inject_panic` chaos seam (a request whose `name` is listed panics
/// deliberately, exercising the isolation boundary under live traffic).
///
/// Never panics: the interpreter runs inside the driver's cell evaluator
/// are guarded (a panic there is [`FailCause::Panic`], as in the batch
/// driver), compilation goes through the pipeline's per-stage wrappers,
/// and the whole request through one more `catch_unwind`, so a hostile
/// request degrades to an `Err` and the calling worker lives on.
pub fn evaluate_request(
    name: &str,
    source: &str,
    annotations: &str,
    mode: InlineMode,
    opts: &DriverOptions,
) -> Result<RequestReport, PipelineError> {
    evaluate_request_metered(name, source, annotations, mode, opts).0
}

/// [`evaluate_request`], also reporting the VM execution counters of the
/// verification runs this request actually paid for (zeros when the
/// request failed before verification, or under the tree-walker). The
/// counters ride outside the report so [`RequestReport`] stays a pure,
/// cache-safe function of the request content — a cache-serving caller
/// absorbs them on misses only, the same "zeros when cache-served"
/// discipline as [`crate::phase::CellMetrics`].
pub fn evaluate_request_metered(
    name: &str,
    source: &str,
    annotations: &str,
    mode: InlineMode,
    opts: &DriverOptions,
) -> (Result<RequestReport, PipelineError>, fruntime::VmCounters) {
    let mut vm = fruntime::VmCounters::default();
    let out = catch_unwind(AssertUnwindSafe(|| {
        evaluate_request_inner(name, source, annotations, mode, opts, &mut vm)
    }));
    let report = out.unwrap_or_else(|payload| {
        Err(PipelineError::in_cell(
            name,
            mode,
            FailStage::Driver,
            FailCause::Panic(panic_message(&*payload)),
        ))
    });
    (report, vm)
}

/// Parse the request's two texts. Mode-independent, so a tournament
/// parses once and shares the result across every arm.
fn parse_request(
    name: &str,
    source: &str,
    annotations: &str,
) -> Result<(fir::ast::Program, finline::annot::AnnotRegistry), PipelineError> {
    let program = fir::parse(source)
        .map_err(|d| PipelineError::pre_pipeline(name, FailStage::Parse, FailCause::Diag(d)))?;
    let registry = finline::annot::AnnotRegistry::parse(annotations).map_err(|d| {
        PipelineError::pre_pipeline(name, FailStage::Annotations, FailCause::Diag(d))
    })?;
    Ok((program, registry))
}

/// Build the deterministic report from a completed cell, its speedups
/// read from the scores its memo kept.
fn report_from(mode: InlineMode, done: &CellDone) -> RequestReport {
    let CellDone {
        emitted: result,
        verify,
        ..
    } = done;
    let (verify, speedups) = (&verify.result, MachineScore::all(&verify.scores));
    // Per-loop verdicts: aggregate the planner's decisions per distinct
    // original loop (annotation-body copies excluded), blockers deduped
    // into sorted stable keys — a deterministic, wire-friendly shape.
    let parallel_ids = result.parallel_loops();
    let mut by_loop: BTreeMap<&fir::ast::LoopId, std::collections::BTreeSet<&'static str>> =
        BTreeMap::new();
    for d in &result.par_report.decisions {
        if d.id.is_annotation() {
            continue;
        }
        let entry = by_loop.entry(&d.id).or_default();
        for b in &d.blockers {
            entry.insert(blocker_key(b));
        }
    }
    let loops: Vec<LoopSummary> = by_loop
        .into_iter()
        .map(|(id, blockers)| LoopSummary {
            parallel: parallel_ids.contains(id),
            unit: id.unit.to_string(),
            idx: id.idx,
            blockers: blockers.into_iter().collect(),
        })
        .collect();
    let loops_parallel = loops.iter().filter(|l| l.parallel).count();

    RequestReport {
        mode,
        loc: result.loc,
        matches_original: verify.matches_original,
        parallel_consistent: verify.parallel_consistent,
        races: verify.races,
        total_ops: verify.total_ops,
        loops,
        loops_parallel,
        speedups,
        source_key: source_key(&result.source),
    }
}

fn evaluate_request_inner(
    name: &str,
    source: &str,
    annotations: &str,
    mode: InlineMode,
    opts: &DriverOptions,
    vm: &mut fruntime::VmCounters,
) -> Result<RequestReport, PipelineError> {
    let deadline = WallDeadline::start(opts.wall_budget_ms);
    opts.inject_fault(name);

    let (program, registry) = parse_request(name, source, annotations)?;
    deadline.check(name, mode, FailStage::Parse, opts.verify_max_ops)?;

    let cfg = CellConfig::for_mode(mode);
    let memo = ProgramMemo::new(1, &opts.effective_machines(), false);
    let done = evaluate_cell(name, &program, &registry, &cfg, opts, &memo, &deadline)?;
    vm.absorb(&done.metrics.vm);
    Ok(report_from(mode, &done))
}

/// Content address for a request: 128-bit FNV-1a over the mode label,
/// source, annotations, and op budget, each part followed by a `0xFF`
/// fence. The hash runs over a length-free concatenation, and no UTF-8
/// text holds a `0xFF` byte (a NUL it may hold), so the fence keeps
/// `("ab","c")` and `("a","bc")` distinct.
pub fn request_key(mode: InlineMode, source: &str, annotations: &str, max_ops: u64) -> u128 {
    arm_key(mode.label(), source, annotations, max_ops)
}

/// [`request_key`] generalized to tournament arms: keyed by the arm
/// *label*, which for the four default arms equals the mode label — so a
/// tournament's default arms share [`RequestCache`] entries with plain
/// evaluate requests for the same source, and vice versa. Knob-variant
/// arms (`conventional-tight`, ...) have their own labels and therefore
/// their own entries.
pub fn arm_key(label: &str, source: &str, annotations: &str, max_ops: u64) -> u128 {
    let mut h = Fnv128::new();
    for part in [
        label.as_bytes(),
        source.as_bytes(),
        annotations.as_bytes(),
        &max_ops.to_le_bytes(),
    ] {
        h.eat(part);
        h.eat(&[0xFF]);
    }
    h.0
}

/// One arm's row in a service tournament response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmSummary {
    /// Arm label ([`crate::driver::CellConfig::label`]).
    pub arm: String,
    /// Inlining mode underlying the arm.
    pub mode: InlineMode,
    /// Cost-model score (geomean micro-units); `None` when the arm
    /// failed or a verification gate was red.
    pub score_micros: Option<u64>,
    /// Both verification gates green.
    pub verified: bool,
    /// Loops judged parallel.
    pub loops_parallel: usize,
    /// Emitted code size.
    pub loc: usize,
    /// Stable failure code when the arm did not score
    /// ([`crate::error::FailCause::code`], or `"gate"` for a red gate).
    pub error: Option<String>,
}

/// A tournament response: every arm scored, the winner named, and the
/// winner's parallel-loop delta against the no-inline arm. Pure function
/// of the request content, like [`RequestReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TournamentReport {
    /// Winning arm label; `None` when no arm scored.
    pub winner: Option<String>,
    /// The winner's mode.
    pub winner_mode: Option<InlineMode>,
    /// The winner's score (0 when no winner).
    pub winner_score_micros: u64,
    /// Loops parallel under the winner but not under no-inline
    /// (`UNIT#idx`, in loop order: unit, then numeric index).
    pub gained: Vec<String>,
    /// Loops parallel under no-inline but not under the winner.
    pub lost: Vec<String>,
    /// One row per arm, portfolio order.
    pub arms: Vec<ArmSummary>,
}

impl ToJson for ArmSummary {
    fn write_json(&self, out: &mut String) {
        json_object!(out, {
            "arm": self.arm, "mode": self.mode.label(), "verified": self.verified,
            "score_micros": self.score_micros, "loops_parallel": self.loops_parallel,
            "loc": self.loc, "error": self.error,
        });
    }
}

/// The `tournament` of an `ok` tournament response.
impl ToJson for TournamentReport {
    fn write_json(&self, out: &mut String) {
        json_object!(out, {
            "winner": self.winner, "winner_mode": self.winner_mode.map(InlineMode::label),
            "winner_score_micros": self.winner_score_micros, "gained": self.gained,
            "lost": self.lost, "arms": self.arms,
        });
    }
}

/// Evaluate a portfolio tournament for one request: every arm of the
/// fixed [`portfolio`] compiled and verified against a *shared* parse
/// and one per-request memo — one lazy baseline run, and one
/// verification per distinct emitted source, failures included — with
/// per-arm [`RequestCache`] sharing via [`arm_key`]: the service
/// counterpart of [`crate::tournament::run_tournament`]'s cache
/// discipline.
///
/// Budgets: one [`WallDeadline`] spans the whole tournament; each
/// interpreter run keeps the usual per-run op budget. Returns `Err` only
/// when *every* arm failed (the first arm's error, in portfolio order);
/// a red verification gate on some arms still yields a report with those
/// arms marked unscored.
pub fn evaluate_tournament(
    name: &str,
    source: &str,
    annotations: &str,
    opts: &DriverOptions,
    cache: Option<&RequestCache>,
) -> Result<TournamentReport, PipelineError> {
    evaluate_tournament_metered(name, source, annotations, opts, cache).0
}

/// [`evaluate_tournament`], also reporting the VM execution counters of
/// the verification runs the tournament actually paid for — arms served
/// from the [`RequestCache`] or the intra-request verify-dedup memo
/// contribute zeros, mirroring [`evaluate_request_metered`].
pub fn evaluate_tournament_metered(
    name: &str,
    source: &str,
    annotations: &str,
    opts: &DriverOptions,
    cache: Option<&RequestCache>,
) -> (
    Result<TournamentReport, PipelineError>,
    fruntime::VmCounters,
) {
    let mut vm = fruntime::VmCounters::default();
    let out = catch_unwind(AssertUnwindSafe(|| {
        evaluate_tournament_inner(name, source, annotations, opts, cache, &mut vm)
    }));
    let report = out.unwrap_or_else(|payload| {
        Err(PipelineError::pre_pipeline(
            name,
            FailStage::Driver,
            FailCause::Panic(panic_message(&*payload)),
        ))
    });
    (report, vm)
}

fn evaluate_tournament_inner(
    name: &str,
    source: &str,
    annotations: &str,
    opts: &DriverOptions,
    cache: Option<&RequestCache>,
    vm: &mut fruntime::VmCounters,
) -> Result<TournamentReport, PipelineError> {
    let arms = portfolio();
    let machines = opts.effective_machines();
    let deadline = WallDeadline::start(opts.wall_budget_ms);
    let max_ops = opts.verify_max_ops;
    opts.inject_fault(name);

    let (program, registry) = parse_request(name, source, annotations)?;

    // Shared across arms: the lazy baseline (an all-cache-hit tournament
    // pays zero runs) and the verify dedup, failures included.
    let memo = ProgramMemo::new(arms.len(), &machines, false);

    let mut outcomes: Vec<CachedOutcome> = Vec::with_capacity(arms.len());
    for cfg in &arms {
        let mode = cfg.mode();
        if let Err(e) = deadline.check(name, mode, FailStage::Driver, max_ops) {
            outcomes.push(Err(e));
            continue;
        }
        let key = arm_key(&cfg.label, source, annotations, max_ops);
        if let Some(hit) = cache.and_then(|c| c.lookup(key)) {
            outcomes.push(hit);
            continue;
        }
        let computed: CachedOutcome =
            evaluate_cell(name, &program, &registry, cfg, opts, &memo, &deadline).map(|done| {
                vm.absorb(&done.metrics.vm);
                Arc::new(report_from(mode, &done))
            });
        if let Some(c) = cache {
            c.insert(key, computed.clone());
        }
        outcomes.push(computed);
    }

    if outcomes.iter().all(Result::is_err) {
        // Every arm failed: surface the first structured error rather
        // than an empty report (portfolio order, so the diagnostic is
        // stable).
        return Err(outcomes
            .into_iter()
            .find_map(Result::err)
            .expect("an arm ran"));
    }

    let runs: Vec<Result<ArmRun, &'static str>> = outcomes
        .iter()
        .map(|outcome| match outcome {
            Ok(r) => Ok(ArmRun {
                verified: r.verified(),
                machines: r.speedups.clone(),
                parallel: r
                    .loops
                    .iter()
                    .filter(|l| l.parallel)
                    .map(|l| fir::ast::LoopId::new(l.unit.as_str(), l.idx))
                    .collect(),
            }),
            Err(e) => Err(e.code()),
        })
        .collect();
    let ranking = rank(&arms, &runs);
    let summaries: Vec<ArmSummary> = arms
        .iter()
        .zip(&outcomes)
        .zip(ranking.scores)
        .map(|((cfg, outcome), score)| {
            let report = outcome.as_ref().ok();
            ArmSummary {
                arm: cfg.label.clone(),
                mode: cfg.mode(),
                score_micros: score.as_ref().ok().copied(),
                verified: score.is_ok(),
                loops_parallel: report.map_or(0, |r| r.loops_parallel),
                loc: report.map_or(0, |r| r.loc),
                error: score.err().map(str::to_string),
            }
        })
        .collect();
    let winner = ranking.winner;
    Ok(TournamentReport {
        winner: winner.map(|w| summaries[w].arm.clone()),
        winner_mode: winner.map(|w| summaries[w].mode),
        winner_score_micros: winner.and_then(|w| summaries[w].score_micros).unwrap_or(0),
        gained: ranking.gained,
        lost: ranking.lost,
        arms: summaries,
    })
}

/// What the cache stores per key: the deterministic report, or the
/// structured error the same request will deterministically hit again.
pub type CachedOutcome = Result<Arc<RequestReport>, PipelineError>;

/// Cache statistics snapshot (monotonic counters + current size).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that missed (and paid for evaluation).
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

struct CacheInner {
    map: HashMap<u128, CachedOutcome>,
    /// Insertion order, oldest first — the eviction queue.
    order: VecDeque<u128>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Bounded content-addressed compile/verify cache shared across service
/// requests. FIFO eviction (deterministic, no clock dependence), full
/// hit/miss/eviction accounting, poison-recovering lock (a panicking
/// inserter cannot take the cache down with it — the map is a plain
/// value that is either intact or about to be overwritten).
///
/// Only *deterministic* outcomes belong here: successful reports and
/// content-determined failures (diagnostics, runtime rejections,
/// op-budget timeouts). Wall-clock timeouts and caught panics are
/// host-condition-dependent and must not be replayed to future identical
/// requests — [`RequestCache::cacheable`] encodes the policy.
pub struct RequestCache {
    cap: usize,
    inner: Mutex<CacheInner>,
}

impl RequestCache {
    /// Create a cache holding at most `cap` entries (`0` disables
    /// caching entirely: every lookup misses, inserts are dropped).
    pub fn new(cap: usize) -> RequestCache {
        RequestCache {
            cap,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a request key, counting the hit or miss.
    pub fn lookup(&self, key: u128) -> Option<CachedOutcome> {
        let mut inner = self.lock();
        match inner.map.get(&key).cloned() {
            Some(v) => {
                inner.hits += 1;
                Some(v)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Look up a request key without counting a hit or a miss: for a
    /// caller that re-checks a request whose one counted
    /// [`lookup`](RequestCache::lookup) already missed.
    pub fn peek(&self, key: u128) -> Option<CachedOutcome> {
        self.lock().map.get(&key).cloned()
    }

    /// True when `outcome` is a pure function of the request content and
    /// may be replayed to future identical requests.
    pub fn cacheable(outcome: &CachedOutcome) -> bool {
        match outcome {
            Ok(_) => true,
            Err(e) => match &e.cause {
                FailCause::Diag(_) | FailCause::Runtime(_) => true,
                // Op-budget expiry is deterministic; wall-clock expiry is
                // a host condition.
                FailCause::Timeout { wall_ms, .. } => *wall_ms == 0,
                FailCause::Panic(_) => false,
            },
        }
    }

    /// Insert an outcome, evicting the oldest entry when at capacity.
    /// Non-[`cacheable`](RequestCache::cacheable) outcomes are dropped.
    pub fn insert(&self, key: u128, outcome: CachedOutcome) {
        if self.cap == 0 || !Self::cacheable(&outcome) {
            return;
        }
        let mut inner = self.lock();
        if inner.map.insert(key, outcome).is_some() {
            // Two concurrent identical requests both computed; the value
            // is identical by determinism — keep the existing queue slot.
            return;
        }
        inner.order.push_back(key);
        while inner.map.len() > self.cap {
            if let Some(old) = inner.order.pop_front() {
                inner.map.remove(&old);
                inner.evictions += 1;
            } else {
                break;
            }
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len() as u64,
        }
    }
}

/// Daemon-wide metrics — the service counterpart of
/// [`crate::phase::SuiteMetrics`]. Flushed as a final snapshot on
/// graceful drain and queryable over the wire (`op: "metrics"`). All
/// counters are totals since the daemon started.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerMetrics {
    /// Daemon uptime at snapshot, nanoseconds.
    pub wall_nanos: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused at the concurrency cap.
    pub connections_rejected: u64,
    /// Frames that failed protocol decoding (bad header, oversized or
    /// truncated frame, invalid JSON, missing fields) — each answered
    /// with a structured protocol error where the transport allowed it.
    pub protocol_errors: u64,
    /// Well-formed evaluate and tournament requests received.
    pub requests: u64,
    /// The subset of `requests` that were portfolio tournaments (each a
    /// single admission charge covering every arm).
    pub tournament_requests: u64,
    /// Requests rejected by admission control (queue full).
    pub shed: u64,
    /// Requests rejected by the per-client op-budget token bucket.
    pub throttled: u64,
    /// Requests rejected because the daemon was draining.
    pub rejected_draining: u64,
    /// Requests that completed with a verified report.
    pub completed_ok: u64,
    /// Requests that completed with a structured per-request error.
    pub failed: u64,
    /// The subset of `failed` that hit a deadline (op or wall budget).
    pub timed_out: u64,
    /// The subset of `failed` whose cause was a caught panic — the
    /// daemon survived every one of these.
    pub panicked: u64,
    /// Request-cache hits.
    pub cache_hits: u64,
    /// Request-cache misses.
    pub cache_misses: u64,
    /// Request-cache evictions.
    pub cache_evictions: u64,
    /// Request-cache resident entries at snapshot.
    pub cache_entries: u64,
    /// Admission-queue depth high-water mark.
    pub queue_peak: u64,
    /// Requests still in flight when drain began (all finished before
    /// the final snapshot was flushed).
    pub in_flight_at_drain: u64,
    /// Failure cause code → count ([`FailCause::code`] keys).
    pub failure_codes: BTreeMap<String, u64>,
    /// Aggregate VM execution counters across the verification work this
    /// daemon actually ran (cache-served requests contribute zeros, like
    /// [`crate::phase::CellMetrics`]; zeros under the tree-walker).
    pub vm: fruntime::VmCounters,
}

impl ServerMetrics {
    /// True when no request's failure was a caught panic and the daemon
    /// never produced an unstructured failure — the soak gate.
    pub fn panic_free(&self) -> bool {
        self.panicked == 0
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl ToJson for ServerMetrics {
    fn write_json(&self, out: &mut String) {
        json_object!(out, {
            "wall_ns": self.wall_nanos, "connections": self.connections,
            "connections_rejected": self.connections_rejected,
            "protocol_errors": self.protocol_errors, "requests": self.requests,
            "tournament_requests": self.tournament_requests, "shed": self.shed,
            "throttled": self.throttled, "rejected_draining": self.rejected_draining,
            "completed_ok": self.completed_ok, "failed": self.failed,
            "timed_out": self.timed_out, "panicked": self.panicked,
            "cache_hits": self.cache_hits, "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions, "cache_entries": self.cache_entries,
            "queue_peak": self.queue_peak, "in_flight_at_drain": self.in_flight_at_drain,
            "failure_codes": self.failure_codes, "vm": self.vm,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "      PROGRAM MAIN
      COMMON /OUT/ A(64), TOT
      DO I = 1, 64
        A(I) = I*0.5
      ENDDO
      DO I = 2, 64
        A(I) = A(I-1) + 1.0
      ENDDO
      TOT = A(64)
      WRITE(6,*) TOT
      END
";

    #[test]
    fn evaluate_request_reports_loops_and_verifies() {
        let opts = DriverOptions::default();
        let r = evaluate_request("T", SRC, "", InlineMode::None, &opts).unwrap();
        assert!(r.verified());
        assert_eq!(r.loops.len(), 2);
        assert!(r.loops[0].parallel, "{:?}", r.loops);
        // The recurrence loop carries a flow dependence on A.
        assert!(!r.loops[1].parallel, "{:?}", r.loops);
        assert!(r.loops[1].blockers.contains(&"array-dep"), "{:?}", r.loops);
        assert_eq!(r.loops_parallel, 1);
        assert!(r.total_ops > 0);
        assert_ne!(r.source_key, 0);
    }

    #[test]
    fn evaluate_request_is_deterministic() {
        let opts = DriverOptions::default();
        let a = evaluate_request("T", SRC, "", InlineMode::Annotation, &opts).unwrap();
        let b = evaluate_request("T", SRC, "", InlineMode::Annotation, &opts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_inputs_degrade_structurally() {
        let opts = DriverOptions::default();
        let bad_src = evaluate_request("T", "PROGRAM(", "", InlineMode::None, &opts);
        assert!(
            matches!(&bad_src, Err(e) if e.stage == FailStage::Parse),
            "{bad_src:?}"
        );
        let bad_annot = evaluate_request("T", SRC, "subroutine {{{", InlineMode::None, &opts);
        assert!(
            matches!(&bad_annot, Err(e) if e.stage == FailStage::Annotations),
            "{bad_annot:?}"
        );
        // The chaos seam panics; the entry point catches and classifies.
        let seamed = DriverOptions {
            inject_panic: vec!["T".into()],
            ..Default::default()
        };
        let p = evaluate_request("T", SRC, "", InlineMode::None, &seamed);
        assert!(
            matches!(&p, Err(e) if e.code() == "panic" && e.stage == FailStage::Driver),
            "{p:?}"
        );
    }

    #[test]
    fn a_duplicate_unit_name_fails_at_parse() {
        let src = "      PROGRAM P\n      CALL S(Y)\n      WRITE(6,*) Y\n      END\n\
                   \x20     SUBROUTINE S(X)\n      REAL X, T\n      T = 1.5\n      X = T\n      END\n\
                   \x20     SUBROUTINE S(X)\n      INTEGER T\n      END\n";
        let opts = DriverOptions::default();
        let e = evaluate_request("T", src, "", InlineMode::None, &opts).unwrap_err();
        assert_eq!(e.stage, FailStage::Parse, "{e}");
        let FailCause::Diag(d) = &e.cause else {
            panic!("not a diagnostic: {e}");
        };
        assert!(d.message.contains("duplicate unit name S"), "{e}");
        assert_eq!(d.span.line, 10, "{e}");
    }

    #[test]
    fn expression_nesting_limit_holds_on_a_worker_stack() {
        use fir::parser::MAX_DEPTH;
        // `X = 1.0+(1.0+(...))`, nested `levels` deep.
        let src = |levels: usize| {
            format!(
                "      PROGRAM P\n      X = {}1.0{}\n      WRITE(6,*) X\n      END\n",
                "1.0+(".repeat(levels - 1),
                ")".repeat(levels - 1)
            )
        };
        // A daemon worker runs requests on a default 2 MiB thread stack.
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        let run = move || {
            let opts = DriverOptions::default();
            for mode in InlineMode::all() {
                let r = evaluate_request("T", &src(MAX_DEPTH), "", mode, &opts);
                assert!(r.as_ref().is_ok_and(|r| r.verified()), "{mode:?}: {r:?}");
                let e = evaluate_request("T", &src(MAX_DEPTH + 1), "", mode, &opts).unwrap_err();
                assert_eq!(e.stage, FailStage::Parse, "{mode:?}: {e}");
                let FailCause::Diag(d) = &e.cause else {
                    panic!("{mode:?}: not a diagnostic: {e}");
                };
                assert!(d.message.contains("nested deeper"), "{mode:?}: {e}");
                assert_eq!(d.span.line, 2, "{mode:?}: {e}");
            }
        };
        worker.spawn(run).unwrap().join().unwrap();
    }

    #[test]
    fn request_key_separates_parts_and_budgets() {
        let k = |m, s, a, b| request_key(m, s, a, b);
        assert_ne!(
            k(InlineMode::None, "ab", "c", 1),
            k(InlineMode::None, "a", "bc", 1)
        );
        assert_ne!(
            k(InlineMode::None, SRC, "", 1),
            k(InlineMode::Annotation, SRC, "", 1)
        );
        assert_ne!(
            k(InlineMode::None, SRC, "", 1),
            k(InlineMode::None, SRC, "", 2)
        );
        assert_eq!(
            k(InlineMode::AutoAnnot, SRC, "x", 9),
            k(InlineMode::AutoAnnot, SRC, "x", 9)
        );
    }

    #[test]
    fn cache_bounds_capacity_and_accounts_evictions() {
        let cache = RequestCache::new(2);
        let report = Arc::new(RequestReport {
            mode: InlineMode::None,
            loc: 1,
            matches_original: true,
            parallel_consistent: true,
            races: 0,
            total_ops: 1,
            loops: Vec::new(),
            loops_parallel: 0,
            speedups: Vec::new(),
            source_key: 1,
        });
        assert!(cache.lookup(1).is_none());
        cache.insert(1, Ok(report.clone()));
        cache.insert(2, Ok(report.clone()));
        cache.insert(3, Ok(report.clone()));
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        // Key 1 was the FIFO victim; 2 and 3 are resident.
        assert!(cache.lookup(1).is_none());
        assert!(cache.lookup(2).is_some());
        assert!(cache.lookup(3).is_some());
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        // A peek sees the same entries and counts nothing.
        assert!(cache.peek(1).is_none());
        assert!(cache.peek(2).is_some());
        assert_eq!(cache.stats(), s);
        // Duplicate insert neither grows the queue nor evicts.
        cache.insert(2, Ok(report));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn cache_policy_rejects_nondeterministic_outcomes() {
        let wall = PipelineError::in_cell(
            "A",
            InlineMode::None,
            FailStage::Verify,
            FailCause::Timeout {
                max_ops: 5,
                wall_ms: 100,
            },
        );
        let op = PipelineError::in_cell(
            "A",
            InlineMode::None,
            FailStage::Verify,
            FailCause::Timeout {
                max_ops: 5,
                wall_ms: 0,
            },
        );
        let panic = PipelineError::in_cell(
            "A",
            InlineMode::None,
            FailStage::Driver,
            FailCause::Panic("x".into()),
        );
        assert!(!RequestCache::cacheable(&Err(wall.clone())));
        assert!(RequestCache::cacheable(&Err(op)));
        assert!(!RequestCache::cacheable(&Err(panic.clone())));
        let cache = RequestCache::new(4);
        cache.insert(1, Err(wall));
        cache.insert(2, Err(panic));
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = RequestCache::new(0);
        cache.insert(
            1,
            Err(PipelineError::pre_pipeline(
                "A",
                FailStage::Parse,
                FailCause::Diag(fir::diag::Error::transform("x")),
            )),
        );
        assert!(cache.lookup(1).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn tournament_request_scores_arms_and_shares_the_cache() {
        let opts = DriverOptions::default();
        let cache = RequestCache::new(64);
        let t = evaluate_tournament("T", SRC, "", &opts, Some(&cache)).unwrap();
        assert_eq!(t.arms.len(), crate::tournament::portfolio().len());
        assert!(t.winner.is_some(), "{t:?}");
        for arm in &t.arms {
            if let Some(s) = arm.score_micros {
                assert!(t.winner_score_micros >= s, "{t:?}");
            }
        }
        // The default arms wrote entries a plain evaluate request reuses.
        let before = cache.stats();
        let plain = evaluate_request("T", SRC, "", InlineMode::Conventional, &opts).unwrap();
        let key = request_key(InlineMode::Conventional, SRC, "", opts.verify_max_ops);
        let hit = cache.lookup(key).expect("tournament populated this key");
        assert_eq!(*hit.unwrap(), plain);
        assert!(cache.stats().hits > before.hits);
        // A second tournament is answered fully from the cache.
        let t2 = evaluate_tournament("T", SRC, "", &opts, Some(&cache)).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn tournament_without_cache_is_deterministic() {
        let opts = DriverOptions::default();
        let a = evaluate_tournament("T", SRC, "", &opts, None).unwrap();
        let b = evaluate_tournament("T", SRC, "", &opts, None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tournament_on_malformed_source_fails_structurally() {
        let opts = DriverOptions::default();
        let r = evaluate_tournament("T", "PROGRAM(", "", &opts, None);
        assert!(matches!(&r, Err(e) if e.stage == FailStage::Parse), "{r:?}");
        // The chaos seam panics; the entry point catches and classifies.
        let seamed = DriverOptions {
            inject_panic: vec!["T".into()],
            ..Default::default()
        };
        let p = evaluate_tournament("T", SRC, "", &seamed, None);
        assert!(matches!(&p, Err(e) if e.code() == "panic"), "{p:?}");
    }

    #[test]
    fn server_metrics_json_is_well_formed() {
        let mut m = ServerMetrics {
            wall_nanos: 5,
            requests: 10,
            completed_ok: 7,
            failed: 3,
            panicked: 1,
            ..Default::default()
        };
        m.failure_codes.insert("panic".into(), 1);
        m.failure_codes.insert("diag".into(), 2);
        let j = m.to_json();
        assert!(j.contains("\"requests\":10"));
        assert!(j.contains("\"failure_codes\":{\"diag\":2,\"panic\":1}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!m.panic_free());
    }
}
