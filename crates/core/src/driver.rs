//! Concurrent, cached, fault-isolated evaluation driver.
//!
//! The paper's evaluation (Table II, Figure 20) is a matrix of
//! applications × inlining configurations — the paper's three, plus the
//! derived-annotation mode [`InlineMode::AutoAnnot`] — each cell verified
//! by the §III-D runtime testers. Run naively that costs three interpreter
//! runs per cell, a third of which re-execute the *unchanged original
//! program*. This driver makes the matrix a first-class workload:
//!
//! * **fan-out, row by row** — a worker pool ([`DriverOptions::workers`]
//!   wide, std scoped threads) evaluates the matrix one row — one
//!   program's cells — per worker: a worker opens the next program,
//!   creates its memo then, and claims the row's cells in portfolio
//!   order; once every program is open, idle workers help the open rows
//!   with their remaining cells. When a row's last cell is stored, its
//!   worker frees the memo and reduces the row at once (a tournament
//!   ranks it, a suite assembles its report), so at most one row per
//!   worker is ever alive with its payloads;
//! * **baseline memo** — the original program is interpreted once per
//!   application and shared across all of its configurations, cutting
//!   verification runs per app from 12 to 9;
//! * **verify dedup** — configurations that emit byte-identical optimized
//!   source (conventional inlining that found nothing to inline, an empty
//!   annotation registry) share one verification, saving two more runs;
//! * **compile memo** — each program is normalized once, and every
//!   configuration whose inlining left it unchanged shares one no-inline
//!   compile instead of running its own parallelize, reverse-inline and
//!   print. Memo, dedup and compile memo live in one per-program
//!   `ProgramMemo`, always on; the cell evaluator over it
//!   (`evaluate_cell`) also serves the daemon's requests
//!   ([`crate::service`]);
//! * **observability** — per-phase wall-clock, per-loop blocker counts,
//!   and cache statistics are aggregated into a [`SuiteMetrics`] report;
//! * **fault isolation** — a cell that fails (malformed input, a runtime
//!   tester rejection, an op-budget deadline, even a residual panic) is
//!   recorded as a [`PipelineError`] and the suite keeps going; every
//!   shared lock recovers from poisoning, so one bad cell can never take
//!   down its neighbours. See DESIGN.md's "Failure model".
//!
//! Concurrency never changes results: every cell is a pure function of its
//! (program, registry, mode) inputs, the chunked verification run merges
//! write logs in iteration order, and assembly is by suite order — so the
//! driver's output is byte-identical across worker counts (asserted by the
//! `driver_determinism` integration tests).

use crate::error::{panic_message, FailCause, FailStage, PipelineError};
use crate::phase::{blocker_counts, CellMetrics, FailureRecord, Phase, PhaseTimings, SuiteMetrics};
use crate::pipeline::{
    self, Compiled, Emitted, InlineMode, PipelineOptions, PipelineResult, StageReports,
};
use crate::report::{rows_from, Fig20Point, Table2Row};
use crate::tournament::{default_machines, tuned_speedup, TunedScore};
use crate::verify::{baseline_run_with, guarded, Verification, VerifyResult};
use finline::annot::AnnotRegistry;
use fir::ast::Program;
use fruntime::{ExecOptions, Machine, RunResult};
use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One application to evaluate: parsed program + annotation registry.
#[derive(Debug, Clone)]
pub struct SuiteJob {
    /// Application name (Table II row label).
    pub name: String,
    /// Parsed original program.
    pub program: Program,
    /// Annotation registry for annotation mode.
    pub registry: AnnotRegistry,
}

/// One matrix column: a labelled pipeline configuration. The classic
/// suite runs the four [`InlineMode`]s with default knobs; a tournament
/// ([`crate::tournament`]) widens the column set with ablation-knob
/// variants (peeling off, different inlining budgets) under distinct
/// labels. The label is the stable identity used in [`CellMetrics`],
/// Figure 20 points, and tournament reports; for the default columns it
/// equals [`InlineMode::label`].
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Stable configuration label (arm id).
    pub label: String,
    /// Full pipeline configuration for this column.
    pub opts: PipelineOptions,
}

impl CellConfig {
    /// The default column for a mode: default heuristics and
    /// parallelizer knobs, labelled with the mode's display label.
    pub fn for_mode(mode: InlineMode) -> CellConfig {
        CellConfig {
            label: mode.label().to_string(),
            opts: PipelineOptions::for_mode(mode),
        }
    }

    /// The inlining mode this column runs under.
    pub fn mode(&self) -> InlineMode {
        self.opts.mode
    }
}

/// The classic 4-column matrix ([`InlineMode::all`] with default knobs).
pub fn default_configs() -> Vec<CellConfig> {
    InlineMode::all()
        .iter()
        .map(|m| CellConfig::for_mode(*m))
        .collect()
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverOptions {
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Chunk count of the correctness-checking chunked runs
    /// ([`ExecOptions::threads`]; 0 is clamped to 1 — see
    /// [`DriverOptions::effective_verify_threads`]).
    pub verify_threads: usize,
    /// Machines simulated for Figure 20.
    pub machines: Vec<Machine>,
    /// Per-interpreter-run op budget: the cell's deadline. A verification
    /// that burns through this much work is degraded to a reported
    /// [`FailCause::Timeout`] instead of running away with a worker.
    pub verify_max_ops: u64,
    /// Per-cell wall-clock budget in milliseconds (0 = unlimited). The op
    /// budget bounds interpreter work but not time spent in the compile
    /// and lowering stages; this deadline is layered on top, checked at
    /// every stage boundary of a cell's evaluation. Expiry is classified
    /// as the existing [`FailCause::Timeout`] cause (with `wall_ms` set)
    /// and counted in `timed_out_cells`, exactly like an op-budget
    /// expiry. Granularity is the stage: a stage already running is
    /// finished (or stopped by its own op budget) before the check fires.
    pub wall_budget_ms: u64,
    /// Execution engine for every interpreter run the driver pays for
    /// (baseline and verification). Defaults to the bytecode VM; the
    /// tree-walker stays available as the differential reference.
    pub engine: fruntime::Engine,
    /// In-flight bound for [`crate::stream::run_stream`] (0 = auto: a few
    /// jobs per worker). Bounds streaming memory: the stream runs at most
    /// this many workers, each holding one program at a time, so never
    /// more than a window of jobs and reports is alive at once.
    pub stream_window: usize,
    /// Chaos seam: cells of applications named here panic deliberately at
    /// the start of evaluation, to exercise the driver's `catch_unwind`
    /// isolation boundary (used by the fault-isolation tests and the
    /// chaos harness; empty in production).
    #[doc(hidden)]
    pub inject_panic: Vec<String>,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            workers: 0,
            verify_threads: 4,
            machines: Vec::new(),
            verify_max_ops: ExecOptions::default().max_ops,
            wall_budget_ms: 0,
            engine: fruntime::Engine::default(),
            stream_window: 0,
            inject_panic: Vec::new(),
        }
    }
}

impl DriverOptions {
    /// Resolved worker count, clamped to the host's available
    /// parallelism. The cell fan-out is the only place the driver runs
    /// work in parallel (each cell's chunked verification gate runs on
    /// its worker's thread), and a CPU-bound worker per core already
    /// saturates the host: more workers than cores only add scheduler
    /// churn, so a larger request is capped, and `workers = 0` asks for
    /// one per available core.
    pub fn effective_workers(&self) -> usize {
        let avail = host_cpus();
        if self.workers > 0 {
            self.workers.min(avail).max(1)
        } else {
            avail
        }
    }

    /// Resolved verification chunk count: `verify_threads = 0` is a
    /// configuration mistake, not a request for zero-chunk execution —
    /// clamp it to 1 rather than handing the executor an empty partition.
    pub fn effective_verify_threads(&self) -> usize {
        self.verify_threads.max(1)
    }

    /// Resolved streaming window: `stream_window = 0` asks for an
    /// automatic size of four jobs per worker, which never caps the
    /// stream's pool. A smaller configured window caps the stream's
    /// workers, so peak memory stays small and stream-length-independent.
    /// The result is always ≥ 1 by construction (a configured value is
    /// used as-is, auto derives from the ≥ 1 worker count), and
    /// [`crate::stream::run_stream`] records the value that applied in
    /// [`crate::stream::StreamSummary::window`] instead of clamping
    /// silently.
    pub fn effective_stream_window(&self) -> usize {
        if self.stream_window > 0 {
            self.stream_window
        } else {
            self.effective_workers() * 4
        }
    }

    /// Resolved tournament and daemon machines: [`DriverOptions::machines`], or the
    /// paper's two hosts ([`default_machines`]) when that is empty. The
    /// classic matrix reads the field itself: no machines, no Figure 20.
    pub(crate) fn effective_machines(&self) -> Vec<Machine> {
        if self.machines.is_empty() {
            default_machines()
        } else {
            self.machines.clone()
        }
    }

    /// Executor options for one of a cell's interpreter runs: the op
    /// budget as deadline, the engine, and `threads` chunks per directive
    /// loop (1 for the baseline, [`DriverOptions::effective_verify_threads`]
    /// for verification).
    pub(crate) fn exec(&self, threads: usize) -> ExecOptions {
        ExecOptions {
            threads,
            max_ops: self.verify_max_ops,
            engine: self.engine,
            ..Default::default()
        }
    }

    /// The chaos seam: panic deliberately when `name` is listed in
    /// [`DriverOptions::inject_panic`].
    pub(crate) fn inject_fault(&self, name: &str) {
        if self.inject_panic.iter().any(|n| n == name) {
            panic!("injected fault for {name}");
        }
    }
}

/// The host's available parallelism, resolved once per process: the
/// query reads the CPU affinity mask and cgroup quota on every call, and
/// the stream asks once per program.
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Everything the driver produced for one application.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// Application name.
    pub name: String,
    /// The three Table II rows (no-inline / conventional / annotation).
    /// Empty when any of those three *classic* configurations failed —
    /// the rows compare them against each other, so a missing cell makes
    /// the whole comparison meaningless. The auto-annot cell does not
    /// gate them: it is reported through `results` and the autogen
    /// coverage counters instead.
    pub rows: Vec<Table2Row>,
    /// Figure 20 points (successful configurations × machines).
    pub fig20: Vec<Fig20Point>,
    /// Verification results, whole event traces included, for the
    /// configurations that completed.
    pub verify: Vec<(InlineMode, VerifyResult)>,
    /// Pipeline results for the configurations that completed.
    pub results: Vec<(InlineMode, PipelineResult)>,
    /// Structured failures for the configurations that did not.
    pub failures: Vec<PipelineError>,
}

impl AppReport {
    /// True when every configuration completed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// True when every configuration completed and every verification
    /// passed both runtime-tester gates.
    pub fn all_verified(&self) -> bool {
        self.ok() && self.verify.iter().all(|(_, v)| v.ok())
    }
}

/// Driver output: per-app reports in suite order, plus suite metrics.
#[derive(Debug, Clone)]
pub struct SuiteOutcome {
    /// One report per job, in input order.
    pub apps: Vec<AppReport>,
    /// Aggregated observability report.
    pub metrics: SuiteMetrics,
}

/// A completed cell's payloads, handed to the cell's caller ([`run_suite`],
/// [`crate::tournament::run_tournament`] or the daemon's
/// [`crate::service`] requests). The compile may be shared with other
/// cells of the same program; only a memo that retains results keeps the
/// program, for [`run_suite`] to copy out into a [`PipelineResult`].
pub(crate) struct CellDone {
    pub(crate) emitted: Arc<Emitted>,
    /// The whole compile, held only when the cell's memo retains results.
    pub(crate) retained: Option<Arc<Compiled>>,
    pub(crate) reports: StageReports,
    pub(crate) verify: Arc<Verified>,
    pub(crate) metrics: CellMetrics,
}

/// A verification as a [`ProgramMemo`] keeps it: the verdict, and the
/// cost model's score on each of the memo's machines, computed once when
/// the verify slot is filled. Figure 20 points, tournament
/// [`MachineScore`](crate::tournament::MachineScore)s and daemon reports
/// read the scores; the event trace they came from stays in `result`
/// only when the memo retains results ([`run_suite`] and [`run_app`]), so
/// a tournament, daemon or stream cell costs O(machines) rather than
/// O(dynamic loop executions).
#[derive(Clone)]
pub(crate) struct Verified {
    pub(crate) result: VerifyResult,
    /// [`tuned_speedup`] on each of the memo's machines, in order.
    pub(crate) scores: Vec<TunedScore>,
}

/// A shared verification outcome. Failed verifications are shared
/// exactly like successful ones: byte-identical source fails identically.
type VerifySlot = OnceLock<Result<Arc<Verified>, FailCause>>;

/// The normalized program, or the normalize stage's diagnostic.
type NormalizedSlot = OnceLock<Result<Program, fir::diag::Error>>;

/// The no-inline compile of a program's normalized form under one
/// [`fpar::ParOptions`], or the diagnostic of the stage that failed.
type CompileSlot = OnceLock<Result<Arc<Compiled>, fir::diag::Error>>;

/// What every cell of one program shares: the normalized program, the
/// no-inline compile of it per distinct [`fpar::ParOptions`], the guarded
/// baseline run of the original program, the verify-dedup slots keyed by
/// the emitted source's [`source_key`] (each scored on the memo's
/// machines), and the run accounting. Whether cells keep their payloads
/// is the memo's too: the entry point that builds it decides.
///
/// A cell whose inline stage left the normalized program unchanged takes
/// the shared compile instead of re-running parallelize, reverse-inline
/// and print: the back end is a pure function of the program and the
/// parallelizer options. Failures are memoized like successes: a program
/// that cannot be normalized, or a baseline that cannot run, fails every
/// cell of the program with the same diagnostic for the price of one try.
/// The 128-bit verify key replaces retained whole-source strings; at that
/// width accidental collision over a suite corpus is not a practical
/// concern.
pub(crate) struct ProgramMemo {
    /// The normalized program, taken by the program's last compile.
    normalized: Mutex<Option<Arc<NormalizedSlot>>>,
    /// Cells that will compile the program.
    cells: usize,
    /// Compiles still to come; counted down under the `normalized` lock.
    pending: AtomicUsize,
    /// One slot per distinct parallelizer configuration (a short list:
    /// the portfolio has two).
    shared: Mutex<Vec<(fpar::ParOptions, Arc<CompileSlot>)>>,
    baseline: OnceLock<Result<RunResult, FailCause>>,
    verifies: Mutex<HashMap<u128, Arc<VerifySlot>>>,
    /// The machines every verification is scored on (none for a plain
    /// suite without Figure 20).
    machines: Vec<Machine>,
    /// Cells keep their whole compile and verifications keep their event
    /// traces ([`run_suite`]); otherwise only emitted output and scores.
    retain: bool,
    /// Interpreter runs paid for (1 per baseline, 2 per verification).
    interp_runs: AtomicU64,
    /// Cells served the memoized baseline.
    memo_hits: AtomicU64,
    /// Cells served a shared verification.
    cache_hits: AtomicU64,
    /// Cells served a shared compile that another cell built.
    compile_hits: AtomicU64,
}

/// One cell's compile: the back end's output (perhaps shared), the
/// cell's own reports, and whether a shared compile built by another
/// cell served it.
struct CellCompile {
    compiled: Arc<Compiled>,
    reports: StageReports,
    memo_hit: bool,
}

impl ProgramMemo {
    /// A memo for a program that `cells` cells will compile, whose
    /// verifications are scored on `machines`, and whose cells keep their
    /// payloads when `retain` is set. The last of the cells takes the
    /// normalized program instead of copying it, and a one-cell memo runs
    /// the plain pipeline on it; compiles beyond `cells` are still
    /// correct, only they copy.
    pub(crate) fn new(cells: usize, machines: &[Machine], retain: bool) -> ProgramMemo {
        ProgramMemo {
            normalized: Mutex::new(None),
            cells,
            pending: AtomicUsize::new(cells),
            shared: Mutex::new(Vec::new()),
            baseline: OnceLock::new(),
            verifies: Mutex::new(HashMap::new()),
            machines: machines.to_vec(),
            retain,
            interp_runs: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            compile_hits: AtomicU64::new(0),
        }
    }

    /// Compile `program` under `opts` through the memo: the stages of
    /// [`compile_timed`], with the normalize stage run once per program
    /// and one back end shared by every mode whose inlining left the
    /// normalized program unchanged.
    fn compile(
        &self,
        program: &Program,
        registry: &AnnotRegistry,
        opts: &PipelineOptions,
        timings: &mut PhaseTimings,
    ) -> Result<CellCompile, fir::diag::Error> {
        let slot = {
            let mut held = lock_clean(&self.normalized);
            let slot = held.get_or_insert_with(Default::default).clone();
            let last = self
                .pending
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                == Ok(1);
            if last {
                *held = None;
            }
            slot
        };
        slot.get_or_init(|| pipeline::normalize(program, timings));
        let borrowed;
        let normalized: Cow<'_, Program> = match Arc::try_unwrap(slot) {
            // No other cell holds the slot: this is the last compile.
            Ok(owned) => Cow::Owned(owned.into_inner().expect("normalized above")?),
            Err(shared) => {
                borrowed = shared;
                let normalized = borrowed.get().expect("normalized above");
                Cow::Borrowed(normalized.as_ref().map_err(Clone::clone)?)
            }
        };
        let normalized = match normalized {
            // A one-cell memo (a daemon evaluate request) shares nothing:
            // the plain pipeline inlines its owned program in place.
            Cow::Owned(p) if self.cells == 1 => {
                let (compiled, reports) = pipeline::compile_normalized(p, registry, opts, timings)?;
                return Ok(CellCompile {
                    compiled: Arc::new(compiled),
                    reports,
                    memo_hit: false,
                });
            }
            normalized => normalized,
        };
        let (inlined, mut reports) =
            pipeline::inline(Cow::Borrowed(&*normalized), registry, opts, timings)?;
        let reverse_with = reports.reverse_registry(opts.mode, registry);
        // A borrowed result is the normalized program itself, uncopied.
        let unchanged = match &inlined {
            Cow::Borrowed(_) => true,
            Cow::Owned(p) => *p == *normalized,
        };
        // Without a tagged region reverse-inlining finds nothing to undo.
        if unchanged && (reverse_with.is_none() || !has_tagged_region(&normalized)) {
            reports.reverse_report = reverse_with.map(|_| Default::default());
            let (compiled, built) = self.shared(normalized, &opts.par, timings)?;
            if !built {
                self.compile_hits.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(CellCompile {
                compiled,
                reports,
                memo_hit: !built,
            });
        }
        let p = match inlined {
            Cow::Owned(p) => {
                // An owned normalized program is spent: free it before
                // the back end runs.
                drop(normalized);
                p
            }
            Cow::Borrowed(_) => normalized.into_owned(),
        };
        let (compiled, reverse_report) = pipeline::back_end(p, reverse_with, &opts.par, timings)?;
        reports.reverse_report = reverse_report;
        Ok(CellCompile {
            compiled: Arc::new(compiled),
            reports,
            memo_hit: false,
        })
    }

    /// Verify `optimized` against `base` and score it: gate 1's
    /// sequential run, the cost model's score of its trace on every
    /// machine of the memo, then gate 2's chunked run on the same lowered
    /// program. Unless the memo retains results the trace is freed before
    /// the chunked run starts: the scores are all that Figure 20,
    /// tournaments and the daemon read of it. Scoring sits between the two
    /// guarded runs, so a failure of either keeps its stage and cause.
    fn verify(
        &self,
        base: &RunResult,
        optimized: &Program,
        par_opts: &ExecOptions,
    ) -> Result<Verified, FailCause> {
        let max_ops = par_opts.max_ops;
        let mut run = guarded(max_ops, || {
            Verification::sequential(base, optimized, par_opts)
        })?;
        let seq = &run.seq;
        let scores = self
            .machines
            .iter()
            .map(|m| tuned_speedup(seq.total_ops, &seq.par_events, m))
            .collect();
        if !self.retain {
            run.seq.par_events = Vec::new();
        }
        let result = guarded(max_ops, || run.chunked(par_opts))?;
        Ok(Verified { result, scores })
    }

    /// The no-inline compile of `normalized` under `par`, built on first
    /// use (from `normalized` itself when it is owned), and whether this
    /// call built it.
    fn shared(
        &self,
        normalized: Cow<'_, Program>,
        par: &fpar::ParOptions,
        timings: &mut PhaseTimings,
    ) -> Result<(Arc<Compiled>, bool), fir::diag::Error> {
        let slot = {
            let mut slots = lock_clean(&self.shared);
            match slots.iter().find(|(p, _)| p == par) {
                Some((_, slot)) => slot.clone(),
                None => {
                    let slot = Arc::<CompileSlot>::default();
                    slots.push((par.clone(), slot.clone()));
                    slot
                }
            }
        };
        let mut built = false;
        let compiled = slot
            .get_or_init(|| {
                built = true;
                let (compiled, _) =
                    pipeline::back_end(normalized.into_owned(), None, par, timings)?;
                Ok(Arc::new(compiled))
            })
            .as_ref()
            .map_err(Clone::clone)?;
        Ok((compiled.clone(), built))
    }
}

/// True when some unit of `p` holds a reverse-inlining tag region.
fn has_tagged_region(p: &Program) -> bool {
    let mut tagged = false;
    for u in &p.units {
        fir::visit::walk_stmts(&u.body, &mut |s| {
            tagged |= matches!(s.kind, fir::ast::StmtKind::Tagged { .. });
        });
    }
    tagged
}

/// 128-bit FNV-1a, the one content hash under [`source_key`] and
/// [`crate::service::arm_key`].
pub(crate) struct Fnv128(pub(crate) u128);

impl Fnv128 {
    pub(crate) fn new() -> Fnv128 {
        Fnv128(0x6C62272E07BB014262B821756295C58D)
    }

    pub(crate) fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u128;
            self.0 = self.0.wrapping_mul(0x0000000001000000000000000000013B);
        }
    }
}

/// 128-bit FNV-1a over the emitted source, the verify-dedup cache key.
pub fn source_key(source: &str) -> u128 {
    let mut h = Fnv128::new();
    h.eat(source.as_bytes());
    h.0
}

/// Wall-clock deadline for one cell or one service request, layered on
/// the op-budget deadline. The op budget bounds interpreter fuel; this
/// bounds everything else (compile, lowering, queueing inside a cell) at
/// stage-boundary granularity. Started when evaluation begins, checked
/// between stages; expiry maps to [`FailCause::Timeout`] with `wall_ms`
/// carrying the budget that ran out.
#[derive(Debug, Clone, Copy)]
pub struct WallDeadline {
    started: std::time::Instant,
    budget_ms: u64,
}

impl WallDeadline {
    /// Start the clock. `budget_ms = 0` means unlimited (never expires).
    pub fn start(budget_ms: u64) -> Self {
        WallDeadline {
            started: std::time::Instant::now(),
            budget_ms,
        }
    }

    /// True once the budget has elapsed.
    pub fn expired(&self) -> bool {
        self.budget_ms > 0 && self.started.elapsed().as_millis() as u64 >= self.budget_ms
    }

    /// The stage-boundary check: once the budget has elapsed, the
    /// `stage` of `app`'s `mode` cell fails with [`FailCause::Timeout`]
    /// carrying the op budget and the wall budget that ran out.
    pub fn check(
        &self,
        app: &str,
        mode: InlineMode,
        stage: FailStage,
        max_ops: u64,
    ) -> Result<(), PipelineError> {
        if !self.expired() {
            return Ok(());
        }
        let cause = FailCause::Timeout {
            max_ops,
            wall_ms: self.budget_ms,
        };
        Err(PipelineError::in_cell(app, mode, stage, cause))
    }
}

/// Lock acquisition that survives poisoning. A worker that panicked while
/// holding one of the driver's locks already had its cell degraded by the
/// `catch_unwind` boundary; the data under the lock is a plain value
/// (queue entry / finished cell / cache slot) that is either intact or
/// about to be overwritten, so recovery is safe — and losing the whole
/// suite to a poisoned mutex is exactly the failure mode this driver
/// exists to prevent.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One matrix cell's outcome.
pub(crate) type CellOutcome = Result<Box<CellDone>, PipelineError>;

/// Evaluate every job across every configuration column row by row
/// ([`Rows`]), sharing one [`ProgramMemo`] across *all* columns of an
/// app — this cache discipline is what keeps a widened tournament
/// portfolio near one pass — and keeping it only while the app's row
/// runs. Each distinct verification is scored on `machines`, and
/// completed cells keep their payloads when `retain` is set.
///
/// The worker that stores a row's last cell reduces the row at once:
/// `reduce` gets the job, the row's cells in portfolio order, and the
/// completed cells' [`CellMetrics`] in the same order, moved out of the
/// cells. The cells' payloads go with the call, so a finished row holds
/// only its `T` and its metrics. Returns one `T` per job in input order,
/// and the [`SuiteMetrics`] with every row's accounting, cell metrics and
/// failures folded in input order, whatever order the rows finished in.
/// A row lost to a dead worker reduces from its [`lost`] cells.
pub(crate) fn run_matrix<T: Send>(
    jobs: &[SuiteJob],
    configs: &[CellConfig],
    machines: &[Machine],
    retain: bool,
    opts: &DriverOptions,
    reduce: impl Fn(&SuiteJob, Vec<CellOutcome>, &[CellMetrics]) -> T + Sync,
) -> (Vec<T>, SuiteMetrics) {
    let t0 = std::time::Instant::now();
    let n_cells = jobs.len() * configs.len();
    let workers = opts.effective_workers().max(1).min(n_cells.max(1));
    let next = AtomicUsize::new(0);
    let settle = |i: usize, mut row: RowDone| {
        let mut tally = SuiteMetrics::default();
        row.fold_into(&mut tally);
        (reduce(&jobs[i], row.cells, &tally.cells), tally)
    };
    let rows: Vec<Mutex<Option<(T, SuiteMetrics)>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let peak_rows = Rows::new(configs, machines, retain, opts).run(
        workers,
        || {
            let i = next.fetch_add(1, Ordering::Relaxed);
            jobs.get(i).map(|job| (i, Cow::Borrowed(job)))
        },
        |i, row| *lock_clean(&rows[i]) = Some(settle(i, row)),
    );

    let mut metrics = SuiteMetrics {
        workers,
        peak_rows,
        configs: configs.len() as u64,
        wall_nanos: t0.elapsed().as_nanos() as u64,
        ..Default::default()
    };
    let values = rows
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let (value, tally) = slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| {
                    let cells = configs.iter().map(|cfg| lost(&jobs[i].name, cfg));
                    let row = RowDone {
                        cells: cells.collect(),
                        ..RowDone::default()
                    };
                    settle(i, row)
                });
            metrics.absorb(tally);
            value
        })
        .collect();
    (values, metrics)
}

/// A missing or never-written cell (a worker died outside the isolation
/// boundary) degrades to a recorded failure — it must not compound into a
/// second panic at assembly.
fn lost(app: &str, cfg: &CellConfig) -> CellOutcome {
    Err(PipelineError::in_cell(
        app,
        cfg.mode(),
        FailStage::Driver,
        FailCause::Panic("worker died before completing this cell".into()),
    ))
}

/// The row scheduler behind [`run_matrix`] and
/// [`crate::stream::run_stream`]. A row is one program's cells, one per
/// configuration column. A worker opens the next program, creating its
/// [`ProgramMemo`] at that moment, and claims that row's cells in
/// portfolio order; once no program is left to open, an idle worker helps
/// the oldest open row with its next unclaimed cell, which covers the
/// tail and runs with fewer programs than workers. The worker that stores
/// a row's last cell hands the finished row to the caller, and the memo
/// goes with the row: a row opens only when its worker's previous row is
/// finished, so at most one row per worker — and one memo — is ever in
/// flight.
pub(crate) struct Rows<'a> {
    configs: &'a [CellConfig],
    machines: &'a [Machine],
    retain: bool,
    opts: &'a DriverOptions,
    claims: Mutex<Claims<'a>>,
}

/// One program's row while it runs: the program, the memo its cells
/// share, and the cells stored so far.
struct Row<'a> {
    /// Input position of the program.
    index: usize,
    job: Cow<'a, SuiteJob>,
    memo: ProgramMemo,
    /// Stored cells, portfolio order.
    cells: Vec<Mutex<Option<CellOutcome>>>,
    /// Cells not stored yet.
    unfinished: AtomicUsize,
}

/// What is left to claim, under one lock.
#[derive(Default)]
struct Claims<'a> {
    /// Open rows with unclaimed cells, oldest first, each with its next
    /// unclaimed column.
    open: Vec<(Arc<Row<'a>>, usize)>,
    /// Every program has been opened.
    drained: bool,
    /// Rows opened and not finished, and their high-water mark.
    in_flight: usize,
    peak: usize,
}

impl<'a> Claims<'a> {
    /// Claim the next cell of `open[i]`, closing the entry when that was
    /// the row's last unclaimed cell.
    fn take(&mut self, i: usize, n: usize) -> (Arc<Row<'a>>, usize) {
        let (row, next) = &mut self.open[i];
        let cell = *next;
        *next += 1;
        let row = if *next == n {
            self.open.remove(i).0
        } else {
            row.clone()
        };
        (row, cell)
    }
}

/// A finished row: its cells in portfolio order and its memo's run
/// accounting, read when the last cell was stored.
#[derive(Default)]
pub(crate) struct RowDone {
    pub(crate) cells: Vec<CellOutcome>,
    interp_runs: u64,
    memo_hits: u64,
    cache_hits: u64,
    compile_hits: u64,
}

impl RowDone {
    /// Fold the row's run accounting and its cells' metrics into
    /// `metrics`: each completed cell's [`CellMetrics`] moves into
    /// `metrics.cells`, each failure into `metrics.failures`, in
    /// portfolio order.
    pub(crate) fn fold_into(&mut self, metrics: &mut SuiteMetrics) {
        metrics.interp_runs += self.interp_runs;
        metrics.baseline_memo_hits += self.memo_hits;
        metrics.verify_cache_hits += self.cache_hits;
        metrics.compile_memo_hits += self.compile_hits;
        for outcome in &mut self.cells {
            match outcome {
                Ok(done) => {
                    metrics.phases.merge(&done.metrics.phases);
                    metrics.vm.absorb(&done.metrics.vm);
                    metrics.cells.push(std::mem::take(&mut done.metrics));
                    if done.verify.result.ok() {
                        metrics.verified_ok += 1;
                    }
                }
                Err(e) => {
                    metrics.failed_cells += 1;
                    if e.is_timeout() {
                        metrics.timed_out_cells += 1;
                    }
                    if matches!(e.cause, FailCause::Panic(_)) {
                        metrics.panicked_cells += 1;
                    }
                    metrics.failures.push(FailureRecord::from_error(e));
                }
            }
        }
    }
}

impl<'a> Rows<'a> {
    /// A scheduler for rows of `configs` (at least one), each memo scoring
    /// on `machines` and keeping payloads when `retain` is set.
    pub(crate) fn new(
        configs: &'a [CellConfig],
        machines: &'a [Machine],
        retain: bool,
        opts: &'a DriverOptions,
    ) -> Rows<'a> {
        assert!(!configs.is_empty(), "a row needs at least one column");
        Rows {
            configs,
            machines,
            retain,
            opts,
            claims: Mutex::default(),
        }
    }

    /// Evaluate every program `pull` yields (with its input position) on
    /// `workers` workers, handing each finished row to `done`; returns
    /// the high-water mark of rows in flight. One worker runs on the
    /// calling thread. A panic out of `pull` propagates once every other
    /// worker has finished what it holds.
    pub(crate) fn run<P, D>(&self, workers: usize, pull: P, done: D) -> usize
    where
        P: Fn() -> Option<(usize, Cow<'a, SuiteJob>)> + Sync,
        D: Fn(usize, RowDone) + Sync,
    {
        let work = || {
            let mut own = None;
            while let Some((row, cell)) = self.claim(&mut own, &pull) {
                let outcome = self.evaluate(&row, cell);
                *lock_clean(&row.cells[cell]) = Some(outcome);
                // Release publishes this cell's relaxed memo-counter
                // updates; the last decrement's Acquire sees every cell's
                // before `finish` reads the counters.
                if row.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
                    lock_clean(&self.claims).in_flight -= 1;
                    let index = row.index;
                    done(index, self.finish(row));
                }
            }
        };
        if workers <= 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                for h in handles {
                    if let Err(payload) = h.join() {
                        resume_unwind(payload);
                    }
                }
            });
        }
        lock_clean(&self.claims).peak
    }

    /// The next cell for a worker whose row is `own`: its own row's next
    /// cell, else the first cell of a newly opened row, else — once every
    /// program is open — the next cell of the oldest open row.
    fn claim<P>(&self, own: &mut Option<usize>, pull: &P) -> Option<(Arc<Row<'a>>, usize)>
    where
        P: Fn() -> Option<(usize, Cow<'a, SuiteJob>)>,
    {
        let n = self.configs.len();
        let mut claims = lock_clean(&self.claims);
        let mine = claims.open.iter().position(|(r, _)| Some(r.index) == *own);
        if let Some(i) = mine {
            return Some(claims.take(i, n));
        }
        if !claims.drained {
            // Outside the lock: a stream's pull may generate and parse.
            drop(claims);
            let pulled = pull();
            claims = lock_clean(&self.claims);
            match pulled {
                Some((index, job)) => {
                    *own = Some(index);
                    claims.in_flight += 1;
                    claims.peak = claims.peak.max(claims.in_flight);
                    let row = Row {
                        index,
                        job,
                        memo: ProgramMemo::new(n, self.machines, self.retain),
                        cells: (0..n).map(|_| Mutex::new(None)).collect(),
                        unfinished: AtomicUsize::new(n),
                    };
                    claims.open.push((Arc::new(row), 0));
                    let last = claims.open.len() - 1;
                    return Some(claims.take(last, n));
                }
                None => claims.drained = true,
            }
        }
        (!claims.open.is_empty()).then(|| claims.take(0, n))
    }

    /// Evaluate one cell of `row` inside the isolation boundary.
    fn evaluate(&self, row: &Row<'_>, cell: usize) -> CellOutcome {
        let (job, cfg, opts) = (&*row.job, &self.configs[cell], self.opts);
        // Last-resort isolation boundary: `evaluate_cell` is panic-free
        // for every fault we know how to classify; anything that still
        // unwinds costs this one cell, not the worker or the suite.
        catch_unwind(AssertUnwindSafe(|| {
            let deadline = WallDeadline::start(opts.wall_budget_ms);
            opts.inject_fault(&job.name);
            evaluate_cell(
                &job.name,
                &job.program,
                &job.registry,
                cfg,
                opts,
                &row.memo,
                &deadline,
            )
        }))
        .unwrap_or_else(|payload| {
            Err(PipelineError::in_cell(
                job.name.clone(),
                cfg.mode(),
                FailStage::Driver,
                FailCause::Panic(panic_message(&*payload)),
            ))
        })
    }

    /// Take the cells and the run accounting out of a row whose last cell
    /// was just stored. The memo is freed with the row, here or by the
    /// worker that still holds it for the cell it just stored.
    fn finish(&self, row: Arc<Row<'_>>) -> RowDone {
        let cells = row.cells.iter().zip(self.configs);
        let memo = &row.memo;
        RowDone {
            cells: cells
                .map(|(slot, cfg)| {
                    lock_clean(slot)
                        .take()
                        .unwrap_or_else(|| lost(&row.job.name, cfg))
                })
                .collect(),
            interp_runs: memo.interp_runs.load(Ordering::Relaxed),
            memo_hits: memo.memo_hits.load(Ordering::Relaxed),
            cache_hits: memo.cache_hits.load(Ordering::Relaxed),
            compile_hits: memo.compile_hits.load(Ordering::Relaxed),
        }
    }
}

/// Evaluate every job across all inlining configurations
/// ([`InlineMode::all`]), with Figure 20 on [`DriverOptions::machines`].
/// Every [`AppReport`] carries its completed cells' `results` and
/// `verify` payloads, whole event traces included; the bounded-memory
/// paths ([`crate::stream::run_stream`], tournaments, the daemon) keep
/// none.
pub fn run_suite(jobs: &[SuiteJob], opts: &DriverOptions) -> SuiteOutcome {
    let configs = default_configs();
    let (apps, metrics) = run_matrix(jobs, &configs, &opts.machines, true, opts, |job, row, _| {
        app_report(job, &configs, row)
    });
    SuiteOutcome { apps, metrics }
}

/// Evaluate a single application (a one-job [`run_suite`]), payloads
/// included.
pub fn run_app(job: &SuiteJob, opts: &DriverOptions) -> (AppReport, SuiteMetrics) {
    let mut out = run_suite(std::slice::from_ref(job), opts);
    let report = out.apps.pop().unwrap_or_else(|| {
        // Structurally unreachable (every job's row reduces to a report),
        // but a missing report must degrade like any other fault instead
        // of compounding into a second panic.
        AppReport {
            name: job.name.clone(),
            rows: Vec::new(),
            fig20: Vec::new(),
            verify: Vec::new(),
            results: Vec::new(),
            failures: vec![PipelineError::pre_pipeline(
                job.name.clone(),
                FailStage::Driver,
                FailCause::Panic("driver produced no report for the job".into()),
            )],
        }
    });
    (report, out.metrics)
}

/// Compile `program` under each of `configs` the way the driver's cells
/// do, through one per-program memo: one normalize, and one back end
/// shared by every configuration whose inlining changed nothing. Each
/// entry equals [`compile_timed`](crate::compile_timed) of its
/// configuration; a shared compile is copied into every result that
/// holds it.
pub fn compile_configs(
    program: &Program,
    registry: &AnnotRegistry,
    configs: &[CellConfig],
) -> Vec<Result<PipelineResult, fir::diag::Error>> {
    let memo = ProgramMemo::new(configs.len(), &[], true);
    let mut timings = PhaseTimings::default();
    configs
        .iter()
        .map(|cfg| {
            let cell = memo.compile(program, registry, &cfg.opts, &mut timings)?;
            let compiled = Arc::unwrap_or_clone(cell.compiled);
            Ok(PipelineResult::from_parts(compiled, cell.reports))
        })
        .collect()
}

/// The one cell evaluator, behind the batch matrix and the daemon alike:
/// compile `program` under `cfg`, run the baseline of the original (once
/// per `memo`), and verify and score the emitted program (once per
/// distinct emitted source in `memo`), checking `deadline` at every stage
/// boundary. Every interpreter run is guarded, so a fault comes back as a
/// structured [`PipelineError`] of the failing stage.
pub(crate) fn evaluate_cell(
    name: &str,
    program: &Program,
    registry: &AnnotRegistry,
    cfg: &CellConfig,
    opts: &DriverOptions,
    memo: &ProgramMemo,
    deadline: &WallDeadline,
) -> Result<Box<CellDone>, PipelineError> {
    let mode = cfg.mode();
    let max_ops = opts.verify_max_ops;
    let fail = |stage, cause| PipelineError::in_cell(name, mode, stage, cause);
    let mut timings = PhaseTimings::default();

    let CellCompile {
        compiled,
        reports,
        memo_hit,
    } = memo
        .compile(program, registry, &cfg.opts, &mut timings)
        .map_err(|d| fail(FailStage::Compile, FailCause::Diag(d)))?;
    deadline.check(name, mode, FailStage::Compile, max_ops)?;

    let mut cell_runs = 0u64;
    let mut verify_cached = false;
    let verify: Result<Arc<Verified>, PipelineError> = timings.time(Phase::Verify, || {
        // Gate 1 baseline: the original program's guarded run. An `Err`
        // or a panic is memoized as the program-wide baseline failure,
        // never a poisoned `OnceLock`.
        let base = memo.baseline.get_or_init(|| {
            cell_runs += 1;
            guarded(max_ops, || baseline_run_with(program, &opts.exec(1)))
        });
        // A hit is a baseline served, not paid: a cell that waited for
        // another cell's run counts too, so the count is
        // schedule-independent.
        if cell_runs == 0 {
            memo.memo_hits.fetch_add(1, Ordering::Relaxed);
        }
        let base = base
            .as_ref()
            .map_err(|cause| fail(FailStage::Baseline, cause.clone()))?;
        deadline.check(name, mode, FailStage::Baseline, max_ops)?;

        // Byte-identical emitted source ⇒ identical verification (the
        // baseline is fixed per program, the interpreter deterministic).
        let slot = lock_clean(&memo.verifies)
            .entry(source_key(&compiled.emitted.source))
            .or_default()
            .clone();
        let mut paid = false;
        let verified = slot.get_or_init(|| {
            paid = true;
            cell_runs += 2;
            let par_opts = opts.exec(opts.effective_verify_threads());
            memo.verify(base, &compiled.program, &par_opts)
                .map(Arc::new)
        });
        verify_cached = !paid;
        if verify_cached {
            memo.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        verified
            .clone()
            .map_err(|cause| fail(FailStage::Verify, cause))
    });
    memo.interp_runs.fetch_add(cell_runs, Ordering::Relaxed);
    let verify = verify?;
    // A cell that finished its work but blew the wall budget doing so is
    // still reported as a timeout — that is what a deadline means to a
    // caller holding a per-request budget (the computed result is
    // discarded with the error).
    deadline.check(name, mode, FailStage::Verify, max_ops)?;

    let metrics = CellMetrics {
        app: name.to_string(),
        config: cfg.label.clone(),
        blockers: blocker_counts(&compiled.emitted.par_report),
        loops_total: compiled.emitted.par_report.decisions.len(),
        loops_parallel: compiled.emitted.parallel_loops().len(),
        interp_runs: cell_runs,
        verify_cached,
        compile_memo_hits: memo_hit as u64,
        // Cache-served cells report zero counters so the suite aggregate
        // counts VM work actually executed, not work saved by dedup.
        vm: if verify_cached {
            fruntime::VmCounters::default()
        } else {
            verify.result.vm
        },
        autogen: reports
            .autogen
            .as_ref()
            .map(|r| crate::phase::AutogenCoverage {
                auto_sites: r.auto_sites() as u64,
                manual_sites: r.manual_sites() as u64,
                refused_sites: r.refused_sites() as u64,
                derived_subs: r.derived.len() as u64,
                chain_derived_subs: r.chain_derived.len() as u64,
                refused_subs: r.refusals.len() as u64,
            }),
        phases: timings,
    };

    Ok(Box::new(CellDone {
        emitted: compiled.emitted.clone(),
        retained: memo.retain.then_some(compiled),
        reports,
        verify,
        metrics,
    }))
}

/// The classic suite view of one finished row of a retaining
/// default-config matrix.
fn app_report(job: &SuiteJob, configs: &[CellConfig], row: Vec<CellOutcome>) -> AppReport {
    let mut done: Vec<(InlineMode, CellDone)> = Vec::with_capacity(configs.len());
    let mut fig20 = Vec::new();
    let mut failures = Vec::new();
    for (cfg, outcome) in configs.iter().zip(row) {
        match outcome {
            Ok(cell) => {
                // Figure 20: the verification's scores on
                // `opts.machines`, the machines `run_suite` gave the
                // matrix (no extra interpreter run).
                fig20.extend(cell.verify.scores.iter().map(|t| Fig20Point {
                    app: job.name.clone(),
                    config: cfg.label.clone(),
                    machine: t.machine.to_string(),
                    speedup: t.speedup,
                    tuned_off: t.tuned_off,
                }));
                done.push((cfg.mode(), *cell));
            }
            Err(e) => failures.push(e),
        }
    }
    // Table II rows compare the paper's three configurations; they
    // only exist when all three classic cells completed (the derived
    // auto-annot cell reports coverage, not a Table II column).
    let classic: Vec<&Emitted> = InlineMode::classic()
        .iter()
        .filter_map(|m| done.iter().find(|(dm, _)| dm == m))
        .map(|(_, cell)| &*cell.emitted)
        .collect();
    let rows = if let [none, conv, annot] = classic[..] {
        rows_from(
            &job.name,
            [none, conv, annot].map(|c| (c.parallel_loops(), c.loc)),
        )
    } else {
        Vec::new()
    };
    let (results, verify) = done
        .into_iter()
        .map(|(mode, cell)| {
            let CellDone {
                emitted,
                retained,
                reports,
                verify,
                ..
            } = cell;
            // The compile's own handle on `emitted` is the only one
            // left unless another cell shares it.
            drop(emitted);
            let compiled = retained.expect("a retaining run keeps every compile");
            let result = PipelineResult::from_parts(Arc::unwrap_or_clone(compiled), reports);
            ((mode, result), (mode, Arc::unwrap_or_clone(verify).result))
        })
        .unzip();
    AppReport {
        name: job.name.clone(),
        rows,
        fig20,
        verify,
        results,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::parser::parse;

    fn job(name: &str, src: &str, annot: &str) -> SuiteJob {
        SuiteJob {
            name: name.into(),
            program: parse(src).unwrap(),
            registry: AnnotRegistry::parse(annot).unwrap(),
        }
    }

    const SRC: &str = "      PROGRAM MAIN
      COMMON /OUT/ A(64), TOT
      DIMENSION B(64)
      DO I = 1, 64
        B(I) = I*0.5
      ENDDO
      DO I = 1, 64
        A(I) = B(I)*2.0 + 1.0
      ENDDO
      TOT = 0.0
      DO I = 1, 64
        TOT = TOT + A(I)
      ENDDO
      WRITE(6,*) TOT
      END
";

    #[test]
    fn memo_and_dedup_pay_three_runs_for_four_cells() {
        // All four modes of this program emit identical source: one
        // baseline and one shared verification serve the four cells.
        let j = job("T", SRC, "");
        let opts = DriverOptions {
            workers: 1,
            ..Default::default()
        };
        let (_, m) = run_app(&j, &opts);
        assert_eq!(m.interp_runs, 3, "{m:?}");
        assert_eq!(m.baseline_memo_hits, 3, "{m:?}");
        assert_eq!(m.verify_cache_hits, 3, "{m:?}");
    }

    #[test]
    fn failed_baseline_is_paid_once_across_the_portfolio() {
        // An op budget below the original program's cost: the baseline
        // fails, and that failure serves every arm of the one memo.
        let j = job("T", SRC, "");
        let opts = DriverOptions {
            verify_max_ops: 10,
            ..Default::default()
        };
        let arms = crate::tournament::portfolio();
        let memo = ProgramMemo::new(arms.len(), &[], false);
        let deadline = WallDeadline::start(0);
        for cfg in arms {
            let e = match evaluate_cell("T", &j.program, &j.registry, &cfg, &opts, &memo, &deadline)
            {
                Ok(_) => panic!("{}: completed under a 10-op budget", cfg.label),
                Err(e) => e,
            };
            assert_eq!(e.stage, FailStage::Baseline, "{}: {e}", cfg.label);
            assert!(
                matches!(e.cause, FailCause::Timeout { wall_ms: 0, .. }),
                "{}: {e:?}",
                cfg.label
            );
        }
        assert_eq!(memo.interp_runs.load(Ordering::Relaxed), 1);
        assert_eq!(memo.memo_hits.load(Ordering::Relaxed), 6);
    }

    /// MATMLT (paper Fig. 16): both conventional and annotation inlining
    /// rewrite the one call site.
    const MATMLT: &str = "      PROGRAM MAIN
      DIMENSION PP(8, 8, 15), PHIT(8, 8), TM1(8, 8)
      NDIM = 8
      DO KS = 1, 15
        CALL MATMLT(PP(1, 1, KS), PHIT(1, 1), TM1(1, 1), NDIM, NDIM, NDIM)
      ENDDO
      END
      SUBROUTINE MATMLT(M1, M2, M3, L, M, N)
      DIMENSION M1(L, M), M2(M, N), M3(L, N)
      DO JN = 1, N
        DO JM = 1, M
          M3(JM, JN) = M1(JM, JN) + M2(JM, JN)
        ENDDO
      ENDDO
      END
";

    const MATMLT_ANNOT: &str = "
subroutine MATMLT(M1, M2, M3, L, M, N) {
  dimension M1[L,M], M2[M,N], M3[L,N];
  do (JN = 1:N)
    do (JM = 1:M)
      M3[JM,JN] = M1[JM,JN] + M2[JM,JN];
}
";

    /// Compile `j` under each config through one memo.
    fn memo_compiles(j: &SuiteJob, configs: &[CellConfig]) -> (ProgramMemo, Vec<CellCompile>) {
        let memo = ProgramMemo::new(configs.len(), &[], false);
        let cells = configs
            .iter()
            .map(|cfg| {
                let mut timings = PhaseTimings::default();
                memo.compile(&j.program, &j.registry, &cfg.opts, &mut timings)
                    .unwrap_or_else(|e| panic!("{}: {e}", cfg.label))
            })
            .collect();
        (memo, cells)
    }

    #[test]
    fn unchanged_modes_share_one_compile() {
        // No call sites: no mode's inlining changes anything, so one
        // back end serves all four cells.
        let (memo, cells) = memo_compiles(&job("T", SRC, ""), &default_configs());
        assert!(cells
            .iter()
            .all(|c| Arc::ptr_eq(&c.compiled, &cells[0].compiled)));
        assert!(!cells[0].memo_hit);
        assert!(cells[1..].iter().all(|c| c.memo_hit));
        assert_eq!(memo.compile_hits.load(Ordering::Relaxed), 3);
        // The reverse stage's report is still there, empty.
        assert!(cells[2].reports.reverse_report.is_some());
        assert!(cells[1].reports.reverse_report.is_none());
    }

    #[test]
    fn a_mode_whose_inlining_changed_the_program_never_shares() {
        let j = job("M", MATMLT, MATMLT_ANNOT);
        let configs: Vec<CellConfig> = InlineMode::classic()
            .into_iter()
            .map(CellConfig::for_mode)
            .collect();
        let (memo, cells) = memo_compiles(&j, &configs);
        for (cfg, cell) in configs.iter().zip(&cells).skip(1) {
            assert!(!cell.memo_hit, "{}", cfg.label);
            assert!(
                !Arc::ptr_eq(&cell.compiled, &cells[0].compiled),
                "{} took the no-inline compile",
                cfg.label
            );
            let fresh = crate::compile(&j.program, &j.registry, &cfg.opts);
            assert_eq!(cell.compiled.emitted.source, fresh.source, "{}", cfg.label);
            assert_ne!(
                cell.compiled.emitted.source,
                cells[0].compiled.emitted.source
            );
        }
        assert_eq!(memo.compile_hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_tagged_input_runs_its_own_reverse_stage() {
        // The input already holds the MATMLT region that annotation
        // inlining makes: no call site is left to inline, but reverse
        // inlining restores the call, so the annotation cell must not
        // take the no-inline compile.
        let mut j = job("M", MATMLT, MATMLT_ANNOT);
        finline::annot_inline::apply(&mut j.program, &j.registry);
        let configs: Vec<CellConfig> = [InlineMode::None, InlineMode::Annotation]
            .into_iter()
            .map(CellConfig::for_mode)
            .collect();
        let (memo, cells) = memo_compiles(&j, &configs);
        let fresh = crate::compile(&j.program, &j.registry, &configs[1].opts);
        assert_eq!(cells[1].compiled.emitted.source, fresh.source);
        assert!(fresh.source.contains("CALL MATMLT"), "{}", fresh.source);
        assert!(!Arc::ptr_eq(&cells[1].compiled, &cells[0].compiled));
        assert_eq!(memo.compile_hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn annotation_no_peel_never_takes_the_default_compile() {
        // The loop needs last-iteration peeling: the default parallelizer
        // peels it, the no-peel ablation leaves it sequential. No mode's
        // inlining changes this call-free program.
        let src = "      PROGRAM P
      COMMON /WK/ WTDET
      DIMENSION A(100), B(100)
      DO I = 1, 100
        WTDET = A(I)
        B(I) = WTDET*2.0
      ENDDO
      WRITE(6,*) WTDET, B(7)
      END
";
        let j = job("P", src, "");
        let arms = crate::tournament::portfolio();
        let (memo, cells) = memo_compiles(&j, &arms);
        let none = &cells[0].compiled;
        for (cfg, cell) in arms.iter().zip(&cells) {
            let fresh = crate::compile(&j.program, &j.registry, &cfg.opts);
            assert_eq!(cell.compiled.emitted.source, fresh.source, "{}", cfg.label);
            let default_par = cfg.opts.par == fpar::ParOptions::default();
            assert_eq!(
                Arc::ptr_eq(&cell.compiled, none),
                default_par,
                "{} shared the wrong compile",
                cfg.label
            );
        }
        let no_peel = arms
            .iter()
            .position(|c| c.label == "annotation-no-peel")
            .unwrap();
        assert_ne!(cells[no_peel].compiled.emitted.source, none.emitted.source);
        // Five arms share the default compile; no-peel built its own.
        assert_eq!(memo.compile_hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn a_normalize_panic_fails_every_mode_alike() {
        // Normalizing has no known panic, so the test seam makes it
        // panic: the stage's diagnostic is memoized and serves every arm.
        let j = job("N", SRC, "");
        let arms = crate::tournament::portfolio();
        let memo = ProgramMemo::new(arms.len(), &[], false);
        let deadline = WallDeadline::start(0);
        let opts = DriverOptions::default();
        pipeline::NORMALIZE_PANICS.set(Some(0));
        let errors: Vec<PipelineError> = arms
            .iter()
            .map(|cfg| {
                match evaluate_cell("N", &j.program, &j.registry, cfg, &opts, &memo, &deadline) {
                    Ok(_) => panic!("{}: compiled a program whose normalize panics", cfg.label),
                    Err(e) => e,
                }
            })
            .collect();
        let panics = pipeline::NORMALIZE_PANICS.replace(None);
        assert_eq!(panics, Some(1), "normalize ran more than once");
        for e in &errors {
            assert_eq!(e.stage, FailStage::Compile, "{e}");
            assert!(matches!(e.cause, FailCause::Diag(_)), "{e:?}");
            assert_eq!(e.cause_message(), errors[0].cause_message());
        }
        assert!(
            errors[0]
                .cause_message()
                .contains("normalize stage panicked"),
            "{}",
            errors[0]
        );
        assert_eq!(memo.interp_runs.load(Ordering::Relaxed), 0);
    }

    /// A program the empirical tuner has work on: fifty instances of a
    /// four-iteration loop (a slowdown on both machines, tuned off) and
    /// one large loop that speeds up.
    const TUNED: &str = "      PROGRAM MAIN
      COMMON /OUT/ A(20000), B(4), TOT
      DO K = 1, 50
        DO I = 1, 4
          B(I) = B(I) + K
        ENDDO
      ENDDO
      DO I = 1, 20000
        A(I) = I*0.5 + 1.0
      ENDDO
      TOT = A(7) + B(2)
      WRITE(6,*) TOT
      END
";

    #[test]
    fn a_non_retaining_matrix_keeps_scores_not_traces() {
        let jobs = vec![job("T", SRC, ""), job("U", TUNED, "")];
        let machines = [Machine::intel8(), Machine::amd4()];
        let arms = crate::tournament::portfolio();
        let opts = DriverOptions {
            workers: 1,
            machines: machines.to_vec(),
            ..Default::default()
        };
        let run = |retain| -> Vec<Arc<Verified>> {
            let verifies = |_: &SuiteJob, row: Vec<CellOutcome>, _: &[CellMetrics]| {
                let done = row.into_iter().map(|c| c.unwrap_or_else(|e| panic!("{e}")));
                done.map(|d| d.verify).collect::<Vec<_>>()
            };
            let (rows, _) = run_matrix(&jobs, &arms, &machines, retain, &opts, verifies);
            rows.into_iter().flatten().collect()
        };
        let (kept, dropped) = (run(true), run(false));
        assert_eq!(kept.len(), jobs.len() * arms.len());
        for (k, d) in kept.iter().zip(&dropped) {
            assert!(d.result.par_events.is_empty(), "a cell kept its trace");
            assert!(!k.result.par_events.is_empty());
            assert_eq!(d.scores, k.scores);
            assert_eq!(d.result.total_ops, k.result.total_ops);
            // The stored scores are the cost model's on the whole trace.
            let fresh: Vec<TunedScore> = machines
                .iter()
                .map(|m| tuned_speedup(k.result.total_ops, &k.result.par_events, m))
                .collect();
            assert_eq!(k.scores, fresh);
        }
        let scores = kept.iter().flat_map(|k| &k.scores);
        assert!(scores.clone().any(|t| t.tuned_off > 0));
        assert!(scores.clone().any(|t| t.speedup > 1.0));
        // Figure 20 points are the cost model's on the whole traces that
        // run_suite hands out.
        for app in run_suite(&jobs, &opts).apps {
            assert_eq!(app.fig20.len(), 4 * machines.len());
            assert!(app.verify.iter().all(|(_, v)| !v.par_events.is_empty()));
            let fresh: Vec<f64> = app
                .verify
                .iter()
                .flat_map(|(_, v)| {
                    let score = |m| tuned_speedup(v.total_ops, &v.par_events, m).speedup;
                    machines.iter().map(score)
                })
                .collect();
            let points: Vec<f64> = app.fig20.iter().map(|p| p.speedup).collect();
            assert_eq!(points, fresh, "{}", app.name);
        }
        // Tournament machine scores, built without traces, read the same
        // stored scores.
        let tournament = crate::tournament::run_tournament(&jobs, &opts);
        let arm_scores = tournament.apps.iter().flat_map(|a| &a.arms);
        for (arm, k) in arm_scores.zip(&kept) {
            assert!(arm.ok, "{}", arm.arm);
            assert_eq!(
                arm.machines,
                crate::tournament::MachineScore::all(&k.scores),
                "{}",
                arm.arm
            );
        }
        // run_app still hands out the whole trace.
        let (report, _) = run_app(&jobs[1], &DriverOptions::default());
        for ((mode, r), (_, v)) in report.results.iter().zip(&report.verify) {
            let plain = crate::verify(&jobs[1].program, &r.program, 4).unwrap();
            assert_eq!(v.par_events, plain.par_events, "{mode:?}");
        }
    }

    /// A wrong directive whose chunked run outlasts its sequential run:
    /// every chunk of the `I` loop starts from N = 800, so the merge
    /// leaves N = 600 where the sequential run leaves 0, and the `J` loop
    /// runs 600 times instead of never.
    const LONGER_CHUNKED: &str = "      PROGRAM MAIN
      COMMON /B/ N, X
      X = 0.0
      DO K = 1, 200
        X = X + 0.5
      ENDDO
      N = 800
      DO I = 1, 8
        N = N - 100
      ENDDO
      DO J = 1, N
        X = X + 1.0
      ENDDO
      WRITE(6,*) X
      END
";

    #[test]
    fn budget_exhaustion_in_either_verification_run_keeps_its_stage_and_cause() {
        let j = job("L", LONGER_CHUNKED, "");
        let mut optimized = j.program.clone();
        fir::visit::walk_loops_mut(&mut optimized.units[0].body, &mut |d| {
            if d.var == "I" {
                d.directive = Some(Default::default());
            }
        });
        let opts = DriverOptions::default();
        let roomy = opts.exec(4);
        let base = baseline_run_with(&j.program, &roomy).unwrap();
        let seq_ops = Verification::sequential(&base, &optimized, &roomy)
            .unwrap()
            .seq
            .total_ops;
        let chunked_ops = fruntime::run(&optimized, &roomy).unwrap().total_ops;
        assert!(chunked_ops > seq_ops + 500, "{seq_ops} {chunked_ops}");
        // Half the sequential run's cost stops the sequential run; exactly
        // its cost lets it finish and stops the chunked run. Both report
        // the op-budget timeout, as one guarded run over both did.
        let fits = ExecOptions {
            max_ops: seq_ops,
            ..roomy.clone()
        };
        assert!(Verification::sequential(&base, &optimized, &fits).is_ok());
        for max_ops in [seq_ops / 2, seq_ops] {
            let memo = ProgramMemo::new(1, &[Machine::intel8()], false);
            let par_opts = ExecOptions {
                max_ops,
                ..roomy.clone()
            };
            match memo.verify(&base, &optimized, &par_opts) {
                Ok(_) => panic!("verified under a {max_ops}-op budget"),
                Err(cause) => assert_eq!(
                    cause,
                    FailCause::Timeout {
                        max_ops,
                        wall_ms: 0
                    }
                ),
            }
        }
        // Through the cell evaluator, a sequential run out of budget after
        // a baseline that fit fails the cell at the verify stage.
        let tight = DriverOptions {
            verify_max_ops: seq_ops / 2,
            ..Default::default()
        };
        let memo = ProgramMemo::new(1, &[Machine::intel8()], false);
        assert!(memo.baseline.set(Ok(base)).is_ok());
        let cfg = CellConfig::for_mode(InlineMode::None);
        let deadline = WallDeadline::start(0);
        let e = match evaluate_cell("L", &j.program, &j.registry, &cfg, &tight, &memo, &deadline) {
            Ok(_) => panic!("verified under half the sequential run's budget"),
            Err(e) => e,
        };
        assert_eq!(e.stage, FailStage::Verify, "{e}");
        let cause = FailCause::Timeout {
            max_ops: seq_ops / 2,
            wall_ms: 0,
        };
        assert_eq!(e.cause, cause);
        assert_eq!(memo.interp_runs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn suite_outcome_shape_and_phase_coverage() {
        let j = job("T", SRC, "");
        let opts = DriverOptions {
            workers: 2,
            machines: vec![Machine::intel8()],
            ..Default::default()
        };
        let out = run_suite(&[j], &opts);
        assert_eq!(out.apps.len(), 1);
        let app = &out.apps[0];
        assert!(app.ok());
        assert_eq!(app.rows.len(), 3);
        assert_eq!(app.fig20.len(), 4); // 4 configs × 1 machine
        assert!(app.verify.iter().all(|(_, v)| v.ok()));
        assert_eq!(out.metrics.cells.len(), 4);
        assert_eq!(out.metrics.failed_cells, 0);
        // The auto-annot cell reports coverage counters; the classic
        // cells do not.
        let auto = out
            .metrics
            .cells
            .iter()
            .find(|c| c.config == "auto-annot")
            .unwrap();
        assert!(auto.autogen.is_some());
        assert!(out
            .metrics
            .cells
            .iter()
            .filter(|c| c.config != "auto-annot")
            .all(|c| c.autogen.is_none()));
        // Every phase was exercised at least once across the cells.
        for p in Phase::ALL {
            assert!(out.metrics.phases.count_of(p) > 0, "{p:?} never recorded");
        }
        assert!(out.metrics.wall_nanos > 0);
    }

    #[test]
    fn concurrent_equals_serial_on_a_small_suite() {
        let jobs = vec![job("A", SRC, ""), job("B", SRC, "")];
        let serial = run_suite(
            &jobs,
            &DriverOptions {
                workers: 1,
                machines: vec![Machine::amd4()],
                ..Default::default()
            },
        );
        let par = run_suite(
            &jobs,
            &DriverOptions {
                workers: 4,
                machines: vec![Machine::amd4()],
                ..Default::default()
            },
        );
        for (a, b) in serial.apps.iter().zip(&par.apps) {
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.fig20, b.fig20);
            for ((_, x), (_, y)) in a.results.iter().zip(&b.results) {
                assert_eq!(x.source, y.source);
            }
        }
    }

    #[test]
    fn verify_threads_zero_is_clamped() {
        let opts = DriverOptions {
            verify_threads: 0,
            ..Default::default()
        };
        assert_eq!(opts.effective_verify_threads(), 1);
        // And the whole cell still evaluates.
        let j = job("T", SRC, "");
        let (report, _) = run_app(
            &j,
            &DriverOptions {
                workers: 1,
                verify_threads: 0,
                ..Default::default()
            },
        );
        assert!(report.ok(), "{:?}", report.failures);
    }

    #[test]
    fn injected_panic_degrades_one_app_not_the_suite() {
        let jobs = vec![job("GOOD", SRC, ""), job("BAD", SRC, "")];
        let opts = DriverOptions {
            workers: 2,
            inject_panic: vec!["BAD".into()],
            ..Default::default()
        };
        let out = run_suite(&jobs, &opts);
        assert_eq!(out.apps.len(), 2);
        assert!(out.apps[0].ok());
        assert_eq!(out.apps[0].rows.len(), 3);
        let bad = &out.apps[1];
        assert!(!bad.ok());
        assert_eq!(bad.failures.len(), 4);
        assert!(bad.rows.is_empty());
        for f in &bad.failures {
            assert_eq!(f.stage, FailStage::Driver);
            assert!(matches!(&f.cause, FailCause::Panic(m) if m.contains("injected")));
        }
        assert_eq!(out.metrics.failed_cells, 4);
        assert_eq!(out.metrics.failures.len(), 4);
    }

    #[test]
    fn wall_clock_deadline_degrades_to_timeout() {
        // Enough interpreter work (~1M ops) that the baseline run alone
        // takes well over the 1 ms wall budget on any host. Cells served
        // from the memo may finish in time; every cell that pays for a
        // run hits a deadline checkpoint.
        let src = "      PROGRAM MAIN
      COMMON /OUT/ A(5000), TOT
      DO J = 1, 40
        DO I = 1, 5000
          A(I) = A(I) + I*0.5
        ENDDO
      ENDDO
      TOT = 0.0
      DO I = 1, 5000
        TOT = TOT + A(I)
      ENDDO
      WRITE(6,*) TOT
      END
";
        let j = job("W", src, "");
        let opts = DriverOptions {
            workers: 1,
            wall_budget_ms: 1,
            ..Default::default()
        };
        let (report, metrics) = run_app(&j, &opts);
        assert!(!report.ok());
        assert!(metrics.failed_cells >= 1, "{metrics:?}");
        assert_eq!(metrics.timed_out_cells, metrics.failed_cells);
        for f in &report.failures {
            assert!(f.is_timeout(), "{f}");
            assert!(
                matches!(f.cause, FailCause::Timeout { wall_ms: 1, .. }),
                "expected a wall-clock timeout, got {f:?}"
            );
            assert!(f.cause_message().contains("wall-clock"), "{f}");
        }
        // wall_budget_ms = 0 is unlimited: the same job completes.
        let (ok_report, _) = run_app(
            &j,
            &DriverOptions {
                workers: 1,
                ..Default::default()
            },
        );
        assert!(ok_report.ok(), "{:?}", ok_report.failures);
    }

    #[test]
    fn wall_deadline_primitive() {
        assert!(!WallDeadline::start(0).expired());
        let d = WallDeadline::start(1);
        std::thread::sleep(std::time::Duration::from_millis(3));
        assert!(d.expired());
        assert!(WallDeadline::start(0)
            .check("A", InlineMode::None, FailStage::Compile, 7)
            .is_ok());
        let e = d
            .check("A", InlineMode::None, FailStage::Compile, 7)
            .unwrap_err();
        assert_eq!(e.stage, FailStage::Compile);
        assert!(matches!(
            e.cause,
            FailCause::Timeout {
                max_ops: 7,
                wall_ms: 1
            }
        ));
    }

    #[test]
    fn an_unallocatable_array_fails_every_cell_at_the_baseline() {
        // 10^17 REAL elements: no host can allocate the array, and the
        // run says so instead of aborting the process.
        let src = "      PROGRAM HUGE
      DIMENSION A(100000000000000000)
      A(1) = 1.0
      WRITE(6,*) A(1)
      END
";
        for engine in [fruntime::Engine::Bytecode, fruntime::Engine::TreeWalk] {
            let opts = DriverOptions {
                workers: 1,
                engine,
                ..Default::default()
            };
            let (report, metrics) = run_app(&job("HUGE", src, ""), &opts);
            assert_eq!(report.failures.len(), 4, "{engine:?}");
            for f in &report.failures {
                assert_eq!(f.stage, FailStage::Baseline, "{f}");
                let FailCause::Runtime(e) = &f.cause else {
                    panic!("{engine:?}: {f:?}");
                };
                let want = "cannot allocate storage of 100000000000000000 elements";
                assert_eq!(e.message, want);
            }
            // One baseline run was paid and failed; it served every cell.
            assert_eq!((metrics.interp_runs, metrics.failed_cells), (1, 4));
        }
    }

    #[test]
    fn runaway_verification_times_out_instead_of_hanging() {
        // A deadline so small even this tiny program exceeds it.
        let j = job("T", SRC, "");
        let opts = DriverOptions {
            workers: 1,
            verify_max_ops: 10,
            ..Default::default()
        };
        let (report, metrics) = run_app(&j, &opts);
        assert!(!report.ok());
        assert!(report.failures.iter().all(|f| f.is_timeout()), "{report:?}");
        assert_eq!(metrics.failed_cells, 4);
        assert_eq!(metrics.timed_out_cells, 4);
    }
}
