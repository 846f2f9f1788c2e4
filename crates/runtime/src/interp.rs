//! MiniF77 interpreter.
//!
//! Executes a [`Program`] with Fortran semantics: call-by-reference with
//! sequence association, column-major arrays, COMMON storage, list-directed
//! `WRITE`. Three execution facilities are layered on the same walker:
//!
//! * **cost accounting** — every evaluated expression node and executed
//!   statement bumps an op counter; each dynamic instance of a
//!   directive-carrying loop is recorded as a [`ParLoopEvent`], which the
//!   machine cost model (`cost`) turns into the paper's Figure 20 speedups;
//! * **runtime race checking** (`check_races`) — the paper's "runtime
//!   testers": iterations of each parallel loop record their shared
//!   read/write sets and cross-iteration conflicts are reported;
//! * **chunked execution** (`threads > 1`) — the threaded gate. Iterations
//!   are partitioned into `threads` contiguous chunks that each run from
//!   the pre-loop memory with a write log; logs are merged in chunk
//!   order and reductions folded in chunk order, so the result is fully
//!   deterministic. The chunks run one after another on the calling
//!   thread — a chunk is far too small to pay for a cross-thread hand-off,
//!   and the driver already keeps every core busy with cells. This
//!   walker isolates chunks by copying the arena; the VM runs them on the
//!   live arena behind an undo log. Data-race freedom is by
//!   construction; an *illegally* parallelized loop shows up as a
//!   sequential-vs-chunked output mismatch, not as UB.

use crate::memory::{Memory, Scalar, View};
use fir::ast::*;
use fir::symbol::{Storage, Symbol, SymbolTable};
use std::collections::HashMap;

/// Which engine executes the program.
///
/// Both engines produce byte-identical observable state — io, op counts,
/// par events, races, final memory — asserted by the engine-differential
/// tests. The tree-walker is the semantic reference; the bytecode VM is
/// the fast path `verify` runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Reference tree-walking interpreter.
    TreeWalk,
    /// Slot-resolved bytecode VM (`fruntime::bytecode`).
    #[default]
    Bytecode,
}

/// Default op budget (also the budget frame-build extent evaluation runs
/// under, matching the throwaway default-option interpreter the reference
/// engine uses in `resolve_dims`).
pub(crate) const DEFAULT_MAX_OPS: u64 = 2_000_000_000;

/// Nested `CALL` frames beyond this many abort the run. MiniF77 forbids
/// recursion, so a deeper chain is a runaway cycle — and each nested call
/// consumes native stack the op budget cannot see, so the fuel alone
/// would let a recursive mutant overflow the stack before it ran dry.
pub const MAX_CALL_DEPTH: usize = 128;

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Chunks per directive-loop execution (1 = pure sequential). The
    /// iterations split into this many contiguous chunks that each start
    /// from the pre-loop memory, so the count decides which
    /// cross-iteration dependences the threaded gate can expose; chunks
    /// run one after another on the calling thread.
    pub threads: usize,
    /// Record cross-iteration conflicts in directive loops.
    pub check_races: bool,
    /// Fuel: maximum op count before aborting (runaway protection).
    pub max_ops: u64,
    /// Which engine to run on.
    pub engine: Engine,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 1,
            check_races: false,
            max_ops: DEFAULT_MAX_OPS,
            engine: Engine::default(),
        }
    }
}

/// One dynamic execution of a directive-carrying loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ParLoopEvent {
    /// Loop identity.
    pub id: LoopId,
    /// Ops executed inside the loop (all iterations).
    pub ops: u64,
    /// Number of iterations.
    pub iters: u64,
}

/// A detected cross-iteration conflict.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceViolation {
    /// The loop in which the conflict occurred.
    pub id: LoopId,
    /// Human-readable description.
    pub what: String,
}

/// Number of opcode classes in [`VmCounters::class_retired`].
pub const N_OP_CLASSES: usize = 8;

/// Display names of the opcode classes, index-aligned with
/// [`VmCounters::class_retired`].
pub const OP_CLASS_NAMES: [&str; N_OP_CLASSES] = [
    "const", "load", "store", "bin", "intr", "fused", "ctl", "call",
];

/// Execution counters the bytecode VM maintains on its hot path. All are
/// plain field bumps (no atomics, no feature gates), so they are always
/// on; the tree-walker reports zeros. Aggregated per verification run and
/// per suite run so the perf claims about the register-frame VM — frame
/// pooling, zero steady-state allocation — are observable in ordinary
/// metrics output rather than only in one-off benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmCounters {
    /// Instructions retired (every dispatched instruction, incl. ticks).
    pub insns_retired: u64,
    /// CALL instructions executed.
    pub calls: u64,
    /// Frame pushes served entirely from pooled register/memory capacity.
    pub pool_hits: u64,
    /// Frame pushes that had to grow the register stack or slot arena.
    pub pool_misses: u64,
    /// Deepest nested CALL depth reached.
    pub peak_call_depth: u64,
    /// Pool-growth events after the pool first served a hit. Expected 0;
    /// nonzero means frame recycling regressed.
    pub warm_allocs: u64,
    /// Superword-fused instructions retired by the typed register engine
    /// (each replaces two to four stack-era instructions).
    pub fused_insns: u64,
    /// Budget charges folded into control transfers (DoNext back-edges and
    /// branch/jump targets that absorbed a `Tick`): each one is a tick
    /// instruction the typed engine did *not* dispatch.
    pub fused_ticks: u64,
    /// Integer superword plans retired (`FusedI` + compare-and-branch on
    /// integer registers); a subset of the work also reflected in
    /// per-class counts.
    pub fused_int: u64,
    /// Instructions retired per opcode class (typed register engine
    /// only), index-aligned with [`OP_CLASS_NAMES`].
    pub class_retired: [u64; N_OP_CLASSES],
    /// Directive-loop chunks executed by the chunked (`threads > 1`) gate.
    pub chunks_run: u64,
    /// Undo-log entries replayed to isolate those chunks: one per store
    /// a chunk made, plus one per unlogged variable write it journaled
    /// (each nested DO-loop entry, and per chunk its own loop variable
    /// and reduction identities). The elements the undo log restores are
    /// the only memory a chunk touches — no chunk copies the arena.
    pub chunk_undo_writes: u64,
    /// Typed bodies lowered on demand for a frame whose bound storage
    /// carries other type classes than the unit declares (Fortran type
    /// punning): one per unit and class tuple, then cached.
    pub typed_specializations: u64,
    /// Runs routed to the tree-walker because the program overflows the
    /// typed encoding (more than 255 arguments or subscripts, more than
    /// `u16` locals or registers in a unit).
    pub reference_runs: u64,
}

impl VmCounters {
    /// Merge counters from another run into this aggregate: sums, except
    /// peak depth which takes the max.
    pub fn absorb(&mut self, o: &VmCounters) {
        self.insns_retired += o.insns_retired;
        self.calls += o.calls;
        self.pool_hits += o.pool_hits;
        self.pool_misses += o.pool_misses;
        self.peak_call_depth = self.peak_call_depth.max(o.peak_call_depth);
        self.warm_allocs += o.warm_allocs;
        self.fused_insns += o.fused_insns;
        self.fused_ticks += o.fused_ticks;
        self.fused_int += o.fused_int;
        for (k, v) in self.class_retired.iter_mut().zip(o.class_retired) {
            *k += v;
        }
        self.chunks_run += o.chunks_run;
        self.chunk_undo_writes += o.chunk_undo_writes;
        self.typed_specializations += o.typed_specializations;
        self.reference_runs += o.reference_runs;
    }
}

/// Result of running a program.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Captured list-directed output lines.
    pub io: Vec<String>,
    /// STOP message, if the program stopped explicitly.
    pub stopped: Option<String>,
    /// Total ops (the machine-independent "work" metric).
    pub total_ops: u64,
    /// Directive-loop events for the cost model.
    pub par_events: Vec<ParLoopEvent>,
    /// Race violations (only populated with `check_races`).
    pub races: Vec<RaceViolation>,
    /// Final memory (COMMON state comparison).
    pub memory: Memory,
    /// VM execution counters (all zero on the tree-walker). Excluded from
    /// [`RunResult::same_observable`]: counters describe the engine, not
    /// the program.
    pub vm: VmCounters,
}

impl RunResult {
    /// Compare observable state (I/O + COMMON memory) against another run.
    /// Floating values — in memory *and* in printed output — compare with a
    /// relative tolerance so that reduction reassociation in parallel runs
    /// passes.
    pub fn same_observable(&self, other: &RunResult, tol: f64) -> bool {
        if self.stopped != other.stopped || self.io.len() != other.io.len() {
            return false;
        }
        for (la, lb) in self.io.iter().zip(&other.io) {
            if la != lb && !lines_match(la, lb, tol) {
                return false;
            }
        }
        for (key, &slot_a) in &self.memory.commons {
            let Some(&slot_b) = other.memory.commons.get(key) else {
                return false;
            };
            let (a, b) = (&self.memory.slots[slot_a], &other.memory.slots[slot_b]);
            let n = a.data.len().min(b.data.len());
            for i in 0..n {
                let (x, y) = (a.data[i], b.data[i]);
                let scale = x.abs().max(y.abs()).max(1.0);
                if (x - y).abs() > tol * scale {
                    return false;
                }
            }
        }
        true
    }
}

/// What class of runtime failure an [`RtError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtErrorKind {
    /// Semantic failure (bad extent, undefined unit, subscript range...).
    General,
    /// The [`ExecOptions::max_ops`] fuel ran out — the run was cut off,
    /// not proven wrong. Callers treat this as a deadline/timeout.
    Budget,
}

/// Runtime error.
#[derive(Debug, Clone)]
pub struct RtError {
    /// What happened.
    pub message: String,
    /// Failure class (semantic error vs. exhausted op budget).
    pub kind: RtErrorKind,
    /// For [`RtErrorKind::Budget`] fuel exhaustion: the op count at which
    /// the budget check fired. This is the *located position* of the
    /// failure — both engines must report the same value for the same
    /// program and `max_ops`, which is what pins the control-fused tick
    /// charges to the op index the unfused stream would have charged at.
    pub ops: Option<u64>,
}

// Errors compare on what happened, not where the engine noticed: `ops` is
// asserted explicitly by the budget-position tests, while the broad
// differential suites keep comparing message + kind.
impl PartialEq for RtError {
    fn eq(&self, other: &RtError) -> bool {
        self.message == other.message && self.kind == other.kind
    }
}

impl RtError {
    pub(crate) fn new(m: impl Into<String>) -> RtError {
        RtError {
            message: m.into(),
            kind: RtErrorKind::General,
            ops: None,
        }
    }

    pub(crate) fn budget() -> RtError {
        RtError {
            message: "op budget exhausted (possible runaway loop)".into(),
            kind: RtErrorKind::Budget,
            ops: None,
        }
    }

    /// Budget exhaustion located at op count `ops` (the counter value the
    /// engine held when the check fired).
    pub(crate) fn budget_at(ops: u64) -> RtError {
        RtError {
            ops: Some(ops),
            ..RtError::budget()
        }
    }

    pub(crate) fn call_depth() -> RtError {
        RtError {
            message: "call depth exceeded (runaway recursion)".into(),
            kind: RtErrorKind::Budget,
            ops: None,
        }
    }

    /// True when the run was aborted by the op-budget fuel rather than a
    /// semantic error.
    pub fn is_budget(&self) -> bool {
        self.kind == RtErrorKind::Budget
    }
}

/// Token-wise line comparison: numeric tokens compare with relative
/// tolerance, everything else exactly.
fn lines_match(a: &str, b: &str, tol: f64) -> bool {
    let ta: Vec<&str> = a.split_whitespace().collect();
    let tb: Vec<&str> = b.split_whitespace().collect();
    if ta.len() != tb.len() {
        return false;
    }
    ta.iter().zip(&tb).all(|(x, y)| {
        if x == y {
            return true;
        }
        match (x.parse::<f64>(), y.parse::<f64>()) {
            (Ok(u), Ok(v)) => {
                let scale = u.abs().max(v.abs()).max(1.0);
                (u - v).abs() <= tol.max(1e-9) * scale
            }
            _ => false,
        }
    })
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}
impl std::error::Error for RtError {}

/// Run a program from its `PROGRAM` unit on the engine
/// [`ExecOptions::engine`] selects.
pub fn run(p: &Program, opts: &ExecOptions) -> Result<RunResult, RtError> {
    match opts.engine {
        Engine::Bytecode => crate::bytecode::run_program(p, opts),
        Engine::TreeWalk => run_tree(p, opts),
    }
}

/// The tree-walking reference engine.
fn run_tree(p: &Program, opts: &ExecOptions) -> Result<RunResult, RtError> {
    let ctx = Ctx::new(p);
    let mut st = State::default();
    // Pre-allocate every resolvable COMMON member before any unit runs:
    // lazily created COMMON storage would defeat frame reclamation (the
    // slot must be pinned across `release`) and would be missing from the
    // pre-loop memory clones the chunked gate merges write logs into.
    // Anything unresolvable stays lazy, handled by `Memory::release`
    // compaction.
    for (block, sym, len) in common_layout(&ctx.tables) {
        if let Some(len) = len {
            st.mem.common(block, &sym.name, sym.ty, len)?;
        }
    }
    let main = ctx.main.ok_or_else(|| RtError::new("no PROGRAM unit"))?;
    let frame = build_frame(&ctx, &mut st, main, &[])?;
    let mut interp = Interp {
        ctx: &ctx,
        st,
        opts,
    };
    let flow = interp.exec_unit(main, &frame)?;
    let stopped = match flow {
        Flow::Stop(m) => Some(m),
        _ => None,
    };
    Ok(RunResult {
        io: interp.st.io,
        stopped,
        total_ops: interp.st.ops,
        par_events: interp.st.par_events,
        races: interp.st.races,
        memory: interp.st.mem,
        vm: VmCounters::default(),
    })
}

// ---------------------------------------------------------------------------

/// The program's units in program order, each with its own symbol table.
struct Ctx<'a> {
    /// Unit name → index of the first unit with that name (`fir::parse`
    /// admits one unit per name).
    units: HashMap<&'a str, usize>,
    main: Option<usize>,
    order: &'a [ProcUnit],
    tables: Vec<SymbolTable>,
}

impl<'a> Ctx<'a> {
    fn new(p: &'a Program) -> Ctx<'a> {
        let mut units = HashMap::new();
        for (i, u) in p.units.iter().enumerate() {
            units.entry(u.name.as_str()).or_insert(i);
        }
        Ctx {
            units,
            main: p.units.iter().rposition(|u| u.kind == UnitKind::Program),
            order: &p.units,
            tables: p.units.iter().map(SymbolTable::build).collect(),
        }
    }
}

/// Resolve an extent expression without a frame: constants and PARAMETER
/// references only (what F77 allows in COMMON declarations).
pub(crate) fn const_extent(e: &Expr, table: &SymbolTable) -> Option<i64> {
    if let Some(v) = e.as_int_const() {
        return Some(v);
    }
    match e {
        Expr::Var(n) => table.param_value(n).and_then(|p| const_extent(p, table)),
        Expr::Bin(op, l, r) => {
            let a = const_extent(l, table)?;
            let b = const_extent(r, table)?;
            Expr::Bin(*op, Box::new(Expr::int(a)), Box::new(Expr::int(b))).as_int_const()
        }
        Expr::Un(op, inner) => {
            let v = const_extent(inner, table)?;
            Expr::Un(*op, Box::new(Expr::int(v))).as_int_const()
        }
        _ => None,
    }
}

/// The COMMON members both engines pre-allocate before any unit runs, in
/// their one order: units in program order (`tables` holds one table per
/// unit), each unit's members sorted by name. A member comes with its
/// element count when every extent is a constant or PARAMETER reference
/// (what F77 allows in COMMON), else with `None`.
pub(crate) fn common_layout(tables: &[SymbolTable]) -> Vec<(&Ident, &Symbol, Option<usize>)> {
    let mut out = Vec::new();
    for table in tables {
        let mut members: Vec<(&Ident, &Symbol)> = table
            .iter()
            .filter_map(|s| match &s.storage {
                Storage::Common(block) => Some((block, s)),
                _ => None,
            })
            .collect();
        members.sort_by(|a, b| a.1.name.cmp(&b.1.name));
        out.extend(members.into_iter().map(|(block, sym)| {
            let len = sym.dims.iter().try_fold(1usize, |len, d| match d {
                Dim::Extent(e) => const_extent(e, table)
                    .filter(|&v| v >= 0)
                    .map(|v| len.saturating_mul((v as usize).max(1))),
                Dim::Assumed => None,
            });
            (block, sym, len)
        }));
    }
    out
}

#[derive(Default, Clone)]
struct State {
    mem: Memory,
    io: Vec<String>,
    ops: u64,
    par_events: Vec<ParLoopEvent>,
    races: Vec<RaceViolation>,
    /// Depth of enclosing directive loops (suppresses nested handling).
    par_depth: usize,
    /// Depth of nested `CALL` frames (bounded by [`MAX_CALL_DEPTH`]).
    call_depth: usize,
    /// Active write log (thread-sim mode).
    write_log: Option<Vec<(usize, usize, f64)>>,
    /// Access recorder for race checking: (slot, off) → (iter, was_write).
    race_map: Option<(AccessMap, i64)>,
    /// Retired access recorder, kept to reuse its table allocation.
    race_scratch: Option<AccessMap>,
    /// Slots excluded from logging/race checks (privates, reductions),
    /// kept sorted for binary-search membership tests.
    excluded: Vec<usize>,
    /// Slots already reported as conflicting in the current directive
    /// loop (one violation per slot per loop instance).
    race_reported: SlotSet,
    /// Reusable chunk arena for chunked directive-loop execution.
    scratch: Option<Memory>,
}

/// A reusable set of slot indices: a grow-only bitset plus the list of
/// touched words, so `clear` costs O(touched) instead of O(capacity).
#[derive(Default, Clone, Debug)]
pub(crate) struct SlotSet {
    words: Vec<u64>,
    touched: Vec<usize>,
}

impl SlotSet {
    /// Insert `slot`; returns true when it was not yet present.
    pub(crate) fn insert(&mut self, slot: usize) -> bool {
        let (w, b) = (slot / 64, slot % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & (1 << b) != 0 {
            return false;
        }
        if self.words[w] == 0 {
            self.touched.push(w);
        }
        self.words[w] |= 1 << b;
        true
    }

    /// Empty the set without shrinking its capacity.
    pub(crate) fn clear(&mut self) {
        for &w in &self.touched {
            self.words[w] = 0;
        }
        self.touched.clear();
    }
}

/// Multiply-rotate hasher for the race map's `(slot, offset)` keys — the
/// race checker hashes every shared access in a directive loop, and the
/// default SipHash dominates its cost.
#[derive(Default)]
struct AccessHasher(u64);

impl std::hash::Hasher for AccessHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.0 = (self.0 ^ v as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
    }
}

type AccessMap = HashMap<(usize, usize), (i64, bool), std::hash::BuildHasherDefault<AccessHasher>>;

/// Variable bindings of one call frame.
#[derive(Debug, Clone, Default)]
struct Frame {
    views: HashMap<Ident, View>,
    /// Declared types (for expression typing).
    types: HashMap<Ident, Type>,
}

enum Flow {
    Normal,
    Return,
    Stop(String),
}

fn build_frame(
    ctx: &Ctx<'_>,
    st: &mut State,
    unit_idx: usize,
    arg_views: &[View],
) -> Result<Frame, RtError> {
    let unit = &ctx.order[unit_idx];
    let table = &ctx.tables[unit_idx];
    let mut frame = Frame::default();

    // Phase 1: formals (views supplied by the caller).
    for (i, p) in unit.params.iter().enumerate() {
        let v = arg_views
            .get(i)
            .cloned()
            .ok_or_else(|| RtError::new(format!("missing argument {i} to {}", unit.name)))?;
        let sym = table.get_or_implicit(p);
        frame.types.insert(p.clone(), sym.ty);
        frame.views.insert(p.clone(), v);
    }

    // Phase 2: PARAMETER constants (materialized as scalar slots).
    for sym in table.iter() {
        if sym.storage == Storage::Param {
            let val = table
                .param_value(&sym.name)
                .and_then(|e| e.as_int_const())
                .ok_or_else(|| RtError::new(format!("non-constant PARAMETER {}", sym.name)))?;
            let slot = st.mem.alloc(sym.ty, 1)?;
            st.mem.slots[slot].set(0, Scalar::I(val));
            frame.types.insert(sym.name.clone(), sym.ty);
            frame.views.insert(sym.name.clone(), View::scalar(slot, 0));
        }
    }

    // Phase 3: COMMON members and locals. Dimension extents may reference
    // PARAMETERs (already bound) — evaluate with a throwaway interpreter
    // view of the partial frame.
    let mut pending: Vec<&fir::symbol::Symbol> = table
        .iter()
        .filter(|s| matches!(s.storage, Storage::Common(_) | Storage::Local))
        .collect();
    pending.sort_by(|a, b| a.name.cmp(&b.name));
    for sym in pending {
        let dims = resolve_dims(ctx, st, &frame, &sym.dims, &sym.name)?;
        // Saturating, like the VM: an overflowing shape is refused.
        let len = dims.iter().fold(1usize, |n, &d| n.saturating_mul(d.max(1)));
        let slot = match &sym.storage {
            Storage::Common(block) => st.mem.common(block, &sym.name, sym.ty, len)?,
            _ => st.mem.alloc(sym.ty, len)?,
        };
        frame.types.insert(sym.name.clone(), sym.ty);
        frame.views.insert(
            sym.name.clone(),
            View {
                slot,
                offset: 0,
                dims,
            },
        );
    }

    // Phase 4: resolve formal array shapes (dim expressions may reference
    // other formals, e.g. `DIMENSION M1(L, M)`).
    for p in &unit.params {
        let sym = table.get_or_implicit(p);
        if sym.is_array() {
            let dims = resolve_dims(ctx, st, &frame, &sym.dims, p)?;
            if let Some(v) = frame.views.get_mut(p) {
                v.dims = dims;
            }
        }
    }

    Ok(frame)
}

/// Resolve declared dims to concrete extents (0 = assumed size).
fn resolve_dims(
    ctx: &Ctx<'_>,
    st: &mut State,
    frame: &Frame,
    dims: &[Dim],
    name: &str,
) -> Result<Vec<usize>, RtError> {
    let mut out = Vec::with_capacity(dims.len());
    for d in dims {
        match d {
            Dim::Assumed => out.push(0),
            Dim::Extent(e) => {
                let mut tmp = Interp {
                    ctx,
                    st: std::mem::take(st),
                    opts: &ExecOptions::default(),
                };
                let v = tmp.eval(e, frame);
                *st = tmp.st;
                let v = v.map_err(|err| {
                    RtError::new(format!("bad extent for {name}: {}", err.message))
                })?;
                let n = v.as_i();
                if n < 0 {
                    return Err(RtError::new(format!("negative extent for {name}")));
                }
                out.push(n as usize);
            }
        }
    }
    Ok(out)
}

struct Interp<'a> {
    ctx: &'a Ctx<'a>,
    st: State,
    opts: &'a ExecOptions,
}

impl<'a> Interp<'a> {
    fn tick(&mut self, n: u64) -> Result<(), RtError> {
        self.st.ops += n;
        if self.st.ops > self.opts.max_ops {
            return Err(RtError::budget_at(self.st.ops));
        }
        Ok(())
    }

    fn exec_unit(&mut self, unit_idx: usize, frame: &Frame) -> Result<Flow, RtError> {
        let unit = &self.ctx.order[unit_idx];
        self.exec_block(&unit.body, frame, &unit.name.clone())
    }

    fn exec_block(&mut self, block: &Block, frame: &Frame, unit: &str) -> Result<Flow, RtError> {
        for s in block {
            match self.exec_stmt(s, frame, unit)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt, frame: &Frame, unit: &str) -> Result<Flow, RtError> {
        self.tick(1)?;
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                let val = self.eval(rhs, frame)?;
                self.assign(lhs, val, frame)?;
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.eval(cond, frame)?.as_b();
                if c {
                    self.exec_block(then_blk, frame, unit)
                } else {
                    self.exec_block(else_blk, frame, unit)
                }
            }
            StmtKind::Do(d) => self.exec_do(d, frame, unit),
            StmtKind::Call { name, args } => self.exec_call(name, args, frame),
            StmtKind::Write { items, .. } => {
                let mut line = String::new();
                for (k, item) in items.iter().enumerate() {
                    let item = match item {
                        Expr::Str(s) => WriteItem::Str(s),
                        e => WriteItem::Val(self.eval(e, frame)?),
                    };
                    write_item(&mut line, k, item);
                }
                self.st.io.push(line);
                Ok(Flow::Normal)
            }
            StmtKind::Stop { message } => Ok(Flow::Stop(message.clone().unwrap_or_default())),
            StmtKind::Return => Ok(Flow::Return),
            StmtKind::Continue => Ok(Flow::Normal),
            StmtKind::Tagged { body, .. } => self.exec_block(body, frame, unit),
        }
    }

    fn exec_do(&mut self, d: &DoLoop, frame: &Frame, unit: &str) -> Result<Flow, RtError> {
        let lo = self.eval(&d.lo, frame)?.as_i();
        let hi = self.eval(&d.hi, frame)?.as_i();
        let step = match &d.step {
            Some(e) => self.eval(e, frame)?.as_i(),
            None => 1,
        };
        if step == 0 {
            return Err(RtError::new("zero DO step"));
        }
        let var_view = self
            .view_of(&d.var, frame)
            .ok_or_else(|| RtError::new(format!("unbound loop variable {}", d.var)))?;
        let iters: Vec<i64> = if step > 0 {
            (lo..=hi).step_by(step as usize).collect()
        } else {
            let mut v = Vec::new();
            let mut i = lo;
            while i >= hi {
                v.push(i);
                i += step;
            }
            v
        };

        let is_outer_parallel = d.directive.is_some() && self.st.par_depth == 0;
        if !is_outer_parallel {
            for &i in &iters {
                self.st.mem.write(&var_view, &[], Scalar::I(i));
                match self.exec_block(&d.body, frame, unit)? {
                    Flow::Normal => {}
                    other => return Ok(other),
                }
            }
            return Ok(Flow::Normal);
        }

        // Outermost directive loop: account, optionally race-check,
        // optionally run threaded.
        let dir = d.directive.as_ref().unwrap();
        let ops_before = self.st.ops;

        // Resolve excluded slots (privates + reductions + the loop var).
        let mut excluded = vec![var_view.slot];
        for name in dir.private.iter().chain(dir.lastprivate.iter()) {
            if let Some(v) = self.view_of(name, frame) {
                excluded.push(v.slot);
            }
        }
        for (_, name) in &dir.reductions {
            if let Some(v) = self.view_of(name, frame) {
                excluded.push(v.slot);
            }
        }
        excluded.sort_unstable();

        let flow = if self.opts.threads > 1 && iters.len() > 1 {
            self.exec_parallel(d, dir, &iters, &var_view, &excluded, frame, unit)?
        } else {
            // Sequential execution, with optional race recording.
            self.st.par_depth += 1;
            if self.opts.check_races {
                let mut map = self.st.race_scratch.take().unwrap_or_default();
                map.clear();
                self.st.race_map = Some((map, 0));
                self.st.excluded = std::mem::take(&mut excluded);
                self.st.race_reported.clear();
            }
            let mut out = Flow::Normal;
            for (k, &i) in iters.iter().enumerate() {
                if let Some((_, cur)) = &mut self.st.race_map {
                    *cur = k as i64;
                }
                self.st.mem.write(&var_view, &[], Scalar::I(i));
                match self.exec_block(&d.body, frame, unit)? {
                    Flow::Normal => {}
                    other => {
                        out = other;
                        break;
                    }
                }
            }
            if let Some((map, _)) = self.st.race_map.take() {
                self.st.race_scratch = Some(map);
            }
            self.st.excluded.clear();
            self.st.par_depth -= 1;
            out
        };

        self.st.par_events.push(ParLoopEvent {
            id: d.id.clone(),
            ops: self.st.ops - ops_before,
            iters: iters.len() as u64,
        });
        Ok(flow)
    }

    /// Chunked execution of a parallel loop with write-log merging.
    #[allow(clippy::too_many_arguments)]
    fn exec_parallel(
        &mut self,
        d: &DoLoop,
        dir: &OmpDirective,
        iters: &[i64],
        var_view: &View,
        excluded: &[usize],
        frame: &Frame,
        unit: &str,
    ) -> Result<Flow, RtError> {
        // Reduction slots: remember pre-values, identify op.
        let mut red_slots: Vec<(RedOp, View, f64)> = Vec::new();
        for (op, name) in &dir.reductions {
            if let Some(v) = self.view_of(name, frame) {
                let pre = self.st.mem.read(&v, &[]).map(|s| s.as_f()).unwrap_or(0.0);
                red_slots.push((*op, v, pre));
            }
        }

        // Chunks run in iteration order on one scratch arena re-seeded
        // (allocation-free after the first loop) from the live arena:
        // copy isolation, the executable spec the VM's undo-log isolation
        // is differentially checked against.
        let mut scratch = self.st.scratch.take().unwrap_or_default();
        let lens = chunk_lens(iters.len(), self.opts.threads);
        let mut results = Vec::with_capacity(lens.len());
        let mut start = 0;
        for len in lens {
            let chunk = &iters[start..start + len];
            start += len;
            scratch.clone_from(&self.st.mem);
            let (out, mem) = exec_chunk(
                self.ctx,
                self.opts,
                std::mem::take(&mut scratch),
                &red_slots,
                var_view,
                frame,
                unit,
                d,
                chunk,
            );
            scratch = mem;
            results.push(out);
        }
        self.st.scratch = Some(scratch);

        // Merge in chunk (iteration) order.
        let mut flow = Flow::Normal;
        for out in &results {
            if let Some(e) = &out.err {
                return Err(e.clone());
            }
            if let Some(m) = &out.flow_stop {
                flow = Flow::Stop(m.clone());
            }
        }
        for out in &results {
            for &(slot, off, val) in &out.log {
                if excluded.binary_search(&slot).is_ok() {
                    continue;
                }
                if slot < self.st.mem.slots.len() && off < self.st.mem.slots[slot].data.len() {
                    self.st.mem.slots[slot].data[off] = val;
                }
            }
            self.st.io.extend(out.io.iter().cloned());
            self.st.ops += out.ops;
        }
        for (k, (op, v, pre)) in red_slots.iter().enumerate() {
            let acc = results
                .iter()
                .fold(*pre, |acc, out| red_fold(*op, acc, out.red_finals[k]));
            self.st.mem.write(v, &[], Scalar::F(acc));
        }
        Ok(flow)
    }

    fn exec_call(&mut self, name: &str, args: &[Expr], frame: &Frame) -> Result<Flow, RtError> {
        let Some(&unit_idx) = self.ctx.units.get(name) else {
            return Err(RtError::new(format!("call to undefined subroutine {name}")));
        };

        // Evaluate argument views in the caller frame.
        let mut views = Vec::with_capacity(args.len());
        for a in args {
            views.push(self.arg_view(a, frame)?);
        }

        if self.st.call_depth >= MAX_CALL_DEPTH {
            return Err(RtError::call_depth());
        }
        let mark = self.st.mem.mark();
        let callee_frame = build_frame(self.ctx, &mut self.st, unit_idx, &views)?;
        self.st.call_depth += 1;
        let flow = self.exec_unit(unit_idx, &callee_frame);
        self.st.call_depth -= 1;
        let flow = flow?;
        self.st.mem.release(mark);
        match flow {
            Flow::Stop(m) => Ok(Flow::Stop(m)),
            _ => Ok(Flow::Normal),
        }
    }

    /// Build the view an actual argument denotes (by-reference semantics).
    fn arg_view(&mut self, a: &Expr, frame: &Frame) -> Result<View, RtError> {
        match a {
            Expr::Var(n) => {
                if let Some(v) = self.view_of(n, frame) {
                    return Ok(v);
                }
                // Unbound name: allocate a fresh scalar (implicit local).
                let slot = self.st.mem.alloc(Type::implicit_for(n), 1)?;
                Ok(View::scalar(slot, 0))
            }
            Expr::Index(n, subs) => {
                let base = self
                    .view_of(n, frame)
                    .ok_or_else(|| RtError::new(format!("undefined array {n}")))?;
                let mut idx = Vec::with_capacity(subs.len());
                for s in subs {
                    idx.push(self.eval(s, frame)?.as_i());
                }
                let slot_len = self.st.mem.slots[base.slot].data.len();
                let off = base
                    .flat(&idx, slot_len)
                    .ok_or_else(|| RtError::new(format!("subscript out of range for {n}")))?;
                Ok(View {
                    slot: base.slot,
                    offset: off,
                    dims: vec![0],
                })
            }
            // Non-lvalue: pass a copy (the callee must not write it).
            e => {
                let v = self.eval(e, frame)?;
                let ty = match v {
                    Scalar::I(_) => Type::Integer,
                    Scalar::F(_) => Type::Double,
                    Scalar::B(_) => Type::Logical,
                };
                let slot = self.st.mem.alloc(ty, 1)?;
                self.st.mem.slots[slot].set(0, v);
                Ok(View::scalar(slot, 0))
            }
        }
    }

    fn view_of(&self, name: &str, frame: &Frame) -> Option<View> {
        frame.views.get(name).cloned()
    }

    fn assign(&mut self, lhs: &Expr, val: Scalar, frame: &Frame) -> Result<(), RtError> {
        match lhs {
            Expr::Var(n) => {
                let view = match self.view_of(n, frame) {
                    Some(v) => v,
                    None => return Err(RtError::new(format!("assignment to undeclared {n}"))),
                };
                if view.is_scalar() {
                    self.store(&view, &[], val)
                } else {
                    // Whole-array assignment (annotation collective form).
                    let len = view.len(self.st.mem.slots[view.slot].data.len());
                    for k in 0..len {
                        let v2 = View::scalar(view.slot, view.offset + k);
                        self.store(&v2, &[], val)?;
                    }
                    Ok(())
                }
            }
            Expr::Index(n, subs) => {
                let view = self
                    .view_of(n, frame)
                    .ok_or_else(|| RtError::new(format!("undefined array {n}")))?;
                let mut idx = Vec::with_capacity(subs.len());
                for s in subs {
                    idx.push(self.eval(s, frame)?.as_i());
                }
                self.store(&view, &idx, val)
            }
            Expr::Section(n, ranges) => {
                // Fill the section elementwise.
                let view = self
                    .view_of(n, frame)
                    .ok_or_else(|| RtError::new(format!("undefined array {n}")))?;
                let slot_len = self.st.mem.slots[view.slot].data.len();
                let dims = &view.dims;
                let mut bounds = Vec::new();
                for (k, r) in ranges.iter().enumerate() {
                    let extent = dims.get(k).copied().unwrap_or(1).max(1) as i64;
                    match r {
                        SecRange::Full => bounds.push((1, extent)),
                        SecRange::At(e) => {
                            let v = self.eval(e, frame)?.as_i();
                            bounds.push((v, v));
                        }
                        SecRange::Range { lo, hi, .. } => {
                            let l = match lo {
                                Some(e) => self.eval(e, frame)?.as_i(),
                                None => 1,
                            };
                            let h = match hi {
                                Some(e) => self.eval(e, frame)?.as_i(),
                                None => extent,
                            };
                            bounds.push((l, h));
                        }
                    }
                }
                let mut idx: Vec<i64> = bounds.iter().map(|&(l, _)| l).collect();
                loop {
                    if view.flat(&idx, slot_len).is_some() {
                        self.store(&view, &idx, val)?;
                    }
                    // Odometer increment.
                    let mut k = 0;
                    loop {
                        if k == idx.len() {
                            return Ok(());
                        }
                        idx[k] += 1;
                        if idx[k] <= bounds[k].1 {
                            break;
                        }
                        idx[k] = bounds[k].0;
                        k += 1;
                    }
                    self.tick(1)?;
                }
            }
            other => Err(RtError::new(format!("invalid assignment target {other:?}"))),
        }
    }

    /// Memory write with logging and race recording.
    fn store(&mut self, view: &View, idx: &[i64], val: Scalar) -> Result<(), RtError> {
        let off = self
            .st
            .mem
            .write(view, idx, val)
            .ok_or_else(|| RtError::new("subscript out of range on store"))?;
        if let Some(log) = &mut self.st.write_log {
            log.push((view.slot, off, self.st.mem.slots[view.slot].data[off]));
        }
        self.record_access(view.slot, off, true);
        Ok(())
    }

    fn record_access(&mut self, slot: usize, off: usize, is_write: bool) {
        if self.st.excluded.binary_search(&slot).is_ok() {
            return;
        }
        let Some((map, cur)) = &mut self.st.race_map else {
            return;
        };
        let cur = *cur;
        let (iter, write) = map.entry((slot, off)).or_insert((cur, false));
        if let Some(earlier) = race_step(iter, write, cur, is_write) {
            report_race(
                &mut self.st.races,
                &mut self.st.race_reported,
                (slot, off),
                earlier,
                cur,
            );
        }
    }

    fn eval(&mut self, e: &Expr, frame: &Frame) -> Result<Scalar, RtError> {
        self.tick(1)?;
        match e {
            Expr::Int(v) => Ok(Scalar::I(*v)),
            Expr::Real(R64(x)) => Ok(Scalar::F(*x)),
            Expr::Logical(b) => Ok(Scalar::B(*b)),
            Expr::Str(_) => Err(RtError::new("string in arithmetic context")),
            Expr::Var(n) => {
                let view = self
                    .view_of(n, frame)
                    .ok_or_else(|| RtError::new(format!("undefined variable {n}")))?;
                if !view.is_scalar() {
                    // Whole-array read in scalar context: first element
                    // (annotation atomic-scalar idiom).
                    let v = View::scalar(view.slot, view.offset);
                    let val = self
                        .st
                        .mem
                        .read(&v, &[])
                        .ok_or_else(|| RtError::new("bad read"))?;
                    self.record_access(view.slot, view.offset, false);
                    return Ok(val);
                }
                let val = self
                    .st
                    .mem
                    .read(&view, &[])
                    .ok_or_else(|| RtError::new(format!("bad read of {n}")))?;
                self.record_access(view.slot, view.offset, false);
                Ok(val)
            }
            Expr::Index(n, subs) => {
                let view = self
                    .view_of(n, frame)
                    .ok_or_else(|| RtError::new(format!("undefined array {n}")))?;
                let mut idx = Vec::with_capacity(subs.len());
                for s in subs {
                    idx.push(self.eval(s, frame)?.as_i());
                }
                let slot_len = self.st.mem.slots[view.slot].data.len();
                let off = view.flat(&idx, slot_len).ok_or_else(|| {
                    RtError::new(format!("subscript out of range for {n}{idx:?}"))
                })?;
                self.record_access(view.slot, off, false);
                Ok(self.st.mem.slots[view.slot].get(off))
            }
            Expr::Section(_, _) => Err(RtError::new("array section in scalar context")),
            Expr::Intrinsic(i, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, frame)?);
                }
                eval_intrinsic(*i, &vals)
            }
            Expr::Bin(op, l, r) => {
                let a = self.eval(l, frame)?;
                let b = self.eval(r, frame)?;
                eval_bin(*op, a, b)
            }
            Expr::Un(UnOp::Neg, inner) => match self.eval(inner, frame)? {
                Scalar::I(v) => Ok(Scalar::I(v.wrapping_neg())),
                Scalar::F(v) => Ok(Scalar::F(-v)),
                Scalar::B(_) => Err(RtError::new("negation of logical")),
            },
            Expr::Un(UnOp::Not, inner) => Ok(Scalar::B(!self.eval(inner, frame)?.as_b())),
            // The abstraction operators execute as deterministic hash
            // functions so tests can run annotated (not-yet-reversed) code.
            Expr::Unknown(id, args) => {
                let mut h = 0x9E3779B97F4A7C15u64 ^ (*id as u64);
                for a in args {
                    let v = self.eval(a, frame)?.as_f();
                    h = h.wrapping_mul(0x100000001B3).wrapping_add(v.to_bits());
                }
                Ok(Scalar::F((h % 1_000_000) as f64 / 1_000_000.0))
            }
            Expr::Unique(id, args) => {
                let mut h = 0xDEADBEEFu64 ^ (*id as u64);
                for a in args {
                    let v = self.eval(a, frame)?.as_i();
                    h = h.wrapping_mul(31).wrapping_add(v as u64);
                }
                Ok(Scalar::I((h % (1 << 31)) as i64))
            }
        }
    }
}

#[inline]
pub(crate) fn eval_bin(op: BinOp, a: Scalar, b: Scalar) -> Result<Scalar, RtError> {
    use BinOp::*;
    let both_int = matches!(a, Scalar::I(_)) && matches!(b, Scalar::I(_));
    match op {
        Add | Sub | Mul | Div | Pow => {
            if both_int {
                let (x, y) = (a.as_i(), b.as_i());
                let v = match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    Div => {
                        if y == 0 {
                            return Err(RtError::new("integer division by zero"));
                        }
                        x.wrapping_div(y)
                    }
                    Pow => {
                        if y < 0 {
                            0
                        } else {
                            x.checked_pow(y.min(62) as u32).unwrap_or(i64::MAX)
                        }
                    }
                    _ => unreachable!(),
                };
                Ok(Scalar::I(v))
            } else {
                let (x, y) = (a.as_f(), b.as_f());
                let v = match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    Pow => x.powf(y),
                    _ => unreachable!(),
                };
                Ok(Scalar::F(v))
            }
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            let (x, y) = (a.as_f(), b.as_f());
            let v = match op {
                Eq => x == y,
                Ne => x != y,
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                _ => unreachable!(),
            };
            Ok(Scalar::B(v))
        }
        And => Ok(Scalar::B(a.as_b() && b.as_b())),
        Or => Ok(Scalar::B(a.as_b() || b.as_b())),
    }
}

pub(crate) fn eval_intrinsic(i: Intrinsic, args: &[Scalar]) -> Result<Scalar, RtError> {
    let need = |n: usize| {
        if args.len() < n {
            Err(RtError::new(format!("intrinsic {i:?} needs {n} args")))
        } else {
            Ok(())
        }
    };
    match i {
        Intrinsic::Mod => {
            need(2)?;
            if matches!(args[0], Scalar::I(_)) && matches!(args[1], Scalar::I(_)) {
                let m = args[1].as_i();
                if m == 0 {
                    return Err(RtError::new("MOD by zero"));
                }
                Ok(Scalar::I(args[0].as_i().wrapping_rem(m)))
            } else {
                Ok(Scalar::F(args[0].as_f() % args[1].as_f()))
            }
        }
        Intrinsic::Abs => {
            need(1)?;
            Ok(match args[0] {
                Scalar::I(v) => Scalar::I(v.wrapping_abs()),
                other => Scalar::F(other.as_f().abs()),
            })
        }
        Intrinsic::Min | Intrinsic::Max => {
            need(1)?;
            let int = args.iter().all(|a| matches!(a, Scalar::I(_)));
            if int {
                let it = args.iter().map(|a| a.as_i());
                Ok(Scalar::I(
                    if i == Intrinsic::Min {
                        it.min()
                    } else {
                        it.max()
                    }
                    .unwrap(),
                ))
            } else {
                let mut acc = args[0].as_f();
                for a in &args[1..] {
                    let v = a.as_f();
                    acc = if i == Intrinsic::Min {
                        acc.min(v)
                    } else {
                        acc.max(v)
                    };
                }
                Ok(Scalar::F(acc))
            }
        }
        Intrinsic::Sqrt => {
            need(1)?;
            Ok(Scalar::F(args[0].as_f().sqrt()))
        }
        Intrinsic::Int => {
            need(1)?;
            Ok(Scalar::I(args[0].as_i()))
        }
        Intrinsic::Dble => {
            need(1)?;
            Ok(Scalar::F(args[0].as_f()))
        }
        Intrinsic::Exp => {
            need(1)?;
            Ok(Scalar::F(args[0].as_f().exp()))
        }
        Intrinsic::Log => {
            need(1)?;
            Ok(Scalar::F(args[0].as_f().ln()))
        }
        Intrinsic::Sin => {
            need(1)?;
            Ok(Scalar::F(args[0].as_f().sin()))
        }
        Intrinsic::Cos => {
            need(1)?;
            Ok(Scalar::F(args[0].as_f().cos()))
        }
        Intrinsic::Sign => {
            need(2)?;
            let mag = args[0].as_f().abs();
            let v = if args[1].as_f() < 0.0 { -mag } else { mag };
            Ok(match args[0] {
                Scalar::I(_) => Scalar::I(v as i64),
                _ => Scalar::F(v),
            })
        }
    }
}

/// What one chunk of a threaded directive loop produced.
struct ChunkOut {
    log: Vec<(usize, usize, f64)>,
    io: Vec<String>,
    ops: u64,
    red_finals: Vec<f64>,
    flow_stop: Option<String>,
    err: Option<RtError>,
}

/// Execute one chunk of a directive loop on its own arena, returning the
/// chunk result plus the arena for reuse. Shared by the OS-thread and
/// inline execution paths so both produce identical results.
#[allow(clippy::too_many_arguments)]
fn exec_chunk(
    ctx: &Ctx<'_>,
    opts: &ExecOptions,
    mem: Memory,
    red_slots: &[(RedOp, View, f64)],
    var_view: &View,
    frame: &Frame,
    unit: &str,
    d: &DoLoop,
    chunk: &[i64],
) -> (ChunkOut, Memory) {
    let mut st = State {
        mem,
        write_log: Some(Vec::new()),
        par_depth: 1,
        ..Default::default()
    };
    // Reduction slots start at the identity in each chunk.
    for (op, v, _) in red_slots {
        st.mem.write(v, &[], Scalar::F(red_identity(*op)));
    }
    let mut t = Interp { ctx, st, opts };
    let mut flow_stop = None;
    let mut err = None;
    for &i in chunk {
        t.st.mem.write(var_view, &[], Scalar::I(i));
        match t.exec_block(&d.body, frame, unit) {
            Ok(Flow::Normal) => {}
            Ok(Flow::Stop(m)) => {
                flow_stop = Some(m);
                break;
            }
            Ok(Flow::Return) => break,
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    let red_finals = red_slots
        .iter()
        .map(|(_, v, _)| t.st.mem.read(v, &[]).map(|s| s.as_f()).unwrap_or(0.0))
        .collect();
    let State {
        mem,
        io,
        ops,
        write_log,
        ..
    } = t.st;
    (
        ChunkOut {
            log: write_log.unwrap_or_default(),
            io,
            ops,
            red_finals,
            flow_stop,
            err,
        },
        mem,
    )
}

/// The value a reduction slot starts each chunk at.
pub(crate) fn red_identity(op: RedOp) -> f64 {
    match op {
        RedOp::Add => 0.0,
        RedOp::Mul => 1.0,
        RedOp::Min => f64::INFINITY,
        RedOp::Max => f64::NEG_INFINITY,
    }
}

/// Fold one chunk's final reduction value `x` into the accumulator.
pub(crate) fn red_fold(op: RedOp, acc: f64, x: f64) -> f64 {
    match op {
        RedOp::Add => acc + x,
        RedOp::Mul => acc * x,
        RedOp::Min => acc.min(x),
        RedOp::Max => acc.max(x),
    }
}

/// The lengths of the contiguous chunks the chunked gate splits a
/// directive loop of `n` iterations into, in iteration order: `threads`
/// chunks, but no more than `n` and at least one (an empty loop runs one
/// empty chunk); the first `n % chunks` are one iteration longer.
pub(crate) fn chunk_lens(n: usize, threads: usize) -> impl ExactSizeIterator<Item = usize> {
    let chunks = threads.min(n).max(1);
    let (base, extra) = (n / chunks, n % chunks);
    (0..chunks).map(move |k| base + usize::from(k < extra))
}

/// The race-table entry rule both engines record each shared access of a
/// directive loop with. An entry keeps the last iteration that touched
/// its element and whether any access wrote it; a fresh entry is
/// `(cur, false)`. An access by iteration `cur` conflicts when the
/// iterations differ and either access writes: the entry keeps its
/// iteration, which is returned for the report. Otherwise the access
/// takes the entry over.
#[inline(always)]
pub(crate) fn race_step(iter: &mut i64, write: &mut bool, cur: i64, is_write: bool) -> Option<i64> {
    let conflict = *iter != cur && (is_write || *write);
    *write |= is_write;
    if conflict {
        return Some(*iter);
    }
    *iter = cur;
    None
}

/// Report a conflict at `(slot, offset)` between iterations `earlier` and
/// `cur`, once per slot per directive-loop instance (`reported` holds the
/// slots this instance already reported).
pub(crate) fn report_race(
    races: &mut Vec<RaceViolation>,
    reported: &mut SlotSet,
    (slot, off): (usize, usize),
    earlier: i64,
    cur: i64,
) {
    if reported.insert(slot) {
        races.push(RaceViolation {
            id: LoopId::new("?", 0),
            what: format!(
                "cross-iteration conflict on slot {slot} offset {off} (iters {earlier} and {cur})"
            ),
        });
    }
}

/// One item of a list-directed WRITE.
pub(crate) enum WriteItem<'a> {
    /// A string literal, printed verbatim.
    Str(&'a str),
    /// An evaluated value.
    Val(Scalar),
}

/// Append item `k` (counted from 0) to a WRITE line: a space before every
/// item but the first, then its text — an integer plain, a real as
/// `{:.9E}`, a logical as `T` or `F`.
pub(crate) fn write_item(line: &mut String, k: usize, item: WriteItem<'_>) {
    use std::fmt::Write as _;
    if k > 0 {
        line.push(' ');
    }
    let _ = match item {
        WriteItem::Str(s) => line.write_str(s),
        WriteItem::Val(Scalar::I(i)) => write!(line, "{i}"),
        WriteItem::Val(Scalar::F(x)) => write!(line, "{x:.9E}"),
        WriteItem::Val(Scalar::B(b)) => line.write_str(if b { "T" } else { "F" }),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::parser::parse;

    fn run_src(src: &str) -> RunResult {
        run(&parse(src).unwrap(), &ExecOptions::default()).unwrap()
    }

    #[test]
    fn chunk_lengths_partition_the_iterations_evenly() {
        let lens = |n, threads| chunk_lens(n, threads).collect::<Vec<_>>();
        assert_eq!(lens(10, 4), [3, 3, 2, 2]);
        assert_eq!(lens(0, 4), [0]);
        assert_eq!(lens(3, 4), [1, 1, 1]);
    }

    #[test]
    fn race_entries_conflict_across_iterations_when_one_access_writes() {
        // A read, then a write, in one iteration: no conflict.
        let (mut iter, mut write) = (0, false);
        assert_eq!(race_step(&mut iter, &mut write, 0, false), None);
        assert_eq!(race_step(&mut iter, &mut write, 0, true), None);
        assert_eq!((iter, write), (0, true));
        // A write, then a read in another iteration: a conflict that
        // names the earlier iteration.
        let (mut iter, mut write) = (2, false);
        assert_eq!(race_step(&mut iter, &mut write, 2, true), None);
        assert_eq!(race_step(&mut iter, &mut write, 5, false), Some(2));
        // Two reads in different iterations: no conflict.
        let (mut iter, mut write) = (0, false);
        assert_eq!(race_step(&mut iter, &mut write, 0, false), None);
        assert_eq!(race_step(&mut iter, &mut write, 1, false), None);
        assert_eq!((iter, write), (1, false));
    }

    #[test]
    fn a_race_is_reported_once_per_slot() {
        let (mut races, mut reported) = (Vec::new(), SlotSet::default());
        report_race(&mut races, &mut reported, (3, 7), 0, 1);
        report_race(&mut races, &mut reported, (3, 8), 1, 2);
        assert_eq!(races.len(), 1);
        assert!(races[0]
            .what
            .ends_with(" on slot 3 offset 7 (iters 0 and 1)"));
    }

    #[test]
    fn write_items_print_list_directed() {
        let mut line = String::new();
        write_item(&mut line, 0, WriteItem::Val(Scalar::I(-42)));
        write_item(&mut line, 1, WriteItem::Val(Scalar::F(2.5)));
        write_item(&mut line, 2, WriteItem::Val(Scalar::B(true)));
        write_item(&mut line, 3, WriteItem::Str("X="));
        assert_eq!(line, "-42 2.500000000E0 T X=");
    }

    #[test]
    fn common_layout_lists_members_in_unit_then_name_order() {
        let p = parse(
            "      PROGRAM P
      PARAMETER (N = 4)
      COMMON /B/ Z(N), A
      COMMON /C/ Q(M)
      END
      SUBROUTINE S
      COMMON /D/ W(3, 2)
      END
",
        )
        .unwrap();
        let tables: Vec<SymbolTable> = p.units.iter().map(SymbolTable::build).collect();
        let layout: Vec<(&str, &str, Option<usize>)> = common_layout(&tables)
            .into_iter()
            .map(|(block, sym, len)| (block.as_str(), sym.name.as_str(), len))
            .collect();
        assert_eq!(
            layout,
            [
                ("B", "A", Some(1)),
                ("C", "Q", None),
                ("B", "Z", Some(4)),
                ("D", "W", Some(6)),
            ]
        );
    }

    #[test]
    fn arithmetic_and_io() {
        let r = run_src(
            "      PROGRAM P
      X = 3.0
      Y = X**2 + 1.0
      I = 7/2
      WRITE(6,*) 'Y=', Y
      WRITE(6,*) I
      END
",
        );
        assert_eq!(r.io[0], "Y= 1.000000000E1");
        assert_eq!(r.io[1], "3"); // integer division
    }

    #[test]
    fn do_loops_and_arrays() {
        let r = run_src(
            "      PROGRAM P
      DIMENSION A(10)
      DO I = 1, 10
        A(I) = I*2
      ENDDO
      S = 0.0
      DO I = 1, 10
        S = S + A(I)
      ENDDO
      WRITE(6,*) S
      END
",
        );
        assert_eq!(r.io[0], "1.100000000E2");
    }

    #[test]
    fn call_frames_reclaimed_despite_callee_only_common() {
        // The callee declares a COMMON block main never mentions plus big
        // locals. Every frame must be reclaimed: the slot count after the
        // run must not grow with the call count (the old `release` pinned
        // every local allocated below a lazily created COMMON slot).
        let src = |calls: usize| {
            format!(
                "      PROGRAM P
      DIMENSION A(4)
      DO I = 1, {calls}
        CALL W(I)
      ENDDO
      A(1) = 1.0
      END
      SUBROUTINE W(K)
      COMMON /LZ/ Q(5)
      DIMENSION TMP(50)
      TMP(1) = K
      Q(K) = TMP(1)
      END
"
            )
        };
        let one = run_src(&src(1));
        let many = run_src(&src(3));
        assert_eq!(one.memory.slots.len(), many.memory.slots.len());
        // The COMMON is pre-allocated and retains the last call's write.
        let q = many.memory.commons[&crate::memory::common_key("LZ", "Q")];
        assert_eq!(many.memory.slots[q].get(2), Scalar::F(3.0));
    }

    #[test]
    fn runaway_recursion_errors_instead_of_overflowing() {
        // MiniF77 forbids recursion, but mutated inputs (the chaos
        // harness rewires call graphs) can manufacture cycles. Both
        // engines must cut the run off with a structured budget-class
        // error well before the native stack runs out.
        let src = "      PROGRAM P
      CALL A(1)
      END
      SUBROUTINE A(K)
      CALL B(K)
      END
      SUBROUTINE B(K)
      CALL A(K)
      END
";
        let p = parse(src).unwrap();
        for engine in [Engine::TreeWalk, Engine::Bytecode] {
            let opts = ExecOptions {
                engine,
                ..Default::default()
            };
            let err = run(&p, &opts).expect_err("recursive program must fail");
            assert!(err.is_budget(), "{engine:?}: {err:?}");
            assert!(err.message.contains("call depth"), "{engine:?}: {err:?}");
        }
    }

    #[test]
    fn column_major_common_and_calls() {
        let r = run_src(
            "      PROGRAM P
      COMMON /BLK/ M(2, 3)
      CALL FILL
      WRITE(6,*) M(2, 1), M(1, 2)
      END
      SUBROUTINE FILL
      COMMON /BLK/ M(2, 3)
      K = 0
      DO J = 1, 3
        DO I = 1, 2
          K = K + 1
          M(I, J) = K
        ENDDO
      ENDDO
      END
",
        );
        assert_eq!(r.io[0], "2 3");
    }

    #[test]
    fn sequence_association_aliasing() {
        // CALL S(T(4)) makes the formal alias T starting at element 4.
        let r = run_src(
            "      PROGRAM P
      COMMON /B/ T(10)
      CALL S(T(4))
      WRITE(6,*) T(4), T(5)
      END
      SUBROUTINE S(X)
      DIMENSION X(*)
      X(1) = 41.0
      X(2) = 42.0
      END
",
        );
        assert_eq!(r.io[0], "4.100000000E1 4.200000000E1");
    }

    #[test]
    fn reshape_across_call() {
        // 1-D view of a 2-D array (sequence association).
        let r = run_src(
            "      PROGRAM P
      COMMON /B/ A(2, 2)
      CALL S(A(1, 1))
      WRITE(6,*) A(2, 1), A(1, 2)
      END
      SUBROUTINE S(V)
      DIMENSION V(4)
      V(2) = 21.0
      V(3) = 12.0
      END
",
        );
        assert_eq!(r.io[0], "2.100000000E1 1.200000000E1");
    }

    #[test]
    fn stop_terminates_with_message() {
        let r = run_src(
            "      PROGRAM P
      X = 1.0
      IF (X .GT. 0.0) THEN
        STOP 'F SINGULAR'
      ENDIF
      WRITE(6,*) 'UNREACHED'
      END
",
        );
        assert_eq!(r.stopped.as_deref(), Some("F SINGULAR"));
        assert!(r.io.is_empty());
    }

    #[test]
    fn stop_inside_subroutine_unwinds() {
        let r = run_src(
            "      PROGRAM P
      CALL BAD
      WRITE(6,*) 'UNREACHED'
      END
      SUBROUTINE BAD
      STOP 'ABORT'
      END
",
        );
        assert_eq!(r.stopped.as_deref(), Some("ABORT"));
        assert!(r.io.is_empty());
    }

    #[test]
    fn parameters_and_implicit_typing() {
        let r = run_src(
            "      PROGRAM P
      PARAMETER (N = 4)
      DIMENSION A(N)
      DO I = 1, N
        A(I) = I
      ENDDO
      WRITE(6,*) A(N)
      END
",
        );
        assert_eq!(r.io[0], "4.000000000E0");
    }

    #[test]
    fn negative_step_loops() {
        let r = run_src(
            "      PROGRAM P
      K = 0
      DO I = 10, 1, -2
        K = K + I
      ENDDO
      WRITE(6,*) K
      END
",
        );
        assert_eq!(r.io[0], "30");
    }

    #[test]
    fn parallel_loop_matches_sequential() {
        let src = "      PROGRAM P
      DIMENSION A(64), B(64)
      DO I = 1, 64
        B(I) = I*1.5
      ENDDO
      DO I = 1, 64
        A(I) = B(I)*2.0 + 1.0
      ENDDO
      S = 0.0
      DO I = 1, 64
        S = S + A(I)
      ENDDO
      WRITE(6,*) S
      END
";
        let mut p = parse(src).unwrap();
        // Attach a directive to the middle loop and a reduction to the last.
        let mut k = 0;
        fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
            k += 1;
            if k == 2 {
                d.directive = Some(OmpDirective::default());
            }
            if k == 3 {
                d.directive = Some(OmpDirective {
                    reductions: vec![(RedOp::Add, "S".into())],
                    ..Default::default()
                });
            }
        });
        let seq = run(&p, &ExecOptions::default()).unwrap();
        let par = run(
            &p,
            &ExecOptions {
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            seq.same_observable(&par, 1e-12),
            "{:?} vs {:?}",
            seq.io,
            par.io
        );
        assert_eq!(seq.io[0], "6.304000000E3");
    }

    #[test]
    fn illegal_parallelization_changes_results() {
        // A recurrence wrongly marked parallel: the chunked run must
        // diverge from sequential (that is how runtime testing catches bad
        // annotations).
        let src = "      PROGRAM P
      COMMON /B/ A(64)
      A(1) = 1.0
      DO I = 2, 64
        A(I) = A(I - 1) + 1.0
      ENDDO
      WRITE(6,*) A(64)
      END
";
        let mut p = parse(src).unwrap();
        fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
            d.directive = Some(OmpDirective::default());
        });
        let seq = run(&p, &ExecOptions::default()).unwrap();
        let par = run(
            &p,
            &ExecOptions {
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!seq.same_observable(&par, 1e-9));
    }

    #[test]
    fn race_checker_flags_recurrence() {
        let src = "      PROGRAM P
      COMMON /B/ A(64)
      DO I = 2, 64
        A(I) = A(I - 1) + 1.0
      ENDDO
      END
";
        let mut p = parse(src).unwrap();
        fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
            d.directive = Some(OmpDirective::default());
        });
        let r = run(
            &p,
            &ExecOptions {
                check_races: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!r.races.is_empty());
    }

    #[test]
    fn race_checker_passes_clean_loop() {
        let src = "      PROGRAM P
      COMMON /B/ A(64)
      DO I = 1, 64
        A(I) = I*2.0
      ENDDO
      END
";
        let mut p = parse(src).unwrap();
        fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
            d.directive = Some(OmpDirective::default());
        });
        let r = run(
            &p,
            &ExecOptions {
                check_races: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.races.is_empty(), "{:?}", r.races);
    }

    #[test]
    fn par_events_account_directive_loops() {
        let src = "      PROGRAM P
      DIMENSION A(100)
      DO I = 1, 100
        A(I) = I*2.0
      ENDDO
      END
";
        let mut p = parse(src).unwrap();
        fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
            d.directive = Some(OmpDirective::default());
        });
        let r = run(&p, &ExecOptions::default()).unwrap();
        assert_eq!(r.par_events.len(), 1);
        assert_eq!(r.par_events[0].iters, 100);
        assert!(r.par_events[0].ops > 100);
        assert!(r.total_ops > r.par_events[0].ops);
    }

    #[test]
    fn fuel_limit_catches_runaways() {
        let src = "      PROGRAM P
      DO I = 1, 100000
        DO J = 1, 100000
          X = X + 1.0
        ENDDO
      ENDDO
      END
";
        let p = parse(src).unwrap();
        let err = run(
            &p,
            &ExecOptions {
                max_ops: 10_000,
                ..Default::default()
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn intrinsics_behave() {
        let r = run_src(
            "      PROGRAM P
      WRITE(6,*) MOD(7, 3), ABS(-4), MAX(2, 9), MIN(2, 9)
      WRITE(6,*) SQRT(16.0), INT(3.7)
      END
",
        );
        assert_eq!(r.io[0], "1 4 9 2");
        assert_eq!(r.io[1], "4.000000000E0 3");
    }

    #[test]
    fn formal_array_dims_from_scalar_formals() {
        // DIMENSION M1(L, N) with L, N passed as arguments.
        let r = run_src(
            "      PROGRAM P
      COMMON /B/ A(12)
      CALL S(A(1), 3, 4)
      WRITE(6,*) A(5)
      END
      SUBROUTINE S(M1, L, N)
      DIMENSION M1(L, N)
      M1(2, 2) = 99.0
      END
",
        );
        // M1(2,2) = element (2-1) + (2-1)*3 = offset 4 = A(5).
        assert_eq!(r.io[0], "9.900000000E1");
    }

    #[test]
    fn whole_array_assignment() {
        use fir::ast::StmtKind;
        let mut p = parse(
            "      PROGRAM P
      COMMON /B/ XY(6)
      X = 1.0
      WRITE(6,*) XY(1), XY(6)
      END
",
        )
        .unwrap();
        // Turn `X = 1.0` into the whole-array form `XY = 1.0`.
        if let StmtKind::Assign { lhs, .. } = &mut p.units[0].body[0].kind {
            *lhs = Expr::var("XY");
        }
        let r = run(&p, &ExecOptions::default()).unwrap();
        assert_eq!(r.io[0], "1.000000000E0 1.000000000E0");
    }
}
