//! Slot-resolved register VM — the fast path of the runtime testers.
//!
//! The tree-walker in [`crate::interp`] re-resolves every variable
//! reference through an `Ident → HashMap<Ident, View>` lookup, collects
//! every DO loop's iteration space into a `Vec<i64>` up front, allocates a
//! fresh subscript vector per array access, and bumps the op budget once
//! per AST node. This module removes all four costs while preserving the
//! tree-walker's observable semantics *exactly* — same io, same total op
//! count, same `ParLoopEvent`s, same races, same final memory:
//!
//! * each [`ProcUnit`] is lowered once into one typed three-address body
//!   (the private `treg` module) whose operands are frame-local indices
//!   resolved at compile time; a frame is a window of bare `(slot, offset)`
//!   registers on one flat register stack (shapes live in a side arena),
//!   released by truncation so steady-state calls allocate nothing;
//! * DO loops execute as jump-back instructions with an arithmetic trip
//!   count — no iteration vector is ever materialized;
//! * op accounting is amortized to straight-line runs: one `Tick` carries
//!   the statically known cost of a maximal block of simple statements.
//!   Totals stay byte-identical because the reference engine's per-node
//!   costs are static (its `eval` never short-circuits) and every point
//!   where an op counter is *observed* — `ParLoopEvent::ops` capture at a
//!   directive-loop head — is a run barrier.
//!
//! **One body per bound type classes.** The typed body picks each
//! operation from the static type of its operands, but Fortran lets a
//! caller bind an INTEGER actual to a REAL formal, and a COMMON member can
//! be redeclared at another type in another unit. Frame build therefore
//! reads the type class of the storage each such local is bound to (the
//! unit's *guards*). When every class matches the declaration the frame
//! runs the body lowered at compile time; otherwise it runs a body lowered
//! with those bound classes in place of the declared ones — exact, because
//! the reference engine types every read by its slot. Such specialized
//! bodies are lowered on first use and cached on the program, so a
//! steady state allocates nothing. A program whose units overflow the
//! packed typed encoding (more than 255 arguments or subscripts, more
//! than `u16` locals or registers) is marked at [`compile`] time, and
//! [`run_compiled`] runs it on the tree-walker, the oracle.
//!
//! The race checker is rebuilt on the same epoch idea the ROADMAP queued:
//! instead of a `(slot, offset) → (iter, had_write)` hash map cleared per
//! loop, a per-slot vector of `(generation, iter, had_write)` entries kept
//! across directive loops. Bumping the generation invalidates every entry
//! at once, so `record` is two array indexings and a compare, with zero
//! steady-state allocation — the vector analogue of `race_scratch`.
//!
//! Compile once, run many: [`compile`] + [`run_compiled`] let `verify`
//! lower a program a single time for its sequential and chunked runs.
//! [`CompiledProgram`] borrows the source program and is `Sync`, so the
//! driver's workers share it without cloning.

use crate::interp::{
    chunk_lens, common_layout, race_step, red_fold, red_identity, report_race, Engine, ExecOptions,
    ParLoopEvent, RaceViolation, RtError, RunResult, VmCounters, DEFAULT_MAX_OPS, MAX_CALL_DEPTH,
};
use crate::memory::{Memory, Scalar};
use crate::treg::{exec_typed, lower_typed, ty_class, TypedUnit};
use fir::ast::*;
use fir::symbol::{Storage, Symbol, SymbolTable};
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Compiled form

/// Static description of one DO loop of a typed body.
#[derive(Debug, Clone)]
pub(crate) struct LoopMeta {
    pub(crate) var: u32,
    /// First instruction of the body (the one after `DoInit`).
    pub(crate) body_pc: u32,
    /// First instruction after the loop (the one after `DoNext`).
    pub(crate) exit_pc: u32,
    pub(crate) id: LoopId,
    pub(crate) dir: Option<DirPlan>,
    /// When the body opens with a `Tick`/`TickP`, its cost — the
    /// back-edge charges it and re-enters past the tick (identical op
    /// totals and budget positions, one fewer dispatch per iteration).
    /// 0 when the body has no leading tick.
    pub(crate) body_cost: u64,
}

/// Compile-time view of a loop's parallel directive.
#[derive(Debug, Clone)]
pub(crate) struct DirPlan {
    /// private + lastprivate locals, in clause order.
    pub(crate) privates: Vec<u32>,
    pub(crate) reductions: Vec<(RedOp, u32)>,
}

/// One dimension of a section plan; bound values that exist sit in
/// consecutive value registers in declaration order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SecDimPlan {
    Full,
    At,
    Range { has_lo: bool, has_hi: bool },
}

/// How one frame-plan dimension resolves.
#[derive(Debug, Clone, Copy)]
enum DimPlan {
    Assumed,
    /// An integer literal: one op, no code.
    Lit(i64),
    /// Extent snippet `k` of the frame's body ([`TypedUnit::extents`]),
    /// evaluated against the frame under construction.
    Extent(u32),
}

/// PARAMETER constant materialized during frame build.
#[derive(Debug, Clone)]
struct ParamConstPlan {
    local: u32,
    ty: Type,
    /// Folded value; `None` reproduces the reference engine's
    /// "non-constant PARAMETER" runtime error.
    val: Option<i64>,
}

/// A COMMON member or local allocated during frame build (phase 3 order:
/// sorted by name).
#[derive(Debug, Clone)]
struct LocalPlan {
    local: u32,
    ty: Type,
    /// COMMON block name, or `None` for a plain local.
    block: Option<Ident>,
    dims: Vec<DimPlan>,
}

/// A local whose bound storage may carry another type class than its
/// declaration: every formal, and every COMMON member the program declares
/// at more than one class.
#[derive(Debug, Clone)]
struct Guard {
    local: u32,
    /// Declared class ([`ty_class`]).
    class: u8,
    /// The member's COMMON block (its class is read from the directory
    /// before phase 3 binds it); `None` for a formal.
    block: Option<Ident>,
}

/// Everything needed to build a call frame, phase for phase in the
/// reference engine's allocation order (slot indices must match).
#[derive(Debug, Clone, Default)]
pub(crate) struct FramePlan {
    nlocals: usize,
    /// Local index per formal position.
    formals: Vec<u32>,
    consts: Vec<ParamConstPlan>,
    locals: Vec<LocalPlan>,
    /// Array formals whose shapes re-resolve against the full frame
    /// (phase 4), in parameter order.
    formal_dims: Vec<(u32, Vec<DimPlan>)>,
    guards: Vec<Guard>,
}

/// A typed body lowered for one tuple of bound guard classes.
#[derive(Debug, Clone)]
struct Spec {
    /// Bound class per guard, in [`FramePlan::guards`] order.
    key: Box<[u8]>,
    body: TypedUnit,
    next: OnceLock<Box<Spec>>,
}

/// One lowered procedure unit.
#[derive(Debug, Clone)]
pub(crate) struct UnitCode {
    pub(crate) name: Ident,
    /// Local index → variable name (error messages only).
    pub(crate) names: Vec<Ident>,
    plan: FramePlan,
    /// The body for the declared type classes, lowered at compile time.
    body: TypedUnit,
    /// Bodies for other bound classes, lowered on first use: an
    /// append-only list, so a found body lives as long as the program.
    specs: OnceLock<Box<Spec>>,
}

/// A fully lowered program: immutable apart from its cache of specialized
/// bodies, and `Sync` — compile once, run from any number of threads.
#[derive(Debug, Clone)]
pub struct CompiledProgram<'p> {
    /// The source, for on-demand specialization and the reference route.
    src: &'p Program,
    pub(crate) units: Vec<UnitCode>,
    main: Option<usize>,
    /// Pre-resolved COMMON allocations `(block, member, ty, len)` in the
    /// reference engine's preallocation order.
    commons: Vec<(Ident, Ident, Type, usize)>,
    /// Program-wide literal pool: WRITE strings, STOP messages, lowered
    /// error texts. Instructions and [`Flow::Stop`] carry `u32` indices
    /// into this pool, so stop/error propagation across unit boundaries
    /// never clones a string — text materializes once, at the engine
    /// boundary in [`run_compiled`]. Never changes after [`compile`].
    pub(crate) strs: Vec<String>,
    /// Some unit overflows the typed encoding: the program runs on the
    /// tree-walker, and `units` is empty.
    reference: bool,
}

/// Deduplicating string interner backing [`CompiledProgram::strs`]. A
/// frozen pool (specialization) only looks strings up.
#[derive(Default)]
struct StrPool {
    strs: Vec<String>,
    map: HashMap<String, u32>,
    frozen: bool,
    /// A frozen pool was asked for a string it lacks.
    missed: bool,
}

impl StrPool {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.map.get(s) {
            return i;
        }
        if self.frozen {
            self.missed = true;
            return 0;
        }
        let i = self.strs.len() as u32;
        self.strs.push(s.to_string());
        self.map.insert(s.to_string(), i);
        i
    }
}

// ---------------------------------------------------------------------------
// Compiler

/// Exact op cost of evaluating `e`: one tick per node, no short-circuit —
/// mirrors the reference engine's `eval` recursion.
pub(crate) fn cost(e: &Expr) -> u64 {
    1 + match e {
        Expr::Int(_)
        | Expr::Real(_)
        | Expr::Logical(_)
        | Expr::Str(_)
        | Expr::Var(_)
        | Expr::Section(_, _) => 0,
        Expr::Index(_, subs) => subs.iter().map(cost).sum(),
        Expr::Intrinsic(_, args) | Expr::Unknown(_, args) | Expr::Unique(_, args) => {
            args.iter().map(cost).sum()
        }
        Expr::Bin(_, l, r) => cost(l) + cost(r),
        Expr::Un(_, inner) => cost(inner),
    }
}

/// Op cost of a call argument (`arg_view` in the reference engine):
/// variables bind without evaluation, element references evaluate their
/// subscripts, anything else evaluates the whole expression.
pub(crate) fn arg_cost(a: &Expr) -> u64 {
    match a {
        Expr::Var(_) => 0,
        Expr::Index(_, subs) => subs.iter().map(cost).sum(),
        e => cost(e),
    }
}

/// The statically known op cost a statement incurs before any control
/// transfer: its own tick plus every unconditionally evaluated expression.
pub(crate) fn leading_cost(s: &Stmt) -> u64 {
    1 + match &s.kind {
        StmtKind::Assign { lhs, rhs } => {
            cost(rhs)
                + match lhs {
                    Expr::Var(_) => 0,
                    Expr::Index(_, subs) => subs.iter().map(cost).sum(),
                    Expr::Section(_, ranges) => ranges
                        .iter()
                        .map(|r| match r {
                            SecRange::Full => 0,
                            SecRange::At(e) => cost(e),
                            SecRange::Range { lo, hi, .. } => {
                                lo.as_ref().map(|e| cost(e)).unwrap_or(0)
                                    + hi.as_ref().map(|e| cost(e)).unwrap_or(0)
                            }
                        })
                        .sum(),
                    _ => 0,
                }
        }
        StmtKind::If { cond, .. } => cost(cond),
        StmtKind::Do(d) => cost(&d.lo) + cost(&d.hi) + d.step.as_ref().map(cost).unwrap_or(0),
        StmtKind::Call { args, .. } => args.iter().map(arg_cost).sum(),
        StmtKind::Write { items, .. } => items
            .iter()
            .map(|it| {
                if matches!(it, Expr::Str(_)) {
                    0
                } else {
                    cost(it)
                }
            })
            .sum(),
        StmtKind::Stop { .. } | StmtKind::Return | StmtKind::Continue => 0,
        // A tagged body can stop/return, so its cost stays inside the
        // nested block's own runs.
        StmtKind::Tagged { .. } => 0,
    }
}

/// True when control can leave the straight line at this statement, ending
/// a tick-merge run.
pub(crate) fn is_barrier(s: &Stmt) -> bool {
    matches!(
        s.kind,
        StmtKind::If { .. }
            | StmtKind::Do(_)
            | StmtKind::Call { .. }
            | StmtKind::Stop { .. }
            | StmtKind::Return
            | StmtKind::Tagged { .. }
    )
}

/// The symbols frame build visits after the PARAMETER constants: COMMON
/// members and locals sorted by name (phase 3), then array formals in
/// parameter order (phase 4).
fn frame_symbols<'t>(
    unit: &ProcUnit,
    table: &'t SymbolTable,
) -> (Vec<&'t Symbol>, Vec<&'t Symbol>) {
    let mut locals: Vec<&Symbol> = table
        .iter()
        .filter(|s| matches!(s.storage, Storage::Common(_) | Storage::Local))
        .collect();
    locals.sort_by(|a, b| a.name.cmp(&b.name));
    let formals = unit
        .params
        .iter()
        .filter_map(|p| table.get(p))
        .filter(|s| s.is_array())
        .collect();
    (locals, formals)
}

/// The extents frame build evaluates as code, in evaluation order: entry
/// `k` is [`DimPlan::Extent`]`(k)`. Integer literals resolve without code.
fn frame_extents<'t>(unit: &ProcUnit, table: &'t SymbolTable) -> Vec<&'t Expr> {
    let (locals, formals) = frame_symbols(unit, table);
    locals
        .iter()
        .chain(&formals)
        .flat_map(|s| &s.dims)
        .filter_map(|d| match d {
            Dim::Extent(Expr::Int(_)) | Dim::Assumed => None,
            Dim::Extent(e) => Some(e),
        })
        .collect()
}

/// Per-unit lowering state: the local-name map and the program-wide
/// string pool the typed lowering ([`crate::treg`]) interns into.
pub(crate) struct UnitCompiler<'p> {
    pub(crate) names: Vec<Ident>,
    name_idx: HashMap<Ident, u32>,
    strs: &'p mut StrPool,
    pub(crate) unit_by_name: &'p HashMap<&'p str, usize>,
}

impl<'p> UnitCompiler<'p> {
    pub(crate) fn local(&mut self, name: &Ident) -> u32 {
        if let Some(&i) = self.name_idx.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.clone());
        self.name_idx.insert(name.clone(), i);
        i
    }

    pub(crate) fn stri(&mut self, s: &str) -> u32 {
        self.strs.intern(s)
    }

    fn dim_plan(d: &Dim, next: &mut u32) -> DimPlan {
        match d {
            Dim::Assumed => DimPlan::Assumed,
            Dim::Extent(Expr::Int(v)) => DimPlan::Lit(*v),
            Dim::Extent(_) => {
                *next += 1;
                DimPlan::Extent(*next - 1)
            }
        }
    }

    /// The frame plan of `unit`. `classes` holds every COMMON member's
    /// declared type classes across the program, one bit per class.
    fn frame_plan(
        &mut self,
        unit: &ProcUnit,
        table: &SymbolTable,
        classes: &BTreeMap<(&str, &str), u8>,
    ) -> FramePlan {
        let formals = unit.params.iter().map(|p| self.local(p)).collect();
        let mut consts = Vec::new();
        let mut guards = Vec::new();
        for sym in table.iter() {
            match &sym.storage {
                Storage::Param => {
                    let val = table.param_value(&sym.name).and_then(|e| e.as_int_const());
                    let local = self.local(&sym.name);
                    consts.push(ParamConstPlan {
                        local,
                        ty: sym.ty,
                        val,
                    });
                }
                Storage::Formal(_) => guards.push(Guard {
                    local: self.local(&sym.name),
                    class: ty_class(sym.ty),
                    block: None,
                }),
                Storage::Common(b) => {
                    let declared = classes.get(&(b.as_str(), sym.name.as_str()));
                    if declared.is_some_and(|c| c.count_ones() > 1) {
                        guards.push(Guard {
                            local: self.local(&sym.name),
                            class: ty_class(sym.ty),
                            block: Some(b.clone()),
                        });
                    }
                }
                Storage::Local => {}
            }
        }
        let (syms, formal_syms) = frame_symbols(unit, table);
        let mut next = 0;
        let locals = syms
            .into_iter()
            .map(|sym| LocalPlan {
                local: self.local(&sym.name),
                ty: sym.ty,
                block: match &sym.storage {
                    Storage::Common(b) => Some(b.clone()),
                    _ => None,
                },
                dims: sym
                    .dims
                    .iter()
                    .map(|d| Self::dim_plan(d, &mut next))
                    .collect(),
            })
            .collect();
        let formal_dims = formal_syms
            .into_iter()
            .map(|sym| {
                let dims = sym
                    .dims
                    .iter()
                    .map(|d| Self::dim_plan(d, &mut next))
                    .collect();
                (self.local(&sym.name), dims)
            })
            .collect();
        FramePlan {
            nlocals: 0, // patched after the body lowers
            formals,
            consts,
            locals,
            formal_dims,
            guards,
        }
    }
}

/// Unit name → first unit index with that name.
fn unit_index(p: &Program) -> HashMap<&str, usize> {
    let mut by_name = HashMap::new();
    for (i, u) in p.units.iter().enumerate() {
        by_name.entry(u.name.as_str()).or_insert(i);
    }
    by_name
}

/// Lower a program. Infallible: everything the reference engine reports
/// at runtime (undefined names, non-constant PARAMETERs, bad extents)
/// stays a runtime error here too.
pub fn compile(p: &Program) -> CompiledProgram<'_> {
    let unit_by_name = unit_index(p);
    let main = p.units.iter().rposition(|u| u.kind == UnitKind::Program);
    let tables: Vec<SymbolTable> = p.units.iter().map(SymbolTable::build).collect();

    // COMMON preallocation, in the reference engine's layout. On the way,
    // collect each member's declared type classes (bit per class), the
    // unresolvable members' too: a member declared at one class is always
    // bound to it.
    let mut commons = Vec::new();
    let mut classes: BTreeMap<(&str, &str), u8> = BTreeMap::new();
    for (block, sym, len) in common_layout(&tables) {
        *classes
            .entry((block.as_str(), sym.name.as_str()))
            .or_default() |= 1 << ty_class(sym.ty);
        if let Some(len) = len {
            commons.push((block.clone(), sym.name.clone(), sym.ty, len));
        }
    }

    // Specialized bodies look their strings up in the finished pool, so
    // the one message whose emission depends on operand types is always
    // there.
    let mut pool = StrPool::default();
    pool.intern("negation of logical");
    let mut units = Vec::with_capacity(p.units.len());
    for (u, table) in p.units.iter().zip(&tables) {
        let mut c = UnitCompiler {
            names: Vec::new(),
            name_idx: HashMap::new(),
            strs: &mut pool,
            unit_by_name: &unit_by_name,
        };
        let mut plan = c.frame_plan(u, table, &classes);
        let body = lower_typed(u, table, &mut c, &frame_extents(u, table), &[]);
        // A specialization may need one register more than this body
        // (see `treg`'s elem-store fusion hole), so leave it headroom.
        let Some(body) = body.filter(|b| b.nvregs <= u16::MAX as usize) else {
            return CompiledProgram {
                src: p,
                units: Vec::new(),
                main,
                commons: Vec::new(),
                strs: Vec::new(),
                reference: true,
            };
        };
        plan.nlocals = c.names.len();
        units.push(UnitCode {
            name: u.name.clone(),
            names: c.names,
            plan,
            body,
            specs: OnceLock::new(),
        });
    }
    CompiledProgram {
        src: p,
        units,
        main,
        commons,
        strs: pool.strs,
        reference: false,
    }
}

/// Lower unit `u` again with the bound classes `key` in place of the
/// declared ones. The unit's local numbering and the program's string pool
/// are reused as they are; `None` if the lowering would need to extend
/// either (it never does: both depend only on the source).
fn lower_specialized(prog: &CompiledProgram<'_>, u: usize, key: &[u8]) -> Option<TypedUnit> {
    let unit = &prog.units[u];
    let src = &prog.src.units[u];
    let table = SymbolTable::build(src);
    let unit_by_name = unit_index(prog.src);
    let mut pool = StrPool {
        map: prog
            .strs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect(),
        frozen: true,
        ..StrPool::default()
    };
    let mut c = UnitCompiler {
        names: unit.names.clone(),
        name_idx: (0u32..)
            .zip(&unit.names)
            .map(|(i, n)| (n.clone(), i))
            .collect(),
        strs: &mut pool,
        unit_by_name: &unit_by_name,
    };
    let over: Vec<(&str, u8)> = unit
        .plan
        .guards
        .iter()
        .zip(key)
        .filter(|(g, &k)| g.class != k)
        .map(|(g, &k)| (unit.names[g.local as usize].as_str(), k))
        .collect();
    let body = lower_typed(src, &table, &mut c, &frame_extents(src, &table), &over)?;
    (c.names.len() == unit.names.len() && !pool.missed).then_some(body)
}

// ---------------------------------------------------------------------------
// VM state

/// One epoch entry of the race table: valid only when `gen` matches the
/// checker's current generation.
#[derive(Debug, Clone, Copy, Default)]
struct EpochEntry {
    gen: u32,
    iter: i64,
    write: bool,
}

/// Allocation-free race checker: per-slot epoch vectors, recycled across
/// directive loops by bumping `gen`.
#[derive(Debug, Default)]
pub(crate) struct RaceState {
    pub(crate) active: bool,
    /// Current iteration index of the checked loop.
    pub(crate) cur: i64,
    /// Current generation; entries from older generations are stale.
    gen: u32,
    /// Sorted slots exempt from checking (loop var, privates, reductions).
    pub(crate) excluded: Vec<usize>,
    /// `table[slot][off]` — lazily sized to each slot's length.
    table: Vec<Vec<EpochEntry>>,
    /// Slots already reported this loop instance.
    reported: crate::interp::SlotSet,
}

/// `Reg::slot` sentinel: the local is unbound (no view yet).
pub(crate) const UNBOUND: usize = usize::MAX;
/// `Reg::dims_at` sentinel: the shape is the static element-view shape
/// `[0]` (assumed-size from an `ArgElem`), not a dims-arena window.
const DIMS_ELEM: usize = usize::MAX;
/// The one shape every element-argument view shares.
static ELEM_DIMS: [usize; 1] = [0];

/// What a local denotes at runtime: a bare `(slot, offset)` pair plus a
/// window into the [`RegStack`] dims arena. `Copy`, 4 words — binding a
/// formal or passing an argument is a register copy, never a `View`
/// clone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reg {
    /// Arena slot index, or [`UNBOUND`].
    pub(crate) slot: usize,
    /// Element offset of the first element.
    pub(crate) offset: usize,
    /// Start of the resolved extents in the dims arena ([`DIMS_ELEM`]
    /// for element views). Meaningless when `dims_len == 0` (scalar).
    pub(crate) dims_at: usize,
    /// Number of resolved extents; 0 means scalar.
    pub(crate) dims_len: usize,
}

impl Reg {
    const NONE: Reg = Reg {
        slot: UNBOUND,
        offset: 0,
        dims_at: 0,
        dims_len: 0,
    };

    pub(crate) fn scalar(slot: usize, offset: usize) -> Reg {
        Reg {
            slot,
            offset,
            dims_at: 0,
            dims_len: 0,
        }
    }

    pub(crate) fn elem(slot: usize, offset: usize) -> Reg {
        Reg {
            slot,
            offset,
            dims_at: DIMS_ELEM,
            dims_len: 1,
        }
    }
}

/// The register file: a flat stack of [`Reg`]s — each call frame is the
/// window `[fb, fb + nlocals)`, with argument windows sitting just below
/// the callee frame — plus the side arena holding every resolved shape.
/// Frames release by truncation, so steady-state calls reuse capacity and
/// allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct RegStack {
    pub(crate) regs: Vec<Reg>,
    pub(crate) dims: Vec<usize>,
}

impl RegStack {
    /// The resolved extents of `r` (empty for scalars).
    #[inline]
    pub(crate) fn dims_of(&self, r: Reg) -> &[usize] {
        if r.dims_len == 0 {
            &[]
        } else if r.dims_at == DIMS_ELEM {
            &ELEM_DIMS
        } else {
            &self.dims[r.dims_at..r.dims_at + r.dims_len]
        }
    }
}

/// Internal error representation: lowered error texts stay interned
/// [`CompiledProgram::strs`] indices until the engine boundary, so the
/// error paths of the hot loop never clone pool strings.
#[derive(Debug, Clone)]
pub(crate) enum VmErr {
    /// An interned lowered message (`Bad`, `CallUnknown`).
    Raise(u32),
    /// An already-materialized runtime error.
    Rt(RtError),
}

impl From<RtError> for VmErr {
    fn from(e: RtError) -> VmErr {
        VmErr::Rt(e)
    }
}

impl VmErr {
    /// Materialize against the program string pool.
    pub(crate) fn into_rt(self, strs: &[String]) -> RtError {
        match self {
            VmErr::Raise(i) => RtError::new(strs[i as usize].clone()),
            VmErr::Rt(e) => e,
        }
    }
}

#[derive(Debug, Default)]
pub(crate) struct VmState {
    pub(crate) mem: Memory,
    pub(crate) io: Vec<String>,
    pub(crate) ops: u64,
    pub(crate) par_events: Vec<ParLoopEvent>,
    pub(crate) races: Vec<RaceViolation>,
    pub(crate) par_depth: usize,
    /// Depth of nested `Call` frames (bounded like the reference engine).
    pub(crate) call_depth: usize,
    /// Chunk mode only: the chunk's write and undo journal.
    pub(crate) log: Option<ChunkLog>,
    pub(crate) race: RaceState,
    /// Typed value registers: one flat `u64` bank — i64 bits, f64 bits,
    /// or 0/1 logicals, per the lowering's static types. Frames hold no
    /// live value registers across calls, so every frame shares this
    /// bank, grown to the widest body entered.
    pub(crate) vregs: Vec<u64>,
    /// Register file + dims arena, shared by every frame of this VM.
    pub(crate) regs: RegStack,
    /// Live DO loops of every frame (each frame owns a base index).
    pub(crate) loop_stack: Vec<LoopRec>,
    /// Reusable subscript buffer.
    pub(crate) idx_scratch: Vec<i64>,
    /// Reusable section-bounds buffers (`StoreSec`).
    pub(crate) sec_bounds: Vec<(i64, i64)>,
    pub(crate) sec_idx: Vec<i64>,
    /// WRITE line under construction.
    pub(crate) line: String,
    pub(crate) line_items: usize,
    /// Reusable specialization key (bound class per guard).
    spec_key: Vec<u8>,
    /// Retained chunk executor for directive loops (see
    /// [`exec_parallel`]): its register file, loop stack and journals
    /// serve every chunk of every execution.
    chunk: Option<Box<VmState>>,
    /// Always-on execution counters.
    pub(crate) ctr: VmCounters,
}

/// One chunk-journal entry: `(slot, offset, raw)`, 16 bytes. The arena
/// never hands out a slot index or a slot length past `u32::MAX`
/// ([`crate::memory::MAX_SLOT_INDEX`]), so both coordinates fit.
pub(crate) type JournalEntry = (u32, u32, f64);

/// What a chunk of a directive loop records while it runs on the live
/// arena. Every buffer is retained across chunks and executions.
#[derive(Debug, Default)]
pub(crate) struct ChunkLog {
    /// `(slot, offset, new raw)` per logged store, in chunk order: merged
    /// into the arena once every chunk has run.
    writes: Vec<JournalEntry>,
    /// `(slot, offset, pre-write raw)` of every element the running chunk
    /// overwrote, replayed newest first when the chunk ends.
    undo: Vec<JournalEntry>,
    /// Each reduction's pre-loop value, then every chunk's final values,
    /// chunk-major.
    folds: Vec<f64>,
}

/// Immutable run context.
#[derive(Clone, Copy)]
pub(crate) struct Vx<'a> {
    pub(crate) prog: &'a CompiledProgram<'a>,
    pub(crate) opts: &'a ExecOptions,
}

pub(crate) enum Flow {
    Normal,
    Return,
    /// STOP with an interned message index.
    Stop(u32),
}

/// One live loop on the shared loop stack. `Copy` so `DoNext` can pull
/// the record out by value, advance it, and write it back without
/// holding a borrow across memory writes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopRec {
    pub(crate) meta: u32,
    pub(crate) cur: i64,
    pub(crate) step: i64,
    pub(crate) n: u64,
    pub(crate) done: u64,
    pub(crate) var: Reg,
    /// `Some` when this is the accounting/checking instance of a
    /// directive loop (sequential path).
    pub(crate) par: Option<u64>, // ops at loop entry
}

// ---------------------------------------------------------------------------
// Execution

/// Compile and run (the `Engine::Bytecode` entry point of
/// [`crate::interp::run`]).
pub fn run_program(p: &Program, opts: &ExecOptions) -> Result<RunResult, RtError> {
    let prog = compile(p);
    run_compiled(&prog, opts)
}

/// Run an already-lowered program. A program [`compile`] marked as beyond
/// the typed encoding runs on the tree-walker and counts one
/// `reference_runs`.
pub fn run_compiled(prog: &CompiledProgram<'_>, opts: &ExecOptions) -> Result<RunResult, RtError> {
    if prog.reference {
        let tree = ExecOptions {
            engine: Engine::TreeWalk,
            ..opts.clone()
        };
        let mut r = crate::interp::run(prog.src, &tree)?;
        r.vm.reference_runs += 1;
        return Ok(r);
    }
    let cx = Vx { prog, opts };
    let mut st = VmState::default();
    for (block, name, ty, len) in &prog.commons {
        st.mem.common(block, name, *ty, *len)?;
    }
    let main = prog.main.ok_or_else(|| RtError::new("no PROGRAM unit"))?;
    let flow = build_frame(cx, &mut st, main, 0, 0)
        .and_then(|(fb, body)| exec_typed(cx, &mut st, main, body, fb, 0, None))
        .map_err(|e| e.into_rt(&prog.strs))?;
    let stopped = match flow {
        Flow::Stop(m) => Some(prog.strs[m as usize].clone()),
        _ => None,
    };
    Ok(RunResult {
        io: st.io,
        stopped,
        total_ops: st.ops,
        par_events: st.par_events,
        races: st.races,
        memory: st.mem,
        vm: st.ctr,
    })
}

/// Record one shared access in the active directive loop. Inlined so the
/// dominant inactive case costs one predictable branch at every Load and
/// Store site.
#[inline]
pub(crate) fn record(st: &mut VmState, slot: usize, off: usize, is_write: bool) {
    if !st.race.active {
        return;
    }
    record_active(st, slot, off, is_write);
}

/// The armed-checker tail of [`record`]: two indexings and a compare in
/// the steady state. Kept out of line so the inactive fast path stays
/// small at every inlined call site.
fn record_active(st: &mut VmState, slot: usize, off: usize, is_write: bool) {
    if st.race.excluded.binary_search(&slot).is_ok() {
        return;
    }
    if st.race.table.len() <= slot {
        st.race.table.resize_with(slot + 1, Vec::new);
    }
    if st.race.table[slot].len() <= off {
        let want = st
            .mem
            .slots
            .get(slot)
            .map(|s| s.data.len())
            .unwrap_or(0)
            .max(off + 1);
        st.race.table[slot].resize(want, EpochEntry::default());
    }
    let (cur, gen) = (st.race.cur, st.race.gen);
    let e = &mut st.race.table[slot][off];
    if e.gen != gen {
        (e.gen, e.iter, e.write) = (gen, cur, false);
    }
    if let Some(earlier) = race_step(&mut e.iter, &mut e.write, cur, is_write) {
        report_race(
            &mut st.races,
            &mut st.race.reported,
            (slot, off),
            earlier,
            cur,
        );
    }
}

/// Arm the race checker for a new directive-loop instance: one generation
/// bump invalidates the whole table.
pub(crate) fn activate_race(st: &mut VmState, excluded: Vec<usize>) {
    st.race.gen = st.race.gen.wrapping_add(1);
    if st.race.gen == 0 {
        for lane in &mut st.race.table {
            lane.clear();
        }
        st.race.gen = 1;
    }
    st.race.cur = 0;
    st.race.excluded = excluded;
    st.race.reported.clear();
    st.race.active = true;
}

pub(crate) fn retire_race(st: &mut VmState) {
    st.race.active = false;
    st.race.excluded.clear();
}

/// Memory write of a value already converted to the slot's raw `f64`
/// representation, at a bound-checked `(slot, offset)`, with write-logging
/// and race recording (the reference engine's `store`). The conversion
/// opcodes replicate `Slot::set`'s per-type formula exactly, so the
/// written raw (and the logged raw) is bit-identical to the reference's.
#[inline]
pub(crate) fn store_raw(st: &mut VmState, slot: usize, off: usize, raw: f64) {
    let cell = &mut st.mem.slots[slot].data[off];
    if let Some(log) = &mut st.log {
        // Lossless: the arena bounds slot indexes and lengths by u32.
        let (s, o) = (slot as u32, off as u32);
        log.undo.push((s, o, *cell));
        log.writes.push((s, o, raw));
    }
    *cell = raw;
    record(st, slot, off, true);
}

/// Unlogged, unchecked-by-races scalar write through a register — the
/// loop-variable write path (`st.mem.write(&var_view, &[], v)` in the old
/// representation, failures silently ignored).
#[inline]
pub(crate) fn write_var(mem: &mut Memory, r: Reg, val: Scalar) {
    let Some(s) = mem.slots.get_mut(r.slot) else {
        return;
    };
    if r.dims_len == 0 || r.offset < s.data.len() {
        s.set(r.offset, val);
    }
}

/// [`write_var`] that, in chunk mode, first journals the element's raw on
/// the undo log. Used where the chunk overwrites a variable unlogged: the
/// entry of a nested DO loop (the back-edge rewrites the same element)
/// and the chunk's own loop variable and reduction identities.
#[inline]
pub(crate) fn write_var_journaled(st: &mut VmState, r: Reg, val: Scalar) {
    if let Some(log) = &mut st.log {
        if let Some(old) = st.mem.slots.get(r.slot).and_then(|s| s.data.get(r.offset)) {
            log.undo.push((r.slot as u32, r.offset as u32, *old));
        }
    }
    write_var(&mut st.mem, r, val);
}

/// Scalar read through a register (empty-subscript read in the old
/// representation: arrays read their first element).
#[inline]
pub(crate) fn read_var(mem: &Memory, r: Reg) -> Option<Scalar> {
    let s = mem.slots.get(r.slot)?;
    if r.dims_len != 0 && r.offset >= s.data.len() {
        return None;
    }
    Some(s.get(r.offset))
}

/// Iteration count of `DO var = lo, hi, step` (the reference engine's
/// materialized `iters.len()`, computed arithmetically).
pub(crate) fn trip_count(lo: i64, hi: i64, step: i64) -> u64 {
    if step > 0 {
        if lo > hi {
            0
        } else {
            ((hi as i128 - lo as i128) / step as i128 + 1) as u64
        }
    } else if lo < hi {
        0
    } else {
        ((lo as i128 - hi as i128) / (-(step as i128)) + 1) as u64
    }
}

/// Pop this frame's live loop records (everything above `lb`), retiring
/// directive instances exactly as the reference engine does when a
/// `Stop`/`Return` unwinds out of them. `loops` is the metadata table of
/// the body that pushed the records.
pub(crate) fn unwind_loops(st: &mut VmState, loops: &[LoopMeta], lb: usize) {
    while st.loop_stack.len() > lb {
        debug_assert!(!st.loop_stack.is_empty(), "len > lb implies a live loop");
        let Some(rec) = st.loop_stack.pop() else {
            break;
        };
        if let Some(ops_before) = rec.par {
            if st.race.active {
                retire_race(st);
            }
            st.par_depth -= 1;
            st.par_events.push(ParLoopEvent {
                id: loops[rec.meta as usize].id.clone(),
                ops: st.ops - ops_before,
                iters: rec.n,
            });
        }
    }
}

/// Fetch the register of local `l` in the frame at `fb`; `None` when the
/// local is unbound.
#[inline]
pub(crate) fn reg(st: &VmState, fb: usize, l: u32) -> Option<Reg> {
    let r = st.regs.regs[fb + l as usize];
    if r.slot == UNBOUND {
        None
    } else {
        Some(r)
    }
}

/// Resolve a dims plan into the dims arena; returns the arena window
/// `(dims_at, dims_len)`. Extents run under the *default* op budget — the
/// reference engine's `resolve_dims` uses a throwaway default-option
/// interpreter.
fn resolve_dims(
    cx: Vx<'_>,
    st: &mut VmState,
    (u, body): (usize, &TypedUnit),
    fb: usize,
    dims: &[DimPlan],
    local: u32,
) -> Result<(usize, usize), VmErr> {
    let at = st.regs.dims.len();
    for &d in dims {
        let v = match d {
            DimPlan::Assumed => {
                st.regs.dims.push(0);
                continue;
            }
            DimPlan::Lit(v) => {
                st.ctr.insns_retired += 1;
                st.ops += 1;
                if st.ops > DEFAULT_MAX_OPS {
                    Err(RtError::budget_at(st.ops).into())
                } else {
                    Ok(v)
                }
            }
            DimPlan::Extent(k) => {
                let opts = ExecOptions {
                    max_ops: DEFAULT_MAX_OPS,
                    ..cx.opts.clone()
                };
                let ecx = Vx {
                    prog: cx.prog,
                    opts: &opts,
                };
                let entry = body.extents[k as usize] as usize;
                // The snippet leaves its INTEGER value in register 0.
                exec_typed(ecx, st, u, body, fb, entry, None).map(|_| st.vregs[0] as i64)
            }
        };
        let name = &cx.prog.units[u].names[local as usize];
        let n = v.map_err(|err: VmErr| {
            let inner = err.into_rt(&cx.prog.strs);
            VmErr::Rt(RtError::new(format!(
                "bad extent for {name}: {}",
                inner.message
            )))
        })?;
        if n < 0 {
            return Err(RtError::new(format!("negative extent for {name}")).into());
        }
        st.regs.dims.push(n as usize);
    }
    Ok((at, dims.len()))
}

/// Build a call frame in place on the register stack: same four phases,
/// same allocation order, as the reference engine's `build_frame` — slot
/// indices must match exactly. The frame's arguments are the top `nargs`
/// registers starting at `args_base`; the new frame is the `nlocals`
/// registers pushed on top of them. Returns the frame base and the body
/// the frame runs, chosen by [`select_body`] once its guards are bound.
pub(crate) fn build_frame<'a>(
    cx: Vx<'a>,
    st: &mut VmState,
    u: usize,
    args_base: usize,
    nargs: usize,
) -> Result<(usize, &'a TypedUnit), VmErr> {
    let unit = &cx.prog.units[u];
    let plan = &unit.plan;
    let fb = st.regs.regs.len();
    // Frame-pool accounting: a steady-state push fits in recycled
    // register capacity; growth is a (cold) pool miss.
    if st.regs.regs.capacity() - fb >= plan.nlocals {
        st.ctr.pool_hits += 1;
    } else {
        st.ctr.pool_misses += 1;
        if st.ctr.pool_hits > 0 {
            st.ctr.warm_allocs += 1;
        }
    }
    st.regs.regs.resize(fb + plan.nlocals, Reg::NONE);

    // Phase 1: formals (register copies of the argument window).
    for (i, &l) in plan.formals.iter().enumerate() {
        if i >= nargs {
            return Err(RtError::new(format!("missing argument {i} to {}", unit.name)).into());
        }
        st.regs.regs[fb + l as usize] = st.regs.regs[args_base + i];
    }

    // Phase 2: PARAMETER constants.
    for c in &plan.consts {
        let val = c.val.ok_or_else(|| {
            RtError::new(format!(
                "non-constant PARAMETER {}",
                unit.names[c.local as usize]
            ))
        })?;
        let slot = st.mem.alloc(c.ty, 1)?;
        st.mem.slots[slot].set(0, Scalar::I(val));
        st.regs.regs[fb + c.local as usize] = Reg::scalar(slot, 0);
    }

    // Every guard's class is known now: formals are bound, and a COMMON
    // member keeps the class of whichever unit created it.
    let body = select_body(cx, st, u, fb)?;

    // Phase 3: COMMON members and locals, sorted by name; extents may
    // reference anything already bound.
    for lp in &plan.locals {
        let (dims_at, dims_len) = resolve_dims(cx, st, (u, body), fb, &lp.dims, lp.local)?;
        // Saturating: a shape past usize is refused by the arena, not
        // wrapped into a small slot.
        let len = st.regs.dims[dims_at..dims_at + dims_len]
            .iter()
            .fold(1usize, |n, &d| n.saturating_mul(d.max(1)));
        let slot = match &lp.block {
            Some(block) => st
                .mem
                .common(block, &unit.names[lp.local as usize], lp.ty, len)?,
            None => st.mem.alloc(lp.ty, len)?,
        };
        st.regs.regs[fb + lp.local as usize] = Reg {
            slot,
            offset: 0,
            dims_at,
            dims_len,
        };
    }

    // Phase 4: formal array shapes against the full frame.
    for (l, dims) in &plan.formal_dims {
        let (dims_at, dims_len) = resolve_dims(cx, st, (u, body), fb, dims, *l)?;
        let r = &mut st.regs.regs[fb + *l as usize];
        if r.slot != UNBOUND {
            r.dims_at = dims_at;
            r.dims_len = dims_len;
        }
    }

    Ok((fb, body))
}

/// The body a frame runs: the compile-time body when every guard's bound
/// class matches its declaration, else the body specialized on the bound
/// classes. Reads a formal's class from the storage it is bound to, and a
/// COMMON member's from the directory (the unit that created the member
/// fixed its type).
fn select_body<'a>(
    cx: Vx<'a>,
    st: &mut VmState,
    u: usize,
    fb: usize,
) -> Result<&'a TypedUnit, VmErr> {
    let unit = &cx.prog.units[u];
    let mut key = std::mem::take(&mut st.spec_key);
    key.clear();
    let mut punned = false;
    for g in &unit.plan.guards {
        let ty = match &g.block {
            None => reg(st, fb, g.local).map(|r| st.mem.slots[r.slot].ty),
            Some(block) => st.mem.common_ty(block, &unit.names[g.local as usize]),
        };
        let class = ty.map_or(g.class, ty_class);
        punned |= class != g.class;
        key.push(class);
    }
    let body = if punned {
        specialized(cx, st, u, &key)
    } else {
        Ok(&unit.body)
    };
    st.spec_key = key;
    body
}

/// Find unit `u`'s body for the bound classes `key`, lowering and
/// publishing it on first use. Lock-free: the cache is a list of
/// set-once links, and a run that loses a publishing race re-reads the
/// winner.
fn specialized<'a>(
    cx: Vx<'a>,
    st: &mut VmState,
    u: usize,
    key: &[u8],
) -> Result<&'a TypedUnit, VmErr> {
    let unit = &cx.prog.units[u];
    let mut link = &unit.specs;
    loop {
        if let Some(spec) = link.get() {
            if *spec.key == *key {
                return Ok(&spec.body);
            }
            link = &spec.next;
            continue;
        }
        let Some(body) = lower_specialized(cx.prog, u, key) else {
            return Err(RtError::new(format!(
                "internal error: {} has no typed body for its bound types",
                unit.name
            ))
            .into());
        };
        st.ctr.typed_specializations += 1;
        let _ = link.set(Box::new(Spec {
            key: key.into(),
            body,
            next: OnceLock::new(),
        }));
    }
}

/// Build the callee frame for unit `target` over the top `nargs` argument
/// views, run the body [`build_frame`] picked, and release the frame.
pub(crate) fn call_unit(
    cx: Vx<'_>,
    st: &mut VmState,
    target: usize,
    nargs: usize,
) -> Result<Flow, VmErr> {
    if st.call_depth >= MAX_CALL_DEPTH {
        return Err(RtError::call_depth().into());
    }
    let args_base = st.regs.regs.len() - nargs;
    let dims_mark = st.regs.dims.len();
    let mark = st.mem.mark();
    st.ctr.calls += 1;
    let (cfb, body) = build_frame(cx, st, target, args_base, nargs)?;
    st.call_depth += 1;
    st.ctr.peak_call_depth = st.ctr.peak_call_depth.max(st.call_depth as u64);
    let flow = exec_typed(cx, st, target, body, cfb, 0, None);
    st.call_depth -= 1;
    let flow = flow?;
    // Release the callee frame and its argument window: pure truncation,
    // capacity stays for the next call.
    st.regs.regs.truncate(args_base);
    st.regs.dims.truncate(dims_mark);
    st.mem.release(mark);
    Ok(flow)
}

/// The static shape of one chunked directive-loop execution.
struct ChunkPlan<'a> {
    u: usize,
    body: &'a TypedUnit,
    mi: u32,
    var: Reg,
    lo: i64,
    step: i64,
    reductions: &'a [(RedOp, u32)],
    /// Seeded register window and dims-arena lengths.
    nlocals: usize,
    dims: usize,
    /// Entry of the loop body.
    body_pc: usize,
}

/// Run iterations `start..start + len` as one chunk on `cs`, whose arena
/// is the live one, then rewind the arena to its pre-loop contents.
/// Mirrors the reference engine's `exec_chunk`: chunk-local op count and
/// call depth, reductions start at their identities, the write log
/// records every store, `Return` ends the chunk silently. Returns the
/// chunk's STOP message, if it stopped.
fn run_chunk(
    cx: Vx<'_>,
    cs: &mut VmState,
    plan: &ChunkPlan<'_>,
    start: usize,
    len: usize,
) -> Result<Option<u32>, VmErr> {
    cs.ops = 0;
    cs.call_depth = 0;
    cs.par_depth = 1;
    cs.loop_stack.clear();
    cs.line.clear();
    cs.line_items = 0;
    cs.regs.regs.truncate(plan.nlocals);
    cs.regs.dims.truncate(plan.dims);
    cs.ctr.chunks_run += 1;
    let cp = cs.mem.checkpoint();
    for &(op, l) in plan.reductions {
        if let Some(r) = reg(cs, 0, l) {
            write_var_journaled(cs, r, Scalar::F(red_identity(op)));
        }
    }
    let mut out = Ok(None);
    for k in 0..len {
        let i = plan
            .lo
            .wrapping_add(((start + k) as i64).wrapping_mul(plan.step));
        if k == 0 {
            write_var_journaled(cs, plan.var, Scalar::I(i));
        } else {
            write_var(&mut cs.mem, plan.var, Scalar::I(i));
        }
        match exec_typed(cx, cs, plan.u, plan.body, 0, plan.body_pc, Some(plan.mi)) {
            Ok(Flow::Normal) => {}
            Ok(Flow::Stop(m)) => {
                out = Ok(Some(m));
                break;
            }
            Ok(Flow::Return) => break,
            Err(e) => {
                out = Err(e);
                break;
            }
        }
    }
    for &(_, l) in plan.reductions {
        if let Some(r) = reg(cs, 0, l) {
            let x = read_var(&cs.mem, r).map_or(0.0, Scalar::as_f);
            if let Some(log) = &mut cs.log {
                log.folds.push(x);
            }
        }
    }
    // Rewind: undo entries newest first (an element's oldest entry holds
    // its pre-chunk raw), then the arena's shape.
    if let Some(log) = &mut cs.log {
        cs.ctr.chunk_undo_writes += log.undo.len() as u64;
        for &(slot, off, raw) in log.undo.iter().rev() {
            let slot = slot as usize;
            if slot < cp.slots {
                cs.mem.slots[slot].data[off as usize] = raw;
            }
        }
        log.undo.clear();
    }
    cs.mem.rollback(cp);
    out
}

/// Chunked execution of a directive loop, on the calling thread: the
/// iteration space splits into `threads` contiguous chunks, each runs
/// from the pre-loop memory, and their write logs merge in chunk order
/// while reductions fold in chunk order — the reference engine's
/// `exec_parallel` on arithmetic chunk ranges. Chunks run on the live
/// arena and an undo log isolates them, so no chunk copies memory; the
/// retained chunk state makes a steady-state execution allocation-free.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_parallel(
    cx: Vx<'_>,
    st: &mut VmState,
    (u, body): (usize, &TypedUnit),
    fb: usize,
    mi: u32,
    var: Reg,
    lo: i64,
    step: i64,
    n: u64,
    excluded: &[usize],
) -> Result<Flow, VmErr> {
    let meta = &body.loops[mi as usize];
    let dir = meta.dir.as_ref().expect("directive present");
    let nlocals = cx.prog.units[u].plan.nlocals;

    // Seed the chunk state: the enclosing frame's register window rebased
    // to 0, plus the whole dims arena so `dims_at` indices stay valid.
    let mut cs = st.chunk.take().unwrap_or_default();
    cs.regs.regs.clear();
    cs.regs
        .regs
        .extend_from_slice(&st.regs.regs[fb..fb + nlocals]);
    cs.regs.dims.clear();
    cs.regs.dims.extend_from_slice(&st.regs.dims);
    cs.io.clear();
    cs.ctr = VmCounters::default();
    let log = cs.log.get_or_insert_with(ChunkLog::default);
    log.writes.clear();
    log.folds.clear();
    for &(_, l) in &dir.reductions {
        if let Some(r) = reg(st, fb, l) {
            log.folds
                .push(read_var(&st.mem, r).map_or(0.0, Scalar::as_f));
        }
    }
    let nred = log.folds.len();
    std::mem::swap(&mut st.mem, &mut cs.mem);

    let plan = ChunkPlan {
        u,
        body,
        mi,
        var,
        lo,
        step,
        reductions: &dir.reductions,
        nlocals,
        dims: cs.regs.dims.len(),
        body_pc: meta.body_pc as usize,
    };
    let lens = chunk_lens(n as usize, cx.opts.threads);
    let chunks = lens.len();
    let mut start = 0usize;
    let mut ops = 0u64;
    let mut flow = Ok(Flow::Normal);
    for len in lens {
        match run_chunk(cx, &mut cs, &plan, start, len) {
            Ok(stop) => {
                ops += cs.ops;
                if let Some(m) = stop {
                    flow = Ok(Flow::Stop(m));
                }
            }
            // The first failing chunk decides the error; later chunks
            // could not change it.
            Err(e) => {
                flow = Err(e);
                break;
            }
        }
        start += len;
    }
    std::mem::swap(&mut st.mem, &mut cs.mem);

    if flow.is_ok() {
        let log = cs.log.as_ref().expect("chunk state carries a log");
        for &(slot, off, val) in &log.writes {
            let (slot, off) = (slot as usize, off as usize);
            if excluded.binary_search(&slot).is_ok() {
                continue;
            }
            if slot < st.mem.slots.len() && off < st.mem.slots[slot].data.len() {
                st.mem.slots[slot].data[off] = val;
            }
        }
        st.io.append(&mut cs.io);
        st.ops += ops;
        st.ctr.absorb(&cs.ctr);
        let mut k = 0;
        for &(op, l) in &dir.reductions {
            if let Some(r) = reg(st, fb, l) {
                let acc = (1..=chunks).fold(log.folds[k], |acc, c| {
                    red_fold(op, acc, log.folds[c * nred + k])
                });
                write_var(&mut st.mem, r, Scalar::F(acc));
                k += 1;
            }
        }
    }
    st.chunk = Some(cs);
    flow
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        fir::parse(src).expect("test program parses")
    }

    fn vm_opts(max_ops: u64) -> ExecOptions {
        ExecOptions {
            max_ops,
            engine: crate::interp::Engine::Bytecode,
            ..Default::default()
        }
    }

    #[test]
    fn giant_trip_count_fails_fast_without_materializing_iterations() {
        // The tree-walker collects `iters: Vec<i64>` before running a DO
        // loop — at this trip count that is an 8 GB allocation. The VM
        // must instead enter the loop immediately and die on the op
        // budget after a few thousand steps.
        let p = parse(
            "      PROGRAM P
      X = 0.0
      DO I = 1, 1000000000
        X = X + 1.0
      ENDDO
      END
",
        );
        let started = std::time::Instant::now();
        let err = crate::interp::run(&p, &vm_opts(10_000)).unwrap_err();
        assert!(err.message.contains("op budget exhausted"), "{err}");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "budget bail-out took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn zero_and_negative_trip_counts() {
        assert_eq!(trip_count(1, 0, 1), 0);
        assert_eq!(trip_count(1, 1, 1), 1);
        assert_eq!(trip_count(1, 10, 1), 10);
        assert_eq!(trip_count(1, 10, 3), 4);
        assert_eq!(trip_count(10, 1, -1), 10);
        assert_eq!(trip_count(10, 1, -4), 3);
        assert_eq!(trip_count(0, 1, -1), 0);
        // Large spans stay exact through the i128 widening.
        assert_eq!(trip_count(1, 1_000_000_000, 1), 1_000_000_000);
        assert_eq!(trip_count(-(1 << 40), 1 << 40, 1), (1u64 << 41) + 1);
    }

    #[test]
    fn straight_line_costs_merge_into_one_tick() {
        // Three assignments of one binary op each: each statement costs
        // 1 (stmt) + 3 (expr nodes) = 4 ops; the block lowers to a single
        // leading Tick(12), not three Tick(4)s.
        let p = parse(
            "      PROGRAM P
      X = 1.0 + 2.0
      Y = 2.0 + 3.0
      Z = 3.0 + 4.0
      END
",
        );
        let c = compile(&p);
        let ticks: Vec<u64> = c.units[0]
            .body
            .code
            .iter()
            .filter(|i| i.op == crate::treg::Op::Tick)
            .map(|i| u64::from(i.imm))
            .collect();
        assert_eq!(ticks, vec![12]);
        // And the total still matches the tree-walker's per-node count.
        let r = crate::interp::run(&p, &vm_opts(DEFAULT_MAX_OPS)).unwrap();
        let t = crate::interp::run(
            &p,
            &ExecOptions {
                engine: crate::interp::Engine::TreeWalk,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.total_ops, t.total_ops);
        assert_eq!(r.total_ops, 12);
    }

    #[test]
    fn epoch_race_table_recycles_across_loops() {
        // Two directive loops back to back: the second must start with a
        // clean view of the table (generation bump), so the clean loop
        // reports nothing even though the racy one populated entries.
        let p = parse(
            "      PROGRAM P
      COMMON /B/ A(16), S
      DO I = 1, 16
        A(I) = I*1.0
      ENDDO
      S = 0.0
      DO I = 2, 16
        S = S + A(I-1)
      ENDDO
      DO I = 1, 16
        A(I) = A(I)*2.0
      ENDDO
      END
",
        );
        let mut p = p;
        let mut k = 0;
        fir::visit::walk_loops_mut(&mut p.units[0].body, &mut |d| {
            if k > 0 {
                d.directive = Some(OmpDirective::default());
            }
            k += 1;
        });
        let r = crate::interp::run(
            &p,
            &ExecOptions {
                check_races: true,
                engine: crate::interp::Engine::Bytecode,
                ..Default::default()
            },
        )
        .unwrap();
        // The scalar-reduction loop races on S (no reduction clause); the
        // disjoint A loop is clean. One slot, one report.
        assert_eq!(r.races.len(), 1, "{:?}", r.races);
        assert!(r.races[0].what.contains("slot"), "{:?}", r.races);
    }

    #[test]
    fn chunk_journal_entries_are_sixteen_bytes() {
        // Two u32 coordinates and the raw: the write and undo logs of a
        // chunked run cost 16 bytes per logged store.
        assert_eq!(std::mem::size_of::<JournalEntry>(), 16);
    }

    #[test]
    fn race_table_entries_are_sixteen_bytes() {
        // The generation stamp packs beside the written bit: nesting the
        // entry rule's `(iter, write)` pair as one struct would pad every
        // race table to 24 bytes per element.
        assert_eq!(std::mem::size_of::<EpochEntry>(), 16);
    }

    #[test]
    fn compile_is_reusable_across_runs() {
        let p = parse(
            "      PROGRAM P
      S = 0.0
      DO I = 1, 8
        S = S + I*1.0
      ENDDO
      WRITE(6,*) S
      END
",
        );
        let c = compile(&p);
        let a = run_compiled(&c, &ExecOptions::default()).unwrap();
        let b = run_compiled(&c, &ExecOptions::default()).unwrap();
        assert_eq!(a.io, b.io);
        assert_eq!(a.total_ops, b.total_ops);
    }
}
