//! Slot-resolved bytecode engine — the fast path of the runtime testers.
//!
//! The tree-walker in [`crate::interp`] re-resolves every variable
//! reference through an `Ident → HashMap<Ident, View>` lookup, collects
//! every DO loop's iteration space into a `Vec<i64>` up front, allocates a
//! fresh subscript vector per array access, and bumps the op budget once
//! per AST node. This module removes all four costs while preserving the
//! tree-walker's observable semantics *exactly* — same io, same total op
//! count, same `ParLoopEvent`s, same races, same final memory:
//!
//! * each [`ProcUnit`] is lowered once into a flat `Insn` stream whose
//!   operands are frame-local indices resolved at compile time; a frame is
//!   a window of bare `(slot, offset)` registers on one flat register
//!   stack (shapes live in a side arena), released by truncation so
//!   steady-state calls allocate nothing;
//! * DO loops execute as jump-back instructions (`Insn::DoInit` /
//!   `Insn::DoNext`) with an arithmetic trip count — no iteration vector
//!   is ever materialized;
//! * subscript vectors reuse one scratch buffer in the VM state;
//! * op accounting is amortized to straight-line runs: one `Insn::Tick`
//!   carries the statically known cost of a maximal block of simple
//!   statements. Totals stay byte-identical because the reference engine's
//!   per-node costs are static (its `eval` never short-circuits) and every
//!   point where an op counter is *observed* — `ParLoopEvent::ops` capture
//!   at a directive-loop head — is a run barrier. Dynamic costs (section
//!   odometer steps, frame-build extent evaluation) stay dynamic.
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
//! [`CompiledProgram`] owns all its data and is `Sync`, so the driver's
//! workers share it without cloning.

use crate::interp::{
    eval_bin, eval_intrinsic, red_fold, red_identity, ExecOptions, ParLoopEvent, RaceViolation,
    RtError, RunResult, VmCounters, DEFAULT_MAX_OPS, MAX_CALL_DEPTH,
};
use crate::memory::{flat_view, view_len, Memory, Scalar};
use fir::ast::*;
use fir::symbol::{Storage, SymbolTable};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Compiled form

/// One lowered instruction. Locals are indices into the frame's register
/// window; string-valued operands index the program's literal pool.
#[derive(Debug, Clone)]
pub(crate) enum Insn {
    /// Add the statically known cost of a straight-line run to the op
    /// counter and check the budget.
    Tick(u64),
    PushI(i64),
    PushF(f64),
    PushB(bool),
    /// Read a scalar local (or the first element of a whole-array read).
    Load(u32),
    /// Read an array element: pops `n` subscripts.
    LoadElem(u32, u8),
    /// Pop a value into a scalar local (or fill a whole array with it).
    StoreVar(u32),
    /// Pop `n` subscripts, then the value; store one element.
    StoreElem(u32, u8),
    /// Section assignment: pops the bound values of section plan `s`,
    /// then the fill value. Odometer ticks dynamically.
    StoreSection(u32, u32),
    Bin(BinOp),
    Neg,
    Not,
    Intr(Intrinsic, u8),
    UnknownOp(u32, u8),
    UniqueOp(u32, u8),
    Jump(u32),
    JumpIfFalse(u32),
    WriteBegin,
    WriteStr(u32),
    WriteVal,
    WriteEnd,
    /// Unconditional runtime error with a pooled message (lowered from
    /// expressions the reference engine rejects at evaluation time).
    Bad(u32),
    Stop(u32),
    Ret,
    /// Pop step (if the loop has one), hi, lo; enter loop `l`.
    DoInit(u32),
    /// Advance loop `l`: jump back to its body or fall through to exit.
    DoNext(u32),
    /// Push an argument view for a variable (allocating an implicit
    /// scalar when unbound).
    ArgVar(u32),
    /// Pop `n` subscripts; push a view of the addressed element.
    ArgElem(u32, u8),
    /// Pop a value; materialize it as a fresh scalar slot and push its
    /// view (by-value argument).
    ArgVal,
    /// Call unit `u` with the top `n` argument views.
    Call(u32, u8),
    CallUnknown(u32),
    EndUnit,
}

/// Static description of one DO loop. Shared by the stack body and the
/// typed register body (same index space: both lower loops in the same
/// traversal order, only the `*_pc` fields differ per body).
#[derive(Debug, Clone)]
pub(crate) struct LoopMeta {
    pub(crate) var: u32,
    pub(crate) has_step: bool,
    /// First instruction of the body (the one after `DoInit`).
    pub(crate) body_pc: u32,
    /// First instruction after the loop (the one after `DoNext`).
    pub(crate) exit_pc: u32,
    pub(crate) id: LoopId,
    pub(crate) dir: Option<DirPlan>,
    /// Typed body only: when the body opens with a `Tick`/`TickP`, its
    /// cost — the back-edge charges it and re-enters past the tick
    /// (identical op totals and budget positions, one fewer dispatch per
    /// iteration). 0 in the stack body and when the body has no leading
    /// tick.
    pub(crate) body_cost: u64,
}

/// Compile-time view of a loop's parallel directive.
#[derive(Debug, Clone)]
pub(crate) struct DirPlan {
    /// private + lastprivate locals, in clause order.
    pub(crate) privates: Vec<u32>,
    pub(crate) reductions: Vec<(RedOp, u32)>,
}

/// One dimension of a section plan; bound values that exist are on the
/// stack (or in consecutive value registers) in declaration order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SecDimPlan {
    Full,
    At,
    Range { has_lo: bool, has_hi: bool },
}

/// How one frame-plan dimension resolves.
#[derive(Debug, Clone)]
enum DimPlan {
    Assumed,
    /// Value code (`Tick` + expression ops) evaluated against the frame
    /// under construction.
    Extent(Vec<Insn>),
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
    block: Option<String>,
    dims: Vec<DimPlan>,
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
}

/// One lowered procedure unit.
#[derive(Debug, Clone)]
pub(crate) struct UnitCode {
    pub(crate) name: String,
    pub(crate) code: Vec<Insn>,
    /// Local index → variable name (error messages only).
    pub(crate) names: Vec<String>,
    pub(crate) loops: Vec<LoopMeta>,
    pub(crate) secs: Vec<Vec<SecDimPlan>>,
    pub(crate) plan: FramePlan,
    /// Typed three-address body (the fast path), when the unit's operand
    /// types are fully static. Frames whose actual slot types diverge
    /// from the declared types (COMMON/formal type punning) fall back to
    /// the stack body above — see [`typed_body`].
    pub(crate) typed: Option<crate::treg::TypedUnit>,
}

/// A fully lowered program: owned, immutable, `Sync` — compile once, run
/// from any number of threads.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) units: Vec<UnitCode>,
    main: Option<usize>,
    /// Pre-resolved COMMON allocations `(block, member, ty, len)` in the
    /// reference engine's preallocation order.
    commons: Vec<(String, String, Type, usize)>,
    /// Program-wide literal pool: WRITE strings, STOP messages, lowered
    /// error texts. Instructions and [`Flow::Stop`] carry `u32` indices
    /// into this pool, so stop/error propagation across unit boundaries
    /// never clones a string — text materializes once, at the engine
    /// boundary in [`run_compiled`].
    pub(crate) strs: Vec<String>,
    /// Widest typed-register bank any unit needs; the shared bank is
    /// sized once per run (frames hold no live value registers across
    /// calls, so every frame reuses the same bank).
    pub(crate) max_vregs: usize,
}

/// Deduplicating string interner backing [`CompiledProgram::strs`].
#[derive(Default)]
struct StrPool {
    strs: Vec<String>,
    map: HashMap<String, u32>,
}

impl StrPool {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.map.get(s) {
            return i;
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

/// Per-unit lowering state. Strings intern into the program-wide pool.
/// The typed lowering pass ([`crate::treg`]) shares this compiler's name
/// map and string pool so local indices agree across both bodies.
pub(crate) struct UnitCompiler<'p> {
    pub(crate) names: Vec<String>,
    name_idx: HashMap<String, u32>,
    code: Vec<Insn>,
    /// Completed generic loop metadata. The typed lowering clones entry
    /// `k` for its own loop `k` (same traversal order), so directive
    /// plans and loop ids are identical across bodies by construction.
    pub(crate) loops: Vec<LoopMeta>,
    secs: Vec<Vec<SecDimPlan>>,
    strs: &'p mut StrPool,
    pub(crate) unit_by_name: &'p HashMap<&'p str, usize>,
}

impl<'p> UnitCompiler<'p> {
    pub(crate) fn local(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.name_idx.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_idx.insert(name.to_string(), i);
        i
    }

    pub(crate) fn stri(&mut self, s: &str) -> u32 {
        self.strs.intern(s)
    }

    fn emit(&mut self, i: Insn) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Lower a block, merging the leading costs of each maximal
    /// straight-line run of statements into a single `Tick`.
    fn block(&mut self, b: &Block) {
        let mut i = 0;
        while i < b.len() {
            let mut j = i;
            let mut sum = 0u64;
            while j < b.len() {
                sum += leading_cost(&b[j]);
                j += 1;
                if is_barrier(&b[j - 1]) {
                    break;
                }
            }
            if sum > 0 {
                self.emit(Insn::Tick(sum));
            }
            for s in &b[i..j] {
                self.stmt(s);
            }
            i = j;
        }
    }

    /// Lower one statement's code (its leading cost is already ticked).
    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                self.expr(rhs);
                match lhs {
                    Expr::Var(n) => {
                        let l = self.local(n);
                        self.emit(Insn::StoreVar(l));
                    }
                    Expr::Index(n, subs) => {
                        for sub in subs {
                            self.expr(sub);
                        }
                        let l = self.local(n);
                        self.emit(Insn::StoreElem(l, subs.len() as u8));
                    }
                    Expr::Section(n, ranges) => {
                        let mut plan = Vec::with_capacity(ranges.len());
                        for r in ranges {
                            match r {
                                SecRange::Full => plan.push(SecDimPlan::Full),
                                SecRange::At(e) => {
                                    self.expr(e);
                                    plan.push(SecDimPlan::At);
                                }
                                SecRange::Range { lo, hi, .. } => {
                                    if let Some(e) = lo {
                                        self.expr(e);
                                    }
                                    if let Some(e) = hi {
                                        self.expr(e);
                                    }
                                    plan.push(SecDimPlan::Range {
                                        has_lo: lo.is_some(),
                                        has_hi: hi.is_some(),
                                    });
                                }
                            }
                        }
                        let l = self.local(n);
                        self.secs.push(plan);
                        let sidx = (self.secs.len() - 1) as u32;
                        self.emit(Insn::StoreSection(l, sidx));
                    }
                    other => {
                        let m = self.stri(&format!("invalid assignment target {other:?}"));
                        self.emit(Insn::Bad(m));
                    }
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expr(cond);
                let jf = self.emit(Insn::JumpIfFalse(0));
                self.block(then_blk);
                let j = self.emit(Insn::Jump(0));
                let else_pc = self.here();
                self.code[jf] = Insn::JumpIfFalse(else_pc);
                self.block(else_blk);
                let end = self.here();
                self.code[j] = Insn::Jump(end);
            }
            StmtKind::Do(d) => {
                self.expr(&d.lo);
                self.expr(&d.hi);
                if let Some(e) = &d.step {
                    self.expr(e);
                }
                let dir = d.directive.as_ref().map(|dir| DirPlan {
                    privates: dir
                        .private
                        .iter()
                        .chain(dir.lastprivate.iter())
                        .map(|n| self.local(n))
                        .collect(),
                    reductions: dir
                        .reductions
                        .iter()
                        .map(|(op, n)| (*op, self.local(n)))
                        .collect(),
                });
                let m = self.loops.len() as u32;
                let var = self.local(&d.var);
                self.loops.push(LoopMeta {
                    var,
                    has_step: d.step.is_some(),
                    body_pc: 0,
                    exit_pc: 0,
                    id: d.id.clone(),
                    dir,
                    body_cost: 0,
                });
                self.emit(Insn::DoInit(m));
                self.loops[m as usize].body_pc = self.here();
                self.block(&d.body);
                self.emit(Insn::DoNext(m));
                self.loops[m as usize].exit_pc = self.here();
            }
            StmtKind::Call { name, args } => {
                for a in args {
                    match a {
                        Expr::Var(n) => {
                            let l = self.local(n);
                            self.emit(Insn::ArgVar(l));
                        }
                        Expr::Index(n, subs) => {
                            for sub in subs {
                                self.expr(sub);
                            }
                            let l = self.local(n);
                            self.emit(Insn::ArgElem(l, subs.len() as u8));
                        }
                        e => {
                            self.expr(e);
                            self.emit(Insn::ArgVal);
                        }
                    }
                }
                match self.unit_by_name.get(name.as_str()) {
                    Some(&u) => {
                        self.emit(Insn::Call(u as u32, args.len() as u8));
                    }
                    None => {
                        let m = self.stri(&format!("call to undefined subroutine {name}"));
                        self.emit(Insn::CallUnknown(m));
                    }
                }
            }
            StmtKind::Write { items, .. } => {
                self.emit(Insn::WriteBegin);
                for item in items {
                    match item {
                        Expr::Str(text) => {
                            let m = self.stri(text);
                            self.emit(Insn::WriteStr(m));
                        }
                        e => {
                            self.expr(e);
                            self.emit(Insn::WriteVal);
                        }
                    }
                }
                self.emit(Insn::WriteEnd);
            }
            StmtKind::Stop { message } => {
                let m = self.stri(&message.clone().unwrap_or_default());
                self.emit(Insn::Stop(m));
            }
            StmtKind::Return => {
                self.emit(Insn::Ret);
            }
            StmtKind::Continue => {}
            StmtKind::Tagged { body, .. } => self.block(body),
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Int(v) => {
                self.emit(Insn::PushI(*v));
            }
            Expr::Real(R64(x)) => {
                self.emit(Insn::PushF(*x));
            }
            Expr::Logical(b) => {
                self.emit(Insn::PushB(*b));
            }
            Expr::Str(_) => {
                let m = self.stri("string in arithmetic context");
                self.emit(Insn::Bad(m));
            }
            Expr::Var(n) => {
                let l = self.local(n);
                self.emit(Insn::Load(l));
            }
            Expr::Index(n, subs) => {
                for sub in subs {
                    self.expr(sub);
                }
                let l = self.local(n);
                self.emit(Insn::LoadElem(l, subs.len() as u8));
            }
            Expr::Section(_, _) => {
                let m = self.stri("array section in scalar context");
                self.emit(Insn::Bad(m));
            }
            Expr::Intrinsic(i, args) => {
                for a in args {
                    self.expr(a);
                }
                self.emit(Insn::Intr(*i, args.len() as u8));
            }
            Expr::Bin(op, l, r) => {
                self.expr(l);
                self.expr(r);
                self.emit(Insn::Bin(*op));
            }
            Expr::Un(UnOp::Neg, inner) => {
                self.expr(inner);
                self.emit(Insn::Neg);
            }
            Expr::Un(UnOp::Not, inner) => {
                self.expr(inner);
                self.emit(Insn::Not);
            }
            Expr::Unknown(id, args) => {
                for a in args {
                    self.expr(a);
                }
                self.emit(Insn::UnknownOp(*id, args.len() as u8));
            }
            Expr::Unique(id, args) => {
                for a in args {
                    self.expr(a);
                }
                self.emit(Insn::UniqueOp(*id, args.len() as u8));
            }
        }
    }

    /// Lower one declared dimension into a value-code snippet (ticked
    /// like the reference engine's per-extent `eval`).
    fn dim_plan(&mut self, d: &Dim) -> DimPlan {
        match d {
            Dim::Assumed => DimPlan::Assumed,
            Dim::Extent(e) => {
                let saved = std::mem::take(&mut self.code);
                self.emit(Insn::Tick(cost(e)));
                self.expr(e);
                let code = std::mem::replace(&mut self.code, saved);
                DimPlan::Extent(code)
            }
        }
    }

    fn frame_plan(&mut self, unit: &ProcUnit, table: &SymbolTable) -> FramePlan {
        let formals = unit.params.iter().map(|p| self.local(p)).collect();
        let mut consts = Vec::new();
        for sym in table.iter() {
            if sym.storage == Storage::Param {
                let val = table.param_value(&sym.name).and_then(|e| e.as_int_const());
                let local = self.local(&sym.name);
                consts.push(ParamConstPlan {
                    local,
                    ty: sym.ty,
                    val,
                });
            }
        }
        let mut pending: Vec<&fir::symbol::Symbol> = table
            .iter()
            .filter(|s| matches!(s.storage, Storage::Common(_) | Storage::Local))
            .collect();
        pending.sort_by(|a, b| a.name.cmp(&b.name));
        let mut locals = Vec::with_capacity(pending.len());
        for sym in pending {
            let local = self.local(&sym.name);
            let dims = sym.dims.iter().map(|d| self.dim_plan(d)).collect();
            locals.push(LocalPlan {
                local,
                ty: sym.ty,
                block: match &sym.storage {
                    Storage::Common(b) => Some(b.clone()),
                    _ => None,
                },
                dims,
            });
        }
        let mut formal_dims = Vec::new();
        for p in &unit.params {
            let sym = table.get_or_implicit(p);
            if sym.is_array() {
                let local = self.local(p);
                let dims = sym.dims.iter().map(|d| self.dim_plan(d)).collect();
                formal_dims.push((local, dims));
            }
        }
        FramePlan {
            nlocals: 0, // patched after the body compiles
            formals,
            consts,
            locals,
            formal_dims,
        }
    }
}

/// Lower a program. Infallible: everything the reference engine reports
/// at runtime (undefined names, non-constant PARAMETERs, bad extents)
/// stays a runtime error here too.
pub fn compile(p: &Program) -> CompiledProgram {
    let mut unit_by_name: HashMap<&str, usize> = HashMap::new();
    let mut main = None;
    for (i, u) in p.units.iter().enumerate() {
        unit_by_name.entry(u.name.as_str()).or_insert(i);
        if u.kind == UnitKind::Program {
            main = Some(i);
        }
    }
    let tables: Vec<SymbolTable> = p.units.iter().map(SymbolTable::build).collect();

    // COMMON preallocation, in the reference engine's order: units in
    // program order, members sorted by name, constant extents only.
    let mut commons = Vec::new();
    for (u, table) in p.units.iter().zip(&tables) {
        let mut members: Vec<&fir::symbol::Symbol> = table
            .iter()
            .filter(|s| matches!(s.storage, Storage::Common(_)))
            .collect();
        members.sort_by(|a, b| a.name.cmp(&b.name));
        for sym in members {
            let Storage::Common(block) = &sym.storage else {
                unreachable!()
            };
            let mut len = 1usize;
            let mut resolvable = true;
            for d in &sym.dims {
                match d {
                    Dim::Extent(e) => match crate::interp::const_extent(e, table) {
                        Some(v) if v >= 0 => len *= (v as usize).max(1),
                        _ => resolvable = false,
                    },
                    Dim::Assumed => resolvable = false,
                }
            }
            if resolvable {
                commons.push((block.clone(), sym.name.clone(), sym.ty, len.max(1)));
            }
        }
        let _ = u;
    }

    let mut pool = StrPool::default();
    let mut units = Vec::with_capacity(p.units.len());
    for (u, table) in p.units.iter().zip(&tables) {
        let mut c = UnitCompiler {
            names: Vec::new(),
            name_idx: HashMap::new(),
            code: Vec::new(),
            loops: Vec::new(),
            secs: Vec::new(),
            strs: &mut pool,
            unit_by_name: &unit_by_name,
        };
        let mut plan = c.frame_plan(u, table);
        c.block(&u.body);
        c.emit(Insn::EndUnit);
        let typed = crate::treg::lower_typed(u, table, &mut c);
        plan.nlocals = c.names.len();
        units.push(UnitCode {
            name: u.name.clone(),
            code: c.code,
            names: c.names,
            loops: c.loops,
            secs: c.secs,
            plan,
            typed,
        });
    }

    let max_vregs = units
        .iter()
        .filter_map(|u| u.typed.as_ref())
        .map(|t| t.nvregs)
        .max()
        .unwrap_or(0);
    CompiledProgram {
        units,
        main,
        commons,
        strs: pool.strs,
        max_vregs,
    }
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
    /// An interned lowered message (`Insn::Bad`, `Insn::CallUnknown`).
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
    /// Value stack, shared by every frame of this VM (stack body only).
    pub(crate) stack: Vec<Scalar>,
    /// Typed value registers (typed body only): one flat `u64` bank —
    /// i64 bits, f64 bits, or 0/1 logicals, per the lowering's static
    /// types. Frames hold no live value registers across calls, so every
    /// frame shares this bank, sized once per run.
    pub(crate) vregs: Vec<u64>,
    /// Register file + dims arena, shared by every frame of this VM.
    pub(crate) regs: RegStack,
    /// Live DO loops of every frame (each frame owns a base index).
    pub(crate) loop_stack: Vec<LoopRec>,
    /// Typed body only: pre-resolved scalar operand stream — one packed
    /// `(slot << 32) | offset` word per frame register, snapshotted at
    /// `exec_typed` entry and truncated with the frame on return.
    /// `u64::MAX` marks unbound (or unpackably large) entries, which
    /// fall back to the full [`Reg`] read. Sound because frame windows
    /// are immutable during execution: bindings are written only by
    /// [`build_frame`]; execution appends arg views past the window.
    pub(crate) scal: Vec<u64>,
    /// Reusable subscript buffer.
    pub(crate) idx_scratch: Vec<i64>,
    /// Reusable section-bounds buffers (`StoreSection`).
    pub(crate) sec_bounds: Vec<(i64, i64)>,
    pub(crate) sec_idx: Vec<i64>,
    /// WRITE line under construction.
    pub(crate) line: String,
    pub(crate) line_items: usize,
    /// Retained chunk executor for directive loops (see
    /// [`exec_parallel`]): its register file, loop stack and journals
    /// serve every chunk of every execution.
    chunk: Option<Box<VmState>>,
    /// Always-on execution counters.
    pub(crate) ctr: VmCounters,
}

/// What a chunk of a directive loop records while it runs on the live
/// arena. Every buffer is retained across chunks and executions.
#[derive(Debug, Default)]
pub(crate) struct ChunkLog {
    /// `(slot, offset, new raw)` per logged store, in chunk order: merged
    /// into the arena once every chunk has run.
    writes: Vec<(usize, usize, f64)>,
    /// `(slot, offset, pre-write raw)` of every element the running chunk
    /// overwrote, replayed newest first when the chunk ends.
    undo: Vec<(usize, usize, f64)>,
    /// Each reduction's pre-loop value, then every chunk's final values,
    /// chunk-major.
    folds: Vec<f64>,
}

/// Immutable run context.
#[derive(Clone, Copy)]
pub(crate) struct Vx<'a> {
    pub(crate) prog: &'a CompiledProgram,
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

/// Run an already-lowered program.
pub fn run_compiled(prog: &CompiledProgram, opts: &ExecOptions) -> Result<RunResult, RtError> {
    let cx = Vx { prog, opts };
    let mut st = VmState::default();
    for (block, name, ty, len) in &prog.commons {
        st.mem.common(block, name, *ty, *len);
    }
    let main = prog.main.ok_or_else(|| RtError::new("no PROGRAM unit"))?;
    st.vregs.resize(prog.max_vregs, 0);
    let fb = build_frame(cx, &mut st, main, 0, 0).map_err(|e| e.into_rt(&prog.strs))?;
    let flow = if typed_body(&st, fb, &prog.units[main]).is_some() {
        crate::treg::exec_typed(cx, &mut st, main, fb, 0, None)
    } else {
        run_frame(cx, &mut st, main, fb, 0, None)
    }
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
    let cur = st.race.cur;
    let gen = st.race.gen;
    let e = &mut st.race.table[slot][off];
    if e.gen == gen {
        if e.iter != cur && (is_write || e.write) {
            if st.race.reported.insert(slot) {
                st.races.push(RaceViolation {
                    id: LoopId::new("?", 0),
                    what: format!(
                        "cross-iteration conflict on slot {slot} offset {off} (iters {} and {cur})",
                        e.iter
                    ),
                });
            }
            e.write |= is_write;
        } else {
            e.write |= is_write;
            e.iter = cur;
        }
    } else {
        *e = EpochEntry {
            gen,
            iter: cur,
            write: is_write,
        };
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

/// Memory write at a resolved `(slot, offset)` with write-logging and
/// race recording (the reference engine's `store`, minus the subscript
/// resolution — callers bound-check with [`flat_view`] first).
#[inline]
fn store_at(st: &mut VmState, slot: usize, off: usize, val: Scalar) {
    let s = &mut st.mem.slots[slot];
    let old = s.data[off];
    s.set(off, val);
    if let Some(log) = &mut st.log {
        log.undo.push((slot, off, old));
        log.writes.push((slot, off, s.data[off]));
    }
    record(st, slot, off, true);
}

/// [`store_at`] for a value already converted to the slot's raw `f64`
/// representation — the typed engine's store path. The conversion opcodes
/// replicate `Slot::set`'s per-type formula exactly, so the written raw
/// (and the logged raw) is bit-identical to the stack engine's.
#[inline]
pub(crate) fn store_raw(st: &mut VmState, slot: usize, off: usize, raw: f64) {
    let cell = &mut st.mem.slots[slot].data[off];
    if let Some(log) = &mut st.log {
        log.undo.push((slot, off, *cell));
        log.writes.push((slot, off, raw));
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
            log.undo.push((r.slot, r.offset, *old));
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

/// Pop `n` subscripts off the value stack into the scratch buffer,
/// preserving order.
#[inline]
fn pop_subs(st: &mut VmState, n: usize) {
    let base = st.stack.len() - n;
    st.idx_scratch.clear();
    for k in base..st.stack.len() {
        let v = st.stack[k].as_i();
        st.idx_scratch.push(v);
    }
    st.stack.truncate(base);
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
/// whichever body (stack or typed) pushed the records.
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

/// Pop the top of the value stack. Lowering guarantees a value was pushed
/// before every pop, so the empty case is unreachable; a
/// `debug_assert!`-backed structured error replaces the old panicking
/// `expect` so release builds degrade to a reported `RtError` under any
/// future lowering bug (chaos campaigns must never see a panic).
#[inline]
fn pop_val(st: &mut VmState) -> Result<Scalar, VmErr> {
    debug_assert!(!st.stack.is_empty(), "lowering pushes before every pop");
    match st.stack.pop() {
        Some(v) => Ok(v),
        None => Err(RtError::new("internal error: value stack underflow").into()),
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

/// Execute a value-producing instruction (shared by the main loop and
/// frame-build extent evaluation). `budget` is the op ceiling `Tick`
/// enforces. Force-inlined into both callers: in [`run_frame`] the
/// dispatch then collapses into the outer instruction switch instead of
/// paying a call plus a second discriminant test per value instruction.
#[inline(always)]
fn exec_value(
    st: &mut VmState,
    unit: &UnitCode,
    fb: usize,
    insn: &Insn,
    budget: u64,
) -> Result<(), VmErr> {
    match insn {
        Insn::Tick(n) => {
            st.ops += n;
            if st.ops > budget {
                return Err(RtError::budget_at(st.ops).into());
            }
        }
        Insn::PushI(v) => st.stack.push(Scalar::I(*v)),
        Insn::PushF(x) => st.stack.push(Scalar::F(*x)),
        Insn::PushB(b) => st.stack.push(Scalar::B(*b)),
        Insn::Load(l) => {
            let Some(r) = reg(st, fb, *l) else {
                return Err(RtError::new(format!(
                    "undefined variable {}",
                    unit.names[*l as usize]
                ))
                .into());
            };
            // Arrays read their first element (scalar context).
            let val = st.mem.slots[r.slot].get(r.offset);
            record(st, r.slot, r.offset, false);
            st.stack.push(val);
        }
        Insn::LoadElem(l, n) => {
            let Some(r) = reg(st, fb, *l) else {
                return Err(
                    RtError::new(format!("undefined array {}", unit.names[*l as usize])).into(),
                );
            };
            pop_subs(st, *n as usize);
            let slot_len = st.mem.slots[r.slot].data.len();
            let Some(off) = flat_view(r.offset, st.regs.dims_of(r), &st.idx_scratch, slot_len)
            else {
                return Err(RtError::new(format!(
                    "subscript out of range for {}{:?}",
                    unit.names[*l as usize], st.idx_scratch
                ))
                .into());
            };
            record(st, r.slot, off, false);
            let val = st.mem.slots[r.slot].get(off);
            st.stack.push(val);
        }
        Insn::Bin(op) => {
            let b = pop_val(st)?;
            let a = pop_val(st)?;
            st.stack.push(eval_bin(*op, a, b)?);
        }
        Insn::Neg => {
            let v = match pop_val(st)? {
                Scalar::I(v) => Scalar::I(-v),
                Scalar::F(v) => Scalar::F(-v),
                Scalar::B(_) => return Err(RtError::new("negation of logical").into()),
            };
            st.stack.push(v);
        }
        Insn::Not => {
            let v = pop_val(st)?.as_b();
            st.stack.push(Scalar::B(!v));
        }
        Insn::Intr(i, n) => {
            let base = st.stack.len() - *n as usize;
            let r = eval_intrinsic(*i, &st.stack[base..])?;
            st.stack.truncate(base);
            st.stack.push(r);
        }
        Insn::UnknownOp(id, n) => {
            let base = st.stack.len() - *n as usize;
            let mut h = 0x9E3779B97F4A7C15u64 ^ (*id as u64);
            for v in &st.stack[base..] {
                h = h
                    .wrapping_mul(0x100000001B3)
                    .wrapping_add(v.as_f().to_bits());
            }
            st.stack.truncate(base);
            st.stack
                .push(Scalar::F((h % 1_000_000) as f64 / 1_000_000.0));
        }
        Insn::UniqueOp(id, n) => {
            let base = st.stack.len() - *n as usize;
            let mut h = 0xDEADBEEFu64 ^ (*id as u64);
            for v in &st.stack[base..] {
                h = h.wrapping_mul(31).wrapping_add(v.as_i() as u64);
            }
            st.stack.truncate(base);
            st.stack.push(Scalar::I((h % (1 << 31)) as i64));
        }
        Insn::Bad(m) => {
            return Err(VmErr::Raise(*m));
        }
        other => unreachable!("non-value instruction in value context: {other:?}"),
    }
    Ok(())
}

/// Evaluate a frame-build extent snippet against the frame under
/// construction. Runs under the *default* op budget — the reference
/// engine's `resolve_dims` uses a throwaway default-option interpreter.
fn eval_extent(
    st: &mut VmState,
    unit: &UnitCode,
    fb: usize,
    code: &[Insn],
) -> Result<Scalar, VmErr> {
    for insn in code {
        st.ctr.insns_retired += 1;
        exec_value(st, unit, fb, insn, DEFAULT_MAX_OPS)?;
    }
    pop_val(st)
}

/// Resolve a dims plan into the dims arena; returns the arena window
/// `(dims_at, dims_len)`.
fn resolve_dims(
    cx: Vx<'_>,
    st: &mut VmState,
    unit: &UnitCode,
    fb: usize,
    dims: &[DimPlan],
    local: u32,
) -> Result<(usize, usize), VmErr> {
    let at = st.regs.dims.len();
    for d in dims {
        match d {
            DimPlan::Assumed => st.regs.dims.push(0),
            DimPlan::Extent(code) => {
                let v = eval_extent(st, unit, fb, code).map_err(|err| {
                    let name = &unit.names[local as usize];
                    let inner = err.into_rt(&cx.prog.strs);
                    VmErr::Rt(RtError::new(format!(
                        "bad extent for {name}: {}",
                        inner.message
                    )))
                })?;
                let n = v.as_i();
                if n < 0 {
                    let name = &unit.names[local as usize];
                    return Err(RtError::new(format!("negative extent for {name}")).into());
                }
                st.regs.dims.push(n as usize);
            }
        }
    }
    Ok((at, dims.len()))
}

/// Build a call frame in place on the register stack: same four phases,
/// same allocation order, as the reference engine's `build_frame` — slot
/// indices must match exactly. The frame's arguments are the top `nargs`
/// registers starting at `args_base`; the new frame is the `nlocals`
/// registers pushed on top of them. Returns the frame base.
pub(crate) fn build_frame(
    cx: Vx<'_>,
    st: &mut VmState,
    u: usize,
    args_base: usize,
    nargs: usize,
) -> Result<usize, VmErr> {
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
        let slot = st.mem.alloc(c.ty, 1);
        st.mem.slots[slot].set(0, Scalar::I(val));
        st.regs.regs[fb + c.local as usize] = Reg::scalar(slot, 0);
    }

    // Phase 3: COMMON members and locals, sorted by name; extents may
    // reference anything already bound.
    for lp in &plan.locals {
        let (dims_at, dims_len) = resolve_dims(cx, st, unit, fb, &lp.dims, lp.local)?;
        let len: usize = st.regs.dims[dims_at..dims_at + dims_len]
            .iter()
            .map(|&d| d.max(1))
            .product::<usize>()
            .max(1);
        let slot = match &lp.block {
            Some(block) => st
                .mem
                .common(block, &unit.names[lp.local as usize], lp.ty, len),
            None => st.mem.alloc(lp.ty, len),
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
        let (dims_at, dims_len) = resolve_dims(cx, st, unit, fb, dims, *l)?;
        let r = &mut st.regs.regs[fb + *l as usize];
        if r.slot != UNBOUND {
            r.dims_at = dims_at;
            r.dims_len = dims_len;
        }
    }

    Ok(fb)
}

/// Pick the body a freshly built frame runs: the typed register body when
/// the unit has one and every guarded local's actual slot type matches
/// the type the lowering assumed, else the stack body. The guard makes
/// static typing sound under Fortran type punning: a formal or COMMON
/// member bound to storage of a different declared type simply drops that
/// call to the (exact, slower) stack body.
#[inline]
pub(crate) fn typed_body<'a>(
    st: &VmState,
    fb: usize,
    unit: &'a UnitCode,
) -> Option<&'a crate::treg::TypedUnit> {
    let tu = unit.typed.as_ref()?;
    for &(l, class) in &tu.guards {
        if let Some(r) = reg(st, fb, l) {
            if crate::treg::ty_class(st.mem.slots[r.slot].ty) != class {
                return None;
            }
        }
    }
    Some(tu)
}

/// Build the callee frame for unit `target` over the top `nargs` argument
/// views, run whichever body [`typed_body`] picks, and release the frame.
/// Shared by both engines' `Call` instructions so mixed call stacks
/// (typed caller → guarded-out stack callee and vice versa) work.
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
    let cfb = build_frame(cx, st, target, args_base, nargs)?;
    st.call_depth += 1;
    st.ctr.peak_call_depth = st.ctr.peak_call_depth.max(st.call_depth as u64);
    let flow = if typed_body(st, cfb, &cx.prog.units[target]).is_some() {
        crate::treg::exec_typed(cx, st, target, cfb, 0, None)
    } else {
        run_frame(cx, st, target, cfb, 0, None)
    };
    st.call_depth -= 1;
    let flow = flow?;
    // Release the callee frame and its argument window: pure truncation,
    // capacity stays for the next call.
    st.regs.regs.truncate(args_base);
    st.scal.truncate(args_base);
    st.regs.dims.truncate(dims_mark);
    st.mem.release(mark);
    Ok(flow)
}

/// Execute a unit's code from `entry` in the frame at register base `fb`.
/// `chunk_of` marks chunk mode: the body of directive loop `m` runs as
/// one iteration, and reaching that loop's `DoNext` with no live loop
/// record ends the iteration.
pub(crate) fn run_frame(
    cx: Vx<'_>,
    st: &mut VmState,
    u: usize,
    fb: usize,
    entry: usize,
    chunk_of: Option<u32>,
) -> Result<Flow, VmErr> {
    let unit = &cx.prog.units[u];
    let code = &unit.code;
    let max_ops = cx.opts.max_ops;
    // This frame's loops live above `lb` on the shared loop stack.
    let lb = st.loop_stack.len();
    let mut pc = entry;
    loop {
        let insn = &code[pc];
        pc += 1;
        st.ctr.insns_retired += 1;
        match insn {
            Insn::Jump(t) => pc = *t as usize,
            Insn::JumpIfFalse(t) => {
                if !pop_val(st)?.as_b() {
                    pc = *t as usize;
                }
            }
            Insn::StoreVar(l) => {
                let Some(r) = reg(st, fb, *l) else {
                    return Err(RtError::new(format!(
                        "assignment to undeclared {}",
                        unit.names[*l as usize]
                    ))
                    .into());
                };
                let val = pop_val(st)?;
                if r.dims_len == 0 {
                    store_at(st, r.slot, r.offset, val);
                } else {
                    // Whole-array assignment (annotation collective form).
                    let slot_len = st.mem.slots[r.slot].data.len();
                    let len = view_len(r.offset, st.regs.dims_of(r), slot_len);
                    for k in 0..len {
                        store_at(st, r.slot, r.offset + k, val);
                    }
                }
            }
            Insn::StoreElem(l, n) => {
                let Some(r) = reg(st, fb, *l) else {
                    return Err(RtError::new(format!(
                        "undefined array {}",
                        unit.names[*l as usize]
                    ))
                    .into());
                };
                pop_subs(st, *n as usize);
                let val = pop_val(st)?;
                let slot_len = st.mem.slots[r.slot].data.len();
                let Some(off) = flat_view(r.offset, st.regs.dims_of(r), &st.idx_scratch, slot_len)
                else {
                    return Err(RtError::new("subscript out of range on store").into());
                };
                store_at(st, r.slot, off, val);
            }
            Insn::StoreSection(l, sidx) => {
                let Some(r) = reg(st, fb, *l) else {
                    return Err(RtError::new(format!(
                        "undefined array {}",
                        unit.names[*l as usize]
                    ))
                    .into());
                };
                let plan = &unit.secs[*sidx as usize];
                let mut bounds = std::mem::take(&mut st.sec_bounds);
                bounds.clear();
                bounds.resize(plan.len(), (0i64, 0i64));
                for k in (0..plan.len()).rev() {
                    let extent = st.regs.dims_of(r).get(k).copied().unwrap_or(1).max(1) as i64;
                    bounds[k] = match plan[k] {
                        SecDimPlan::Full => (1, extent),
                        SecDimPlan::At => {
                            let v = pop_val(st)?.as_i();
                            (v, v)
                        }
                        SecDimPlan::Range { has_lo, has_hi } => {
                            let h = if has_hi { pop_val(st)?.as_i() } else { extent };
                            let l = if has_lo { pop_val(st)?.as_i() } else { 1 };
                            (l, h)
                        }
                    };
                }
                let val = pop_val(st)?;
                let slot_len = st.mem.slots[r.slot].data.len();
                let mut idx = std::mem::take(&mut st.sec_idx);
                idx.clear();
                idx.extend(bounds.iter().map(|&(l, _)| l));
                'fill: loop {
                    if let Some(off) = flat_view(r.offset, st.regs.dims_of(r), &idx, slot_len) {
                        store_at(st, r.slot, off, val);
                    }
                    // Odometer increment, one tick per advance.
                    let mut k = 0;
                    loop {
                        if k == idx.len() {
                            break 'fill;
                        }
                        idx[k] += 1;
                        if idx[k] <= bounds[k].1 {
                            break;
                        }
                        idx[k] = bounds[k].0;
                        k += 1;
                    }
                    st.ops += 1;
                    if st.ops > max_ops {
                        st.sec_bounds = bounds;
                        st.sec_idx = idx;
                        return Err(RtError::budget_at(st.ops).into());
                    }
                }
                st.sec_bounds = bounds;
                st.sec_idx = idx;
            }
            Insn::WriteBegin => {
                st.line.clear();
                st.line_items = 0;
            }
            Insn::WriteStr(m) => {
                if st.line_items > 0 {
                    st.line.push(' ');
                }
                st.line.push_str(&cx.prog.strs[*m as usize]);
                st.line_items += 1;
            }
            Insn::WriteVal => {
                let v = pop_val(st)?;
                if st.line_items > 0 {
                    st.line.push(' ');
                }
                match v {
                    Scalar::I(i) => {
                        use std::fmt::Write as _;
                        let _ = write!(st.line, "{i}");
                    }
                    Scalar::F(x) => {
                        use std::fmt::Write as _;
                        let _ = write!(st.line, "{x:.9E}");
                    }
                    Scalar::B(b) => st.line.push_str(if b { "T" } else { "F" }),
                }
                st.line_items += 1;
            }
            Insn::WriteEnd => {
                let line = st.line.clone();
                st.io.push(line);
            }
            Insn::Stop(m) => {
                unwind_loops(st, &unit.loops, lb);
                return Ok(Flow::Stop(*m));
            }
            Insn::Ret => {
                unwind_loops(st, &unit.loops, lb);
                return Ok(Flow::Return);
            }
            Insn::EndUnit => return Ok(Flow::Normal),
            Insn::ArgVar(l) => match reg(st, fb, *l) {
                Some(r) => st.regs.regs.push(r),
                None => {
                    // Unbound name: fresh implicit scalar.
                    let ty = Type::implicit_for(&unit.names[*l as usize]);
                    let slot = st.mem.alloc(ty, 1);
                    st.regs.regs.push(Reg::scalar(slot, 0));
                }
            },
            Insn::ArgElem(l, n) => {
                let Some(r) = reg(st, fb, *l) else {
                    return Err(RtError::new(format!(
                        "undefined array {}",
                        unit.names[*l as usize]
                    ))
                    .into());
                };
                pop_subs(st, *n as usize);
                let slot_len = st.mem.slots[r.slot].data.len();
                let Some(off) = flat_view(r.offset, st.regs.dims_of(r), &st.idx_scratch, slot_len)
                else {
                    return Err(RtError::new(format!(
                        "subscript out of range for {}",
                        unit.names[*l as usize]
                    ))
                    .into());
                };
                st.regs.regs.push(Reg::elem(r.slot, off));
            }
            Insn::ArgVal => {
                let v = pop_val(st)?;
                let ty = match v {
                    Scalar::I(_) => Type::Integer,
                    Scalar::F(_) => Type::Double,
                    Scalar::B(_) => Type::Logical,
                };
                let slot = st.mem.alloc(ty, 1);
                st.mem.slots[slot].set(0, v);
                st.regs.regs.push(Reg::scalar(slot, 0));
            }
            Insn::Call(target, nargs) => {
                let flow = call_unit(cx, st, *target as usize, *nargs as usize)?;
                if let Flow::Stop(m) = flow {
                    unwind_loops(st, &unit.loops, lb);
                    return Ok(Flow::Stop(m));
                }
            }
            Insn::CallUnknown(m) => {
                return Err(VmErr::Raise(*m));
            }
            Insn::DoInit(mi) => {
                let meta = &unit.loops[*mi as usize];
                let step = if meta.has_step {
                    pop_val(st)?.as_i()
                } else {
                    1
                };
                let hi = pop_val(st)?.as_i();
                let lo = pop_val(st)?.as_i();
                if step == 0 {
                    return Err(RtError::new("zero DO step").into());
                }
                let Some(var) = reg(st, fb, meta.var) else {
                    return Err(RtError::new(format!(
                        "unbound loop variable {}",
                        unit.names[meta.var as usize]
                    ))
                    .into());
                };
                let n = trip_count(lo, hi, step);
                let is_outer_parallel = meta.dir.is_some() && st.par_depth == 0;
                if !is_outer_parallel {
                    if n == 0 {
                        pc = meta.exit_pc as usize;
                        continue;
                    }
                    write_var_journaled(st, var, Scalar::I(lo));
                    st.loop_stack.push(LoopRec {
                        meta: *mi,
                        cur: lo,
                        step,
                        n,
                        done: 0,
                        var,
                        par: None,
                    });
                    continue; // pc already at body_pc
                }

                // Outermost directive loop. The excluded-slot set recycles
                // the race checker's buffer (free while no loop is active).
                let dir = meta.dir.as_ref().expect("directive present");
                let ops_before = st.ops;
                let mut excluded = std::mem::take(&mut st.race.excluded);
                excluded.clear();
                excluded.push(var.slot);
                for &l in &dir.privates {
                    if let Some(r) = reg(st, fb, l) {
                        excluded.push(r.slot);
                    }
                }
                for &(_, l) in &dir.reductions {
                    if let Some(r) = reg(st, fb, l) {
                        excluded.push(r.slot);
                    }
                }
                excluded.sort_unstable();

                if cx.opts.threads > 1 && n > 1 {
                    let flow =
                        exec_parallel(cx, st, u, fb, *mi, var, lo, step, n, &excluded, false);
                    st.race.excluded = excluded;
                    let flow = flow?;
                    st.par_events.push(ParLoopEvent {
                        id: meta.id.clone(),
                        ops: st.ops - ops_before,
                        iters: n,
                    });
                    if let Flow::Stop(m) = flow {
                        unwind_loops(st, &unit.loops, lb);
                        return Ok(Flow::Stop(m));
                    }
                    pc = meta.exit_pc as usize;
                } else {
                    st.par_depth += 1;
                    if cx.opts.check_races {
                        activate_race(st, excluded);
                    } else {
                        st.race.excluded = excluded;
                    }
                    if n == 0 {
                        if st.race.active {
                            retire_race(st);
                        }
                        st.par_depth -= 1;
                        st.par_events.push(ParLoopEvent {
                            id: meta.id.clone(),
                            ops: st.ops - ops_before,
                            iters: 0,
                        });
                        pc = meta.exit_pc as usize;
                    } else {
                        write_var(&mut st.mem, var, Scalar::I(lo));
                        st.loop_stack.push(LoopRec {
                            meta: *mi,
                            cur: lo,
                            step,
                            n,
                            done: 0,
                            var,
                            par: Some(ops_before),
                        });
                    }
                }
            }
            Insn::DoNext(mi) => {
                if st.loop_stack.len() <= lb {
                    // Chunk mode: the controlled loop's body completed one
                    // iteration.
                    debug_assert_eq!(chunk_of, Some(*mi));
                    return Ok(Flow::Normal);
                }
                let li = st.loop_stack.len() - 1;
                let mut rec = st.loop_stack[li];
                rec.done += 1;
                if rec.done < rec.n {
                    rec.cur = rec.cur.wrapping_add(rec.step);
                    if rec.par.is_some() && st.race.active {
                        st.race.cur = rec.done as i64;
                    }
                    write_var(&mut st.mem, rec.var, Scalar::I(rec.cur));
                    st.loop_stack[li] = rec;
                    pc = unit.loops[rec.meta as usize].body_pc as usize;
                } else {
                    st.loop_stack.pop();
                    if let Some(ops_before) = rec.par {
                        if st.race.active {
                            retire_race(st);
                        }
                        st.par_depth -= 1;
                        st.par_events.push(ParLoopEvent {
                            id: unit.loops[rec.meta as usize].id.clone(),
                            ops: st.ops - ops_before,
                            iters: rec.n,
                        });
                    }
                    // pc already at exit_pc.
                }
            }
            other => exec_value(st, unit, fb, other, max_ops)?,
        }
    }
}

/// The static shape of one chunked directive-loop execution.
struct ChunkPlan<'a> {
    u: usize,
    mi: u32,
    var: Reg,
    lo: i64,
    step: i64,
    reductions: &'a [(RedOp, u32)],
    /// Seeded register window and dims-arena lengths.
    nlocals: usize,
    dims: usize,
    /// Entry of the loop body in the body (`typed` or stack) being run.
    body_pc: usize,
    typed: bool,
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
    cs.stack.clear();
    cs.loop_stack.clear();
    cs.line.clear();
    cs.line_items = 0;
    cs.regs.regs.truncate(plan.nlocals);
    cs.regs.dims.truncate(plan.dims);
    cs.scal.truncate(plan.nlocals);
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
        let r = if plan.typed {
            crate::treg::exec_typed(cx, cs, plan.u, 0, plan.body_pc, Some(plan.mi))
        } else {
            run_frame(cx, cs, plan.u, 0, plan.body_pc, Some(plan.mi))
        };
        match r {
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
            if slot < cp.slots {
                cs.mem.slots[slot].data[off] = raw;
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
    u: usize,
    fb: usize,
    mi: u32,
    var: Reg,
    lo: i64,
    step: i64,
    n: u64,
    excluded: &[usize],
    typed: bool,
) -> Result<Flow, VmErr> {
    let unit = &cx.prog.units[u];
    let meta = &unit.loops[mi as usize];
    let dir = meta.dir.as_ref().expect("directive present");
    let body_pc = if typed {
        unit.typed.as_ref().map(|t| t.loops[mi as usize].body_pc)
    } else {
        Some(meta.body_pc)
    }
    .unwrap_or(0) as usize;
    let nlocals = unit.plan.nlocals;

    // Seed the chunk state: the enclosing frame's register window rebased
    // to 0, plus the whole dims arena so `dims_at` indices stay valid.
    let mut cs = st.chunk.take().unwrap_or_default();
    cs.regs.regs.clear();
    cs.regs
        .regs
        .extend_from_slice(&st.regs.regs[fb..fb + nlocals]);
    cs.regs.dims.clear();
    cs.regs.dims.extend_from_slice(&st.regs.dims);
    cs.scal.clear();
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
        mi,
        var,
        lo,
        step,
        reductions: &dir.reductions,
        nlocals,
        dims: cs.regs.dims.len(),
        body_pc,
        typed,
    };
    let chunks = cx.opts.threads.min(n as usize).max(1);
    let (base, extra) = (n as usize / chunks, n as usize % chunks);
    let mut start = 0usize;
    let mut ops = 0u64;
    let mut flow = Ok(Flow::Normal);
    for k in 0..chunks {
        let len = base + usize::from(k < extra);
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
    fn typed_body_budget_positions_match_the_unfused_stack_body() {
        // The typed body folds Tick/TickP charges into control
        // transfers (branch-carried costs, DoNext back-edge charges,
        // J*IK literal folds). The stack body keeps explicit leading
        // Ticks — the unfused reference stream. Both must charge at the
        // same cumulative op indices: for EVERY budget the two bodies
        // must exhaust together and report the identical position
        // (`RtError::ops`), or both finish. This pins the fold's
        // position-equivalence argument directly, engine-internally.
        let p = parse(
            "      PROGRAM P
      COMMON /C/ A(8), S
      DIMENSION W(8)
      DO I = 1, 8
        A(I) = I*0.5
        W(I) = 0.0
      ENDDO
      K = 1
      DO I = 1, 8
        K = MOD(K*5 + I, 8) + 1
        IF (K .GT. 3) THEN
          W(K) = W(K) + A(I)
        ELSE
          W(K) = W(K) - 0.25
        ENDIF
      ENDDO
      S = 0.0
      DO I = 1, 8
        DO J = 1, 3
          S = S + W(I)*0.125 + J*0.0625
        ENDDO
      ENDDO
      WRITE(6,*) S
      END
",
        );
        let typed = compile(&p);
        let mut stack = compile(&p);
        for u in &mut stack.units {
            u.typed = None;
        }
        assert!(
            typed.units.iter().any(|u| u.typed.is_some()),
            "workload must take the typed body"
        );
        let total = run_compiled(&typed, &vm_opts(u64::MAX))
            .expect("full run")
            .total_ops;
        assert_eq!(
            total,
            run_compiled(&stack, &vm_opts(u64::MAX))
                .expect("full stack run")
                .total_ops,
            "bodies disagree on total ops"
        );
        let mut distinct = std::collections::BTreeSet::new();
        for max_ops in 0..total {
            let te = run_compiled(&typed, &vm_opts(max_ops))
                .expect_err("typed body must exhaust under total");
            let se = run_compiled(&stack, &vm_opts(max_ops))
                .expect_err("stack body must exhaust under total");
            assert_eq!(te.kind, crate::interp::RtErrorKind::Budget);
            assert_eq!(se.kind, crate::interp::RtErrorKind::Budget);
            assert_eq!(te.message, se.message, "messages diverged at {max_ops}");
            assert_eq!(
                te.ops, se.ops,
                "budget positions diverged at max_ops={max_ops}"
            );
            let at = te.ops.expect("typed budget error carries a position");
            assert!(at > max_ops, "charge at {at} did not exceed {max_ops}");
            distinct.insert(at);
        }
        // The sweep must cross real fold boundaries, not one giant run.
        assert!(
            distinct.len() >= 12,
            "only {} distinct charge points in 0..{total}",
            distinct.len()
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
            .code
            .iter()
            .filter_map(|i| match i {
                Insn::Tick(n) => Some(*n),
                _ => None,
            })
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
