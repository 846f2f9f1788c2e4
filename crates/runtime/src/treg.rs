//! Typed three-address register engine — the VM's one body per unit.
//!
//! MiniF77 types are fully static: every name resolves to INTEGER, REAL /
//! DOUBLE PRECISION, or LOGICAL at declaration (or by the implicit rule),
//! so a per-instruction tag dispatch like `eval_bin`'s is pure overhead.
//! This module lowers each unit into three-address code over a flat bank
//! of untyped 64-bit value registers whose static interpretation (i64
//! bits, f64 bits, or 0/1 logical) the lowering tracks per operand.
//! Monomorphic opcodes (`AddI`, `MulF`, `CmpLeI`, `LoadElemF`, …) read and
//! write registers directly: no pushes, no pops, no `Scalar` tags at
//! runtime. `eval_bin` stays untouched as the tree-walker's semantics
//! reference — every conversion and arithmetic formula here replicates it
//! bit for bit (see the per-opcode comments), and
//! `tests/engine_differential.rs` holds both engines to it.
//!
//! **Type punning.** Static types are a property of the *unit*, but
//! Fortran lets a caller bind an INTEGER actual to a REAL formal, and
//! COMMON blocks can be redeclared at other types. [`lower_typed`]
//! therefore takes the type class of each such local as an input: the
//! compile-time body assumes the declared classes, and
//! [`crate::bytecode`]'s frame build lowers (once, then caches) a body for
//! the classes a frame's storage is actually bound to whenever they differ
//! — the same code the declared body would be for a unit declared that
//! way. Frame-build extents lower here too, as snippets after the body.
//!
//! **Superword fusion.** On top of the typed ISA a peephole pass fuses the
//! dominant inner-loop shapes — `Load`/`Load`/`Bin`, `Load`/`Bin`, and
//! `Bin`/`Store` over REAL operands — into single [`Fused`](Op::Fused)
//! instructions driven by a [`FusedPlan`]. Fusion must preserve the exact
//! order of race-checker `record` events (the differential suite compares
//! `races` vectors element for element), so an instruction only moves
//! across others when every crossed instruction is record-free:
//! arithmetic is freely movable, loads are not. Fused retirements are
//! counted in `VmCounters::fused_insns`. Literal operands fold away
//! entirely (deleting a `Const` moves nothing, so it is always
//! order-safe): integer bins take a pool constant via `imm`
//! ([`Op::AddIK`] and friends), REAL plans take [`FOperand::Const`], and
//! an `i ± k` subscript collapses into the element op's displacement
//! field.
//!
//! **Dispatch.** The interpreter loop dispatches through [`step`], one
//! `match` over [`Op`]. A function-pointer handler table per opcode was
//! measured against it and dropped; see `docs/architecture.md`.

use crate::bytecode::{
    activate_race, call_unit, cost, exec_parallel, is_barrier, leading_cost, record, reg,
    retire_race, store_raw, trip_count, unwind_loops, write_var, write_var_journaled, DirPlan,
    Flow, LoopMeta, LoopRec, Reg, SecDimPlan, UnitCode, UnitCompiler, VmErr, VmState, Vx, UNBOUND,
};
use crate::interp::{ParLoopEvent, RtError};
use crate::memory::{flat_view, view_len, Scalar};
use fir::ast::{
    BinOp, Block, Expr, Ident, Intrinsic, ProcUnit, SecRange, Stmt, StmtKind, Type, UnOp, R64,
};
use fir::symbol::SymbolTable;

// ---------------------------------------------------------------------------
// Static types

/// Runtime type class of a declared type: 0 = integer, 1 = real/double,
/// 2 = logical. `Slot::get`/`Slot::set` treat REAL and DOUBLE PRECISION
/// identically, so they share a class and one body serves either.
pub(crate) fn ty_class(t: Type) -> u8 {
    match t {
        Type::Integer => 0,
        Type::Real | Type::Double => 1,
        Type::Logical => 2,
    }
}

/// Lowering-time value type of an expression / register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    /// i64, stored as its bit pattern.
    I,
    /// f64, stored via `to_bits`.
    F,
    /// logical, stored as 0/1 (an i64 bit pattern).
    B,
}

/// The lowering type of a [`ty_class`].
fn class_ty(class: u8) -> Ty {
    match class {
        0 => Ty::I,
        1 => Ty::F,
        _ => Ty::B,
    }
}

// ---------------------------------------------------------------------------
// Instruction set

/// Declares [`Op`] and its class table from one variant list, so
/// discriminants and table indices cannot drift apart.
macro_rules! ops {
    ($($name:ident),* $(,)?) => {
        /// Typed three-address opcodes. Operand conventions: `a`/`b` are
        /// source registers or a frame-local index, `c` is the
        /// destination register, `n` a small count, `imm` a pool index,
        /// jump target, loop index, or unit index (per opcode).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub(crate) enum Op { $($name),* }

        /// Per-opcode class index, as a flat table. The hot loop indexes
        /// this instead of calling [`Op::class`]: a `match` there makes
        /// LLVM thread the retire-histogram bump through per-class stubs,
        /// turning dispatch into TWO dependent indirect jumps per
        /// instruction; a data-dependent load keeps it at one.
        static CLASS_LUT: [u8; [$(Op::$name),*].len()] = {
            let mut t = [0u8; [$(Op::$name),*].len()];
            $( t[Op::$name as usize] = Op::$name.class() as u8; )*
            t
        };
    };
}

ops! {
    // Control.
    Tick, TickP, Jump, JmpFalse,
    // Fused compare-and-branch (jump to `imm` when the comparison is
    // FALSE — the polarity of `JumpIfFalse` after an IF condition).
    JEqI, JNeI, JLtI, JLeI, JGtI, JGeI,
    JEqF, JNeF, JLtF, JLeF, JGtF, JGeF,
    Bad, Stop, Ret, EndUnit, DoInit, DoNext,
    // Constants.
    ConstI, ConstF, ConstB,
    // Loads (by declared class of the local).
    LoadI, LoadF, LoadB, LoadElemI, LoadElemF, LoadElemB,
    // Stores (value register already holds the slot's raw f64).
    StoreScal, StoreElem, StoreSec,
    // Conversions (in place: a == c). The `Raw` forms produce the f64
    // raw representation `Slot::set` would write for the target class.
    IToF, FToI, IToB, FToB, FToRawI, FToRawB, IToRawB,
    // Binary arithmetic / comparison / logic, monomorphic.
    AddI, SubI, MulI, DivI, PowI,
    AddF, SubF, MulF, DivF, PowF,
    CmpEqI, CmpNeI, CmpLtI, CmpLeI, CmpGtI, CmpGeI,
    CmpEqF, CmpNeF, CmpLtF, CmpLeF, CmpGtF, CmpGeF,
    AndB, OrB, NotB, NegI, NegF,
    // Intrinsics.
    ModII, ModFF, AbsI, AbsF, MinI, MaxI, MinF, MaxF,
    SqrtF, ExpF, LogF, SinF, CosF, SignI, SignF, UnkOpF, UniqOpI,
    // Superword.
    Fused,
    // WRITE statement.
    WriteBegin, WriteStr, WriteValI, WriteValF, WriteValB, WriteEnd,
    // Calls.
    ArgVar, ArgElem, ArgValI, ArgValF, ArgValB, Call, CallUnknown,
    // Const-folded integer arithmetic: one operand comes from the
    // `consts_i` pool via `imm`, erasing the `ConstI` materialization
    // dispatch (`a` is the register operand, `c` the destination).
    AddIK, SubIK, MulIK,
    // Element access whose single subscript is a scalar INTEGER local,
    // read directly from the frame (`a` array local, `b` subscript
    // local, `c` value register, `imm` displacement) — the trailing
    // `LoadI` collapses into the access, one retirement instead of two.
    LoadElemIV, LoadElemFV, LoadElemBV, StoreElemV,
    // Integer superword plan (an [`IFusedPlan`] via `imm`): wrapping
    // Add/Sub/Mul whose operands may be absorbed integer loads.
    FusedI,
    // Fused compare-and-branch against a `consts_i` pool literal in `b`
    // (the `ConstI` materialization erased; same FALSE-jump polarity as
    // the register forms).
    JEqIK, JNeIK, JLtIK, JLeIK, JGtIK, JGeIK,
}

impl Op {
    /// Opcode class index, aligned with
    /// [`crate::interp::OP_CLASS_NAMES`].
    #[inline]
    const fn class(self) -> usize {
        use Op::*;
        match self {
            ConstI | ConstF | ConstB => 0,
            LoadI | LoadF | LoadB | LoadElemI | LoadElemF | LoadElemB | LoadElemIV | LoadElemFV
            | LoadElemBV => 1,
            StoreScal | StoreElem | StoreSec | StoreElemV => 2,
            AddI | SubI | MulI | DivI | PowI | AddF | SubF | MulF | DivF | PowF | CmpEqI
            | CmpNeI | CmpLtI | CmpLeI | CmpGtI | CmpGeI | CmpEqF | CmpNeF | CmpLtF | CmpLeF
            | CmpGtF | CmpGeF | AndB | OrB | NotB | NegI | NegF | IToF | FToI | IToB | FToB
            | FToRawI | FToRawB | IToRawB | AddIK | SubIK | MulIK => 3,
            ModII | ModFF | AbsI | AbsF | MinI | MaxI | MinF | MaxF | SqrtF | ExpF | LogF
            | SinF | CosF | SignI | SignF | UnkOpF | UniqOpI => 4,
            Fused | FusedI | JEqI | JNeI | JLtI | JLeI | JGtI | JGeI | JEqF | JNeF | JLtF
            | JLeF | JGtF | JGeF | JEqIK | JNeIK | JLtIK | JLeIK | JGtIK | JGeIK => 5,
            Tick | TickP | Jump | JmpFalse | Bad | Stop | Ret | EndUnit | DoInit | DoNext
            | WriteBegin | WriteStr | WriteValI | WriteValF | WriteValB | WriteEnd => 6,
            ArgVar | ArgElem | ArgValI | ArgValF | ArgValB | Call | CallUnknown => 7,
        }
    }

    /// True when executing the opcode can never call `record` — the
    /// condition under which fusion may move it across (or defer a
    /// record-bearing load past it) without reordering race events.
    /// Erroring is allowed: on the error path the run aborts before any
    /// race vector is observed. Conservative for opcodes fusion never
    /// crosses anyway (control, stores, calls).
    fn record_free(self) -> bool {
        use Op::*;
        matches!(
            self,
            ConstI
                | ConstF
                | ConstB
                | IToF
                | FToI
                | IToB
                | FToB
                | FToRawI
                | FToRawB
                | IToRawB
                | AddI
                | SubI
                | MulI
                | DivI
                | PowI
                | AddF
                | SubF
                | MulF
                | DivF
                | PowF
                | CmpEqI
                | CmpNeI
                | CmpLtI
                | CmpLeI
                | CmpGtI
                | CmpGeI
                | CmpEqF
                | CmpNeF
                | CmpLtF
                | CmpLeF
                | CmpGtF
                | CmpGeF
                | AndB
                | OrB
                | NotB
                | NegI
                | NegF
                | ModII
                | ModFF
                | AbsI
                | AbsF
                | MinI
                | MaxI
                | MinF
                | MaxF
                | SqrtF
                | ExpF
                | LogF
                | SinF
                | CosF
                | SignI
                | SignF
                | UnkOpF
                | UniqOpI
                | AddIK
                | SubIK
                | MulIK
        )
    }
}

/// One packed typed instruction: 12 bytes, `Copy`, fetched by value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TOp {
    pub(crate) op: Op,
    pub(crate) n: u8,
    pub(crate) a: u16,
    pub(crate) b: u16,
    pub(crate) c: u16,
    pub(crate) imm: u32,
}

/// Fused arithmetic operator (REAL path only — none of these can error,
/// which is what lets a fused instruction sit anywhere in a statement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
}

/// One operand of a fused instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FOperand {
    /// A value register (already REAL).
    Reg(u16),
    /// A `consts_f` pool entry (an absorbed `ConstF`).
    Const(u32),
    /// Scalar load of a REAL local.
    Scal(u16),
    /// 1-D element load: local `l`, subscript in register `s` plus
    /// constant displacement `d` (an absorbed `AddIK`/`SubIK`).
    Elem1 { l: u16, s: u16, d: i32 },
    /// 1-D element load whose subscript is the scalar INTEGER local `sl`,
    /// read from the frame at execution (an absorbed [`Op::LoadElemFV`]).
    /// The subscript read records first, then the element read — the
    /// order the collapsed `LoadI`/`LoadElemF` pair produced.
    Elem1V { l: u16, sl: u16, d: i32 },
}

/// The destination of a fused instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FDest {
    Reg(u16),
    /// Scalar (or whole-array) store to a REAL local.
    Scal(u16),
    /// 1-D element store (subscript register plus constant displacement).
    Elem1 {
        l: u16,
        s: u16,
        d: i32,
    },
    /// 1-D element store whose subscript is the scalar INTEGER local
    /// `sl` (the subscript `LoadI` absorbed into the plan; its read
    /// records immediately before the store's write, as unfused).
    Elem1V {
        l: u16,
        sl: u16,
        d: i32,
    },
}

/// Plan of one superword instruction: up to two memory reads, one
/// arithmetic op, one memory write — replacing two to four unfused
/// instructions. Reads execute left to right, then the write: exactly the
/// order the unfused sequence produced its `record` events in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedPlan {
    pub(crate) op: FOp,
    pub(crate) lhs: FOperand,
    pub(crate) rhs: FOperand,
    pub(crate) dst: FDest,
}

impl FusedPlan {
    /// True when executing the plan records nothing (all operands and the
    /// destination are registers) — such a fused instruction is movable
    /// like plain arithmetic.
    fn record_free(&self) -> bool {
        matches!(self.lhs, FOperand::Reg(_) | FOperand::Const(_))
            && matches!(self.rhs, FOperand::Reg(_) | FOperand::Const(_))
            && matches!(self.dst, FDest::Reg(_))
    }
}

/// Integer fused operator — restricted to the wrapping ops that can
/// never error (`DivI` raises on zero, `PowI` saturates through checked
/// arithmetic; both stay unfused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IOp {
    Add,
    Sub,
    Mul,
}

/// One operand of an integer fused instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IOperand {
    /// A value register (already i64 bits).
    Reg(u16),
    /// A `consts_i` pool entry (an absorbed `ConstI`).
    Const(u32),
    /// Scalar load of an INTEGER local.
    Scal(u16),
    /// 1-D element load, subscript in a register plus displacement.
    Elem1 { l: u16, s: u16, d: i32 },
    /// 1-D element load, subscript read from INTEGER local `sl`.
    Elem1V { l: u16, sl: u16, d: i32 },
}

/// Destination of an integer fused instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IDest {
    Reg(u16),
    /// Scalar (or whole-array) store to an INTEGER local.
    Scal(u16),
}

/// Plan of one integer superword instruction, mirroring [`FusedPlan`] on
/// the i64 side: reads left to right, then the write.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IFusedPlan {
    pub(crate) op: IOp,
    pub(crate) lhs: IOperand,
    pub(crate) rhs: IOperand,
    pub(crate) dst: IDest,
}

/// The typed body of one unit for one assignment of type classes. Every
/// body of a unit shares its frame layout (local indices come from the
/// unit's [`UnitCompiler`] name map).
#[derive(Debug, Clone)]
pub(crate) struct TypedUnit {
    pub(crate) code: Vec<TOp>,
    pub(crate) loops: Vec<LoopMeta>,
    pub(crate) secs: Vec<Vec<SecDimPlan>>,
    pub(crate) fused: Vec<FusedPlan>,
    pub(crate) ifused: Vec<IFusedPlan>,
    pub(crate) consts_i: Vec<i64>,
    pub(crate) consts_f: Vec<f64>,
    /// Overflow pool for `Tick` costs wider than `u32`.
    pub(crate) ticks: Vec<u64>,
    /// Entry of each frame-build extent snippet: `Tick`, the extent's
    /// code leaving its INTEGER value in register 0, `EndUnit`.
    pub(crate) extents: Vec<u32>,
    /// Value registers this body needs (the shared bank grows to the
    /// widest body entered).
    pub(crate) nvregs: usize,
}

// ---------------------------------------------------------------------------
// Lowering

/// Elem-store fusion candidate captured before the subscript lowers.
enum Cand {
    /// A trailing F-arithmetic instruction (record-free, freely movable).
    Bin(usize),
    /// A trailing `Fused` whose destination is the value register.
    Fus(usize),
}

/// Typed lowering pass over one unit. Interns locals and strings through
/// the unit's [`UnitCompiler`], so every body of a unit agrees on both.
/// Sets `ok = false` to bail the whole unit (the program then runs on the
/// tree-walker): operand counts beyond the packed encoding, or register
/// pressure beyond `u16`.
struct TC<'a, 'p> {
    g: &'a mut UnitCompiler<'p>,
    table: &'a SymbolTable,
    /// Bound type classes that replace the declared ones.
    over: &'a [(&'a str, u8)],
    code: Vec<TOp>,
    loops: Vec<LoopMeta>,
    secs: Vec<Vec<SecDimPlan>>,
    fused: Vec<FusedPlan>,
    ifused: Vec<IFusedPlan>,
    consts_i: Vec<i64>,
    consts_f: Vec<f64>,
    ticks: Vec<u64>,
    /// Current expression stack depth ≙ next free value register.
    depth: usize,
    max_depth: usize,
    /// First instruction of the statement being lowered: the peephole
    /// boundary (jump targets only ever land at statement starts).
    stmt_start: usize,
    ok: bool,
}

/// Lower the typed body of `u`, followed by its frame-build `extents`,
/// typing the locals named in `over` at the given classes instead of
/// their declared ones. Returns `None` when the unit exceeds the packed
/// encoding.
pub(crate) fn lower_typed(
    u: &ProcUnit,
    table: &SymbolTable,
    g: &mut UnitCompiler<'_>,
    extents: &[&Expr],
    over: &[(&str, u8)],
) -> Option<TypedUnit> {
    let mut tc = TC {
        g,
        table,
        over,
        code: Vec::new(),
        loops: Vec::new(),
        secs: Vec::new(),
        fused: Vec::new(),
        ifused: Vec::new(),
        consts_i: Vec::new(),
        consts_f: Vec::new(),
        ticks: Vec::new(),
        depth: 0,
        max_depth: 0,
        stmt_start: 0,
        ok: true,
    };
    tc.block(&u.body);
    tc.emit(Op::EndUnit, 0, 0, 0, 0, 0);
    let entries = extents.iter().map(|e| tc.extent(e)).collect();
    if !tc.ok || tc.code.len() > u32::MAX as usize {
        return None;
    }
    fold_branch_ticks(&mut tc.code);
    Some(TypedUnit {
        code: tc.code,
        loops: tc.loops,
        secs: tc.secs,
        fused: tc.fused,
        ifused: tc.ifused,
        consts_i: tc.consts_i,
        consts_f: tc.consts_f,
        ticks: tc.ticks,
        extents: entries,
        // At least one register: extent snippets return in register 0.
        nvregs: tc.max_depth.max(1),
    })
}

/// Post-lowering peephole: a branch whose target instruction is a
/// `Tick` absorbs the tick's cost into its free carried-cost field and
/// retargets past it — the taken path charges the budget at the branch,
/// one retirement earlier in the stream but at the *same op count* the
/// skipped `Tick` would have charged (nothing executes in between), so
/// budget-exhaustion positions stay differentially identical. The `Tick`
/// itself stays in place for fall-through entry. `TickP` (pool-width)
/// and costs beyond `u16` stay unfused. For the register branches the
/// cost rides in `c`; `J*IK` keeps its pool literal in `b` and likewise
/// carries cost in `c`.
fn fold_branch_ticks(code: &mut [TOp]) {
    use Op::*;
    for i in 0..code.len() {
        let insn = code[i];
        let foldable = matches!(
            insn.op,
            Jump | JmpFalse
                | JEqI
                | JNeI
                | JLtI
                | JLeI
                | JGtI
                | JGeI
                | JEqF
                | JNeF
                | JLtF
                | JLeF
                | JGtF
                | JGeF
                | JEqIK
                | JNeIK
                | JLtIK
                | JLeIK
                | JGtIK
                | JGeIK
        );
        if !foldable || insn.c != 0 {
            continue;
        }
        let t = insn.imm as usize;
        if t >= code.len() {
            continue;
        }
        let tick = code[t];
        if tick.op == Tick && tick.imm > 0 && tick.imm <= u16::MAX as u32 {
            code[i].c = tick.imm as u16;
            code[i].imm = insn.imm + 1;
        }
    }
}

impl TC<'_, '_> {
    fn emit(&mut self, op: Op, a: u16, b: u16, c: u16, n: u8, imm: u32) -> usize {
        self.code.push(TOp {
            op,
            n,
            a,
            b,
            c,
            imm,
        });
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Allocate the next value register (expression stack discipline:
    /// register index == expression depth).
    fn push(&mut self) -> u16 {
        let r = self.depth;
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        if r > u16::MAX as usize {
            self.ok = false;
            return 0;
        }
        r as u16
    }

    fn pop(&mut self, n: usize) {
        debug_assert!(self.depth >= n);
        self.depth -= n;
    }

    fn local16(&mut self, name: &Ident) -> u16 {
        let l = self.g.local(name);
        if l > u16::MAX as u32 {
            self.ok = false;
            return 0;
        }
        l as u16
    }

    /// Type class of `name` in this body: its bound class when one is
    /// given, else its declared (or implicit) one.
    fn class_of(&self, name: &str) -> Ty {
        if let Some(&(_, class)) = self.over.iter().find(|(n, _)| *n == name) {
            return class_ty(class);
        }
        let ty = self
            .table
            .get(name)
            .map_or_else(|| Type::implicit_for(name), |s| s.ty);
        class_ty(ty_class(ty))
    }

    fn ci(&mut self, v: i64) -> u32 {
        self.consts_i.push(v);
        (self.consts_i.len() - 1) as u32
    }

    fn cf(&mut self, v: f64) -> u32 {
        self.consts_f.push(v);
        (self.consts_f.len() - 1) as u32
    }

    fn tick(&mut self, n: u64) {
        if n <= u32::MAX as u64 {
            self.emit(Op::Tick, 0, 0, 0, 0, n as u32);
        } else {
            self.ticks.push(n);
            let i = (self.ticks.len() - 1) as u32;
            self.emit(Op::TickP, 0, 0, 0, 0, i);
        }
    }

    // -- conversions -------------------------------------------------------

    /// Coerce register `r` (type `t`) to f64 in place — `Scalar::as_f`.
    /// For logicals the 0/1 bit pattern *is* `b as i64`, so `IToF` covers
    /// both non-float classes.
    fn cvt_f(&mut self, r: u16, t: Ty) {
        if t != Ty::F {
            self.emit(Op::IToF, r, 0, r, 0, 0);
        }
    }

    /// Coerce to i64 in place — `Scalar::as_i` (logicals are already
    /// their `b as i64` pattern).
    fn cvt_i(&mut self, r: u16, t: Ty) {
        if t == Ty::F {
            self.emit(Op::FToI, r, 0, r, 0, 0);
        }
    }

    /// Coerce to logical in place — `Scalar::as_b`.
    fn cvt_b(&mut self, r: u16, t: Ty) {
        match t {
            Ty::I => {
                self.emit(Op::IToB, r, 0, r, 0, 0);
            }
            Ty::F => {
                self.emit(Op::FToB, r, 0, r, 0, 0);
            }
            Ty::B => {}
        }
    }

    /// Convert the value in `r` (type `vt`) to the raw f64 that
    /// `Slot::set` would store into a slot of class `dt` — after this the
    /// register holds the exact bits the store writes (and logs).
    fn store_conv(&mut self, r: u16, vt: Ty, dt: Ty) {
        let op = match (vt, dt) {
            // as_i(v) as f64: for I that's `v as f64`; B's pattern is
            // already its as_i value.
            (Ty::I, Ty::I) | (Ty::B, Ty::I) => Some(Op::IToF),
            (Ty::F, Ty::I) => Some(Op::FToRawI),
            // as_f(v): identity for F.
            (Ty::I, Ty::F) | (Ty::B, Ty::F) => Some(Op::IToF),
            (Ty::F, Ty::F) => None,
            // as_b(v) as i64 as f64.
            (Ty::I, Ty::B) => Some(Op::IToRawB),
            (Ty::F, Ty::B) => Some(Op::FToRawB),
            (Ty::B, Ty::B) => Some(Op::IToF),
        };
        if let Some(op) = op {
            self.emit(op, r, 0, r, 0, 0);
        }
    }

    // -- statements --------------------------------------------------------

    /// Lower one frame-build extent snippet; returns its entry. Charged
    /// like the reference engine's per-extent `eval`.
    fn extent(&mut self, e: &Expr) -> u32 {
        let entry = self.here();
        self.stmt_start = self.code.len();
        self.tick(cost(e));
        let t = self.expr(e);
        self.cvt_i(0, t);
        self.pop(1);
        self.emit(Op::EndUnit, 0, 0, 0, 0, 0);
        entry
    }

    /// Lower a block, merging the leading costs of each maximal
    /// straight-line run of statements into a single `Tick` (the per-run
    /// sums must equal the reference engine's per-node costs).
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
                self.tick(sum);
            }
            for s in &b[i..j] {
                self.stmt_start = self.code.len();
                self.stmt(s);
                debug_assert!(!self.ok || self.depth == 0, "registers leak across stmts");
            }
            i = j;
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        if !self.ok {
            return;
        }
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => self.assign(lhs, rhs),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let base = self.depth as u16;
                let t = self.expr(cond);
                self.cvt_b(base, t);
                let jf = self.emit_branch(base);
                self.pop(1);
                self.block(then_blk);
                let j = self.emit(Op::Jump, 0, 0, 0, 0, 0);
                self.code[jf].imm = self.here();
                self.block(else_blk);
                self.code[j].imm = self.here();
            }
            StmtKind::Do(d) => {
                let base = self.depth as u16;
                let t = self.expr(&d.lo);
                self.cvt_i(base, t);
                let t = self.expr(&d.hi);
                self.cvt_i(base + 1, t);
                if let Some(e) = &d.step {
                    let t = self.expr(e);
                    self.cvt_i(base + 2, t);
                }
                let dir = d.directive.as_ref().map(|dir| DirPlan {
                    privates: dir
                        .private
                        .iter()
                        .chain(dir.lastprivate.iter())
                        .map(|n| self.g.local(n))
                        .collect(),
                    reductions: dir
                        .reductions
                        .iter()
                        .map(|(op, n)| (*op, self.g.local(n)))
                        .collect(),
                });
                let mi = self.loops.len();
                self.loops.push(LoopMeta {
                    var: self.g.local(&d.var),
                    body_pc: 0,
                    exit_pc: 0,
                    id: d.id.clone(),
                    dir,
                    body_cost: 0,
                });
                self.emit(
                    Op::DoInit,
                    base,
                    base + 1,
                    base + 2,
                    u8::from(d.step.is_some()),
                    mi as u32,
                );
                self.pop(if d.step.is_some() { 3 } else { 2 });
                self.loops[mi].body_pc = self.here();
                self.block(&d.body);
                self.emit(Op::DoNext, 0, 0, 0, 0, mi as u32);
                self.loops[mi].exit_pc = self.here();
                // When the body opens with its budget tick, the back-edge
                // absorbs it: `DoNext` charges the cost itself and re-
                // enters at `body_pc + 1`. Entry from `DoInit` (and chunk
                // iterations) still falls onto the tick, so every
                // iteration charges exactly once, at the same op count as
                // the unfused stream.
                let entry = self.loops[mi].body_pc as usize;
                if let Some(first) = self.code.get(entry) {
                    self.loops[mi].body_cost = match first.op {
                        Op::Tick => first.imm as u64,
                        Op::TickP => self.ticks[first.imm as usize],
                        _ => 0,
                    };
                }
            }
            StmtKind::Call { name, args } => {
                if args.len() > u8::MAX as usize {
                    self.ok = false;
                    return;
                }
                for a in args {
                    match a {
                        Expr::Var(n) => {
                            let l = self.local16(n);
                            self.emit(Op::ArgVar, l, 0, 0, 0, 0);
                        }
                        Expr::Index(n, subs) => {
                            let first = self.depth as u16;
                            if !self.subs(subs) {
                                return;
                            }
                            let (src, disp) = if subs.len() == 1 {
                                self.fold_elem_disp(first)
                            } else {
                                (first, 0)
                            };
                            let l = self.local16(n);
                            self.emit(Op::ArgElem, l, src, 0, subs.len() as u8, disp);
                            self.pop(subs.len());
                        }
                        e => {
                            let base = self.depth as u16;
                            let t = self.expr(e);
                            let op = match t {
                                Ty::I => Op::ArgValI,
                                Ty::F => Op::ArgValF,
                                Ty::B => Op::ArgValB,
                            };
                            self.emit(op, base, 0, 0, 0, 0);
                            self.pop(1);
                        }
                    }
                }
                match self.g.unit_by_name.get(name.as_str()) {
                    Some(&u) => {
                        self.emit(Op::Call, 0, 0, 0, args.len() as u8, u as u32);
                    }
                    None => {
                        let m = self.g.stri(&format!("call to undefined subroutine {name}"));
                        self.emit(Op::CallUnknown, 0, 0, 0, 0, m);
                    }
                }
            }
            StmtKind::Write { items, .. } => {
                self.emit(Op::WriteBegin, 0, 0, 0, 0, 0);
                for item in items {
                    match item {
                        Expr::Str(text) => {
                            let m = self.g.stri(text);
                            self.emit(Op::WriteStr, 0, 0, 0, 0, m);
                        }
                        e => {
                            let base = self.depth as u16;
                            let t = self.expr(e);
                            let op = match t {
                                Ty::I => Op::WriteValI,
                                Ty::F => Op::WriteValF,
                                Ty::B => Op::WriteValB,
                            };
                            self.emit(op, base, 0, 0, 0, 0);
                            self.pop(1);
                        }
                    }
                }
                self.emit(Op::WriteEnd, 0, 0, 0, 0, 0);
            }
            StmtKind::Stop { message } => {
                let m = self.g.stri(&message.clone().unwrap_or_default());
                self.emit(Op::Stop, 0, 0, 0, 0, m);
            }
            StmtKind::Return => {
                self.emit(Op::Ret, 0, 0, 0, 0, 0);
            }
            StmtKind::Continue => {}
            StmtKind::Tagged { body, .. } => self.block(body),
        }
    }

    /// Lower subscript expressions to consecutive integer registers.
    /// Returns false (and bails) past the packed `n` limit.
    fn subs(&mut self, subs: &[Expr]) -> bool {
        if subs.len() > u8::MAX as usize {
            self.ok = false;
            return false;
        }
        for sub in subs {
            let d = self.depth as u16;
            let t = self.expr(sub);
            self.cvt_i(d, t);
        }
        self.ok
    }

    fn assign(&mut self, lhs: &Expr, rhs: &Expr) {
        let base = self.depth as u16;
        let vt = self.expr(rhs);
        match lhs {
            Expr::Var(n) => {
                let l = self.local16(n);
                let dt = self.class_of(n);
                if vt == Ty::F && dt == Ty::F && self.try_fuse_store_scal(l, base) {
                    self.pop(1);
                    return;
                }
                if vt == Ty::I && dt == Ty::I && self.try_fuse_store_scal_i(l, base) {
                    self.pop(1);
                    return;
                }
                self.store_conv(base, vt, dt);
                self.emit(Op::StoreScal, l, base, 0, 0, 0);
                self.pop(1);
            }
            Expr::Index(n, subs) => {
                let l = self.local16(n);
                let dt = self.class_of(n);
                let cand = if subs.len() == 1 && vt == Ty::F && dt == Ty::F {
                    self.fuse_candidate(base)
                } else {
                    None
                };
                // A candidate's operands live in registers `base`/`base+1`
                // and must survive until the moved instruction executes
                // AFTER the subscript code — reserve a register so the
                // subscripts (which allocate from the current depth) can
                // never alias the pending operands.
                let hole = usize::from(cand.is_some());
                if hole == 1 {
                    self.push();
                }
                let first = self.depth as u16;
                if !self.subs(subs) {
                    return;
                }
                let (src, disp) = if subs.len() == 1 {
                    self.fold_elem_disp(first)
                } else {
                    (first, 0)
                };
                let sl = if subs.len() == 1 {
                    self.fold_sub_var(src)
                } else {
                    None
                };
                if let Some(cand) = cand {
                    let done = match sl {
                        Some(sl) => self.try_fuse_store_elem_v(cand, l, sl, disp as i32),
                        None => self.try_fuse_store_elem(cand, l, src, disp as i32),
                    };
                    if done {
                        self.pop(1 + subs.len() + hole);
                        return;
                    }
                }
                self.store_conv(base, vt, dt);
                match sl {
                    Some(sl) => {
                        self.emit(Op::StoreElemV, l, sl, base, 1, disp);
                    }
                    None => {
                        self.emit(Op::StoreElem, l, src, base, subs.len() as u8, disp);
                    }
                }
                self.pop(1 + subs.len() + hole);
            }
            Expr::Section(n, ranges) => {
                let l = self.local16(n);
                let dt = self.class_of(n);
                let first = self.depth as u16;
                let mut plan = Vec::with_capacity(ranges.len());
                let mut nvals = 0usize;
                for r in ranges {
                    match r {
                        SecRange::Full => plan.push(SecDimPlan::Full),
                        SecRange::At(e) => {
                            let d = self.depth as u16;
                            let t = self.expr(e);
                            self.cvt_i(d, t);
                            nvals += 1;
                            plan.push(SecDimPlan::At);
                        }
                        SecRange::Range { lo, hi, .. } => {
                            if let Some(e) = lo {
                                let d = self.depth as u16;
                                let t = self.expr(e);
                                self.cvt_i(d, t);
                                nvals += 1;
                            }
                            if let Some(e) = hi {
                                let d = self.depth as u16;
                                let t = self.expr(e);
                                self.cvt_i(d, t);
                                nvals += 1;
                            }
                            plan.push(SecDimPlan::Range {
                                has_lo: lo.is_some(),
                                has_hi: hi.is_some(),
                            });
                        }
                    }
                }
                self.store_conv(base, vt, dt);
                self.secs.push(plan);
                let sidx = (self.secs.len() - 1) as u32;
                self.emit(Op::StoreSec, l, first, base, 0, sidx);
                self.pop(1 + nvals);
            }
            other => {
                let m = self.g.stri(&format!("invalid assignment target {other:?}"));
                self.emit(Op::Bad, 0, 0, 0, 0, m);
                self.pop(1);
            }
        }
    }

    /// Emit the conditional branch for an IF: when the condition is a
    /// fresh comparison, replace it in place with a fused
    /// compare-and-branch; otherwise a plain `JmpFalse`. Returns the
    /// instruction index to backpatch (`imm` is the jump target either
    /// way).
    fn emit_branch(&mut self, cond: u16) -> usize {
        use Op::*;
        if self.code.len() > self.stmt_start {
            let last = self.code.len() - 1;
            let insn = self.code[last];
            let fused = match insn.op {
                CmpEqI => Some(JEqI),
                CmpNeI => Some(JNeI),
                CmpLtI => Some(JLtI),
                CmpLeI => Some(JLeI),
                CmpGtI => Some(JGtI),
                CmpGeI => Some(JGeI),
                CmpEqF => Some(JEqF),
                CmpNeF => Some(JNeF),
                CmpLtF => Some(JLtF),
                CmpLeF => Some(JLeF),
                CmpGtF => Some(JGtF),
                CmpGeF => Some(JGeF),
                _ => None,
            };
            if let Some(op) = fused {
                if insn.c == cond {
                    // Integer compare against a literal: erase the
                    // `ConstI` materialization too — the branch carries
                    // the pool index in `b` (`J*IK` forms).
                    let kop = match op {
                        JEqI => Some(JEqIK),
                        JNeI => Some(JNeIK),
                        JLtI => Some(JLtIK),
                        JLeI => Some(JLeIK),
                        JGtI => Some(JGtIK),
                        JGeI => Some(JGeIK),
                        _ => None,
                    };
                    if let Some(kop) = kop {
                        if last > self.stmt_start {
                            let kinsn = self.code[last - 1];
                            if kinsn.op == ConstI
                                && kinsn.c == insn.b
                                && kinsn.imm <= u32::from(u16::MAX)
                            {
                                self.code.truncate(last - 1);
                                return self.emit(kop, insn.a, kinsn.imm as u16, 0, 0, 0);
                            }
                        }
                    }
                    self.code[last] = TOp {
                        op,
                        n: 0,
                        a: insn.a,
                        b: insn.b,
                        c: 0,
                        imm: 0,
                    };
                    return last;
                }
            }
        }
        self.emit(Op::JmpFalse, cond, 0, 0, 0, 0)
    }

    // -- expressions -------------------------------------------------------

    /// Lower a value expression; the result lands in the register equal
    /// to the entry depth, and the depth grows by one.
    fn expr(&mut self, e: &Expr) -> Ty {
        if !self.ok {
            // Keep depth bookkeeping consistent while bailing out.
            self.push();
            return Ty::F;
        }
        match e {
            Expr::Int(v) => {
                let i = self.ci(*v);
                let r = self.push();
                self.emit(Op::ConstI, 0, 0, r, 0, i);
                Ty::I
            }
            Expr::Real(R64(x)) => {
                let i = self.cf(*x);
                let r = self.push();
                self.emit(Op::ConstF, 0, 0, r, 0, i);
                Ty::F
            }
            Expr::Logical(b) => {
                let r = self.push();
                self.emit(Op::ConstB, 0, 0, r, 0, u32::from(*b));
                Ty::B
            }
            Expr::Str(_) => {
                let m = self.g.stri("string in arithmetic context");
                self.push();
                self.emit(Op::Bad, 0, 0, 0, 0, m);
                Ty::F
            }
            Expr::Var(n) => {
                let l = self.local16(n);
                let t = self.class_of(n);
                let r = self.push();
                let op = match t {
                    Ty::I => Op::LoadI,
                    Ty::F => Op::LoadF,
                    Ty::B => Op::LoadB,
                };
                self.emit(op, l, 0, r, 0, 0);
                t
            }
            Expr::Index(n, subs) => {
                let base = self.depth as u16;
                if !self.subs(subs) {
                    return Ty::F;
                }
                let (src, disp) = if subs.len() == 1 {
                    self.fold_elem_disp(base)
                } else {
                    (base, 0)
                };
                let sl = if subs.len() == 1 {
                    self.fold_sub_var(src)
                } else {
                    None
                };
                let l = self.local16(n);
                let t = self.class_of(n);
                match sl {
                    Some(sl) => {
                        let op = match t {
                            Ty::I => Op::LoadElemIV,
                            Ty::F => Op::LoadElemFV,
                            Ty::B => Op::LoadElemBV,
                        };
                        self.emit(op, l, sl, base, 1, disp);
                    }
                    None => {
                        let op = match t {
                            Ty::I => Op::LoadElemI,
                            Ty::F => Op::LoadElemF,
                            Ty::B => Op::LoadElemB,
                        };
                        self.emit(op, l, src, base, subs.len() as u8, disp);
                    }
                }
                self.pop(subs.len());
                let r = self.push();
                debug_assert_eq!(r, base);
                t
            }
            Expr::Section(_, _) => {
                let m = self.g.stri("array section in scalar context");
                self.push();
                self.emit(Op::Bad, 0, 0, 0, 0, m);
                Ty::F
            }
            Expr::Intrinsic(i, args) => self.intrinsic(*i, args),
            Expr::Bin(op, l, r) => self.bin(*op, l, r),
            Expr::Un(UnOp::Neg, inner) => {
                let base = self.depth as u16;
                match self.expr(inner) {
                    Ty::I => {
                        self.emit(Op::NegI, base, 0, base, 0, 0);
                        Ty::I
                    }
                    Ty::F => {
                        self.emit(Op::NegF, base, 0, base, 0, 0);
                        Ty::F
                    }
                    Ty::B => {
                        let m = self.g.stri("negation of logical");
                        self.emit(Op::Bad, 0, 0, 0, 0, m);
                        Ty::F
                    }
                }
            }
            Expr::Un(UnOp::Not, inner) => {
                let base = self.depth as u16;
                let t = self.expr(inner);
                self.cvt_b(base, t);
                self.emit(Op::NotB, base, 0, base, 0, 0);
                Ty::B
            }
            Expr::Unknown(id, args) => {
                let base = self.depth as u16;
                if args.len() > u8::MAX as usize {
                    self.ok = false;
                    self.push();
                    return Ty::F;
                }
                for a in args {
                    let d = self.depth as u16;
                    let t = self.expr(a);
                    self.cvt_f(d, t);
                }
                self.emit(Op::UnkOpF, 0, base, base, args.len() as u8, *id);
                self.pop(args.len());
                self.push();
                Ty::F
            }
            Expr::Unique(id, args) => {
                let base = self.depth as u16;
                if args.len() > u8::MAX as usize {
                    self.ok = false;
                    self.push();
                    return Ty::I;
                }
                for a in args {
                    let d = self.depth as u16;
                    let t = self.expr(a);
                    self.cvt_i(d, t);
                }
                self.emit(Op::UniqOpI, 0, base, base, args.len() as u8, *id);
                self.pop(args.len());
                self.push();
                Ty::I
            }
        }
    }

    fn bin(&mut self, op: BinOp, l: &Expr, r: &Expr) -> Ty {
        let base = self.depth as u16;
        let lt = self.expr(l);
        let rt = self.expr(r);
        use BinOp::*;
        let t = match op {
            Add | Sub | Mul | Div | Pow => {
                // eval_bin's integer path requires *both* operands to be
                // Scalar::I — a logical falls through to the float path.
                if lt == Ty::I && rt == Ty::I {
                    if matches!(op, Add | Sub | Mul) {
                        // Wrapping ops can absorb operand loads into an
                        // integer superword plan (and fall back to the
                        // `*IK` const fold / plain op).
                        self.fuse_or_emit_bini(op, base);
                    } else if !self.fold_bin_ik(op, base) {
                        let o = match op {
                            Div => Op::DivI,
                            Pow => Op::PowI,
                            _ => unreachable!(),
                        };
                        self.emit(o, base, base + 1, base, 0, 0);
                    }
                    Ty::I
                } else {
                    self.cvt_f(base, lt);
                    self.cvt_f(base + 1, rt);
                    self.fuse_or_emit_binf(op, base);
                    Ty::F
                }
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                // eval_bin compares through as_f always; when neither
                // side is F the CmpI forms widen i64 → f64 internally.
                let o = if lt != Ty::F && rt != Ty::F {
                    match op {
                        Eq => Op::CmpEqI,
                        Ne => Op::CmpNeI,
                        Lt => Op::CmpLtI,
                        Le => Op::CmpLeI,
                        Gt => Op::CmpGtI,
                        Ge => Op::CmpGeI,
                        _ => unreachable!(),
                    }
                } else {
                    self.cvt_f(base, lt);
                    self.cvt_f(base + 1, rt);
                    match op {
                        Eq => Op::CmpEqF,
                        Ne => Op::CmpNeF,
                        Lt => Op::CmpLtF,
                        Le => Op::CmpLeF,
                        Gt => Op::CmpGtF,
                        Ge => Op::CmpGeF,
                        _ => unreachable!(),
                    }
                };
                self.emit(o, base, base + 1, base, 0, 0);
                Ty::B
            }
            And => {
                self.cvt_b(base, lt);
                self.cvt_b(base + 1, rt);
                self.emit(Op::AndB, base, base + 1, base, 0, 0);
                Ty::B
            }
            Or => {
                self.cvt_b(base, lt);
                self.cvt_b(base + 1, rt);
                self.emit(Op::OrB, base, base + 1, base, 0, 0);
                Ty::B
            }
        };
        self.pop(1);
        t
    }

    fn intrinsic(&mut self, i: Intrinsic, args: &[Expr]) -> Ty {
        let base = self.depth as u16;
        if args.len() > u8::MAX as usize {
            self.ok = false;
            self.push();
            return Ty::F;
        }
        let mut tys = Vec::with_capacity(args.len());
        for a in args {
            tys.push(self.expr(a));
        }
        let n = args.len();
        let need = match i {
            Intrinsic::Mod | Intrinsic::Sign => 2,
            _ => 1,
        };
        if n < need {
            // The reference engine evaluates every argument, then errors.
            let m = self.g.stri(&format!("intrinsic {i:?} needs {need} args"));
            self.emit(Op::Bad, 0, 0, 0, 0, m);
            if n == 0 {
                self.push();
            } else {
                self.pop(n - 1);
            }
            return Ty::F;
        }
        let t = match i {
            Intrinsic::Mod => {
                if tys[0] == Ty::I && tys[1] == Ty::I {
                    self.emit(Op::ModII, base, base + 1, base, 0, 0);
                    Ty::I
                } else {
                    self.cvt_f(base, tys[0]);
                    self.cvt_f(base + 1, tys[1]);
                    self.emit(Op::ModFF, base, base + 1, base, 0, 0);
                    Ty::F
                }
            }
            Intrinsic::Abs => {
                if tys[0] == Ty::I {
                    self.emit(Op::AbsI, base, 0, base, 0, 0);
                    Ty::I
                } else {
                    self.cvt_f(base, tys[0]);
                    self.emit(Op::AbsF, base, 0, base, 0, 0);
                    Ty::F
                }
            }
            Intrinsic::Min | Intrinsic::Max => {
                // eval_intrinsic's integer path requires every argument
                // strictly Scalar::I.
                if tys.iter().all(|&t| t == Ty::I) {
                    let o = if i == Intrinsic::Min {
                        Op::MinI
                    } else {
                        Op::MaxI
                    };
                    self.emit(o, 0, base, base, n as u8, 0);
                    Ty::I
                } else {
                    for (k, &t) in tys.iter().enumerate() {
                        self.cvt_f(base + k as u16, t);
                    }
                    let o = if i == Intrinsic::Min {
                        Op::MinF
                    } else {
                        Op::MaxF
                    };
                    self.emit(o, 0, base, base, n as u8, 0);
                    Ty::F
                }
            }
            Intrinsic::Sqrt | Intrinsic::Exp | Intrinsic::Log | Intrinsic::Sin | Intrinsic::Cos => {
                self.cvt_f(base, tys[0]);
                let o = match i {
                    Intrinsic::Sqrt => Op::SqrtF,
                    Intrinsic::Exp => Op::ExpF,
                    Intrinsic::Log => Op::LogF,
                    Intrinsic::Sin => Op::SinF,
                    Intrinsic::Cos => Op::CosF,
                    _ => unreachable!(),
                };
                self.emit(o, base, 0, base, 0, 0);
                Ty::F
            }
            Intrinsic::Int => {
                self.cvt_i(base, tys[0]);
                Ty::I
            }
            Intrinsic::Dble => {
                self.cvt_f(base, tys[0]);
                Ty::F
            }
            Intrinsic::Sign => {
                self.cvt_f(base, tys[0]);
                self.cvt_f(base + 1, tys[1]);
                if tys[0] == Ty::I {
                    self.emit(Op::SignI, base, base + 1, base, 0, 0);
                    Ty::I
                } else {
                    self.emit(Op::SignF, base, base + 1, base, 0, 0);
                    Ty::F
                }
            }
        };
        // Extra arguments were evaluated (records and all) and ignored.
        self.pop(n - 1);
        t
    }

    // -- superword fusion --------------------------------------------------

    /// The value register an instruction defines, if any.
    fn def_reg(insn: &TOp) -> Option<u16> {
        use Op::*;
        match insn.op {
            ConstI | ConstF | ConstB | LoadI | LoadF | LoadB | LoadElemI | LoadElemF
            | LoadElemB | IToF | FToI | IToB | FToB | FToRawI | FToRawB | IToRawB | AddI | SubI
            | MulI | DivI | PowI | AddF | SubF | MulF | DivF | PowF | CmpEqI | CmpNeI | CmpLtI
            | CmpLeI | CmpGtI | CmpGeI | CmpEqF | CmpNeF | CmpLtF | CmpLeF | CmpGtF | CmpGeF
            | AndB | OrB | NotB | NegI | NegF | ModII | ModFF | AbsI | AbsF | MinI | MaxI
            | MinF | MaxF | SqrtF | ExpF | LogF | SinF | CosF | SignI | SignF | UnkOpF
            | UniqOpI | AddIK | SubIK | MulIK | LoadElemIV | LoadElemFV | LoadElemBV => {
                Some(insn.c)
            }
            // Resolved through their plans; treated opaquely.
            Fused | FusedI => None,
            _ => None,
        }
    }

    /// Recognize a removable REAL producer of register `r`: a load, or a
    /// `ConstF` (record-free, so absorbing it can never reorder events).
    fn as_load_operand(insn: &TOp, r: u16) -> Option<FOperand> {
        match insn.op {
            Op::LoadF if insn.c == r => Some(FOperand::Scal(insn.a)),
            Op::ConstF if insn.c == r => Some(FOperand::Const(insn.imm)),
            Op::LoadElemF if insn.c == r && insn.n == 1 => Some(FOperand::Elem1 {
                l: insn.a,
                s: insn.b,
                d: insn.imm as i32,
            }),
            Op::LoadElemFV if insn.c == r && insn.n == 1 => Some(FOperand::Elem1V {
                l: insn.a,
                sl: insn.b,
                d: insn.imm as i32,
            }),
            _ => None,
        }
    }

    /// Integer mirror of [`Self::as_load_operand`]: a removable INTEGER
    /// producer of register `r`. `ConstI` stays with the `*IK` fold,
    /// which is cheaper than a plan indirection.
    fn as_load_operand_i(insn: &TOp, r: u16) -> Option<IOperand> {
        match insn.op {
            Op::LoadI if insn.c == r => Some(IOperand::Scal(insn.a)),
            Op::LoadElemI if insn.c == r && insn.n == 1 => Some(IOperand::Elem1 {
                l: insn.a,
                s: insn.b,
                d: insn.imm as i32,
            }),
            Op::LoadElemIV if insn.c == r && insn.n == 1 => Some(IOperand::Elem1V {
                l: insn.a,
                sl: insn.b,
                d: insn.imm as i32,
            }),
            _ => None,
        }
    }

    fn fop_of(op: BinOp) -> FOp {
        match op {
            BinOp::Add => FOp::Add,
            BinOp::Sub => FOp::Sub,
            BinOp::Mul => FOp::Mul,
            BinOp::Div => FOp::Div,
            BinOp::Pow => FOp::Pow,
            _ => unreachable!("fusion is arithmetic-only"),
        }
    }

    fn binf_op(op: Op) -> Option<FOp> {
        match op {
            Op::AddF => Some(FOp::Add),
            Op::SubF => Some(FOp::Sub),
            Op::MulF => Some(FOp::Mul),
            Op::DivF => Some(FOp::Div),
            Op::PowF => Some(FOp::Pow),
            _ => None,
        }
    }

    /// Emit an integer `Add`/`Sub`/`Mul` as its const-folded `*IK` form
    /// when one operand is a literal, deleting the `ConstI` and carrying
    /// its pool index in `imm` — the literal's materialization dispatch
    /// disappears from the hot loop. Nothing *moves*: a `ConstI` records
    /// no event, so removing it can never reorder the race log. Returns
    /// false when neither operand is a foldable literal.
    fn fold_bin_ik(&mut self, op: BinOp, base: u16) -> bool {
        let ko = match op {
            BinOp::Add => Op::AddIK,
            BinOp::Sub => Op::SubIK,
            BinOp::Mul => Op::MulIK,
            _ => return false,
        };
        let end = self.code.len();
        if end <= self.stmt_start {
            return false;
        }
        // Rhs literal: always the immediately preceding instruction.
        let last = self.code[end - 1];
        if last.op == Op::ConstI && last.c == base + 1 {
            self.code.pop();
            self.emit(ko, base, 0, base, 0, last.imm);
            return true;
        }
        // Lhs literal (commutative ops only): the unique definer of
        // `base`, somewhere before the rhs code. The backward scan only
        // crosses instructions that provably define a *different*
        // register — anything opaque (`Fused` resolves its destination
        // through the plan, `Bad` and friends define nothing) ends it.
        if op == BinOp::Sub {
            return false;
        }
        let mut p = end;
        while p > self.stmt_start {
            p -= 1;
            let insn = self.code[p];
            if insn.op == Op::Fused {
                if self.fused[insn.imm as usize].dst == FDest::Reg(base) {
                    return false;
                }
                continue;
            }
            match Self::def_reg(&insn) {
                Some(r) if r == base => {
                    if insn.op == Op::ConstI {
                        self.code.remove(p);
                        self.emit(ko, base + 1, 0, base, 0, insn.imm);
                        return true;
                    }
                    return false;
                }
                Some(_) => {}
                None => return false,
            }
        }
        false
    }

    /// After a one-subscript lowering into register `first`, fold a
    /// trailing `AddIK`/`SubIK` (an `i ± k` subscript) into the element
    /// access itself: returns the source register and the signed
    /// displacement to ride in the element op's `imm`. The arithmetic
    /// records nothing, so deleting it is order-preserving; literals
    /// outside i32 stay as explicit instructions.
    fn fold_elem_disp(&mut self, first: u16) -> (u16, u32) {
        let end = self.code.len();
        if end > self.stmt_start {
            let insn = self.code[end - 1];
            if insn.c == first && matches!(insn.op, Op::AddIK | Op::SubIK) {
                let k = self.consts_i[insn.imm as usize];
                let k = if insn.op == Op::SubIK {
                    k.wrapping_neg()
                } else {
                    k
                };
                if let Ok(k32) = i32::try_from(k) {
                    self.code.pop();
                    return (insn.a, k32 as u32);
                }
            }
        }
        (first, 0)
    }

    /// After [`Self::fold_elem_disp`], collapse a trailing `LoadI` that
    /// produced the subscript register `src`: the element op reads the
    /// INTEGER local directly (the `*V` forms), one retirement instead
    /// of two. The load's record position is preserved — it was the
    /// immediately preceding instruction, and the collapsed op performs
    /// its read (and record) first.
    fn fold_sub_var(&mut self, src: u16) -> Option<u16> {
        let end = self.code.len();
        if end <= self.stmt_start {
            return None;
        }
        let insn = self.code[end - 1];
        if insn.op == Op::LoadI && insn.c == src {
            self.code.pop();
            return Some(insn.a);
        }
        None
    }

    /// Emit a REAL arithmetic op over `base`/`base+1`, absorbing operand
    /// loads into a fused instruction where the record order provably
    /// survives:
    ///
    /// * the rhs load may be absorbed when it is the immediately
    ///   preceding instruction (its read executes at the same position);
    /// * the lhs load may be absorbed when every instruction between it
    ///   and this point is record-free (its read is deferred across pure
    ///   arithmetic only).
    fn fuse_or_emit_binf(&mut self, op: BinOp, base: u16) {
        let fop = Self::fop_of(op);
        let end = self.code.len();
        let mut rhs = FOperand::Reg(base + 1);
        let mut rpos = None;
        if end > self.stmt_start {
            if let Some(o) = Self::as_load_operand(&self.code[end - 1], base + 1) {
                rhs = o;
                rpos = Some(end - 1);
            }
        }
        let mut lhs = FOperand::Reg(base);
        let mut lpos = None;
        let scan_end = rpos.unwrap_or(end);
        let mut p = scan_end;
        while p > self.stmt_start {
            p -= 1;
            let insn = self.code[p];
            if Self::def_reg(&insn) == Some(base) {
                if let Some(o) = Self::as_load_operand(&insn, base) {
                    lhs = o;
                    lpos = Some(p);
                }
                break;
            }
            if !insn.op.record_free() {
                break;
            }
        }
        if rpos.is_none() && lpos.is_none() {
            let o = match fop {
                FOp::Add => Op::AddF,
                FOp::Sub => Op::SubF,
                FOp::Mul => Op::MulF,
                FOp::Div => Op::DivF,
                FOp::Pow => Op::PowF,
            };
            self.emit(o, base, base + 1, base, 0, 0);
            return;
        }
        // Remove higher positions first so lower indices stay valid. All
        // recorded jump targets point at statement boundaries (≤
        // stmt_start ≤ removal points), so splicing is safe.
        if let Some(rp) = rpos {
            self.code.remove(rp);
        }
        if let Some(lp) = lpos {
            self.code.remove(lp);
        }
        self.fused.push(FusedPlan {
            op: fop,
            lhs,
            rhs,
            dst: FDest::Reg(base),
        });
        let idx = (self.fused.len() - 1) as u32;
        self.emit(Op::Fused, 0, 0, 0, 0, idx);
    }

    /// Fold a trailing F-arithmetic (or register-destined fused) producer
    /// of `base` into a scalar store to local `l`. No instruction moves:
    /// the store retires at the producer's position, which was the
    /// instruction immediately before the store anyway.
    fn try_fuse_store_scal(&mut self, l: u16, base: u16) -> bool {
        let end = self.code.len();
        if end <= self.stmt_start {
            return false;
        }
        let insn = self.code[end - 1];
        if let Some(fop) = Self::binf_op(insn.op) {
            if insn.c == base {
                self.code.pop();
                self.fused.push(FusedPlan {
                    op: fop,
                    lhs: FOperand::Reg(insn.a),
                    rhs: FOperand::Reg(insn.b),
                    dst: FDest::Scal(l),
                });
                let idx = (self.fused.len() - 1) as u32;
                self.emit(Op::Fused, 0, 0, 0, 0, idx);
                return true;
            }
        }
        if insn.op == Op::Fused {
            let idx = insn.imm as usize;
            if self.fused[idx].dst == FDest::Reg(base) {
                self.fused[idx].dst = FDest::Scal(l);
                return true;
            }
        }
        false
    }

    /// Capture the elem-store fusion candidate: the last instruction, if
    /// it is an F-arithmetic or a fused instruction producing `base`.
    /// Must run *before* the subscript lowers (the candidate will have to
    /// move across the subscript's code).
    fn fuse_candidate(&mut self, base: u16) -> Option<Cand> {
        let end = self.code.len();
        if end <= self.stmt_start {
            return None;
        }
        let insn = self.code[end - 1];
        if let Some(_fop) = Self::binf_op(insn.op) {
            if insn.c == base {
                return Some(Cand::Bin(end - 1));
            }
        }
        if insn.op == Op::Fused && self.fused[insn.imm as usize].dst == FDest::Reg(base) {
            return Some(Cand::Fus(end - 1));
        }
        None
    }

    /// Upgrade the captured candidate into a fused element store, moving
    /// it past the subscript code at `pos+1..`. A bare arithmetic moves
    /// freely (record-free); a fused instruction with memory operands
    /// moves only across record-free subscript code.
    fn try_fuse_store_elem(&mut self, cand: Cand, l: u16, s: u16, d: i32) -> bool {
        match cand {
            Cand::Bin(pos) => {
                let insn = self.code.remove(pos);
                let fop = Self::binf_op(insn.op).expect("captured as arithmetic");
                self.fused.push(FusedPlan {
                    op: fop,
                    lhs: FOperand::Reg(insn.a),
                    rhs: FOperand::Reg(insn.b),
                    dst: FDest::Elem1 { l, s, d },
                });
                let idx = (self.fused.len() - 1) as u32;
                self.emit(Op::Fused, 0, 0, 0, 0, idx);
                true
            }
            Cand::Fus(pos) => {
                let idx = self.code[pos].imm as usize;
                let movable = self.fused[idx].record_free()
                    || self.code[pos + 1..].iter().all(|i| i.op.record_free());
                if !movable {
                    return false;
                }
                let insn = self.code.remove(pos);
                self.fused[idx].dst = FDest::Elem1 { l, s, d };
                self.code.push(insn);
                true
            }
        }
    }

    /// [`Self::try_fuse_store_elem`] with the subscript `LoadI` already
    /// collapsed away (see [`Self::fold_sub_var`]): the destination
    /// becomes [`FDest::Elem1V`], whose subscript read records
    /// immediately before the write — exactly where the popped load sat.
    /// With the load gone the remaining crossed subscript code is
    /// typically empty, so even memory-operand plans move.
    fn try_fuse_store_elem_v(&mut self, cand: Cand, l: u16, sl: u16, d: i32) -> bool {
        match cand {
            Cand::Bin(pos) => {
                let insn = self.code.remove(pos);
                let fop = Self::binf_op(insn.op).expect("captured as arithmetic");
                self.fused.push(FusedPlan {
                    op: fop,
                    lhs: FOperand::Reg(insn.a),
                    rhs: FOperand::Reg(insn.b),
                    dst: FDest::Elem1V { l, sl, d },
                });
                let idx = (self.fused.len() - 1) as u32;
                self.emit(Op::Fused, 0, 0, 0, 0, idx);
                true
            }
            Cand::Fus(pos) => {
                let idx = self.code[pos].imm as usize;
                let movable = self.fused[idx].record_free()
                    || self.code[pos + 1..].iter().all(|i| i.op.record_free());
                if !movable {
                    return false;
                }
                let insn = self.code.remove(pos);
                self.fused[idx].dst = FDest::Elem1V { l, sl, d };
                self.code.push(insn);
                true
            }
        }
    }

    fn bini_op(op: Op) -> Option<IOp> {
        match op {
            Op::AddI => Some(IOp::Add),
            Op::SubI => Some(IOp::Sub),
            Op::MulI => Some(IOp::Mul),
            _ => None,
        }
    }

    /// Integer mirror of [`Self::try_fuse_store_scal`]: fold a trailing
    /// wrapping integer producer of `base` (plain, `*IK`, or an existing
    /// `FusedI`) into a scalar store to INTEGER local `l`. The store's
    /// raw conversion (`as_i(v) as f64`) moves into the plan.
    fn try_fuse_store_scal_i(&mut self, l: u16, base: u16) -> bool {
        let end = self.code.len();
        if end <= self.stmt_start {
            return false;
        }
        let insn = self.code[end - 1];
        if insn.c == base {
            if let Some(iop) = Self::bini_op(insn.op) {
                self.code.pop();
                self.ifused.push(IFusedPlan {
                    op: iop,
                    lhs: IOperand::Reg(insn.a),
                    rhs: IOperand::Reg(insn.b),
                    dst: IDest::Scal(l),
                });
                let idx = (self.ifused.len() - 1) as u32;
                self.emit(Op::FusedI, 0, 0, 0, 0, idx);
                return true;
            }
            if matches!(insn.op, Op::AddIK | Op::SubIK | Op::MulIK) {
                let iop = match insn.op {
                    Op::AddIK => IOp::Add,
                    Op::SubIK => IOp::Sub,
                    _ => IOp::Mul,
                };
                self.code.pop();
                self.ifused.push(IFusedPlan {
                    op: iop,
                    lhs: IOperand::Reg(insn.a),
                    rhs: IOperand::Const(insn.imm),
                    dst: IDest::Scal(l),
                });
                let idx = (self.ifused.len() - 1) as u32;
                self.emit(Op::FusedI, 0, 0, 0, 0, idx);
                return true;
            }
        }
        if insn.op == Op::FusedI {
            let idx = insn.imm as usize;
            if self.ifused[idx].dst == IDest::Reg(base) {
                self.ifused[idx].dst = IDest::Scal(l);
                return true;
            }
        }
        false
    }

    /// Integer mirror of [`Self::fuse_or_emit_binf`] for the wrapping
    /// ops (Add/Sub/Mul — the only integer bins that cannot error):
    /// absorb an adjacent rhs load, or an lhs load whose deferral
    /// crosses only record-free code, into an [`IFusedPlan`]. When no
    /// load is absorbable the `*IK` const fold (cheaper than a plan
    /// indirection) and the plain three-address op remain the lowering.
    fn fuse_or_emit_bini(&mut self, op: BinOp, base: u16) {
        let iop = match op {
            BinOp::Add => IOp::Add,
            BinOp::Sub => IOp::Sub,
            BinOp::Mul => IOp::Mul,
            _ => unreachable!("integer fusion is Add/Sub/Mul only"),
        };
        let end = self.code.len();
        let mut rhs = IOperand::Reg(base + 1);
        let mut rpos = None;
        if end > self.stmt_start {
            if let Some(o) = Self::as_load_operand_i(&self.code[end - 1], base + 1) {
                rhs = o;
                rpos = Some(end - 1);
            }
        }
        let mut lhs = IOperand::Reg(base);
        let mut lpos = None;
        let scan_end = rpos.unwrap_or(end);
        let mut p = scan_end;
        while p > self.stmt_start {
            p -= 1;
            let insn = self.code[p];
            if Self::def_reg(&insn) == Some(base) {
                if let Some(o) = Self::as_load_operand_i(&insn, base) {
                    lhs = o;
                    lpos = Some(p);
                }
                break;
            }
            if !insn.op.record_free() {
                break;
            }
        }
        if rpos.is_none() && lpos.is_none() {
            if !self.fold_bin_ik(op, base) {
                let o = match op {
                    BinOp::Add => Op::AddI,
                    BinOp::Sub => Op::SubI,
                    BinOp::Mul => Op::MulI,
                    _ => unreachable!(),
                };
                self.emit(o, base, base + 1, base, 0, 0);
            }
            return;
        }
        // Remove higher positions first so lower indices stay valid.
        if let Some(rp) = rpos {
            self.code.remove(rp);
        }
        if let Some(lp) = lpos {
            self.code.remove(lp);
        }
        self.ifused.push(IFusedPlan {
            op: iop,
            lhs,
            rhs,
            dst: IDest::Reg(base),
        });
        let idx = (self.ifused.len() - 1) as u32;
        self.emit(Op::FusedI, 0, 0, 0, 0, idx);
    }
}

// ---------------------------------------------------------------------------
// Execution

#[inline(always)]
fn vf(st: &VmState, r: u16) -> f64 {
    f64::from_bits(st.vregs[r as usize])
}

#[inline(always)]
fn vi(st: &VmState, r: u16) -> i64 {
    st.vregs[r as usize] as i64
}

#[inline(always)]
fn sf(st: &mut VmState, r: u16, v: f64) {
    st.vregs[r as usize] = v.to_bits();
}

#[inline(always)]
fn si(st: &mut VmState, r: u16, v: i64) {
    st.vregs[r as usize] = v as u64;
}

#[inline(always)]
fn sb(st: &mut VmState, r: u16, b: bool) {
    st.vregs[r as usize] = u64::from(b);
}

/// Per-frame execution context: everything [`step`] needs besides the
/// mutable state, bundled `Copy` so dispatch passes one pointer-sized
/// pair of words around.
#[derive(Clone, Copy)]
pub(crate) struct Tcx<'a> {
    cx: Vx<'a>,
    u: usize,
    unit: &'a UnitCode,
    tu: &'a TypedUnit,
    fb: usize,
    /// This frame's loops live above `lb` on the shared loop stack.
    lb: usize,
    chunk_of: Option<u32>,
}

/// What one instruction tells the fetch loop to do next.
enum Ctl {
    Next,
    Goto(u32),
    Done(Flow),
    /// Invoke unit `target` with `nargs` argument views. Performed by the
    /// fetch loop, not inside [`step`]: recursion must not carry `step`'s
    /// frame (unoptimized builds give every arm's locals a distinct stack
    /// slot, and a hundred-arm frame per call level overflows the stack
    /// well before `MAX_CALL_DEPTH`).
    CallUnit {
        target: u32,
        nargs: u8,
    },
}

/// Outlined unbound-name error: `format!` machinery must stay out of the
/// arms, or its argument pack materializes on the hot path of every load.
#[cold]
#[inline(never)]
fn unbound_err(t: &Tcx<'_>, l: u16, what: &str) -> VmErr {
    RtError::new(format!("{what} {}", t.unit.names[l as usize])).into()
}

/// Outlined load-side subscript error (subscripts included, `Vec` debug
/// format — the reference engine's rendering).
#[cold]
#[inline(never)]
fn subscript_err(st: &VmState, t: &Tcx<'_>, l: u16) -> VmErr {
    RtError::new(format!(
        "subscript out of range for {}{:?}",
        t.unit.names[l as usize], st.idx_scratch
    ))
    .into()
}

/// Outlined store-side subscript error (no subscripts in the message —
/// the reference engine's store path renders it the same way).
#[cold]
#[inline(never)]
fn store_subscript_err() -> VmErr {
    RtError::new("subscript out of range on store").into()
}

/// Resolve local `l`'s register or fail with `{what} {name}` — the exact
/// unbound-name errors the reference engine raises.
#[inline]
fn want_reg(st: &VmState, t: &Tcx<'_>, l: u16, what: &'static str) -> Result<Reg, VmErr> {
    match reg(st, t.fb, l as u32) {
        Some(r) => Ok(r),
        None => Err(unbound_err(t, l, what)),
    }
}

/// Pack a register binding for the pre-resolved operand stream:
/// `(slot << 32) | offset`, or `u64::MAX` when unbound or either half
/// does not fit in 32 bits. `slot` is held strictly under `u32::MAX` so
/// a packed word can never collide with the sentinel.
#[inline]
pub(crate) fn pack_scal(r: &Reg) -> u64 {
    if r.slot >= u32::MAX as usize || r.offset > u32::MAX as usize {
        return u64::MAX;
    }
    ((r.slot as u64) << 32) | r.offset as u64
}

/// Scalar-access fast path: slot and element offset only, no 4-word
/// [`Reg`] round-tripped through a stack temporary. Reads the packed
/// operand stream `exec_typed` pre-resolved for this frame; the
/// sentinel falls back to the full register read (unbound locals keep
/// their exact error, oversize bindings stay correct).
#[inline(always)]
fn want_scal(
    st: &VmState,
    t: &Tcx<'_>,
    l: u16,
    what: &'static str,
) -> Result<(usize, usize), VmErr> {
    let p = st.scal[t.fb + l as usize];
    if p != u64::MAX {
        return Ok(((p >> 32) as usize, (p & 0xFFFF_FFFF) as usize));
    }
    let r = st.regs.regs[t.fb + l as usize];
    if r.slot == UNBOUND {
        return Err(unbound_err(t, l, what));
    }
    Ok((r.slot, r.offset))
}

/// Gather `n` subscripts from consecutive registers and resolve the flat
/// element offset, with the *load-side* out-of-range message (subscripts
/// included, `Vec` debug format — the reference engine's rendering).
#[inline]
fn elem_off(
    st: &mut VmState,
    t: &Tcx<'_>,
    l: u16,
    first: u16,
    n: u8,
    disp: i32,
) -> Result<(Reg, usize), VmErr> {
    let r = st.regs.regs[t.fb + l as usize];
    if r.slot == UNBOUND {
        return Err(unbound_err(t, l, "undefined array"));
    }
    // 1-D fast path (the dominant access shape): no `idx_scratch`
    // round-trip, no general stride loop. Mirrors `flat_view`'s 1-D arm
    // exactly; everything else (assumed-size, linearized multi-dim,
    // n != 1) falls through to the general path below.
    if n == 1 {
        if let [d] = st.regs.dims_of(r) {
            let d = *d;
            let idx = (st.vregs[first as usize] as i64)
                .wrapping_add(disp as i64)
                .wrapping_sub(1);
            let off = r.offset.wrapping_add(idx as usize);
            if idx >= 0 && (d == 0 || (idx as usize) < d) && off < st.mem.slots[r.slot].data.len() {
                return Ok((r, off));
            }
            return Err(subscript_err1(st, t, l, idx.wrapping_add(1)));
        }
    }
    st.idx_scratch.clear();
    for k in 0..n as usize {
        let v = st.vregs[first as usize + k] as i64;
        st.idx_scratch.push(v);
    }
    if disp != 0 {
        // Folded subscripts only exist for n == 1.
        st.idx_scratch[0] = st.idx_scratch[0].wrapping_add(disp as i64);
    }
    let slot_len = st.mem.slots[r.slot].data.len();
    match flat_view(r.offset, st.regs.dims_of(r), &st.idx_scratch, slot_len) {
        Some(off) => Ok((r, off)),
        None => Err(subscript_err(st, t, l)),
    }
}

/// [`subscript_err`] for the 1-D fast path, which never fills
/// `idx_scratch`: seed it with the failing subscript so the rendered
/// message matches the general path byte for byte.
#[cold]
#[inline(never)]
fn subscript_err1(st: &mut VmState, t: &Tcx<'_>, l: u16, sub: i64) -> VmErr {
    st.idx_scratch.clear();
    st.idx_scratch.push(sub);
    subscript_err(st, t, l)
}

/// [`elem_off`] for a subscript value already in hand (the `*V` opcodes
/// and `Elem1V` fused operands read it from a frame local, not a vreg).
/// `sub` already includes any folded displacement.
#[inline]
fn elem_off1(st: &mut VmState, t: &Tcx<'_>, l: u16, sub: i64) -> Result<(Reg, usize), VmErr> {
    let r = st.regs.regs[t.fb + l as usize];
    if r.slot == UNBOUND {
        return Err(unbound_err(t, l, "undefined array"));
    }
    if let [d] = st.regs.dims_of(r) {
        let d = *d;
        let idx = sub.wrapping_sub(1);
        let off = r.offset.wrapping_add(idx as usize);
        if idx >= 0 && (d == 0 || (idx as usize) < d) && off < st.mem.slots[r.slot].data.len() {
            return Ok((r, off));
        }
        return Err(subscript_err1(st, t, l, sub));
    }
    st.idx_scratch.clear();
    st.idx_scratch.push(sub);
    let slot_len = st.mem.slots[r.slot].data.len();
    match flat_view(r.offset, st.regs.dims_of(r), &st.idx_scratch, slot_len) {
        Some(off) => Ok((r, off)),
        None => Err(subscript_err(st, t, l)),
    }
}

/// Read the scalar INTEGER local `sl` as a subscript — `LoadI`
/// semantics (raw f64 `as i64`, read recorded), the collapsed half of a
/// `LoadI` + element-access pair.
#[inline(always)]
fn sub_local(st: &mut VmState, t: &Tcx<'_>, sl: u16) -> Result<i64, VmErr> {
    let (slot, off) = want_scal(st, t, sl, "undefined variable")?;
    let v = st.mem.slots[slot].data[off] as i64;
    record(st, slot, off, false);
    Ok(v)
}

/// Read one fused operand: registers are free, memory operands record a
/// shared read exactly where the unfused load would have (lowering only
/// absorbs a load when its record position is preserved).
#[inline(always)]
fn fop_read(st: &mut VmState, t: &Tcx<'_>, o: FOperand) -> Result<f64, VmErr> {
    match o {
        FOperand::Reg(r) => Ok(vf(st, r)),
        FOperand::Const(i) => Ok(t.tu.consts_f[i as usize]),
        FOperand::Scal(l) => {
            let (slot, off) = want_scal(st, t, l, "undefined variable")?;
            let raw = st.mem.slots[slot].data[off];
            record(st, slot, off, false);
            Ok(raw)
        }
        FOperand::Elem1 { l, s, d } => {
            let (r, off) = elem_off(st, t, l, s, 1, d)?;
            record(st, r.slot, off, false);
            Ok(st.mem.slots[r.slot].data[off])
        }
        FOperand::Elem1V { l, sl, d } => {
            let sub = sub_local(st, t, sl)?.wrapping_add(d as i64);
            let (r, off) = elem_off1(st, t, l, sub)?;
            record(st, r.slot, off, false);
            Ok(st.mem.slots[r.slot].data[off])
        }
    }
}

/// Read one integer fused operand — the i64 mirror of [`fop_read`], with
/// `LoadI`/`LoadElemI` semantics (`raw as i64`) on the memory paths.
#[inline(always)]
fn iop_read(st: &mut VmState, t: &Tcx<'_>, o: IOperand) -> Result<i64, VmErr> {
    match o {
        IOperand::Reg(r) => Ok(vi(st, r)),
        IOperand::Const(i) => Ok(t.tu.consts_i[i as usize]),
        IOperand::Scal(l) => {
            let (slot, off) = want_scal(st, t, l, "undefined variable")?;
            let v = st.mem.slots[slot].data[off] as i64;
            record(st, slot, off, false);
            Ok(v)
        }
        IOperand::Elem1 { l, s, d } => {
            let (r, off) = elem_off(st, t, l, s, 1, d)?;
            record(st, r.slot, off, false);
            Ok(st.mem.slots[r.slot].data[off] as i64)
        }
        IOperand::Elem1V { l, sl, d } => {
            let sub = sub_local(st, t, sl)?.wrapping_add(d as i64);
            let (r, off) = elem_off1(st, t, l, sub)?;
            record(st, r.slot, off, false);
            Ok(st.mem.slots[r.slot].data[off] as i64)
        }
    }
}

/// Execute one typed instruction. Debug builds must NOT force the
/// inline: unoptimized code gives every arm's locals a distinct stack
/// slot, and inlining that hundred-arm frame into each recursion level of
/// `exec_typed` → `call_unit` overflows the stack well before
/// `MAX_CALL_DEPTH`.
#[cfg_attr(not(debug_assertions), inline(always))]
#[allow(clippy::too_many_lines)]
fn step(k: Op, t: &Tcx<'_>, st: &mut VmState, op: TOp) -> Result<Ctl, VmErr> {
    let TOp {
        n, a, b, c, imm, ..
    } = op;
    /// Fused compare-and-branch: fall through while the comparison
    /// holds, jump when it is false (`JumpIfFalse` polarity). Written
    /// over the *positive* comparison so NaN (which fails every
    /// comparison) falls on the jump side, exactly like the unfused
    /// `Cmp*` + `JmpFalse` pair. A nonzero carried `cost` is an absorbed
    /// target `Tick`: the taken path charges it at the branch (same op
    /// count the skipped tick would reach) and the target already points
    /// past the tick.
    #[inline(always)]
    fn jcc(
        t: &Tcx<'_>,
        st: &mut VmState,
        holds: bool,
        target: u32,
        cost: u16,
    ) -> Result<Ctl, VmErr> {
        if holds {
            Ok(Ctl::Next)
        } else {
            if cost != 0 {
                st.ops += cost as u64;
                st.ctr.fused_ticks += 1;
                if st.ops > t.cx.opts.max_ops {
                    return Err(RtError::budget_at(st.ops).into());
                }
            }
            Ok(Ctl::Goto(target))
        }
    }
    /// Integer-side comparison operand: `Scalar::as_f` of an i64 (or
    /// 0/1 logical) register — comparisons always compare as f64.
    #[inline(always)]
    fn fi(st: &VmState, r: u16) -> f64 {
        vi(st, r) as f64
    }
    /// Pool-literal comparison operand for the `J*IK` forms.
    #[inline(always)]
    fn ki(t: &Tcx<'_>, i: u16) -> f64 {
        t.tu.consts_i[i as usize] as f64
    }
    match k {
        // -- control ------------------------------------------------------
        Op::Tick => {
            st.ops += imm as u64;
            if st.ops > t.cx.opts.max_ops {
                return Err(RtError::budget_at(st.ops).into());
            }
            Ok(Ctl::Next)
        }
        Op::TickP => {
            st.ops += t.tu.ticks[imm as usize];
            if st.ops > t.cx.opts.max_ops {
                return Err(RtError::budget_at(st.ops).into());
            }
            Ok(Ctl::Next)
        }
        Op::Jump => {
            if c != 0 {
                st.ops += c as u64;
                st.ctr.fused_ticks += 1;
                if st.ops > t.cx.opts.max_ops {
                    return Err(RtError::budget_at(st.ops).into());
                }
            }
            Ok(Ctl::Goto(imm))
        }
        Op::JmpFalse => {
            if st.vregs[a as usize] == 0 {
                if c != 0 {
                    st.ops += c as u64;
                    st.ctr.fused_ticks += 1;
                    if st.ops > t.cx.opts.max_ops {
                        return Err(RtError::budget_at(st.ops).into());
                    }
                }
                Ok(Ctl::Goto(imm))
            } else {
                Ok(Ctl::Next)
            }
        }
        Op::JEqI => jcc(t, st, fi(st, a) == fi(st, b), imm, c),
        Op::JNeI => jcc(t, st, fi(st, a) != fi(st, b), imm, c),
        Op::JLtI => jcc(t, st, fi(st, a) < fi(st, b), imm, c),
        Op::JLeI => jcc(t, st, fi(st, a) <= fi(st, b), imm, c),
        Op::JGtI => jcc(t, st, fi(st, a) > fi(st, b), imm, c),
        Op::JGeI => jcc(t, st, fi(st, a) >= fi(st, b), imm, c),
        Op::JEqF => jcc(t, st, vf(st, a) == vf(st, b), imm, c),
        Op::JNeF => jcc(t, st, vf(st, a) != vf(st, b), imm, c),
        Op::JLtF => jcc(t, st, vf(st, a) < vf(st, b), imm, c),
        Op::JLeF => jcc(t, st, vf(st, a) <= vf(st, b), imm, c),
        Op::JGtF => jcc(t, st, vf(st, a) > vf(st, b), imm, c),
        Op::JGeF => jcc(t, st, vf(st, a) >= vf(st, b), imm, c),
        // Pool-literal rhs (`b` indexes `consts_i`; compares as f64 like
        // the unfused `ConstI` + `CmpI` pair it replaces).
        Op::JEqIK => jcc(t, st, fi(st, a) == ki(t, b), imm, c),
        Op::JNeIK => jcc(t, st, fi(st, a) != ki(t, b), imm, c),
        Op::JLtIK => jcc(t, st, fi(st, a) < ki(t, b), imm, c),
        Op::JLeIK => jcc(t, st, fi(st, a) <= ki(t, b), imm, c),
        Op::JGtIK => jcc(t, st, fi(st, a) > ki(t, b), imm, c),
        Op::JGeIK => jcc(t, st, fi(st, a) >= ki(t, b), imm, c),
        Op::Bad => Err(VmErr::Raise(imm)),
        Op::Stop => {
            unwind_loops(st, &t.tu.loops, t.lb);
            Ok(Ctl::Done(Flow::Stop(imm)))
        }
        Op::Ret => {
            unwind_loops(st, &t.tu.loops, t.lb);
            Ok(Ctl::Done(Flow::Return))
        }
        Op::EndUnit => Ok(Ctl::Done(Flow::Normal)),
        // -- constants ----------------------------------------------------
        Op::ConstI => {
            si(st, c, t.tu.consts_i[imm as usize]);
            Ok(Ctl::Next)
        }
        Op::ConstF => {
            sf(st, c, t.tu.consts_f[imm as usize]);
            Ok(Ctl::Next)
        }
        Op::ConstB => {
            st.vregs[c as usize] = imm as u64;
            Ok(Ctl::Next)
        }
        // -- loads --------------------------------------------------------
        Op::LoadI => {
            let (slot, off) = want_scal(st, t, a, "undefined variable")?;
            let v = st.mem.slots[slot].data[off] as i64;
            record(st, slot, off, false);
            si(st, c, v);
            Ok(Ctl::Next)
        }
        Op::LoadF => {
            let (slot, off) = want_scal(st, t, a, "undefined variable")?;
            let v = st.mem.slots[slot].data[off];
            record(st, slot, off, false);
            sf(st, c, v);
            Ok(Ctl::Next)
        }
        Op::LoadB => {
            let (slot, off) = want_scal(st, t, a, "undefined variable")?;
            let v = st.mem.slots[slot].data[off] != 0.0;
            record(st, slot, off, false);
            sb(st, c, v);
            Ok(Ctl::Next)
        }
        Op::LoadElemI => {
            let (r, off) = elem_off(st, t, a, b, n, imm as i32)?;
            record(st, r.slot, off, false);
            si(st, c, st.mem.slots[r.slot].data[off] as i64);
            Ok(Ctl::Next)
        }
        Op::LoadElemF => {
            let (r, off) = elem_off(st, t, a, b, n, imm as i32)?;
            record(st, r.slot, off, false);
            let v = st.mem.slots[r.slot].data[off];
            sf(st, c, v);
            Ok(Ctl::Next)
        }
        Op::LoadElemB => {
            let (r, off) = elem_off(st, t, a, b, n, imm as i32)?;
            record(st, r.slot, off, false);
            let v = st.mem.slots[r.slot].data[off] != 0.0;
            sb(st, c, v);
            Ok(Ctl::Next)
        }
        // Collapsed `LoadI` + element access: the subscript reads (and
        // records) first, exactly like the pair it replaces.
        Op::LoadElemIV => {
            let sub = sub_local(st, t, b)?.wrapping_add(imm as i32 as i64);
            let (r, off) = elem_off1(st, t, a, sub)?;
            record(st, r.slot, off, false);
            si(st, c, st.mem.slots[r.slot].data[off] as i64);
            Ok(Ctl::Next)
        }
        Op::LoadElemFV => {
            let sub = sub_local(st, t, b)?.wrapping_add(imm as i32 as i64);
            let (r, off) = elem_off1(st, t, a, sub)?;
            record(st, r.slot, off, false);
            let v = st.mem.slots[r.slot].data[off];
            sf(st, c, v);
            Ok(Ctl::Next)
        }
        Op::LoadElemBV => {
            let sub = sub_local(st, t, b)?.wrapping_add(imm as i32 as i64);
            let (r, off) = elem_off1(st, t, a, sub)?;
            record(st, r.slot, off, false);
            let v = st.mem.slots[r.slot].data[off] != 0.0;
            sb(st, c, v);
            Ok(Ctl::Next)
        }
        // -- stores (value register already holds the slot's raw f64) -----
        Op::StoreScal => {
            let r = want_reg(st, t, a, "assignment to undeclared")?;
            let raw = f64::from_bits(st.vregs[b as usize]);
            if r.dims_len == 0 {
                store_raw(st, r.slot, r.offset, raw);
            } else {
                // Whole-array assignment (annotation collective form).
                let slot_len = st.mem.slots[r.slot].data.len();
                let len = view_len(r.offset, st.regs.dims_of(r), slot_len);
                for k in 0..len {
                    store_raw(st, r.slot, r.offset + k, raw);
                }
            }
            Ok(Ctl::Next)
        }
        Op::StoreElem => {
            let r = want_reg(st, t, a, "undefined array")?;
            // 1-D fast path mirroring `elem_off`'s (same conditions as
            // `flat_view`'s 1-D arm, store-side error message).
            if n == 1 {
                if let [d] = st.regs.dims_of(r) {
                    let d = *d;
                    let idx = (st.vregs[b as usize] as i64)
                        .wrapping_add(imm as i32 as i64)
                        .wrapping_sub(1);
                    let off = r.offset.wrapping_add(idx as usize);
                    if idx >= 0
                        && (d == 0 || (idx as usize) < d)
                        && off < st.mem.slots[r.slot].data.len()
                    {
                        let raw = f64::from_bits(st.vregs[c as usize]);
                        store_raw(st, r.slot, off, raw);
                        return Ok(Ctl::Next);
                    }
                    return Err(store_subscript_err());
                }
            }
            st.idx_scratch.clear();
            for k in 0..n as usize {
                let v = st.vregs[b as usize + k] as i64;
                st.idx_scratch.push(v);
            }
            if imm != 0 {
                let d0 = st.idx_scratch[0].wrapping_add(imm as i32 as i64);
                st.idx_scratch[0] = d0;
            }
            let slot_len = st.mem.slots[r.slot].data.len();
            let Some(off) = flat_view(r.offset, st.regs.dims_of(r), &st.idx_scratch, slot_len)
            else {
                return Err(store_subscript_err());
            };
            let raw = f64::from_bits(st.vregs[c as usize]);
            store_raw(st, r.slot, off, raw);
            Ok(Ctl::Next)
        }
        // Collapsed `LoadI` + `StoreElem`: subscript read records first,
        // then the store; range failures use the store-side message.
        Op::StoreElemV => {
            let sub = sub_local(st, t, b)?.wrapping_add(imm as i32 as i64);
            let r = want_reg(st, t, a, "undefined array")?;
            if let [d] = st.regs.dims_of(r) {
                let d = *d;
                let idx = sub.wrapping_sub(1);
                let off = r.offset.wrapping_add(idx as usize);
                if idx >= 0 && (d == 0 || (idx as usize) < d) && off < st.mem.slots[r.slot].data.len()
                {
                    let raw = f64::from_bits(st.vregs[c as usize]);
                    store_raw(st, r.slot, off, raw);
                    return Ok(Ctl::Next);
                }
                return Err(store_subscript_err());
            }
            st.idx_scratch.clear();
            st.idx_scratch.push(sub);
            let slot_len = st.mem.slots[r.slot].data.len();
            let Some(off) = flat_view(r.offset, st.regs.dims_of(r), &st.idx_scratch, slot_len)
            else {
                return Err(store_subscript_err());
            };
            let raw = f64::from_bits(st.vregs[c as usize]);
            store_raw(st, r.slot, off, raw);
            Ok(Ctl::Next)
        }
        // -- conversions (Scalar::as_* / Slot::set formulas) --------------
        Op::IToF => {
            sf(st, c, vi(st, a) as f64);
            Ok(Ctl::Next)
        }
        Op::FToI => {
            si(st, c, vf(st, a) as i64);
            Ok(Ctl::Next)
        }
        Op::IToB => {
            sb(st, c, vi(st, a) != 0);
            Ok(Ctl::Next)
        }
        Op::FToB => {
            sb(st, c, vf(st, a) != 0.0);
            Ok(Ctl::Next)
        }
        Op::FToRawI => {
            sf(st, c, (vf(st, a) as i64) as f64);
            Ok(Ctl::Next)
        }
        Op::FToRawB => {
            sf(st, c, f64::from(vf(st, a) != 0.0));
            Ok(Ctl::Next)
        }
        Op::IToRawB => {
            sf(st, c, f64::from(vi(st, a) != 0));
            Ok(Ctl::Next)
        }
        // -- binary arithmetic (eval_bin's two monomorphic halves) --------
        Op::AddI => {
            si(st, c, vi(st, a).wrapping_add(vi(st, b)));
            Ok(Ctl::Next)
        }
        Op::SubI => {
            si(st, c, vi(st, a).wrapping_sub(vi(st, b)));
            Ok(Ctl::Next)
        }
        Op::MulI => {
            si(st, c, vi(st, a).wrapping_mul(vi(st, b)));
            Ok(Ctl::Next)
        }
        // Const-folded forms: the literal operand reads straight from the
        // pool (`ConstI; AddI` collapsed to one dispatch). Commutative
        // folds put the register operand in `a` either way.
        Op::AddIK => {
            si(st, c, vi(st, a).wrapping_add(t.tu.consts_i[imm as usize]));
            Ok(Ctl::Next)
        }
        Op::SubIK => {
            si(st, c, vi(st, a).wrapping_sub(t.tu.consts_i[imm as usize]));
            Ok(Ctl::Next)
        }
        Op::MulIK => {
            si(st, c, vi(st, a).wrapping_mul(t.tu.consts_i[imm as usize]));
            Ok(Ctl::Next)
        }
        Op::DivI => {
            let y = vi(st, b);
            if y == 0 {
                return Err(RtError::new("integer division by zero").into());
            }
            si(st, c, vi(st, a) / y);
            Ok(Ctl::Next)
        }
        Op::PowI => {
            let (x, y) = (vi(st, a), vi(st, b));
            let v = if y < 0 {
                0
            } else {
                x.checked_pow(y.min(62) as u32).unwrap_or(i64::MAX)
            };
            si(st, c, v);
            Ok(Ctl::Next)
        }
        Op::AddF => {
            sf(st, c, vf(st, a) + vf(st, b));
            Ok(Ctl::Next)
        }
        Op::SubF => {
            sf(st, c, vf(st, a) - vf(st, b));
            Ok(Ctl::Next)
        }
        Op::MulF => {
            sf(st, c, vf(st, a) * vf(st, b));
            Ok(Ctl::Next)
        }
        Op::DivF => {
            sf(st, c, vf(st, a) / vf(st, b));
            Ok(Ctl::Next)
        }
        Op::PowF => {
            sf(st, c, vf(st, a).powf(vf(st, b)));
            Ok(Ctl::Next)
        }
        Op::CmpEqI => {
            sb(st, c, fi(st, a) == fi(st, b));
            Ok(Ctl::Next)
        }
        Op::CmpNeI => {
            sb(st, c, fi(st, a) != fi(st, b));
            Ok(Ctl::Next)
        }
        Op::CmpLtI => {
            sb(st, c, fi(st, a) < fi(st, b));
            Ok(Ctl::Next)
        }
        Op::CmpLeI => {
            sb(st, c, fi(st, a) <= fi(st, b));
            Ok(Ctl::Next)
        }
        Op::CmpGtI => {
            sb(st, c, fi(st, a) > fi(st, b));
            Ok(Ctl::Next)
        }
        Op::CmpGeI => {
            sb(st, c, fi(st, a) >= fi(st, b));
            Ok(Ctl::Next)
        }
        Op::CmpEqF => {
            sb(st, c, vf(st, a) == vf(st, b));
            Ok(Ctl::Next)
        }
        Op::CmpNeF => {
            sb(st, c, vf(st, a) != vf(st, b));
            Ok(Ctl::Next)
        }
        Op::CmpLtF => {
            sb(st, c, vf(st, a) < vf(st, b));
            Ok(Ctl::Next)
        }
        Op::CmpLeF => {
            sb(st, c, vf(st, a) <= vf(st, b));
            Ok(Ctl::Next)
        }
        Op::CmpGtF => {
            sb(st, c, vf(st, a) > vf(st, b));
            Ok(Ctl::Next)
        }
        Op::CmpGeF => {
            sb(st, c, vf(st, a) >= vf(st, b));
            Ok(Ctl::Next)
        }
        Op::AndB => {
            st.vregs[c as usize] = st.vregs[a as usize] & st.vregs[b as usize];
            Ok(Ctl::Next)
        }
        Op::OrB => {
            st.vregs[c as usize] = st.vregs[a as usize] | st.vregs[b as usize];
            Ok(Ctl::Next)
        }
        Op::NotB => {
            st.vregs[c as usize] = u64::from(st.vregs[a as usize] == 0);
            Ok(Ctl::Next)
        }
        Op::NegI => {
            si(st, c, -vi(st, a));
            Ok(Ctl::Next)
        }
        Op::NegF => {
            sf(st, c, -vf(st, a));
            Ok(Ctl::Next)
        }
        // -- intrinsics ---------------------------------------------------
        Op::ModII => {
            let m = vi(st, b);
            if m == 0 {
                return Err(RtError::new("MOD by zero").into());
            }
            si(st, c, vi(st, a) % m);
            Ok(Ctl::Next)
        }
        Op::ModFF => {
            sf(st, c, vf(st, a) % vf(st, b));
            Ok(Ctl::Next)
        }
        Op::AbsI => {
            si(st, c, vi(st, a).abs());
            Ok(Ctl::Next)
        }
        Op::AbsF => {
            sf(st, c, vf(st, a).abs());
            Ok(Ctl::Next)
        }
        Op::MinI | Op::MaxI => {
            let mut acc = vi(st, b);
            for j in 1..n as u16 {
                let v = vi(st, b + j);
                acc = if k == Op::MinI { acc.min(v) } else { acc.max(v) };
            }
            si(st, c, acc);
            Ok(Ctl::Next)
        }
        Op::MinF | Op::MaxF => {
            // Reference fold: seed args[0], f64::min/max left to right.
            let mut acc = vf(st, b);
            for j in 1..n as u16 {
                let v = vf(st, b + j);
                acc = if k == Op::MinF { acc.min(v) } else { acc.max(v) };
            }
            sf(st, c, acc);
            Ok(Ctl::Next)
        }
        Op::SqrtF => {
            sf(st, c, vf(st, a).sqrt());
            Ok(Ctl::Next)
        }
        Op::ExpF => {
            sf(st, c, vf(st, a).exp());
            Ok(Ctl::Next)
        }
        Op::LogF => {
            sf(st, c, vf(st, a).ln());
            Ok(Ctl::Next)
        }
        Op::SinF => {
            sf(st, c, vf(st, a).sin());
            Ok(Ctl::Next)
        }
        Op::CosF => {
            sf(st, c, vf(st, a).cos());
            Ok(Ctl::Next)
        }
        Op::SignI | Op::SignF => {
            let mag = vf(st, a).abs();
            let v = if vf(st, b) < 0.0 { -mag } else { mag };
            if k == Op::SignI {
                si(st, c, v as i64);
            } else {
                sf(st, c, v);
            }
            Ok(Ctl::Next)
        }
        Op::UnkOpF => {
            // Args were coerced to F, so the register bits are exactly
            // `as_f().to_bits()`.
            let mut h = 0x9E3779B97F4A7C15u64 ^ (imm as u64);
            for j in 0..n as usize {
                h = h
                    .wrapping_mul(0x100000001B3)
                    .wrapping_add(st.vregs[b as usize + j]);
            }
            sf(st, c, (h % 1_000_000) as f64 / 1_000_000.0);
            Ok(Ctl::Next)
        }
        Op::UniqOpI => {
            // Args were coerced to I: register bits are `as_i() as u64`.
            let mut h = 0xDEADBEEFu64 ^ (imm as u64);
            for j in 0..n as usize {
                h = h.wrapping_mul(31).wrapping_add(st.vregs[b as usize + j]);
            }
            si(st, c, (h % (1 << 31)) as i64);
            Ok(Ctl::Next)
        }
        // -- superword ----------------------------------------------------
        Op::Fused => {
            st.ctr.fused_insns += 1;
            let plan = t.tu.fused[imm as usize];
            let x = fop_read(st, t, plan.lhs)?;
            let y = fop_read(st, t, plan.rhs)?;
            let v = match plan.op {
                FOp::Add => x + y,
                FOp::Sub => x - y,
                FOp::Mul => x * y,
                FOp::Div => x / y,
                FOp::Pow => x.powf(y),
            };
            match plan.dst {
                FDest::Reg(r) => sf(st, r, v),
                FDest::Scal(l) => {
                    let r = want_reg(st, t, l, "assignment to undeclared")?;
                    if r.dims_len == 0 {
                        store_raw(st, r.slot, r.offset, v);
                    } else {
                        let slot_len = st.mem.slots[r.slot].data.len();
                        let len = view_len(r.offset, st.regs.dims_of(r), slot_len);
                        for j in 0..len {
                            store_raw(st, r.slot, r.offset + j, v);
                        }
                    }
                }
                FDest::Elem1 { l, s, d } => {
                    let r = want_reg(st, t, l, "undefined array")?;
                    st.idx_scratch.clear();
                    st.idx_scratch
                        .push((st.vregs[s as usize] as i64).wrapping_add(d as i64));
                    let slot_len = st.mem.slots[r.slot].data.len();
                    let Some(off) =
                        flat_view(r.offset, st.regs.dims_of(r), &st.idx_scratch, slot_len)
                    else {
                        return Err(store_subscript_err());
                    };
                    store_raw(st, r.slot, off, v);
                }
                FDest::Elem1V { l, sl, d } => {
                    let sub = sub_local(st, t, sl)?.wrapping_add(d as i64);
                    let r = want_reg(st, t, l, "undefined array")?;
                    st.idx_scratch.clear();
                    st.idx_scratch.push(sub);
                    let slot_len = st.mem.slots[r.slot].data.len();
                    let Some(off) =
                        flat_view(r.offset, st.regs.dims_of(r), &st.idx_scratch, slot_len)
                    else {
                        return Err(store_subscript_err());
                    };
                    store_raw(st, r.slot, off, v);
                }
            }
            Ok(Ctl::Next)
        }
        // -- integer superword --------------------------------------------
        Op::FusedI => {
            st.ctr.fused_insns += 1;
            st.ctr.fused_int += 1;
            let plan = t.tu.ifused[imm as usize];
            let x = iop_read(st, t, plan.lhs)?;
            let y = iop_read(st, t, plan.rhs)?;
            let v = match plan.op {
                IOp::Add => x.wrapping_add(y),
                IOp::Sub => x.wrapping_sub(y),
                IOp::Mul => x.wrapping_mul(y),
            };
            match plan.dst {
                IDest::Reg(r) => si(st, r, v),
                IDest::Scal(l) => {
                    // store_conv (I value, I slot) is `as_i(v) as f64`.
                    let raw = v as f64;
                    let r = want_reg(st, t, l, "assignment to undeclared")?;
                    if r.dims_len == 0 {
                        store_raw(st, r.slot, r.offset, raw);
                    } else {
                        let slot_len = st.mem.slots[r.slot].data.len();
                        let len = view_len(r.offset, st.regs.dims_of(r), slot_len);
                        for j in 0..len {
                            store_raw(st, r.slot, r.offset + j, raw);
                        }
                    }
                }
            }
            Ok(Ctl::Next)
        }
        // -- calls --------------------------------------------------------
        Op::Call => Ok(Ctl::CallUnit {
            target: imm,
            nargs: n,
        }),
        Op::CallUnknown => Err(VmErr::Raise(imm)),
        // Bulky, rarely-retired opcodes live out of line in `step_cold`:
        // with their bodies' locals out of this function, the hot loop's
        // frame shrinks enough that pc, the code pointer, and the retire
        // counters survive in registers across the common arms.
        Op::StoreSec
        | Op::WriteBegin
        | Op::WriteStr
        | Op::WriteValI
        | Op::WriteValF
        | Op::WriteValB
        | Op::WriteEnd
        | Op::ArgVar
        | Op::ArgElem
        | Op::ArgValI
        | Op::ArgValF
        | Op::ArgValB
        // Rebuilt from the destructured fields: naming `op` here would
        // force the fetched instruction into a stack slot on the hot
        // path just to satisfy this cold call.
        | Op::DoInit => step_cold(k, t, st, TOp { op: k, n, a, b, c, imm }),
        Op::DoNext => {
            if st.loop_stack.len() <= t.lb {
                // Chunk mode: the controlled loop's body completed one
                // iteration.
                debug_assert_eq!(t.chunk_of, Some(imm));
                return Ok(Ctl::Done(Flow::Normal));
            }
            let li = st.loop_stack.len() - 1;
            let rec = &mut st.loop_stack[li];
            rec.done += 1;
            if rec.done < rec.n {
                rec.cur = rec.cur.wrapping_add(rec.step);
                let (cur, var, meta) = (rec.cur, rec.var, rec.meta);
                let par_done = rec.par.is_some().then_some(rec.done);
                if let Some(done) = par_done {
                    if st.race.active {
                        st.race.cur = done as i64;
                    }
                }
                write_var(&mut st.mem, var, Scalar::I(cur));
                let lm = &t.tu.loops[meta as usize];
                if lm.body_cost != 0 {
                    // Absorbed body tick: charge here (the op count the
                    // skipped `Tick` would reach) and re-enter past it.
                    st.ops += lm.body_cost;
                    st.ctr.fused_ticks += 1;
                    if st.ops > t.cx.opts.max_ops {
                        return Err(RtError::budget_at(st.ops).into());
                    }
                    Ok(Ctl::Goto(lm.body_pc + 1))
                } else {
                    Ok(Ctl::Goto(lm.body_pc))
                }
            } else {
                let rec = st.loop_stack.pop().expect("checked len above");
                if let Some(ops_before) = rec.par {
                    if st.race.active {
                        retire_race(st);
                    }
                    st.par_depth -= 1;
                    st.par_events.push(ParLoopEvent {
                        id: t.tu.loops[rec.meta as usize].id.clone(),
                        ops: st.ops - ops_before,
                        iters: rec.n,
                    });
                }
                Ok(Ctl::Next) // pc already at exit_pc
            }
        }
    }
}

/// The bulky, rarely-retired arms of [`step`]: array-section stores, the
/// WRITE statement, call-argument marshalling, and DO-loop entry. Kept
/// out of line (and out of the hot loop's register allocation) on
/// purpose — see the delegating arm in [`step`].
#[cold]
#[inline(never)]
#[allow(clippy::too_many_lines)]
fn step_cold(k: Op, t: &Tcx<'_>, st: &mut VmState, op: TOp) -> Result<Ctl, VmErr> {
    let TOp {
        n, a, b, c, imm, ..
    } = op;
    match k {
        Op::StoreSec => {
            let r = want_reg(st, t, a, "undefined array")?;
            let plan = &t.tu.secs[imm as usize];
            let mut bounds = std::mem::take(&mut st.sec_bounds);
            bounds.clear();
            bounds.resize(plan.len(), (0i64, 0i64));
            // Bound registers sit consecutively from `b` in source order
            // (lo before hi per dim).
            let mut cur = b as usize;
            for k in 0..plan.len() {
                let extent = st.regs.dims_of(r).get(k).copied().unwrap_or(1).max(1) as i64;
                bounds[k] = match plan[k] {
                    SecDimPlan::Full => (1, extent),
                    SecDimPlan::At => {
                        let v = st.vregs[cur] as i64;
                        cur += 1;
                        (v, v)
                    }
                    SecDimPlan::Range { has_lo, has_hi } => {
                        let lo = if has_lo {
                            let v = st.vregs[cur] as i64;
                            cur += 1;
                            v
                        } else {
                            1
                        };
                        let hi = if has_hi {
                            let v = st.vregs[cur] as i64;
                            cur += 1;
                            v
                        } else {
                            extent
                        };
                        (lo, hi)
                    }
                };
            }
            let raw = f64::from_bits(st.vregs[c as usize]);
            let slot_len = st.mem.slots[r.slot].data.len();
            let mut idx = std::mem::take(&mut st.sec_idx);
            idx.clear();
            idx.extend(bounds.iter().map(|&(l, _)| l));
            'fill: loop {
                if let Some(off) = flat_view(r.offset, st.regs.dims_of(r), &idx, slot_len) {
                    store_raw(st, r.slot, off, raw);
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
                if st.ops > t.cx.opts.max_ops {
                    st.sec_bounds = bounds;
                    st.sec_idx = idx;
                    return Err(RtError::budget_at(st.ops).into());
                }
            }
            st.sec_bounds = bounds;
            st.sec_idx = idx;
            Ok(Ctl::Next)
        }
        // -- WRITE --------------------------------------------------------
        Op::WriteBegin => {
            st.line.clear();
            st.line_items = 0;
            Ok(Ctl::Next)
        }
        Op::WriteStr => {
            if st.line_items > 0 {
                st.line.push(' ');
            }
            st.line.push_str(&t.cx.prog.strs[imm as usize]);
            st.line_items += 1;
            Ok(Ctl::Next)
        }
        Op::WriteValI => {
            if st.line_items > 0 {
                st.line.push(' ');
            }
            use std::fmt::Write as _;
            let v = vi(st, a);
            let _ = write!(st.line, "{v}");
            st.line_items += 1;
            Ok(Ctl::Next)
        }
        Op::WriteValF => {
            if st.line_items > 0 {
                st.line.push(' ');
            }
            use std::fmt::Write as _;
            let v = vf(st, a);
            let _ = write!(st.line, "{v:.9E}");
            st.line_items += 1;
            Ok(Ctl::Next)
        }
        Op::WriteValB => {
            if st.line_items > 0 {
                st.line.push(' ');
            }
            st.line
                .push_str(if st.vregs[a as usize] != 0 { "T" } else { "F" });
            st.line_items += 1;
            Ok(Ctl::Next)
        }
        Op::WriteEnd => {
            let line = st.line.clone();
            st.io.push(line);
            Ok(Ctl::Next)
        }
        Op::ArgVar => {
            match reg(st, t.fb, a as u32) {
                Some(r) => st.regs.regs.push(r),
                None => {
                    // Unbound name: fresh implicit scalar.
                    let ty = Type::implicit_for(&t.unit.names[a as usize]);
                    let slot = st.mem.alloc(ty, 1);
                    st.regs.regs.push(Reg::scalar(slot, 0));
                }
            }
            Ok(Ctl::Next)
        }
        Op::ArgElem => {
            let r = want_reg(st, t, a, "undefined array")?;
            st.idx_scratch.clear();
            for j in 0..n as usize {
                let v = st.vregs[b as usize + j] as i64;
                st.idx_scratch.push(v);
            }
            if imm != 0 {
                let d0 = st.idx_scratch[0].wrapping_add(imm as i32 as i64);
                st.idx_scratch[0] = d0;
            }
            let slot_len = st.mem.slots[r.slot].data.len();
            let Some(off) = flat_view(r.offset, st.regs.dims_of(r), &st.idx_scratch, slot_len)
            else {
                return Err(RtError::new(format!(
                    "subscript out of range for {}",
                    t.unit.names[a as usize]
                ))
                .into());
            };
            st.regs.regs.push(Reg::elem(r.slot, off));
            Ok(Ctl::Next)
        }
        Op::ArgValI => {
            let slot = st.mem.alloc(Type::Integer, 1);
            let v = Scalar::I(vi(st, a));
            st.mem.slots[slot].set(0, v);
            st.regs.regs.push(Reg::scalar(slot, 0));
            Ok(Ctl::Next)
        }
        Op::ArgValF => {
            let slot = st.mem.alloc(Type::Double, 1);
            let v = Scalar::F(vf(st, a));
            st.mem.slots[slot].set(0, v);
            st.regs.regs.push(Reg::scalar(slot, 0));
            Ok(Ctl::Next)
        }
        Op::ArgValB => {
            let slot = st.mem.alloc(Type::Logical, 1);
            let v = Scalar::B(st.vregs[a as usize] != 0);
            st.mem.slots[slot].set(0, v);
            st.regs.regs.push(Reg::scalar(slot, 0));
            Ok(Ctl::Next)
        }
        // -- DO loops -----------------------------------------------------
        Op::DoInit => {
            let mi = imm;
            let meta = &t.tu.loops[mi as usize];
            let lo = vi(st, a);
            let hi = vi(st, b);
            let step_v = if n != 0 { vi(st, c) } else { 1 };
            if step_v == 0 {
                return Err(RtError::new("zero DO step").into());
            }
            let Some(var) = reg(st, t.fb, meta.var) else {
                return Err(RtError::new(format!(
                    "unbound loop variable {}",
                    t.unit.names[meta.var as usize]
                ))
                .into());
            };
            let niter = trip_count(lo, hi, step_v);
            let is_outer_parallel = meta.dir.is_some() && st.par_depth == 0;
            if !is_outer_parallel {
                if niter == 0 {
                    return Ok(Ctl::Goto(meta.exit_pc));
                }
                write_var_journaled(st, var, Scalar::I(lo));
                st.loop_stack.push(LoopRec {
                    meta: mi,
                    cur: lo,
                    step: step_v,
                    n: niter,
                    done: 0,
                    var,
                    par: None,
                });
                return Ok(Ctl::Next); // pc already at body_pc
            }

            // Outermost directive loop. The excluded-slot set recycles
            // the race checker's buffer (free while no loop is active).
            let dir = meta.dir.as_ref().expect("directive present");
            let ops_before = st.ops;
            let mut excluded = std::mem::take(&mut st.race.excluded);
            excluded.clear();
            excluded.push(var.slot);
            for &l in &dir.privates {
                if let Some(r) = reg(st, t.fb, l) {
                    excluded.push(r.slot);
                }
            }
            for &(_, l) in &dir.reductions {
                if let Some(r) = reg(st, t.fb, l) {
                    excluded.push(r.slot);
                }
            }
            excluded.sort_unstable();

            if t.cx.opts.threads > 1 && niter > 1 {
                let flow = exec_parallel(
                    t.cx,
                    st,
                    (t.u, t.tu),
                    t.fb,
                    mi,
                    var,
                    lo,
                    step_v,
                    niter,
                    &excluded,
                );
                st.race.excluded = excluded;
                let flow = flow?;
                st.par_events.push(ParLoopEvent {
                    id: meta.id.clone(),
                    ops: st.ops - ops_before,
                    iters: niter,
                });
                if let Flow::Stop(m) = flow {
                    unwind_loops(st, &t.tu.loops, t.lb);
                    return Ok(Ctl::Done(Flow::Stop(m)));
                }
                Ok(Ctl::Goto(meta.exit_pc))
            } else {
                st.par_depth += 1;
                if t.cx.opts.check_races {
                    activate_race(st, excluded);
                } else {
                    st.race.excluded = excluded;
                }
                if niter == 0 {
                    if st.race.active {
                        retire_race(st);
                    }
                    st.par_depth -= 1;
                    st.par_events.push(ParLoopEvent {
                        id: meta.id.clone(),
                        ops: st.ops - ops_before,
                        iters: 0,
                    });
                    Ok(Ctl::Goto(meta.exit_pc))
                } else {
                    write_var(&mut st.mem, var, Scalar::I(lo));
                    st.loop_stack.push(LoopRec {
                        meta: mi,
                        cur: lo,
                        step: step_v,
                        n: niter,
                        done: 0,
                        var,
                        par: Some(ops_before),
                    });
                    Ok(Ctl::Next)
                }
            }
        }
        _ => unreachable!("hot opcode {k:?} routed to step_cold"),
    }
}

/// Execute body `tu` of unit `u` from `entry` in the frame at register
/// base `fb`. `chunk_of` marks chunk mode: the body of directive loop `m`
/// runs as one iteration, and reaching that loop's `DoNext` with no live
/// loop record ends the iteration.
// unused_assignments: `flush!`'s counter resets are dead at `return`
// exits — which is exactly the point of sharing one flush macro.
#[allow(unused_assignments)]
pub(crate) fn exec_typed(
    cx: Vx<'_>,
    st: &mut VmState,
    u: usize,
    tu: &TypedUnit,
    fb: usize,
    entry: usize,
    chunk_of: Option<u32>,
) -> Result<Flow, VmErr> {
    let unit = &cx.prog.units[u];
    // The shared bank grows to the widest body entered; steady-state
    // entries find it sized.
    if st.vregs.len() < tu.nvregs {
        st.vregs.resize(tu.nvregs, 0);
    }
    // Operand-stream pre-resolution: snapshot each frame register's
    // slot/offset into one packed word so scalar operand reads stop
    // re-basing through the 4-word `Reg` (see `want_scal`). Frame
    // windows are immutable during execution, so one snapshot per frame
    // entry is sound; the length guard makes chunk re-entry (same
    // frame, many iterations) idempotent. `call_unit` truncates the
    // cache with the frame, and frame build once the window is complete.
    if st.scal.len() < st.regs.regs.len() {
        let from = st.scal.len();
        for r in &st.regs.regs[from..] {
            st.scal.push(pack_scal(r));
        }
        st.ctr.scal_prebound += (st.scal.len() - from) as u64;
    }
    let t = Tcx {
        cx,
        u,
        unit,
        tu,
        fb,
        lb: st.loop_stack.len(),
        chunk_of,
    };
    let code = &tu.code;
    let mut pc = entry;
    // Retire counters accumulate in locals (registers under optimization)
    // and flush to `st.ctr` only at frame events: a per-instruction RMW
    // through `&mut VmState` costs more than the dispatch itself.
    let mut retired = 0u64;
    let mut classes = [0u64; crate::interp::N_OP_CLASSES];
    macro_rules! flush {
        () => {
            st.ctr.insns_retired += retired;
            for (dst, src) in st.ctr.class_retired.iter_mut().zip(classes.iter()) {
                *dst += src;
            }
            retired = 0;
            classes = [0; crate::interp::N_OP_CLASSES];
        };
    }
    loop {
        let op = code[pc];
        pc += 1;
        retired += 1;
        classes[usize::from(CLASS_LUT[op.op as usize] & 7)] += 1;
        match step(op.op, &t, st, op) {
            Ok(Ctl::Next) => {}
            Ok(Ctl::Goto(p)) => pc = p as usize,
            Ok(Ctl::Done(f)) => {
                flush!();
                return Ok(f);
            }
            Ok(Ctl::CallUnit { target, nargs }) => {
                // No registers are live across a call (statement
                // boundary), so the callee reuses the shared vreg bank.
                flush!();
                let flow = call_unit(cx, st, target as usize, nargs as usize)?;
                if let Flow::Stop(m) = flow {
                    unwind_loops(st, &tu.loops, t.lb);
                    return Ok(Flow::Stop(m));
                }
            }
            Err(e) => {
                flush!();
                return Err(e);
            }
        }
    }
}
