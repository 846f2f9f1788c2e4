//! Abstract syntax for MiniF77.
//!
//! The tree is *structured* (no GOTO): labeled `DO`/`CONTINUE` loops from the
//! source are parsed into nested [`DoLoop`] nodes. Two constructs exist only
//! in transformed programs and have no surface syntax in the base language:
//!
//! * [`Expr::Unique`] / [`Expr::Unknown`] — the two abstraction operators of
//!   the annotation language (paper §III-A), introduced by annotation-based
//!   inlining;
//! * [`StmtKind::Tagged`] — the `BEGIN(Code)`/`END` tag pair (paper Fig. 18)
//!   wrapping an inlined annotation body so the reverse inliner can find it.
//!
//! Every `DO` loop carries a [`LoopId`] naming the loop in the *original*
//! program; inlining clones preserve the id, which is what makes the paper's
//! "each loop counted only once" accounting (Table II) possible.

use crate::loc::Span;
use std::fmt;

pub use crate::ident::Ident;

/// A real literal wrapper giving `f64` total equality/ordering/hashing by
/// bit pattern, so expressions can be compared structurally and used as map
/// keys by the affine machinery and the reverse inliner's pattern matcher.
#[derive(Debug, Clone, Copy)]
pub struct R64(pub f64);

impl PartialOrd for R64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for R64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.to_bits().cmp(&other.0.to_bits())
    }
}

impl PartialEq for R64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for R64 {}
impl std::hash::Hash for R64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}
impl From<f64> for R64 {
    fn from(x: f64) -> Self {
        R64(x)
    }
}

/// Binary operators. Relational and logical operators produce logicals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// True for the six comparison operators.
    pub fn is_rel(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for commutative operators (used by the tolerant pattern matcher,
    /// which accepts operand reordering — paper §III-C3).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnOp {
    Neg,
    Not,
}

/// Intrinsic functions understood by the front end, analyses, and the
/// interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Intrinsic {
    Mod,
    Abs,
    Min,
    Max,
    Sqrt,
    Int,
    Dble,
    Exp,
    Log,
    Sin,
    Cos,
    Sign,
}

impl Intrinsic {
    /// Look up an intrinsic by its (upper-case) Fortran name.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "MOD" => Intrinsic::Mod,
            "ABS" | "IABS" | "DABS" => Intrinsic::Abs,
            "MIN" | "MIN0" | "AMIN1" | "DMIN1" => Intrinsic::Min,
            "MAX" | "MAX0" | "AMAX1" | "DMAX1" => Intrinsic::Max,
            "SQRT" | "DSQRT" => Intrinsic::Sqrt,
            "INT" | "IFIX" => Intrinsic::Int,
            "DBLE" | "FLOAT" => Intrinsic::Dble,
            "EXP" | "DEXP" => Intrinsic::Exp,
            "LOG" | "ALOG" | "DLOG" => Intrinsic::Log,
            "SIN" | "DSIN" => Intrinsic::Sin,
            "COS" | "DCOS" => Intrinsic::Cos,
            "SIGN" | "ISIGN" | "DSIGN" => Intrinsic::Sign,
            _ => return None,
        })
    }

    /// Canonical Fortran spelling used by the printer.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Mod => "MOD",
            Intrinsic::Abs => "ABS",
            Intrinsic::Min => "MIN",
            Intrinsic::Max => "MAX",
            Intrinsic::Sqrt => "SQRT",
            Intrinsic::Int => "INT",
            Intrinsic::Dble => "DBLE",
            Intrinsic::Exp => "EXP",
            Intrinsic::Log => "LOG",
            Intrinsic::Sin => "SIN",
            Intrinsic::Cos => "COS",
            Intrinsic::Sign => "SIGN",
        }
    }
}

/// One dimension of an array-section subscript (Fortran 90 notation, used in
/// annotations, e.g. `FE[*, IDE]`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SecRange {
    /// `*` or `:` — the whole extent of this dimension.
    Full,
    /// A single index expression.
    At(Expr),
    /// `lo:hi[:step]`; missing bounds mean the declared bound.
    Range {
        lo: Option<Box<Expr>>,
        hi: Option<Box<Expr>>,
        step: Option<Box<Expr>>,
    },
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Real/double literal.
    Real(R64),
    /// Character literal (only in `WRITE`/`STOP`).
    Str(String),
    /// Logical literal.
    Logical(bool),
    /// Scalar variable reference.
    Var(Ident),
    /// Array element reference `A(i, j, ...)`.
    Index(Ident, Vec<Expr>),
    /// Array section `A(lo:hi, *, k)` — produced by annotation lowering.
    Section(Ident, Vec<SecRange>),
    /// Intrinsic function application.
    Intrinsic(Intrinsic, Vec<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// `unique(x1, ..., xn)` — the value is an *injective* function of the
    /// operands (paper §III-A). Two occurrences with the same `u32` id denote
    /// the same function; the dependence tests exploit injectivity.
    Unique(u32, Vec<Expr>),
    /// `unknown(x1, ..., xn)` — an arbitrary function of the operands. Same
    /// id ⇒ same function, but nothing else is known.
    Unknown(u32, Vec<Expr>),
}

impl Expr {
    /// Shorthand for `Expr::Var`.
    pub fn var(name: impl Into<Ident>) -> Expr {
        Expr::Var(name.into())
    }

    /// Shorthand for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    /// Shorthand for a real literal.
    pub fn real(v: f64) -> Expr {
        Expr::Real(R64(v))
    }

    /// Shorthand for an array element reference.
    pub fn idx(name: impl Into<Ident>, subs: Vec<Expr>) -> Expr {
        Expr::Index(name.into(), subs)
    }

    /// Shorthand for a binary operation.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin(op, Box::new(l), Box::new(r))
    }

    /// `l + r`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Add, l, r)
    }

    /// `l - r`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Sub, l, r)
    }

    /// `l * r`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Mul, l, r)
    }

    /// Evaluate as a compile-time integer constant, if possible.
    pub fn as_int_const(&self) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            Expr::Un(UnOp::Neg, e) => e.as_int_const()?.checked_neg(),
            Expr::Bin(op, l, r) => {
                let (a, b) = (l.as_int_const()?, r.as_int_const()?);
                match op {
                    BinOp::Add => a.checked_add(b),
                    BinOp::Sub => a.checked_sub(b),
                    BinOp::Mul => a.checked_mul(b),
                    BinOp::Div => a.checked_div(b),
                    BinOp::Pow if (0..=31).contains(&b) => a.checked_pow(b as u32),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// True if the expression mentions the given variable (as a scalar or as
    /// an array base).
    pub fn mentions(&self, name: &str) -> bool {
        let mut found = false;
        self.walk(&mut |e| match e {
            Expr::Var(n) | Expr::Index(n, _) | Expr::Section(n, _) if n == name => found = true,
            _ => {}
        });
        found
    }

    /// Pre-order walk over this expression and all sub-expressions.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Index(_, subs)
            | Expr::Intrinsic(_, subs)
            | Expr::Unique(_, subs)
            | Expr::Unknown(_, subs) => {
                for s in subs {
                    s.walk(f);
                }
            }
            Expr::Section(_, ranges) => {
                for r in ranges {
                    match r {
                        SecRange::At(e) => e.walk(f),
                        SecRange::Range { lo, hi, step } => {
                            for e in [lo, hi, step].into_iter().flatten() {
                                e.walk(f);
                            }
                        }
                        SecRange::Full => {}
                    }
                }
            }
            Expr::Bin(_, l, r) => {
                l.walk(f);
                r.walk(f);
            }
            Expr::Un(_, e) => e.walk(f),
            _ => {}
        }
    }

    /// In-place post-order rewrite: `f` is applied to every node after its
    /// children have been rewritten.
    pub fn rewrite(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Expr::Index(_, subs)
            | Expr::Intrinsic(_, subs)
            | Expr::Unique(_, subs)
            | Expr::Unknown(_, subs) => {
                for s in subs {
                    s.rewrite(f);
                }
            }
            Expr::Section(_, ranges) => {
                for r in ranges {
                    match r {
                        SecRange::At(e) => e.rewrite(f),
                        SecRange::Range { lo, hi, step } => {
                            for e in [lo, hi, step].into_iter().flatten() {
                                e.rewrite(f);
                            }
                        }
                        SecRange::Full => {}
                    }
                }
            }
            Expr::Bin(_, l, r) => {
                l.rewrite(f);
                r.rewrite(f);
            }
            Expr::Un(_, e) => e.rewrite(f),
            _ => {}
        }
        f(self);
    }

    /// Number of nodes in the expression tree (used by size heuristics).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }
}

/// Identity of a `DO` loop in the *original* program: the defining unit plus
/// a sequential index assigned at parse time. Inlined copies keep the callee
/// id; loops synthesized from annotations get indices offset by
/// [`LoopId::ANNOT_BASE`] in the callee's namespace.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId {
    /// Name of the program unit that originally contained the loop.
    pub unit: Ident,
    /// Sequential index within the unit (pre-order, parse order).
    pub idx: u32,
}

impl LoopId {
    /// Index offset marking loops that came from an annotation body rather
    /// than real source.
    pub const ANNOT_BASE: u32 = 100_000;

    /// Create a loop id.
    pub fn new(unit: impl Into<Ident>, idx: u32) -> Self {
        LoopId {
            unit: unit.into(),
            idx,
        }
    }

    /// True if this loop was synthesized from an annotation body.
    pub fn is_annotation(&self) -> bool {
        self.idx >= Self::ANNOT_BASE
    }
}

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_annotation() {
            write!(f, "{}@annot{}", self.unit, self.idx - Self::ANNOT_BASE)
        } else {
            write!(f, "{}#{}", self.unit, self.idx)
        }
    }
}

/// OpenMP reduction operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    Add,
    Mul,
    Min,
    Max,
}

impl RedOp {
    /// OpenMP clause spelling.
    pub fn omp_name(self) -> &'static str {
        match self {
            RedOp::Add => "+",
            RedOp::Mul => "*",
            RedOp::Min => "MIN",
            RedOp::Max => "MAX",
        }
    }
}

/// An `!$OMP PARALLEL DO` directive attached to a loop by the parallelizer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OmpDirective {
    /// Variables private to each thread (includes privatized temporaries).
    pub private: Vec<Ident>,
    /// Private variables whose pre-loop value is needed.
    pub firstprivate: Vec<Ident>,
    /// Private variables whose final-iteration value is needed after the loop.
    pub lastprivate: Vec<Ident>,
    /// Reduction clauses.
    pub reductions: Vec<(RedOp, Ident)>,
    /// Emit `END DO NOWAIT`.
    pub nowait: bool,
}

/// A `DO` loop.
#[derive(Debug, Clone, PartialEq)]
pub struct DoLoop {
    /// Stable identity for Table II accounting.
    pub id: LoopId,
    /// Loop index variable.
    pub var: Ident,
    /// Lower bound.
    pub lo: Expr,
    /// Upper bound (inclusive, Fortran semantics).
    pub hi: Expr,
    /// Step; `None` means 1.
    pub step: Option<Expr>,
    /// Loop body.
    pub body: Block,
    /// Parallelization directive, if the planner chose to emit one here.
    pub directive: Option<OmpDirective>,
}

impl DoLoop {
    /// The step expression, defaulting to 1.
    pub fn step_expr(&self) -> Expr {
        self.step.clone().unwrap_or(Expr::Int(1))
    }
}

/// Metadata for a tagged (annotation-inlined) region, paper Fig. 18.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagInfo {
    /// Unique tag id, allocated by the annotation inliner.
    pub tag_id: u32,
    /// Name of the subroutine whose annotation was inlined here.
    pub callee: Ident,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `lhs = rhs`; `lhs` is a `Var`, `Index`, or `Section` expression.
    Assign { lhs: Expr, rhs: Expr },
    /// Block `IF`/`ELSE`. One-line logical IFs are parsed into this form
    /// with a single-statement `then_blk`.
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Block,
    },
    /// A `DO` loop, boxed: a loop header is nearly three times the size of
    /// any other statement kind, and every statement would pay for it.
    Do(Box<DoLoop>),
    /// Subroutine invocation.
    Call { name: Ident, args: Vec<Expr> },
    /// `WRITE(unit, *) items` or `PRINT *, items` (unit 6).
    Write { unit: i32, items: Vec<Expr> },
    /// `STOP ['message']`.
    Stop { message: Option<String> },
    /// `RETURN`.
    Return,
    /// `CONTINUE` (kept when it carries a label used for documentation).
    Continue,
    /// A region produced by annotation-based inlining, delimited in emitted
    /// source by `*//@; BEGIN(Code)` / `*//@; END` tags.
    Tagged { tag: TagInfo, body: Block },
}

/// A statement: kind + source span + optional numeric label.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What the statement does.
    pub kind: StmtKind,
    /// Where it came from ([`Span::SYNTH`] for transformed code).
    pub span: Span,
    /// Optional statement label from the source.
    pub label: Option<u32>,
}

impl Stmt {
    /// Wrap a kind with a synthetic span and no label.
    pub fn synth(kind: StmtKind) -> Stmt {
        Stmt {
            kind,
            span: Span::SYNTH,
            label: None,
        }
    }

    /// Shorthand for a synthetic assignment.
    pub fn assign(lhs: Expr, rhs: Expr) -> Stmt {
        Stmt::synth(StmtKind::Assign { lhs, rhs })
    }

    /// Shorthand for a synthetic call.
    pub fn call(name: impl Into<Ident>, args: Vec<Expr>) -> Stmt {
        Stmt::synth(StmtKind::Call {
            name: name.into(),
            args,
        })
    }
}

/// A sequence of statements.
pub type Block = Vec<Stmt>;

/// Fortran data types. `REAL` and `DOUBLE PRECISION` are both evaluated in
/// `f64` by the runtime, but the distinction is kept for faithful printing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    Integer,
    Real,
    Double,
    Logical,
}

impl Type {
    /// Fortran implicit typing rule: names starting I..N are INTEGER,
    /// everything else REAL.
    pub fn implicit_for(name: &str) -> Type {
        match name.as_bytes().first() {
            Some(c) if (b'I'..=b'N').contains(c) => Type::Integer,
            _ => Type::Real,
        }
    }

    /// Keyword spelling for the printer.
    pub fn keyword(self) -> &'static str {
        match self {
            Type::Integer => "INTEGER",
            Type::Real => "REAL",
            Type::Double => "DOUBLE PRECISION",
            Type::Logical => "LOGICAL",
        }
    }
}

/// One dimension of an array declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Dim {
    /// Explicit extent expression (lower bound 1).
    Extent(Expr),
    /// `*` — assumed-size (dummy arguments only).
    Assumed,
}

/// A declared variable (scalar if `dims` is empty).
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Variable name.
    pub name: Ident,
    /// Declared type; `None` if only dimensioned (type comes from another
    /// declaration or the implicit rule).
    pub ty: Option<Type>,
    /// Array dimensions (empty ⇒ scalar).
    pub dims: Vec<Dim>,
}

/// Declarations in a program unit.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// Type/DIMENSION declarations.
    Var(VarDecl),
    /// `COMMON /block/ v1, v2(...)` — shared storage.
    Common { block: Ident, vars: Vec<VarDecl> },
    /// `PARAMETER (name = const)`.
    Param { name: Ident, value: Expr },
}

/// Kind of program unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// `PROGRAM` — the entry point.
    Program,
    /// `SUBROUTINE`.
    Subroutine,
}

/// A program unit: `PROGRAM` or `SUBROUTINE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcUnit {
    /// Program or subroutine.
    pub kind: UnitKind,
    /// Unit name.
    pub name: Ident,
    /// Formal parameter names, in order (empty for `PROGRAM`).
    pub params: Vec<Ident>,
    /// Declarations.
    pub decls: Vec<Decl>,
    /// Executable statements.
    pub body: Block,
    /// Source span of the unit header.
    pub span: Span,
}

impl ProcUnit {
    /// Number of executable statements (recursively), the metric used by the
    /// Polaris `≤150 statements` inlining heuristic.
    pub fn stmt_count(&self) -> usize {
        fn count(b: &Block) -> usize {
            b.iter()
                .map(|s| match &s.kind {
                    StmtKind::If {
                        then_blk, else_blk, ..
                    } => 1 + count(then_blk) + count(else_blk),
                    StmtKind::Do(d) => 1 + count(&d.body),
                    StmtKind::Tagged { body, .. } => count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }
}

/// A whole program: one `PROGRAM` unit plus subroutines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// All units, in source order.
    pub units: Vec<ProcUnit>,
}

impl Program {
    /// Find a unit by (upper-case) name.
    pub fn unit(&self, name: &str) -> Option<&ProcUnit> {
        self.units.iter().find(|u| u.name == name)
    }

    /// The `PROGRAM` unit, if present.
    pub fn main(&self) -> Option<&ProcUnit> {
        self.units.iter().find(|u| u.kind == UnitKind::Program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_typing_rule() {
        assert_eq!(Type::implicit_for("I"), Type::Integer);
        assert_eq!(Type::implicit_for("NSP"), Type::Integer);
        assert_eq!(Type::implicit_for("X2"), Type::Real);
        assert_eq!(Type::implicit_for("TSTEP"), Type::Real);
    }

    #[test]
    fn const_folding_in_as_int_const() {
        let e = Expr::bin(
            BinOp::Mul,
            Expr::int(3),
            Expr::bin(BinOp::Add, Expr::int(2), Expr::int(5)),
        );
        assert_eq!(e.as_int_const(), Some(21));
        assert_eq!(
            Expr::bin(BinOp::Pow, Expr::int(2), Expr::int(10)).as_int_const(),
            Some(1024)
        );
        assert_eq!(Expr::var("N").as_int_const(), None);
    }

    #[test]
    fn mentions_sees_array_bases_and_subscripts() {
        let e = Expr::idx(
            "T",
            vec![Expr::add(
                Expr::idx("IX", vec![Expr::int(7)]),
                Expr::var("I"),
            )],
        );
        assert!(e.mentions("T"));
        assert!(e.mentions("IX"));
        assert!(e.mentions("I"));
        assert!(!e.mentions("J"));
    }

    #[test]
    fn rewrite_substitutes_vars() {
        let mut e = Expr::add(Expr::var("X"), Expr::mul(Expr::var("X"), Expr::var("Y")));
        e.rewrite(&mut |node| {
            if matches!(node, Expr::Var(n) if n == "X") {
                *node = Expr::int(4);
            }
        });
        assert_eq!(
            e,
            Expr::add(Expr::int(4), Expr::mul(Expr::int(4), Expr::var("Y")))
        );
    }

    #[test]
    fn loop_id_display_and_annotation_namespace() {
        let l = LoopId::new("PCINIT", 2);
        assert_eq!(l.to_string(), "PCINIT#2");
        assert!(!l.is_annotation());
        let a = LoopId::new("MATMLT", LoopId::ANNOT_BASE + 1);
        assert!(a.is_annotation());
        assert_eq!(a.to_string(), "MATMLT@annot1");
    }

    #[test]
    fn stmt_count_recurses() {
        let inner = Stmt::synth(StmtKind::Do(Box::new(DoLoop {
            id: LoopId::new("S", 1),
            var: "I".into(),
            lo: Expr::int(1),
            hi: Expr::int(10),
            step: None,
            body: vec![Stmt::assign(Expr::var("X"), Expr::int(0))],
            directive: None,
        })));
        let unit = ProcUnit {
            kind: UnitKind::Subroutine,
            name: "S".into(),
            params: vec![],
            decls: vec![],
            body: vec![inner, Stmt::synth(StmtKind::Return)],
            span: Span::SYNTH,
        };
        assert_eq!(unit.stmt_count(), 3);
    }

    #[test]
    fn r64_total_equality() {
        assert_eq!(R64(f64::NAN), R64(f64::NAN));
        assert_ne!(R64(0.0), R64(-0.0));
        assert_eq!(R64(1.5), R64(1.5));
    }

    #[test]
    fn intrinsic_aliases() {
        assert_eq!(Intrinsic::from_name("DSQRT"), Some(Intrinsic::Sqrt));
        assert_eq!(Intrinsic::from_name("AMAX1"), Some(Intrinsic::Max));
        assert_eq!(Intrinsic::from_name("FROB"), None);
    }

    #[test]
    fn expr_size() {
        let e = Expr::add(Expr::var("A"), Expr::mul(Expr::var("B"), Expr::int(2)));
        assert_eq!(e.size(), 5);
    }
}
