//! Scalar dataflow classification for one loop body.
//!
//! Each scalar accessed in the body of an analyzed loop is placed into one
//! of a small number of classes that the parallelizer consumes directly:
//! read-only (shared), privatizable (written before read in every
//! iteration), a reduction (`S = S + e` patterns only), an induction
//! candidate (`I = I + c`, with other uses — substituted by
//! [`crate::ivsub`]), or loop-carried (blocks parallelization).

use fir::ast::{Block, Expr, Ident, Intrinsic, RedOp, Stmt, StmtKind};
use std::collections::{BTreeMap, BTreeSet};

/// Classification of one scalar with respect to the analyzed loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarClass {
    /// Never written in the loop: safely shared.
    ReadOnly,
    /// Every read is dominated by an unconditional same-iteration write:
    /// privatizable.
    Private,
    /// All accesses are `X = X op e` self-updates with a single operator:
    /// parallelizable as an OpenMP reduction.
    Reduction(RedOp),
    /// Exactly one `X = X + c` self-increment (c a nonzero integer
    /// constant) plus other uses: candidate for induction-variable
    /// substitution.
    Induction {
        /// The per-execution increment.
        incr: i64,
        /// True if the increment statement sits inside an inner loop.
        in_inner: bool,
    },
    /// A write/read pattern carrying a value across iterations: blocks
    /// parallelization.
    LoopCarried,
}

/// Result of classifying every scalar in a loop body.
#[derive(Debug, Clone, Default)]
pub struct ScalarInfo {
    /// Per-scalar classes (loop index variables excluded).
    pub classes: BTreeMap<Ident, ScalarClass>,
}

impl ScalarInfo {
    /// Names classified as the given reduction operator.
    pub fn reductions(&self) -> Vec<(RedOp, Ident)> {
        self.classes
            .iter()
            .filter_map(|(n, c)| match c {
                ScalarClass::Reduction(op) => Some((*op, n.clone())),
                _ => None,
            })
            .collect()
    }

    /// Names classified `Private`.
    pub fn privates(&self) -> Vec<Ident> {
        self.classes
            .iter()
            .filter(|&(_n, c)| *c == ScalarClass::Private)
            .map(|(n, _c)| n.clone())
            .collect()
    }

    /// Names that block parallelization.
    pub fn carried(&self) -> Vec<Ident> {
        self.classes
            .iter()
            .filter(|&(_n, c)| *c == ScalarClass::LoopCarried)
            .map(|(n, _c)| n.clone())
            .collect()
    }
}

/// A self-update statement `X = X op e` found in the body.
#[derive(Debug, Clone)]
struct SelfUpdate {
    op: RedOp,
    /// Constant integer operand, when the update is `X = X + c`.
    const_incr: Option<i64>,
    in_inner: bool,
    guarded: bool,
}

/// Classify every scalar in the body of a loop whose index variable is
/// `loop_var`. `is_array` distinguishes array names (handled elsewhere).
pub fn classify(body: &Block, loop_var: &str, is_array: &dyn Fn(&str) -> bool) -> ScalarInfo {
    let mut st = State {
        is_array,
        updates: BTreeMap::new(),
        other_reads: BTreeMap::new(),
        other_writes: BTreeMap::new(),
        exposed_reads: BTreeSet::new(),
        dominated: BTreeSet::new(),
        inner_vars: BTreeSet::new(),
        guard: 0,
        inner: 0,
    };
    st.block(body);

    let mut info = ScalarInfo::default();
    let mut names: BTreeSet<Ident> = BTreeSet::new();
    names.extend(st.updates.keys().cloned());
    names.extend(st.other_reads.keys().cloned());
    names.extend(st.other_writes.keys().cloned());
    names.remove(loop_var);
    for v in &st.inner_vars {
        names.remove(v);
    }

    for name in names {
        let updates = st.updates.get(&name).cloned().unwrap_or_default();
        let reads = st.other_reads.get(&name).copied().unwrap_or(0);
        let writes = st.other_writes.get(&name).copied().unwrap_or(0);
        let exposed = st.exposed_reads.contains(&name);

        let class = if updates.is_empty() && writes == 0 {
            ScalarClass::ReadOnly
        } else if !updates.is_empty() && writes == 0 && reads == 0 {
            // Only self-updates: a reduction if all operators agree.
            let op0 = updates[0].op;
            if updates.iter().all(|u| u.op == op0) {
                ScalarClass::Reduction(op0)
            } else {
                ScalarClass::LoopCarried
            }
        } else if updates.len() == 1
            && updates[0].const_incr.is_some()
            && updates[0].op == RedOp::Add
            && !updates[0].guarded
            && writes == 0
        {
            // `X = X + c` once, with other uses: induction candidate.
            ScalarClass::Induction {
                incr: updates[0].const_incr.unwrap(),
                in_inner: updates[0].in_inner,
            }
        } else if !updates.is_empty() {
            // Self-updates mixed with other writes/reads: carried.
            ScalarClass::LoopCarried
        } else if exposed {
            // Written, and some read is not dominated by a write.
            ScalarClass::LoopCarried
        } else {
            ScalarClass::Private
        };
        info.classes.insert(name, class);
    }
    info
}

struct State<'a> {
    is_array: &'a dyn Fn(&str) -> bool,
    updates: BTreeMap<Ident, Vec<SelfUpdate>>,
    other_reads: BTreeMap<Ident, usize>,
    other_writes: BTreeMap<Ident, usize>,
    /// Scalars with a read not dominated by an unconditional prior write.
    exposed_reads: BTreeSet<Ident>,
    /// Scalars definitely written so far (unconditional, this iteration).
    dominated: BTreeSet<Ident>,
    inner_vars: BTreeSet<Ident>,
    guard: usize,
    inner: usize,
}

impl<'a> State<'a> {
    fn block(&mut self, b: &Block) {
        for s in b {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                if let Expr::Var(name) = lhs {
                    if !(self.is_array)(name) {
                        if let Some(up) = self.self_update(name, rhs) {
                            self.updates.entry(name.clone()).or_default().push(up);
                            // The embedded read of `name` is part of the
                            // update; other operand reads are ordinary.
                            self.reads_excluding(rhs, name);
                            return;
                        }
                        self.reads(rhs);
                        *self.other_writes.entry(name.clone()).or_insert(0) += 1;
                        // Writes inside inner loops may execute zero times,
                        // so they never dominate later reads. Writes inside
                        // IF branches dominate within the branch; the IF
                        // handler intersects the branches afterwards.
                        if self.inner == 0 {
                            self.dominated.insert(name.clone());
                        }
                        return;
                    }
                }
                // Array LHS: subscripts are scalar reads.
                if let Expr::Index(_, subs) = lhs {
                    for e in subs {
                        self.reads(e);
                    }
                }
                self.reads(rhs);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.reads(cond);
                self.guard += 1;
                let before = self.dominated.clone();
                self.block(then_blk);
                let after_then = std::mem::replace(&mut self.dominated, before.clone());
                self.block(else_blk);
                let after_else = std::mem::replace(&mut self.dominated, before);
                self.guard -= 1;
                // A scalar written in *both* branches is dominated after
                // the IF: keep the intersection of the branch-end states.
                for n in after_then.intersection(&after_else) {
                    self.dominated.insert(n.clone());
                }
            }
            StmtKind::Do(d) => {
                self.inner_vars.insert(d.var.clone());
                self.reads(&d.lo);
                self.reads(&d.hi);
                if let Some(st) = &d.step {
                    self.reads(st);
                }
                self.inner += 1;
                self.block(&d.body);
                self.inner -= 1;
            }
            StmtKind::Call { args, .. } => {
                for a in args {
                    self.reads(a);
                }
            }
            StmtKind::Write { items, .. } => {
                for i in items {
                    self.reads(i);
                }
            }
            StmtKind::Tagged { body, .. } => self.block(body),
            StmtKind::Stop { .. } | StmtKind::Return | StmtKind::Continue => {}
        }
    }

    /// Detect `X = X op e` (or `X = e op X` for commutative op) where `e`
    /// does not mention `X`. MIN/MAX intrinsic updates also count.
    fn self_update(&self, name: &str, rhs: &Expr) -> Option<SelfUpdate> {
        let mk = |op: RedOp, operand: &Expr| SelfUpdate {
            op,
            const_incr: if op == RedOp::Add {
                operand.as_int_const()
            } else {
                None
            },
            in_inner: self.inner > 0,
            guarded: self.guard > 0,
        };
        match rhs {
            Expr::Bin(fir::ast::BinOp::Add, l, r) => {
                if matches!(&**l, Expr::Var(v) if v == name) && !r.mentions(name) {
                    return Some(mk(RedOp::Add, r));
                }
                if matches!(&**r, Expr::Var(v) if v == name) && !l.mentions(name) {
                    return Some(mk(RedOp::Add, l));
                }
                None
            }
            Expr::Bin(fir::ast::BinOp::Sub, l, r) => {
                // X = X - e is an additive reduction with negated operand.
                if matches!(&**l, Expr::Var(v) if v == name) && !r.mentions(name) {
                    let mut u = mk(RedOp::Add, r);
                    u.const_incr = u.const_incr.map(|c| -c);
                    return Some(u);
                }
                None
            }
            Expr::Bin(fir::ast::BinOp::Mul, l, r) => {
                if matches!(&**l, Expr::Var(v) if v == name) && !r.mentions(name) {
                    return Some(mk(RedOp::Mul, r));
                }
                if matches!(&**r, Expr::Var(v) if v == name) && !l.mentions(name) {
                    return Some(mk(RedOp::Mul, l));
                }
                None
            }
            Expr::Intrinsic(i, args) if args.len() == 2 => {
                let op = match i {
                    Intrinsic::Min => RedOp::Min,
                    Intrinsic::Max => RedOp::Max,
                    _ => return None,
                };
                let (a, b) = (&args[0], &args[1]);
                if matches!(a, Expr::Var(v) if v == name) && !b.mentions(name) {
                    return Some(mk(op, b));
                }
                if matches!(b, Expr::Var(v) if v == name) && !a.mentions(name) {
                    return Some(mk(op, a));
                }
                None
            }
            _ => None,
        }
    }

    fn reads(&mut self, e: &Expr) {
        self.reads_excluding(e, "\u{0}");
    }

    fn reads_excluding(&mut self, e: &Expr, skip_once: &str) {
        let mut skipped = false;
        e.walk(&mut |n| {
            if let Expr::Var(v) = n {
                if v == skip_once && !skipped {
                    skipped = true;
                    return;
                }
                if (self.is_array)(v) {
                    return;
                }
                *self.other_reads.entry(v.clone()).or_insert(0) += 1;
                if !self.dominated.contains(v) {
                    self.exposed_reads.insert(v.clone());
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::ast::StmtKind;
    use fir::parser::parse;

    fn body_of(src: &str) -> (Block, Ident) {
        let p = parse(src).unwrap();
        for s in &p.units[0].body {
            if let StmtKind::Do(d) = &s.kind {
                return (d.body.clone(), d.var.clone());
            }
        }
        panic!("no loop");
    }

    fn classify_src(src: &str, arrays: &[&str]) -> ScalarInfo {
        let (body, var) = body_of(src);
        classify(&body, &var, &|n| arrays.contains(&n))
    }

    #[test]
    fn read_only_scalar() {
        let info = classify_src(
            "      PROGRAM P
      DO I = 1, N
        A(I) = C*2.0
      ENDDO
      END
",
            &["A"],
        );
        assert_eq!(info.classes["C"], ScalarClass::ReadOnly);
    }

    #[test]
    fn sum_reduction() {
        let info = classify_src(
            "      PROGRAM P
      DO I = 1, N
        S = S + A(I)
      ENDDO
      END
",
            &["A"],
        );
        assert_eq!(info.classes["S"], ScalarClass::Reduction(RedOp::Add));
        assert_eq!(info.reductions(), vec![(RedOp::Add, "S".into())]);
    }

    #[test]
    fn subtraction_is_additive_reduction() {
        let info = classify_src(
            "      PROGRAM P
      DO I = 1, N
        S = S - A(I)
      ENDDO
      END
",
            &["A"],
        );
        assert_eq!(info.classes["S"], ScalarClass::Reduction(RedOp::Add));
    }

    #[test]
    fn max_reduction_via_intrinsic() {
        let info = classify_src(
            "      PROGRAM P
      DO I = 1, N
        BIG = MAX(BIG, A(I))
      ENDDO
      END
",
            &["A"],
        );
        assert_eq!(info.classes["BIG"], ScalarClass::Reduction(RedOp::Max));
    }

    #[test]
    fn induction_candidate() {
        // The paper's PCINIT pattern: I incremented and used in subscripts.
        let info = classify_src(
            "      PROGRAM P
      DO J = 1, N
        K = K + 1
        X2(K) = FX(K)
      ENDDO
      END
",
            &["X2", "FX"],
        );
        assert_eq!(
            info.classes["K"],
            ScalarClass::Induction {
                incr: 1,
                in_inner: false
            }
        );
    }

    #[test]
    fn induction_inside_inner_loop() {
        let info = classify_src(
            "      PROGRAM P
      DO N = 1, NT
        DO J = 1, NSP
          K = K + 1
          X2(K) = FX(K)
        ENDDO
      ENDDO
      END
",
            &["X2", "FX"],
        );
        assert_eq!(
            info.classes["K"],
            ScalarClass::Induction {
                incr: 1,
                in_inner: true
            }
        );
    }

    #[test]
    fn private_scalar_def_before_use() {
        let info = classify_src(
            "      PROGRAM P
      DO I = 1, N
        T = A(I)*2.0
        B(I) = T + T**2
      ENDDO
      END
",
            &["A", "B"],
        );
        assert_eq!(info.classes["T"], ScalarClass::Private);
    }

    #[test]
    fn use_before_def_is_carried() {
        let info = classify_src(
            "      PROGRAM P
      DO I = 1, N
        B(I) = T
        T = A(I)
      ENDDO
      END
",
            &["A", "B"],
        );
        assert_eq!(info.classes["T"], ScalarClass::LoopCarried);
    }

    #[test]
    fn guarded_write_does_not_dominate() {
        let info = classify_src(
            "      PROGRAM P
      DO I = 1, N
        IF (A(I) .GT. 0.0) THEN
          T = 1.0
        ENDIF
        B(I) = T
      ENDDO
      END
",
            &["A", "B"],
        );
        assert_eq!(info.classes["T"], ScalarClass::LoopCarried);
    }

    #[test]
    fn both_branch_writes_dominate() {
        let info = classify_src(
            "      PROGRAM P
      DO I = 1, N
        IF (A(I) .GT. 0.0) THEN
          T = 1.0
        ELSE
          T = -1.0
        ENDIF
        B(I) = T
      ENDDO
      END
",
            &["A", "B"],
        );
        assert_eq!(info.classes["T"], ScalarClass::Private);
    }

    #[test]
    fn inner_loop_vars_are_excluded() {
        let info = classify_src(
            "      PROGRAM P
      DO I = 1, N
        DO J = 1, M
          A(J, I) = 0.0
        ENDDO
      ENDDO
      END
",
            &["A"],
        );
        assert!(!info.classes.contains_key("J"));
        assert!(!info.classes.contains_key("I"));
    }

    #[test]
    fn reduction_plus_other_use_is_carried() {
        let info = classify_src(
            "      PROGRAM P
      DO I = 1, N
        S = S + A(I)
        B(I) = S
      ENDDO
      END
",
            &["A", "B"],
        );
        assert_eq!(info.classes["S"], ScalarClass::LoopCarried);
    }

    #[test]
    fn mixed_operators_are_carried() {
        let info = classify_src(
            "      PROGRAM P
      DO I = 1, N
        S = S + A(I)
        S = S*2.0
      ENDDO
      END
",
            &["A"],
        );
        assert_eq!(info.classes["S"], ScalarClass::LoopCarried);
    }

    #[test]
    fn write_inside_inner_loop_does_not_dominate_outer_reads() {
        // T written in an inner loop (may execute zero times), read after.
        let info = classify_src(
            "      PROGRAM P
      DO I = 1, N
        DO J = 1, M
          T = A(J)
        ENDDO
        B(I) = T
      ENDDO
      END
",
            &["A", "B"],
        );
        assert_eq!(info.classes["T"], ScalarClass::LoopCarried);
    }
}
