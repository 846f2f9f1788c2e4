//! Memory-reference collection for one loop body.
//!
//! The dependence tests, scalar classification, and array-kill analysis all
//! consume the same flattened view of a loop body: every scalar and array
//! access, in textual order, with its guard depth (enclosing `IF`s) and the
//! inner loops that enclose it.

use fir::ast::{Block, DoLoop, Expr, Ident, SecRange, Stmt, StmtKind};

/// An inner loop (relative to the analyzed loop) enclosing an access.
#[derive(Debug, Clone, PartialEq)]
pub struct InnerLoop {
    /// Index variable.
    pub var: Ident,
    /// Lower bound expression.
    pub lo: Expr,
    /// Upper bound expression.
    pub hi: Expr,
    /// Step (None ⇒ 1).
    pub step: Option<Expr>,
}

impl InnerLoop {
    /// Build from a `DoLoop`.
    pub fn of(d: &DoLoop) -> InnerLoop {
        InnerLoop {
            var: d.var.clone(),
            lo: d.lo.clone(),
            hi: d.hi.clone(),
            step: d.step.clone(),
        }
    }
}

/// One dimension of an access: a point subscript or a section range.
#[derive(Debug, Clone, PartialEq)]
pub enum Sub {
    /// Point subscript expression.
    At(Expr),
    /// Whole extent (`*` / `:`).
    Full,
    /// Explicit range (from an annotation section).
    Range { lo: Option<Expr>, hi: Option<Expr> },
}

/// An array access.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayAccess {
    /// Array name.
    pub array: Ident,
    /// Per-dimension subscripts.
    pub subs: Vec<Sub>,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// Textual order within the body (0-based).
    pub pos: usize,
    /// Number of enclosing `IF`s (0 ⇒ unconditional).
    pub guard_depth: usize,
    /// Inner loops enclosing the access, outermost first.
    pub inners: Vec<InnerLoop>,
}

/// A scalar access.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarAccess {
    /// Scalar name.
    pub name: Ident,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// Textual order within the body.
    pub pos: usize,
    /// Number of enclosing `IF`s.
    pub guard_depth: usize,
    /// True if the access sits inside an inner loop.
    pub in_inner: bool,
}

/// Statement-level facts that block parallelization outright.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BodyFacts {
    /// Contains `WRITE`.
    pub has_io: bool,
    /// Contains `STOP`.
    pub has_stop: bool,
    /// Contains `CALL` (names collected).
    pub calls: Vec<Ident>,
    /// Contains `RETURN`.
    pub has_return: bool,
}

/// Everything collected from one loop body.
#[derive(Debug, Clone, Default)]
pub struct BodyRefs {
    /// All array accesses in textual order.
    pub arrays: Vec<ArrayAccess>,
    /// All scalar accesses in textual order.
    pub scalars: Vec<ScalarAccess>,
    /// Blocking facts.
    pub facts: BodyFacts,
    /// Index variables of inner loops (they are implicitly private).
    pub inner_vars: Vec<Ident>,
}

impl BodyRefs {
    /// Collect all references in the body of `loop_`. `is_array` decides
    /// whether a bare `Var` or an `Index` base names an array (from the
    /// symbol table; unknown names default to scalar).
    pub fn collect(loop_: &DoLoop, is_array: &dyn Fn(&str) -> bool) -> BodyRefs {
        BodyRefs::collect_block(&loop_.body, is_array)
    }

    /// [`BodyRefs::collect`] over a bare statement block, as if it were the
    /// body of a loop.
    pub fn collect_block(body: &Block, is_array: &dyn Fn(&str) -> bool) -> BodyRefs {
        let mut c = Collector {
            out: BodyRefs::default(),
            pos: 0,
            guards: 0,
            inners: Vec::new(),
            is_array,
        };
        c.block(body);
        c.out
    }

    /// Distinct array names accessed.
    pub fn array_names(&self) -> Vec<Ident> {
        let mut v: Vec<Ident> = Vec::new();
        for a in &self.arrays {
            if !v.contains(&a.array) {
                v.push(a.array.clone());
            }
        }
        v
    }

    /// Accesses to one array.
    pub fn accesses_of(&self, array: &str) -> Vec<&ArrayAccess> {
        self.arrays.iter().filter(|a| a.array == array).collect()
    }
}

struct Collector<'a> {
    out: BodyRefs,
    pos: usize,
    guards: usize,
    inners: Vec<InnerLoop>,
    is_array: &'a dyn Fn(&str) -> bool,
}

impl<'a> Collector<'a> {
    fn block(&mut self, b: &Block) {
        for s in b {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                // Subscripts of the LHS are reads; the base is a write.
                match lhs {
                    Expr::Index(name, subs) => {
                        for sub in subs {
                            self.expr_read(sub);
                        }
                        self.push_array(
                            name,
                            subs.iter().map(|e| Sub::At(e.clone())).collect(),
                            true,
                        );
                    }
                    Expr::Section(name, ranges) => {
                        self.section_reads(ranges);
                        self.push_array(name, ranges.iter().map(sec_to_sub).collect(), true);
                    }
                    Expr::Var(name) => {
                        if (self.is_array)(name) {
                            // Whole-array assignment (annotation collective
                            // op): writes the full extent.
                            self.push_array(name, vec![Sub::Full], true);
                        } else {
                            self.push_scalar(name, true);
                        }
                    }
                    _ => {}
                }
                self.expr_read(rhs);
                self.pos += 1;
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expr_read(cond);
                self.pos += 1;
                self.guards += 1;
                self.block(then_blk);
                self.block(else_blk);
                self.guards -= 1;
            }
            StmtKind::Do(d) => {
                self.expr_read(&d.lo);
                self.expr_read(&d.hi);
                if let Some(st) = &d.step {
                    self.expr_read(st);
                }
                // The inner index variable is written by the loop itself.
                if !self.out.inner_vars.contains(&d.var) {
                    self.out.inner_vars.push(d.var.clone());
                }
                self.pos += 1;
                self.inners.push(InnerLoop::of(d));
                self.block(&d.body);
                self.inners.pop();
            }
            StmtKind::Call { name, args } => {
                self.out.facts.calls.push(name.clone());
                for a in args {
                    self.expr_read(a);
                }
                self.pos += 1;
            }
            StmtKind::Write { items, .. } => {
                self.out.facts.has_io = true;
                for i in items {
                    self.expr_read(i);
                }
                self.pos += 1;
            }
            StmtKind::Stop { .. } => {
                self.out.facts.has_stop = true;
                self.pos += 1;
            }
            StmtKind::Return => {
                self.out.facts.has_return = true;
                self.pos += 1;
            }
            StmtKind::Continue => {
                self.pos += 1;
            }
            StmtKind::Tagged { body, .. } => {
                self.block(body);
            }
        }
    }

    fn expr_read(&mut self, e: &Expr) {
        match e {
            Expr::Var(n) => {
                if (self.is_array)(n) {
                    self.push_array(n, vec![Sub::Full], false);
                } else {
                    self.push_scalar(n, false);
                }
            }
            Expr::Index(n, subs) => {
                for s in subs {
                    self.expr_read(s);
                }
                self.push_array(n, subs.iter().map(|e| Sub::At(e.clone())).collect(), false);
            }
            Expr::Section(n, ranges) => {
                self.section_reads(ranges);
                self.push_array(n, ranges.iter().map(sec_to_sub).collect(), false);
            }
            Expr::Intrinsic(_, args) | Expr::Unique(_, args) | Expr::Unknown(_, args) => {
                for a in args {
                    self.expr_read(a);
                }
            }
            Expr::Bin(_, l, r) => {
                self.expr_read(l);
                self.expr_read(r);
            }
            Expr::Un(_, inner) => self.expr_read(inner),
            Expr::Int(_) | Expr::Real(_) | Expr::Str(_) | Expr::Logical(_) => {}
        }
    }

    fn section_reads(&mut self, ranges: &[SecRange]) {
        for r in ranges {
            match r {
                SecRange::At(e) => self.expr_read(e),
                SecRange::Range { lo, hi, step } => {
                    for e in [lo, hi, step].into_iter().flatten() {
                        self.expr_read(e);
                    }
                }
                SecRange::Full => {}
            }
        }
    }

    fn push_array(&mut self, name: &Ident, subs: Vec<Sub>, is_write: bool) {
        self.out.arrays.push(ArrayAccess {
            array: name.clone(),
            subs,
            is_write,
            pos: self.pos,
            guard_depth: self.guards,
            inners: self.inners.clone(),
        });
    }

    fn push_scalar(&mut self, name: &Ident, is_write: bool) {
        self.out.scalars.push(ScalarAccess {
            name: name.clone(),
            is_write,
            pos: self.pos,
            guard_depth: self.guards,
            in_inner: !self.inners.is_empty(),
        });
    }
}

fn sec_to_sub(r: &SecRange) -> Sub {
    match r {
        SecRange::Full => Sub::Full,
        SecRange::At(e) => Sub::At(e.clone()),
        SecRange::Range { lo, hi, .. } => Sub::Range {
            lo: lo.as_deref().cloned(),
            hi: hi.as_deref().cloned(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::parser::parse;

    fn loop_of(src: &str) -> DoLoop {
        let p = parse(src).unwrap();
        for s in &p.units[0].body {
            if let StmtKind::Do(d) = &s.kind {
                return d.clone();
            }
        }
        panic!("no loop");
    }

    fn arrays<'a>(names: &'a [&'a str]) -> impl Fn(&str) -> bool + 'a {
        move |n| names.contains(&n)
    }

    #[test]
    fn collects_reads_and_writes() {
        let d = loop_of(
            "      PROGRAM P
      DO I = 1, N
        A(I) = B(I) + C
      ENDDO
      END
",
        );
        let r = BodyRefs::collect(&d, &arrays(&["A", "B"]));
        assert_eq!(r.arrays.len(), 2);
        assert!(r.arrays.iter().any(|a| a.array == "A" && a.is_write));
        assert!(r.arrays.iter().any(|a| a.array == "B" && !a.is_write));
        assert!(r.scalars.iter().any(|s| s.name == "C" && !s.is_write));
    }

    #[test]
    fn lhs_subscripts_are_reads() {
        let d = loop_of(
            "      PROGRAM P
      DO I = 1, N
        A(IWHERD(2, I)) = 0.0
      ENDDO
      END
",
        );
        let r = BodyRefs::collect(&d, &arrays(&["A", "IWHERD"]));
        assert!(r.arrays.iter().any(|a| a.array == "IWHERD" && !a.is_write));
        assert!(r.arrays.iter().any(|a| a.array == "A" && a.is_write));
    }

    #[test]
    fn guard_depth_tracks_ifs() {
        let d = loop_of(
            "      PROGRAM P
      DO I = 1, N
        IF (X .GT. 0.0) THEN
          A(I) = 1.0
        ENDIF
        B(I) = 2.0
      ENDDO
      END
",
        );
        let r = BodyRefs::collect(&d, &arrays(&["A", "B"]));
        let a = r.arrays.iter().find(|a| a.array == "A").unwrap();
        let b = r.arrays.iter().find(|a| a.array == "B").unwrap();
        assert_eq!(a.guard_depth, 1);
        assert_eq!(b.guard_depth, 0);
    }

    #[test]
    fn inner_loops_recorded() {
        let d = loop_of(
            "      PROGRAM P
      DO I = 1, N
        DO J = 1, M
          A(J, I) = 0.0
        ENDDO
      ENDDO
      END
",
        );
        let r = BodyRefs::collect(&d, &arrays(&["A"]));
        let a = &r.arrays[0];
        assert_eq!(a.inners.len(), 1);
        assert_eq!(a.inners[0].var, "J");
        assert_eq!(r.inner_vars, vec!["J"]);
    }

    #[test]
    fn facts_capture_io_call_stop() {
        let d = loop_of(
            "      PROGRAM P
      DO I = 1, N
        CALL FSMP(I, J)
        IF (IERR .NE. 0) THEN
          WRITE(6,*) 'BAD'
          STOP 'BAD'
        ENDIF
      ENDDO
      END
",
        );
        let r = BodyRefs::collect(&d, &arrays(&[]));
        assert!(r.facts.has_io);
        assert!(r.facts.has_stop);
        assert_eq!(r.facts.calls, vec!["FSMP"]);
    }

    #[test]
    fn whole_array_var_is_full_access() {
        let d = loop_of(
            "      PROGRAM P
      DO I = 1, N
        XY = 0.0
      ENDDO
      END
",
        );
        let r = BodyRefs::collect(&d, &arrays(&["XY"]));
        assert_eq!(r.arrays.len(), 1);
        assert!(matches!(r.arrays[0].subs[0], Sub::Full));
        assert!(r.arrays[0].is_write);
    }

    #[test]
    fn textual_positions_increase() {
        let d = loop_of(
            "      PROGRAM P
      DO I = 1, N
        S = A(I)
        B(I) = S
      ENDDO
      END
",
        );
        let r = BodyRefs::collect(&d, &arrays(&["A", "B"]));
        let a = r.arrays.iter().find(|x| x.array == "A").unwrap();
        let b = r.arrays.iter().find(|x| x.array == "B").unwrap();
        assert!(a.pos < b.pos);
        let sw = r
            .scalars
            .iter()
            .find(|s| s.name == "S" && s.is_write)
            .unwrap();
        let sr = r
            .scalars
            .iter()
            .find(|s| s.name == "S" && !s.is_write)
            .unwrap();
        assert!(sw.pos < sr.pos);
    }
}
