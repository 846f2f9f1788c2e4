//! Inlining heuristics — the Polaris defaults from paper §II.
//!
//! "The default strategy inlines a procedure call only when the procedure
//! contains no I/O and not many statements (≤ 150 by default) and when the
//! invocation is inside a loop nest." Conventional inlining additionally
//! "leaves out subroutines that make additional non-trivial procedure
//! calls" (§II-B1, the FSMP example) and cannot touch recursive routines or
//! externals whose source is unavailable (§I).

use fdep::callgraph::CallGraph;
use fir::ast::{Block, ProcUnit, StmtKind};
use fir::visit::{contains_io, walk_stmts};

/// Tunable inlining policy (paper defaults in [`Heuristics::polaris`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heuristics {
    /// Maximum callee size in executable statements.
    pub max_stmts: usize,
    /// Inline callees containing I/O (`WRITE`/`STOP`)?
    pub allow_io: bool,
    /// Only inline call sites that sit inside a loop nest.
    pub require_loop_context: bool,
    /// Maximum number of calls the callee itself may make (0 = leaves only).
    pub max_callee_calls: usize,
}

impl Heuristics {
    /// The Polaris default strategy.
    pub fn polaris() -> Heuristics {
        Heuristics {
            max_stmts: 150,
            allow_io: false,
            require_loop_context: true,
            max_callee_calls: 0,
        }
    }

    /// A permissive policy used by ablation benches (inline everything
    /// structurally possible).
    pub fn aggressive() -> Heuristics {
        Heuristics {
            max_stmts: usize::MAX,
            allow_io: true,
            require_loop_context: false,
            max_callee_calls: usize::MAX,
        }
    }
}

/// Why a callee was rejected for conventional inlining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// No definition in the program (external library routine).
    External,
    /// Callee is (mutually) recursive.
    Recursive,
    /// Callee exceeds the statement budget.
    TooLarge {
        /// Measured size.
        stmts: usize,
    },
    /// Callee performs I/O or may STOP.
    HasIo,
    /// Callee makes too many further calls (opaque compositional
    /// subroutine, paper §II-B1).
    TooManyCalls {
        /// Measured fan-out.
        calls: usize,
    },
    /// Call site is not inside a loop nest.
    NotInLoop,
    /// Callee contains a RETURN that is not the final statement — inlining
    /// would need unstructured control flow.
    EarlyReturn,
}

/// Decide whether `callee` may be inlined at a call site with the given
/// loop-nest context.
pub fn check(
    callee_name: &str,
    callee: Option<&ProcUnit>,
    in_loop: bool,
    graph: &CallGraph,
    h: &Heuristics,
) -> Result<(), SkipReason> {
    let Some(unit) = callee else {
        return Err(SkipReason::External);
    };
    if graph.is_recursive(callee_name) {
        return Err(SkipReason::Recursive);
    }
    let stmts = unit.stmt_count();
    if stmts > h.max_stmts {
        return Err(SkipReason::TooLarge { stmts });
    }
    // Compositional exclusion is checked before the I/O one so the report
    // names the paper's reason for FSMP-class subroutines (§II-B1) even
    // when they also contain error-checking output.
    let calls = graph.fanout(callee_name);
    if calls > h.max_callee_calls {
        return Err(SkipReason::TooManyCalls { calls });
    }
    if !h.allow_io && contains_io(&unit.body) {
        return Err(SkipReason::HasIo);
    }
    if h.require_loop_context && !in_loop {
        return Err(SkipReason::NotInLoop);
    }
    if has_early_return(unit) {
        return Err(SkipReason::EarlyReturn);
    }
    Ok(())
}

/// True when a RETURN occurs anywhere except as the last top-level
/// statement (a nested RETURN always counts as early).
pub fn has_early_return(unit: &ProcUnit) -> bool {
    body_has_early_return(&unit.body)
}

/// [`has_early_return`] for a bare subroutine body.
pub fn body_has_early_return(body: &Block) -> bool {
    let mut total = 0usize;
    walk_stmts(body, &mut |s| {
        if matches!(s.kind, StmtKind::Return) {
            total += 1;
        }
    });
    if total == 0 {
        return false;
    }
    // The only benign shape: exactly one RETURN, and it is the final
    // top-level statement.
    total > 1 || !matches!(body.last().map(|s| &s.kind), Some(StmtKind::Return))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::parser::parse;

    fn fixture(callee: &str) -> (fir::ast::Program, CallGraph) {
        let src = format!(
            "      PROGRAM MAIN
      DO I = 1, 10
        CALL S(I)
      ENDDO
      END
{callee}"
        );
        let p = parse(&src).unwrap();
        let g = CallGraph::build(&p);
        (p, g)
    }

    #[test]
    fn small_leaf_is_inlinable() {
        let (p, g) = fixture(
            "      SUBROUTINE S(I)
      X = I
      END
",
        );
        assert_eq!(
            check("S", p.unit("S"), true, &g, &Heuristics::polaris()),
            Ok(())
        );
    }

    #[test]
    fn external_is_rejected() {
        let (p, g) = fixture("      SUBROUTINE S(I)\n      X = I\n      END\n");
        assert_eq!(
            check("LIBFN", p.unit("LIBFN"), true, &g, &Heuristics::polaris()),
            Err(SkipReason::External)
        );
    }

    #[test]
    fn io_is_rejected() {
        let (p, g) = fixture(
            "      SUBROUTINE S(I)
      WRITE(6,*) I
      END
",
        );
        assert_eq!(
            check("S", p.unit("S"), true, &g, &Heuristics::polaris()),
            Err(SkipReason::HasIo)
        );
    }

    #[test]
    fn compositional_callee_rejected() {
        // FSMP-style: makes further calls.
        let (p, g) = fixture(
            "      SUBROUTINE S(I)
      CALL GETCR(I)
      CALL SHAPE1
      END
",
        );
        assert_eq!(
            check("S", p.unit("S"), true, &g, &Heuristics::polaris()),
            Err(SkipReason::TooManyCalls { calls: 2 })
        );
    }

    #[test]
    fn size_budget() {
        let body: String = (0..200).map(|i| format!("      X{i} = {i}\n")).collect();
        let (p, g) = fixture(&format!("      SUBROUTINE S(I)\n{body}      END\n"));
        assert_eq!(
            check("S", p.unit("S"), true, &g, &Heuristics::polaris()),
            Err(SkipReason::TooLarge { stmts: 200 })
        );
        // The aggressive policy takes it.
        assert_eq!(
            check("S", p.unit("S"), true, &g, &Heuristics::aggressive()),
            Ok(())
        );
    }

    #[test]
    fn loop_context_required() {
        let (p, g) = fixture("      SUBROUTINE S(I)\n      X = I\n      END\n");
        assert_eq!(
            check("S", p.unit("S"), false, &g, &Heuristics::polaris()),
            Err(SkipReason::NotInLoop)
        );
    }

    #[test]
    fn recursion_rejected() {
        let src = "      PROGRAM MAIN
      CALL A(1)
      END
      SUBROUTINE A(I)
      CALL A(I)
      END
";
        let p = parse(src).unwrap();
        let g = CallGraph::build(&p);
        // Recursion is checked before fan-out.
        assert_eq!(
            check("A", p.unit("A"), true, &g, &Heuristics::polaris()),
            Err(SkipReason::Recursive)
        );
    }

    #[test]
    fn trailing_return_ok_early_return_rejected() {
        let (p, g) = fixture(
            "      SUBROUTINE S(I)
      X = I
      RETURN
      END
",
        );
        assert_eq!(
            check("S", p.unit("S"), true, &g, &Heuristics::polaris()),
            Ok(())
        );

        let (p, g) = fixture(
            "      SUBROUTINE S(I)
      IF (I .GT. 0) THEN
        RETURN
      ENDIF
      X = I
      END
",
        );
        assert_eq!(
            check("S", p.unit("S"), true, &g, &Heuristics::polaris()),
            Err(SkipReason::EarlyReturn)
        );
    }
}
