//! Profitability heuristics.
//!
//! The paper: "the profitability is determined based on simplistic
//! heuristics, e.g., all parallelized loop needs to exceed a certain number
//! of iterations". The runtime cost model in `fruntime` implements the
//! *empirical tuning* step of §IV-B separately; this is the static filter.

use fdep::analyze::LoopAnalysis;

/// Minimum constant trip count of a profitable loop; loops with unknown
/// trip counts pass.
pub const MIN_TRIP: i64 = 4;

/// Verdict of the static profitability filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfitVerdict {
    /// Worth parallelizing.
    Profitable,
    /// Trip count too small.
    TooFewIterations,
}

/// Judge a loop from its analysis.
pub fn judge(a: &LoopAnalysis) -> ProfitVerdict {
    match a.trip_count {
        Some(t) if t < MIN_TRIP => ProfitVerdict::TooFewIterations,
        _ => ProfitVerdict::Profitable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdep::analyze::{analyze_loop, UnitCtx};
    use fir::ast::StmtKind;
    use fir::parser::parse;
    use fir::symbol::SymbolTable;

    fn analysis(hi: &str) -> LoopAnalysis {
        let src = format!(
            "      PROGRAM P
      DIMENSION A(1000)
      DO I = 1, {hi}
        A(I) = 0.0
      ENDDO
      END
"
        );
        let p = parse(&src).unwrap();
        let unit = &p.units[0];
        let table = SymbolTable::build(unit);
        for s in &unit.body {
            if let StmtKind::Do(d) = &s.kind {
                return analyze_loop(d, &UnitCtx::new(&table));
            }
        }
        unreachable!()
    }

    #[test]
    fn small_constant_trip_rejected() {
        assert_eq!(judge(&analysis("3")), ProfitVerdict::TooFewIterations);
        assert_eq!(judge(&analysis("4")), ProfitVerdict::Profitable);
    }

    #[test]
    fn unknown_trip_passes() {
        assert_eq!(judge(&analysis("N")), ProfitVerdict::Profitable);
    }
}
