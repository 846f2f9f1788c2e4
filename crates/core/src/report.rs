//! Report datatypes for the paper's evaluation artifacts.
//!
//! * [`Table2Row`] — one (application × inlining-configuration) cell group
//!   of Table II: parallelized-loop count, `#par-loss`, `#par-extra`, and
//!   code size, computed with the paper's accounting rules (each original
//!   loop counted once; losses/extras relative to the no-inlining run).
//! * [`Fig20Point`] — one bar of Figure 20: simulated speedup of an
//!   application under one configuration on one machine, after the §IV-B
//!   empirical-tuning step.

use crate::pipeline::{InlineMode, PipelineResult};
use fir::ast::LoopId;
use std::collections::BTreeSet;

/// One Table II row group.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Application name.
    pub app: String,
    /// Configuration label (`no-inline` / `conventional` / `annotation`).
    pub config: String,
    /// Number of parallelized loops (distinct original loops).
    pub par_loops: usize,
    /// Loops parallelized under no-inlining but lost here.
    pub par_loss: usize,
    /// Loops parallelized here but not under no-inlining.
    pub par_extra: usize,
    /// Emitted source lines, comments stripped.
    pub loc: usize,
}

/// Compute the three Table II rows of one application from its three
/// pipeline runs (no-inline, conventional, annotation — in that order).
pub fn table2_rows(
    app: &str,
    none: &PipelineResult,
    conv: &PipelineResult,
    annot: &PipelineResult,
) -> Vec<Table2Row> {
    rows_from(
        app,
        [none, conv, annot].map(|r| (r.parallel_loops(), r.loc)),
    )
}

/// [`table2_rows`] from each run's parallel loops and code size.
pub(crate) fn rows_from(app: &str, runs: [(BTreeSet<LoopId>, usize); 3]) -> Vec<Table2Row> {
    let base = runs[0].0.clone();
    let modes = InlineMode::classic();
    modes
        .into_iter()
        .zip(runs)
        .map(|(mode, (set, loc))| Table2Row {
            app: app.to_string(),
            config: mode.label().to_string(),
            par_loops: set.len(),
            par_loss: base.difference(&set).count(),
            par_extra: set.difference(&base).count(),
            loc,
        })
        .collect()
}

/// Loops lost (parallel under no-inlining, not under the configuration).
pub fn lost_loops(none: &PipelineResult, cfg: &PipelineResult) -> BTreeSet<LoopId> {
    none.parallel_loops()
        .difference(&cfg.parallel_loops())
        .cloned()
        .collect()
}

/// Loops gained (parallel under the configuration, not under no-inlining).
pub fn extra_loops(none: &PipelineResult, cfg: &PipelineResult) -> BTreeSet<LoopId> {
    cfg.parallel_loops()
        .difference(&none.parallel_loops())
        .cloned()
        .collect()
}

/// One bar of Figure 20.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig20Point {
    /// Application name.
    pub app: String,
    /// Configuration label.
    pub config: String,
    /// Machine name (`intel8` / `amd4`).
    pub machine: String,
    /// Simulated speedup (sequential time / tuned parallel time).
    pub speedup: f64,
    /// Loops disabled by empirical tuning.
    pub tuned_off: usize,
}

/// Render Table II as aligned text (one block per application).
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<14} {:>10} {:>9} {:>10} {:>8}\n",
        "app", "config", "par-loops", "par-loss", "par-extra", "loc"
    ));
    out.push_str(&"-".repeat(66));
    out.push('\n');
    let mut last_app = String::new();
    for r in rows {
        let app = if r.app == last_app {
            String::new()
        } else {
            r.app.clone()
        };
        last_app = r.app.clone();
        out.push_str(&format!(
            "{:<10} {:<14} {:>10} {:>9} {:>10} {:>8}\n",
            app, r.config, r.par_loops, r.par_loss, r.par_extra, r.loc
        ));
    }
    out
}

/// Render Figure 20 as aligned text, grouped by machine.
pub fn render_fig20(points: &[Fig20Point]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<14} {:<8} {:>9} {:>10}\n",
        "app", "config", "machine", "speedup", "tuned-off"
    ));
    out.push_str(&"-".repeat(56));
    out.push('\n');
    for p in points {
        out.push_str(&format!(
            "{:<10} {:<14} {:<8} {:>9.4} {:>10}\n",
            p.app, p.config, p.machine, p.speedup, p.tuned_off
        ));
    }
    out
}

/// Column totals of Table II per configuration (the paper quotes totals:
/// annotation +37 extra / 0 loss; conventional +12 extra / 90 loss).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table2Totals {
    /// Total parallelized loops.
    pub par_loops: usize,
    /// Total losses.
    pub par_loss: usize,
    /// Total extras.
    pub par_extra: usize,
    /// Total emitted lines.
    pub loc: usize,
}

/// Sum rows of one configuration.
pub fn totals_for(rows: &[Table2Row], config: &str) -> Table2Totals {
    let mut t = Table2Totals::default();
    for r in rows.iter().filter(|r| r.config == config) {
        t.par_loops += r.par_loops;
        t.par_loss += r.par_loss;
        t.par_extra += r.par_extra;
        t.loc += r.loc;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, PipelineOptions};
    use finline::annot::AnnotRegistry;
    use fir::parser::parse;

    const SRC: &str = "      PROGRAM MAIN
      DIMENSION A(100), B(100)
      DO I = 1, 100
        A(I) = B(I)
      ENDDO
      DO K = 1, 100
        CALL OPQ(K)
      ENDDO
      END
      SUBROUTINE OPQ(K)
      COMMON /C/ R(200)
      R(K) = K
      END
";

    fn three() -> (PipelineResult, PipelineResult, PipelineResult) {
        let p = parse(SRC).unwrap();
        let reg =
            AnnotRegistry::parse("subroutine OPQ(K) { dimension R[200]; R[K] = K; }").unwrap();
        (
            compile(&p, &reg, &PipelineOptions::for_mode(InlineMode::None)),
            compile(
                &p,
                &reg,
                &PipelineOptions::for_mode(InlineMode::Conventional),
            ),
            compile(&p, &reg, &PipelineOptions::for_mode(InlineMode::Annotation)),
        )
    }

    #[test]
    fn rows_have_consistent_accounting() {
        let (none, conv, annot) = three();
        let rows = table2_rows("TEST", &none, &conv, &annot);
        assert_eq!(rows.len(), 3);
        let base = &rows[0];
        assert_eq!(base.par_loss, 0);
        assert_eq!(base.par_extra, 0);
        for r in &rows {
            // loops = base - loss + extra must hold by construction.
            assert_eq!(
                r.par_loops,
                base.par_loops - r.par_loss + r.par_extra,
                "{r:?}"
            );
        }
    }

    #[test]
    fn annotation_gains_the_call_loop() {
        let (none, _conv, annot) = three();
        let extra = extra_loops(&none, &annot);
        assert!(
            extra.contains(&fir::ast::LoopId::new("MAIN", 2)),
            "{extra:?}"
        );
    }

    #[test]
    fn renders_are_stable() {
        let rows = vec![Table2Row {
            app: "ADM".into(),
            config: "no-inline".into(),
            par_loops: 5,
            par_loss: 0,
            par_extra: 0,
            loc: 123,
        }];
        let txt = render_table2(&rows);
        assert!(txt.contains("ADM"));
        assert!(txt.contains("123"));
        let pts = vec![Fig20Point {
            app: "ADM".into(),
            config: "annotation".into(),
            machine: "intel8".into(),
            speedup: 1.0732,
            tuned_off: 2,
        }];
        let txt = render_fig20(&pts);
        assert!(txt.contains("1.0732"));
    }

    #[test]
    fn totals_sum_per_config() {
        let (none, conv, annot) = three();
        let mut rows = table2_rows("A", &none, &conv, &annot);
        rows.extend(table2_rows("B", &none, &conv, &annot));
        let t = totals_for(&rows, "annotation");
        let single = totals_for(&rows[..3], "annotation");
        assert_eq!(t.par_loops, 2 * single.par_loops);
    }
}
