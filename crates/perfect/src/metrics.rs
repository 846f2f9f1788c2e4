//! Per-application evaluation: everything Table II and Figure 20 need,
//! computed from one [`App`].
//!
//! Evaluation goes through the `ipp-core` [driver](ipp_core::driver): a
//! worker pool over the application × configuration matrix with a per-app
//! baseline-run memo, a verify-dedup cache, and per-phase observability.
//! For each configuration the driver compiles the application, verifies it
//! with the runtime testers (original ≡ optimized, sequential ≡ threaded),
//! measures the op counts, applies the §IV-B empirical-tuning step per
//! machine, and emits the table rows / figure points.

use crate::suite::App;
use fruntime::Machine;
use ipp_core::driver::{run_suite, AppReport, DriverOptions, SuiteJob};
use ipp_core::SuiteMetrics;

/// Threads used for the correctness-checking parallel runs.
pub const VERIFY_THREADS: usize = 4;

/// Driver configuration used for suite evaluation. Result retention is
/// on: the suite is twelve apps, and every consumer of its
/// [`AppReport`]s reads the per-configuration payloads.
pub fn driver_options(machines: &[Machine]) -> DriverOptions {
    DriverOptions {
        verify_threads: VERIFY_THREADS,
        machines: machines.to_vec(),
        retain_results: true,
        ..Default::default()
    }
}

/// Package one [`App`] as a driver job.
pub fn suite_job(app: &App) -> SuiteJob {
    SuiteJob {
        name: app.name.to_string(),
        program: app.program(),
        registry: app.registry(),
    }
}

/// Package the whole suite as driver jobs.
pub fn suite_jobs() -> Vec<SuiteJob> {
    crate::suite::all().iter().map(suite_job).collect()
}

/// Evaluate one application on the given machines (via the driver).
pub fn evaluate_app(app: &App, machines: &[Machine]) -> AppReport {
    ipp_core::driver::run_app(&suite_job(app), &driver_options(machines)).0
}

/// Evaluate the whole suite through the concurrent driver.
pub fn evaluate_suite(machines: &[Machine]) -> Vec<AppReport> {
    evaluate_suite_with_metrics(machines, &driver_options(machines)).0
}

/// Evaluate the whole suite and keep the driver's observability report.
pub fn evaluate_suite_with_metrics(
    machines: &[Machine],
    opts: &DriverOptions,
) -> (Vec<AppReport>, SuiteMetrics) {
    let mut opts = opts.clone();
    if opts.machines.is_empty() {
        opts.machines = machines.to_vec();
    }
    let out = run_suite(&suite_jobs(), &opts);
    (out.apps, out.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::by_name;
    use ipp_core::Fig20Point;

    #[test]
    fn dyfesm_evaluation_shape() {
        let ev = evaluate_app(&by_name("DYFESM").unwrap(), &[Machine::intel8()]);
        assert!(ev.all_verified());
        assert_eq!(ev.rows.len(), 3);
        let annot = &ev.rows[2];
        assert_eq!(annot.config, "annotation");
        assert_eq!(annot.par_loss, 0);
        assert!(annot.par_extra >= 1, "{annot:?}");
        assert_eq!(ev.fig20.len(), 4); // 4 configs × 1 machine
    }

    #[test]
    fn bdna_conventional_loses_annotation_does_not() {
        let ev = evaluate_app(&by_name("BDNA").unwrap(), &[]);
        let conv = &ev.rows[1];
        let annot = &ev.rows[2];
        assert!(conv.par_loss > 0, "{conv:?}");
        assert_eq!(annot.par_loss, 0, "{annot:?}");
        assert!(ev.all_verified());
    }

    #[test]
    fn speedups_are_modest_like_fig20() {
        // The paper: "at most 10% performance improvement" on these small
        // inputs. The simulated speedups should stay in a sane band.
        let ev = evaluate_app(
            &by_name("MDG").unwrap(),
            &[Machine::intel8(), Machine::amd4()],
        );
        for p in &ev.fig20 {
            assert!(p.speedup >= 0.95 && p.speedup < 4.0, "{p:?}");
        }
    }

    #[test]
    fn driver_matches_plain_compile_and_verify_on_one_app() {
        let app = by_name("TRFD").unwrap();
        let machines = [Machine::intel8(), Machine::amd4()];
        let fast = evaluate_app(&app, &machines);
        assert_eq!(fast.results.len(), ipp_core::InlineMode::all().len());
        // Plain `compile` + `verify` share no code with the driver's
        // memo, dedup or cell evaluator.
        let program = app.program();
        let registry = app.registry();
        for ((mode, r), (vmode, v)) in fast.results.iter().zip(&fast.verify) {
            assert_eq!(mode, vmode);
            let plain = ipp_core::compile(
                &program,
                &registry,
                &ipp_core::PipelineOptions::for_mode(*mode),
            );
            let pv = ipp_core::verify(&program, &plain.program, VERIFY_THREADS).unwrap();
            assert_eq!(r.source, plain.source, "{mode:?}");
            assert_eq!(v.matches_original, pv.matches_original, "{mode:?}");
            assert_eq!(v.parallel_consistent, pv.parallel_consistent, "{mode:?}");
            assert_eq!(v.total_ops, pv.total_ops, "{mode:?}");
            assert_eq!(v.par_events, pv.par_events, "{mode:?}");
        }
        // Figure 20 comes from the race-checked verification run; a plain
        // run of each emitted program must yield the same points.
        let mut plain = Vec::new();
        for (mode, r) in &fast.results {
            let seq = fruntime::run(&r.program, &fruntime::ExecOptions::default()).unwrap();
            for m in &machines {
                let disabled = fruntime::tune(&seq.par_events, m);
                let sim = fruntime::simulate(seq.total_ops, &seq.par_events, m, &disabled);
                plain.push(Fig20Point {
                    app: app.name.to_string(),
                    config: mode.label().to_string(),
                    machine: m.name.to_string(),
                    speedup: sim.speedup(),
                    tuned_off: disabled.len(),
                });
            }
        }
        assert_eq!(fast.fig20, plain);
    }
}
