//! Driver determinism and run accounting on the real 12-application suite.
//!
//! The concurrent driver must be an *observational no-op*: whatever the
//! worker count, the Table II rows, Figure 20 points, and emitted sources
//! must be byte-identical to the single-worker run. And the caching layer
//! must actually cut interpreter runs: 12 memoized baselines shared across
//! 48 cells (four modes since the auto-annot configuration landed), 90
//! total runs instead of the naive path's 192.

use fruntime::Machine;
use ipp_core::driver::{AppReport, DriverOptions};
use ipp_core::SuiteMetrics;
use perfect::{driver_options, evaluate_suite_with_metrics};

fn run_at(workers: usize) -> (Vec<AppReport>, SuiteMetrics) {
    let machines = [Machine::intel8(), Machine::amd4()];
    let opts = DriverOptions {
        workers,
        ..driver_options(&machines)
    };
    evaluate_suite_with_metrics(&machines, &opts)
}

#[test]
fn concurrent_driver_is_byte_identical_to_single_worker() {
    let (base, base_metrics) = run_at(1);
    assert_eq!(base.len(), 12);

    // Single-worker run accounting is fully deterministic: one baseline
    // per app (12), two verification runs per cell (96), minus two runs
    // per configuration pair that emits byte-identical source (nine such
    // pairs: one annotation/no-op pair from before the auto-annot mode,
    // plus the apps whose auto-annot output matches another mode's).
    assert_eq!(base_metrics.interp_runs, 90);
    assert_eq!(base_metrics.baseline_memo_hits, 36);
    assert_eq!(base_metrics.verify_cache_hits, 9);
    for phase in ipp_core::Phase::ALL {
        assert!(
            base_metrics.phases.count_of(phase) > 0,
            "phase {} never recorded",
            phase.label()
        );
    }

    for workers in [2, 8] {
        let (evals, metrics) = run_at(workers);
        assert_eq!(evals.len(), base.len());
        for (a, b) in base.iter().zip(&evals) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.rows, b.rows,
                "{}: rows differ at {workers} workers",
                a.name
            );
            assert_eq!(
                a.fig20, b.fig20,
                "{}: fig20 differs at {workers} workers",
                a.name
            );
            for ((ma, ra), (mb, rb)) in a.results.iter().zip(&b.results) {
                assert_eq!(ma, mb);
                assert_eq!(
                    ra.source,
                    rb.source,
                    "{} [{}]: emitted source differs at {workers} workers",
                    a.name,
                    ma.label()
                );
            }
            for ((ma, va), (mb, vb)) in a.verify.iter().zip(&b.verify) {
                assert_eq!(ma, mb);
                assert!(va.ok() && vb.ok(), "{}: verification regressed", a.name);
                assert_eq!(va.total_ops, vb.total_ops);
                assert_eq!(va.races, vb.races);
            }
        }

        // The interpreter-run count and the verify-cache hit count are
        // schedule-independent (`OnceLock::get_or_init` runs each closure
        // exactly once); the baseline-memo hit counter alone may undercount
        // when a worker arrives while the baseline is still initializing,
        // so it only gets an upper bound here.
        assert_eq!(metrics.interp_runs, 90, "{workers} workers");
        assert_eq!(metrics.verify_cache_hits, 9, "{workers} workers");
        assert!(metrics.baseline_memo_hits <= 36, "{workers} workers");
        // `metrics.workers` reports the *effective* pool size: the request
        // clamped to available parallelism (and to the cell count).
        let effective = DriverOptions {
            workers,
            ..Default::default()
        }
        .effective_workers();
        assert_eq!(metrics.workers, effective.min(48), "{workers} workers");
    }
}

#[test]
fn poisoned_job_degrades_alone_at_every_worker_count() {
    // Fault isolation: one job whose cells panic (injected through the
    // driver's chaos seam) must cost exactly that job. The other eleven
    // applications' reports stay byte-identical to a healthy-only run,
    // whatever the worker count.
    let machines = [Machine::intel8()];
    let healthy_opts = DriverOptions {
        workers: 1,
        ..driver_options(&machines)
    };
    let (healthy, healthy_metrics) = evaluate_suite_with_metrics(&machines, &healthy_opts);
    assert_eq!(healthy_metrics.failed_cells, 0);

    for workers in [1, 2, 8] {
        let opts = DriverOptions {
            workers,
            inject_panic: vec!["QCD".into()],
            ..driver_options(&machines)
        };
        let (evals, metrics) = evaluate_suite_with_metrics(&machines, &opts);
        assert_eq!(evals.len(), 12);
        assert_eq!(metrics.failed_cells, 4, "{workers} workers");
        assert_eq!(metrics.failures.len(), 4, "{workers} workers");
        assert!(metrics.failures.iter().all(|f| f.app == "QCD"));

        for (h, e) in healthy.iter().zip(&evals) {
            if h.name == "QCD" {
                assert!(!e.all_verified());
                assert_eq!(e.failures.len(), 4);
                assert!(e.rows.is_empty(), "no Table II rows for a failed app");
                for f in &e.failures {
                    assert!(
                        matches!(&f.cause, ipp_core::FailCause::Panic(m) if m.contains("injected")),
                        "{f}"
                    );
                }
            } else {
                assert!(
                    e.failures.is_empty(),
                    "{}: healthy app degraded at {workers} workers: {:?}",
                    h.name,
                    e.failures
                );
                assert_eq!(h.rows, e.rows, "{}: rows differ", h.name);
                assert_eq!(h.fig20, e.fig20, "{}: fig20 differs", h.name);
                for ((ma, ra), (mb, rb)) in h.results.iter().zip(&e.results) {
                    assert_eq!(ma, mb);
                    assert_eq!(
                        ra.source,
                        rb.source,
                        "{} [{}]: emitted source differs",
                        h.name,
                        ma.label()
                    );
                }
            }
        }
    }
}
