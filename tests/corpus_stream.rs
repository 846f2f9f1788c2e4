//! Corpus-scale streaming contracts on generated programs:
//!
//! * **determinism** — the aggregated stream summary is byte-identical
//!   across worker counts (mirroring `driver_determinism`, but over a
//!   generated corpus through `run_stream`);
//! * **bounded retention** — the peak of programs in flight depends on
//!   the worker pool, not the stream length: a 200-program stream holds
//!   no more programs at once than a 50-program one;
//! * **corpus validity** — every generated program parses and survives
//!   the full four-configuration pipeline with zero panicked cells
//!   (structured failures are expected on a pathological corpus;
//!   detonations are not), across several seeds.

use ipp_core::{run_stream, DriverOptions};

fn opts(workers: usize, window: usize) -> DriverOptions {
    DriverOptions {
        workers,
        stream_window: window,
        verify_threads: 2,
        // Generated programs are small; a tight deadline keeps a debug
        // build fast and still far above any legitimate run.
        verify_max_ops: 500_000,
        ..Default::default()
    }
}

#[test]
fn stream_summary_is_byte_identical_across_worker_counts() {
    const SEED: u64 = 0xC0B5_2011;
    const PROGRAMS: u64 = 48;
    let base = run_stream(corpus::jobs(SEED, PROGRAMS), &opts(1, 8));
    assert_eq!(base.summary.programs, PROGRAMS);
    assert_eq!(base.summary.cells, PROGRAMS * 4);
    for workers in [2, 8] {
        let out = run_stream(corpus::jobs(SEED, PROGRAMS), &opts(workers, 8));
        assert_eq!(
            base.summary.to_json(),
            out.summary.to_json(),
            "summary differs at {workers} workers"
        );
    }
    // And across window sizes: the in-flight bound is an implementation
    // detail of memory bounding, not of the aggregate. The summary
    // records the effective window, so that one field is expected to
    // differ.
    let rewindowed = run_stream(corpus::jobs(SEED, PROGRAMS), &opts(1, 17));
    assert_eq!(rewindowed.summary.window, 17);
    let mut normalized = rewindowed.summary.clone();
    normalized.window = base.summary.window;
    assert_eq!(base.summary.to_json(), normalized.to_json());
}

#[test]
fn peak_retention_is_independent_of_stream_length() {
    const SEED: u64 = 0x5EED_CAFE;
    let short = run_stream(corpus::jobs(SEED, 50), &opts(2, 8));
    let long = run_stream(corpus::jobs(SEED, 200), &opts(2, 8));
    // Four times the programs, same high-water mark: each worker holds
    // one program at a time, so the pool (workers capped by the window),
    // not the stream, bounds what is alive at once.
    let pool = opts(2, 8).effective_workers().min(8);
    assert_eq!(short.peak_retained, pool);
    assert_eq!(long.peak_retained, pool);
    assert_eq!(long.summary.programs, 200);
    // One worker holds one row at a time, helpers at the tail or not.
    let single = run_stream(corpus::jobs(SEED, 50), &opts(1, 8));
    assert_eq!(single.peak_retained, 1);
    assert_eq!(single.summary, short.summary);
}

#[test]
fn generated_corpus_survives_the_pipeline_without_panics_across_seeds() {
    for seed in [1u64, 0xBAD_F00D, 0x1DE0_2011] {
        // `corpus::jobs` itself asserts every program parses.
        let out = run_stream(corpus::jobs(seed, 40), &opts(2, 8));
        let s = &out.summary;
        assert_eq!(s.programs, 40, "seed {seed:#x}");
        assert_eq!(s.cells, 160, "seed {seed:#x}");
        assert!(
            s.panic_free(),
            "seed {seed:#x}: {} panicked cells, stages {:?}",
            s.panicked_cells,
            s.failure_stages
        );
        // The corpus is overwhelmingly runnable: most cells verify clean.
        assert!(
            s.verified_ok >= s.cells / 2,
            "seed {seed:#x}: only {}/{} cells verified",
            s.verified_ok,
            s.cells
        );
        // It exercises the parallelizer for real — parallel loops found,
        // and opaque-call blockers hit — across every seed.
        assert!(s.loops_parallel > 0, "seed {seed:#x}");
        assert!(
            s.blockers.contains_key("call"),
            "seed {seed:#x}: no opaque-call blockers in {:?}",
            s.blockers
        );
    }
}
