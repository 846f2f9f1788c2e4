//! Streaming corpus evaluation runner.
//!
//! ```text
//! corpus_stream [--programs N] [--seed S] [--workers W] [--window K] [--max-ops M] [--json]
//! ```
//!
//! Generates a seeded corpus lazily and feeds it through
//! `ipp_core::run_stream` — bounded memory, per-cell fault isolation.
//! Exit status 0 when the stream is panic-free (structured failures are
//! expected on a pathological corpus and do not fail the run), 1
//! otherwise — CI's `corpus-smoke` job runs this with a fixed seed.

use ipp_core::{run_stream, DriverOptions};

fn main() {
    let mut programs: u64 = 1000;
    let mut seed: u64 = 0x1DE0_2011;
    let mut json = false;
    let mut opts = DriverOptions {
        workers: 1,
        ..Default::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |what: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("corpus_stream: {what} needs a numeric argument");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--programs" => programs = num("--programs"),
            "--seed" => seed = num("--seed"),
            "--workers" => opts.workers = num("--workers") as usize,
            "--window" => opts.stream_window = num("--window") as usize,
            "--max-ops" => opts.verify_max_ops = num("--max-ops"),
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "usage: corpus_stream [--programs N] [--seed S] [--workers W] [--window K] [--max-ops M] [--json]"
                );
                return;
            }
            other => {
                eprintln!("corpus_stream: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    let out = run_stream(corpus::jobs(seed, programs), &opts);

    if json {
        let per_sec = format!("{:.3}", out.programs_per_sec());
        let line = ipp_core::json_object!({
            "seed": seed, "workers": opts.workers, "effective_workers": out.workers,
            "window": out.window, "wall_ms": out.wall_nanos / 1_000_000,
            "programs_per_sec": ipp_core::json::Raw(&per_sec),
            "peak_retained": out.peak_retained, "compile_memo_hits": out.compile_memo_hits,
            "summary": out.summary,
        });
        println!("{line}");
    } else {
        let s = &out.summary;
        println!(
            "corpus stream: {} programs, {} cells ({} failed, {} timed out, {} panicked)",
            s.programs, s.cells, s.failed_cells, s.timed_out_cells, s.panicked_cells
        );
        println!(
            "verified ok {}  interp runs {}  verify cache hits {}  compile memo hits {}  loops {}/{} parallel",
            s.verified_ok,
            s.interp_runs,
            s.verify_cache_hits,
            out.compile_memo_hits,
            s.loops_parallel,
            s.loops_total
        );
        println!(
            "seed {}  workers {} (effective {})  window {}  {:.1} programs/sec  wall {:.1}s",
            seed,
            opts.workers,
            out.workers,
            out.window,
            out.programs_per_sec(),
            out.wall_nanos as f64 / 1e9
        );
    }

    if !out.summary.panic_free() {
        eprintln!(
            "corpus_stream: {} panicked cells — the isolation boundary caught a detonation",
            out.summary.panicked_cells
        );
        std::process::exit(1);
    }
}
