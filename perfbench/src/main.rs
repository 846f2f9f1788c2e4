//! `perfbench` — end-to-end and per-layer benchmark of the
//! compile-and-verify system, over three seeded workloads.
//!
//! ```text
//! perfbench --workload <perfect-tournament|corpus-stream|daemon-revisit>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics and writes its spans to `.bench_out/`. Either way the run
//! checks the program's outputs outside the timed region and prints one
//! JSON object as its last line; it exits 1 when a check fails. See
//! `README.md` next to this crate for the workloads and the metric map.

mod corpus_stream;
mod daemon;
mod measure;
mod tournament;
mod trace;

use measure::Report;

#[global_allocator]
static HEAP: measure::PeakAlloc = measure::PeakAlloc;

/// Command-line arguments, checked where they enter.
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Seed of every warm-up pass's corpus programs. It is fixed so each
/// run's set-up does the same work, and no stream seed equals it in
/// practice.
pub const WARMUP_SEED: u64 = 0x57A2_7000_0000_2011;

const WORKLOADS: [&str; 3] = ["perfect-tournament", "corpus-stream", "daemon-revisit"];

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed must be a whole number")),
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds must be a number"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must lie in (0, 600]");
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace,
    }
}

/// Where the traced run writes its spans, inside the working directory.
pub fn trace_path(args: &Args) -> std::path::PathBuf {
    std::path::Path::new(".bench_out").join(format!("trace-{}-{}.json", args.workload, args.seed))
}

/// A metric value as JSON; a non-finite one (already a failed check) is
/// written as 0 so the last line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = parse_args();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} cpus={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        measure::nproc()
    );
    let mut report: Report = match args.workload {
        "perfect-tournament" => tournament::run(&args),
        "corpus-stream" => corpus_stream::run(&args),
        _ => daemon::run(&args),
    };
    report.check("at least one operation attempted", report.attempted > 0);
    report.check(
        "every metric is a finite number",
        report.metrics.iter().all(|m| m.value.is_finite()),
    );

    println!("{:<28} {:>16} {:<6} samples", "metric", "value", "unit");
    for m in &report.metrics {
        println!(
            "{:<28} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "operations: attempted={} failed={}",
        report.attempted, report.failed
    );
    for (name, ok) in &report.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    for w in &report.warnings {
        println!("warning: {w}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if !report.correct() {
        std::process::exit(1);
    }
}
