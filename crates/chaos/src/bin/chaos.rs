//! Fault-injection campaign runner.
//!
//! ```text
//! chaos [--mutants N] [--seed S] [--threads T] [--max-ops M] [--engine vm|tree] [--json]
//! ```
//!
//! Exit status 0 when the campaign passes (no panics, no unlocated parse
//! rejections), 1 otherwise — CI runs this with a fixed seed.

use chaos::{run_campaign, CampaignOptions};

fn main() {
    let mut opts = CampaignOptions::default();
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |what: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("chaos: {what} needs a numeric argument");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--mutants" => opts.mutants = num("--mutants") as usize,
            "--seed" => opts.seed = num("--seed"),
            "--threads" => opts.threads = num("--threads") as usize,
            "--max-ops" => opts.max_ops = num("--max-ops"),
            "--engine" => {
                opts.engine = match args.next().as_deref() {
                    Some("vm") | Some("bytecode") => fruntime::Engine::Bytecode,
                    Some("tree") | Some("tree-walk") => fruntime::Engine::TreeWalk,
                    other => {
                        eprintln!("chaos: --engine needs vm|tree, got {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "usage: chaos [--mutants N] [--seed S] [--threads T] [--max-ops M] [--engine vm|tree] [--json]"
                );
                return;
            }
            other => {
                eprintln!("chaos: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    let t0 = std::time::Instant::now();
    let stats = run_campaign(&opts);
    let wall = t0.elapsed();

    if json {
        let line = ipp_core::json_object!({
            "seed": opts.seed, "mutants": stats.mutants, "accepted_clean": stats.accepted_clean,
            "accepted_degraded": stats.accepted_degraded, "rejected": stats.rejected,
            "timeouts": stats.timeouts, "panics": stats.panics.len(),
            "unlocated": stats.unlocated.len(), "wall_ms": wall.as_millis(),
            "per_mutation": stats.per_mutation,
        });
        println!("{line}");
    } else {
        print!("{}", stats.render());
        println!("seed {}  wall {:.1}s", opts.seed, wall.as_secs_f64());
    }

    if !stats.passed() {
        std::process::exit(1);
    }
}
