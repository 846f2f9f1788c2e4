//! `gen_tournament` — the best-of-portfolio column: run the
//! configuration tournament over the PERFECT suite and report, per app,
//! the winning arm with its "why" record.
//!
//! ```text
//! gen_tournament           print the GFM best-of-portfolio table
//! gen_tournament --write   also (re)write crates/bench/artifacts/tournament.json
//! gen_tournament --check   exit 1 unless the committed artifact matches a
//!                          fresh run byte for byte and passes the tournament
//!                          gates (the CI winner-stability gate)
//! ```
//!
//! The JSON report is a pure function of the suite, the portfolio, and
//! the machine models — byte-identical at any worker count — so `--check`
//! can demand exact equality rather than fuzzy winner comparison.

use ipp_core::{run_tournament, DriverOptions, TournamentOutcome};

/// The arms every portfolio must keep: the four fixed configurations.
const CLASSIC_ARMS: [&str; 4] = ["no-inline", "conventional", "annotation", "auto-annot"];

/// The tournament gates: all 12 apps scored on `intel8` and `amd4`, the
/// classic arms in the portfolio, a winner on every app that beats or ties
/// every scored classic arm, and the shared caches holding the cost under
/// 3 interpreter runs per arm on every app and at most half the uncached
/// total overall. Returns the summary line, or the first violation.
fn gate(out: &TournamentOutcome) -> Result<String, String> {
    if out.apps.len() != 12 {
        return Err(format!("expected 12 apps, got {}", out.apps.len()));
    }
    if out.machines != ["intel8", "amd4"] {
        return Err(format!("unexpected machines {:?}", out.machines));
    }
    if let Some(lost) = CLASSIC_ARMS
        .iter()
        .find(|c| !out.arm_labels.iter().any(|l| l == *c))
    {
        return Err(format!("portfolio lost the classic arm {lost}"));
    }
    let mut winners = Vec::with_capacity(out.apps.len());
    for a in &out.apps {
        let Some(winner) = &a.winner else {
            return Err(format!("{}: no arm survived", a.app));
        };
        for arm in a
            .arms
            .iter()
            .filter(|s| CLASSIC_ARMS.contains(&s.arm.as_str()))
        {
            if arm.score_micros.is_some_and(|s| a.winner_score_micros < s) {
                return Err(format!("{}: winner loses to fixed arm {}", a.app, arm.arm));
            }
        }
        if a.interp_runs >= 3 * a.arms.len() as u64 {
            return Err(format!(
                "{}: cache sharing inert ({} runs)",
                a.app, a.interp_runs
            ));
        }
        winners.push(format!("{}={winner}", a.app));
    }
    let total: u64 = out.apps.iter().map(|a| a.interp_runs).sum();
    let uncached = 3 * out.arm_labels.len() as u64 * out.apps.len() as u64;
    if total > uncached / 2 {
        return Err(format!(
            "portfolio cost not shared: {total} runs vs {uncached} uncached"
        ));
    }
    Ok(format!(
        "tournament ok: {} apps, {total}/{uncached} interpreter runs, winners {}",
        out.apps.len(),
        winners.join(" ")
    ))
}

fn evaluate() -> TournamentOutcome {
    let opts = DriverOptions {
        machines: bench::machines(),
        ..Default::default()
    };
    run_tournament(&perfect::suite_jobs(), &opts)
}

fn artifact_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("artifacts")
        .join("tournament.json")
}

fn main() {
    let mut write = false;
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--write" => write = true,
            "--check" => check = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: gen_tournament [--write] [--check]");
                std::process::exit(2);
            }
        }
    }

    let out = evaluate();
    let json = format!("{}\n", out.to_json());

    println!("### Best-of-portfolio (configuration tournament)\n");
    print!("{}", out.render_markdown());

    if write {
        let path = artifact_path();
        std::fs::create_dir_all(path.parent().unwrap()).expect("create artifacts dir");
        std::fs::write(&path, &json).expect("write tournament.json");
        println!("\nartifact: {}", path.display());
    }
    if check {
        let path = artifact_path();
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        if committed != json {
            eprintln!(
                "committed {} is stale: regenerate with `cargo run --release -p bench --bin gen_tournament -- --write`",
                path.display()
            );
            std::process::exit(1);
        }
        println!("\ncommitted artifact matches ({} bytes).", json.len());
        match gate(&out) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("tournament gate failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
