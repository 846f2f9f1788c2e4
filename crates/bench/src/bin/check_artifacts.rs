//! `check_artifacts` — the CI gates over the engine, corpus-throughput
//! and driver-scaling artifacts.
//!
//! ```text
//! check_artifacts --engines PATH             gate an interp_engines.json
//! check_artifacts --throughput PATH          gate a corpus_throughput.json
//! check_artifacts --scaling PATH             gate a driver_scaling.json
//! check_artifacts --ledger COMMITTED FRESH   hold a fresh corpus_throughput
//!                                            allocation count against the
//!                                            committed one
//! ```
//!
//! Each file is parsed through `ipp_core::json`, and the gates are
//! [`bench::gates`]. Exit codes: `0` every gate holds (the summary line is
//! printed), `1` a gate, a read or a parse fails, `2` bad usage.

use bench::gates::{engines_gate, ledger_gate, scaling_gate, throughput_gate};
use ipp_core::json::{self, Json};

fn usage() -> ! {
    eprintln!(
        "usage: check_artifacts --engines PATH\n       check_artifacts --throughput PATH\n       \
         check_artifacts --scaling PATH\n       check_artifacts --ledger COMMITTED FRESH"
    );
    std::process::exit(2);
}

/// Read and parse one JSON file, or exit 1 saying why not.
fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--engines", path] => engines_gate(&load(path)),
        ["--throughput", path] => throughput_gate(&load(path)),
        ["--scaling", path] => scaling_gate(&load(path)),
        ["--ledger", committed, fresh] => ledger_gate(&load(committed), &load(fresh)),
        _ => usage(),
    };
    match verdict {
        Ok(summary) => println!("{summary}"),
        Err(e) => {
            eprintln!("artifact gate failed: {e}");
            std::process::exit(1);
        }
    }
}
