//! `chaos_client` — hostile-load campaign runner for the service daemon.
//!
//! Drives a fixed-seed mix of well-formed and protocol-abusing traffic
//! at a live `ipp_serve` instance, then reports `LoadStats` and exits
//! nonzero unless the campaign is clean (every canary answered with the
//! same bytes, zero determinism mismatches).
//!
//! ```text
//! chaos_client --addr HOST:PORT [--seed N] [--requests N] [--pool N]
//!              [--clients N] [--hostile-percent N] [--tournament-percent N]
//!              [--canary-every N] [--shutdown-after] [--json]
//! chaos_client --check CAMPAIGN.json METRICS.json
//! ```
//!
//! `--check` runs no campaign: it re-parses a campaign's `--json` report
//! and the daemon's drain-flushed metrics snapshot through
//! `ipp_core::json` and applies the soak gates
//! ([`chaos::client_load::soak_gate`]), printing a summary line.
//!
//! Exit codes: `0` clean (or gates pass), `1` dirty campaign (or a gate,
//! a read or a parse fails), `2` bad usage.

use chaos::client_load::{run, send_shutdown, soak_gate, LoadOptions};
use ipp_core::json::{self, Json};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: chaos_client --addr HOST:PORT [--seed N] [--requests N] \
         [--pool N] [--clients N] [--hostile-percent N] \
         [--tournament-percent N] [--canary-every N] [--shutdown-after] \
         [--json]\n       chaos_client --check CAMPAIGN.json METRICS.json"
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

/// `--check`: apply the soak gates to two files and exit.
fn check(campaign: &str, metrics: &str) -> ! {
    match soak_gate(&load(campaign), &load(metrics)) {
        Ok(summary) => {
            println!("{summary}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("soak gate failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut addr: Option<String> = None;
    let mut opts = LoadOptions::default();
    let mut shutdown_after = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = Some(val("--addr")),
            "--seed" => opts.seed = parse(&val("--seed")),
            "--requests" => opts.requests = parse(&val("--requests")),
            "--pool" => opts.pool = parse(&val("--pool")),
            "--clients" => opts.clients = parse(&val("--clients")),
            "--hostile-percent" => opts.hostile_percent = parse(&val("--hostile-percent")),
            "--tournament-percent" => opts.tournament_percent = parse(&val("--tournament-percent")),
            "--canary-every" => opts.canary_every = parse(&val("--canary-every")),
            "--shutdown-after" => shutdown_after = true,
            "--json" => json = true,
            "--check" => {
                let campaign = val("--check");
                let metrics = val("--check");
                check(&campaign, &metrics);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    let addr = addr.unwrap_or_else(|| usage());

    let stats = run(&addr, &opts);
    if shutdown_after {
        match send_shutdown(&addr, Duration::from_millis(5_000)) {
            Ok(_) => {}
            Err(e) => eprintln!("shutdown request failed: {e}"),
        }
    }

    if json {
        println!("{}", stats.to_json());
    } else {
        println!(
            "campaign seed {:#x}: {} slots ({} well-formed incl. {} tournaments, \
             {} hostile) — {} ok, {} structured errors, {} protocol errors, \
             {} rejected, {} transport failures, {} canaries ({} failed), \
             {} mismatches",
            opts.seed,
            stats.sent,
            stats.well_formed,
            stats.tournaments,
            stats.hostile,
            stats.ok,
            stats.structured_errors,
            stats.protocol_errors,
            stats.rejected,
            stats.transport_failures,
            stats.canaries,
            stats.canary_failures,
            stats.mismatches,
        );
    }
    std::process::exit(if stats.clean() { 0 } else { 1 });
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("not a valid number: {s}");
        usage()
    })
}
