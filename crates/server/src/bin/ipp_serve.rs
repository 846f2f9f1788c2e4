//! `ipp_serve` — the parallelization-as-a-service daemon.
//!
//! Binds, prints a one-line JSON announcement with the bound address to
//! stdout (so harnesses using an ephemeral port can find it), serves
//! until a wire `shutdown` op initiates graceful drain, then prints the
//! final `ServerMetrics` snapshot as JSON (or writes it to
//! `--metrics-out`).
//!
//! ```text
//! ipp_serve [--addr HOST:PORT] [--workers N] [--queue N]
//!           [--max-connections N] [--max-ops N] [--wall-ms N]
//!           [--cache N] [--burst N] [--refill-per-sec F]
//!           [--read-timeout-ms N] [--inject-fault NAME]...
//!           [--metrics-out PATH]
//! ```
//!
//! Exit codes: `0` clean drain, `2` bad usage, `3` bind failure.

use server::{daemon, ServerOptions};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: ipp_serve [--addr HOST:PORT] [--workers N] [--queue N] \
         [--max-connections N] [--max-ops N] [--wall-ms N] [--cache N] \
         [--burst N] [--refill-per-sec F] [--read-timeout-ms N] \
         [--inject-fault NAME]... [--metrics-out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut opts = ServerOptions::default();
    let mut metrics_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => opts.addr = val("--addr"),
            "--workers" => opts.workers = parse(&val("--workers")),
            "--queue" => opts.queue_capacity = parse(&val("--queue")),
            "--max-connections" => opts.max_connections = parse(&val("--max-connections")),
            "--max-ops" => opts.verify_max_ops = parse(&val("--max-ops")),
            "--wall-ms" => opts.wall_budget_ms = parse(&val("--wall-ms")),
            "--cache" => opts.cache_capacity = parse(&val("--cache")),
            "--burst" => opts.client_burst = parse(&val("--burst")),
            "--refill-per-sec" => {
                opts.client_refill_per_sec = val("--refill-per-sec").parse().unwrap_or_else(|_| {
                    eprintln!("--refill-per-sec: not a number");
                    usage()
                })
            }
            "--read-timeout-ms" => opts.read_timeout_ms = parse(&val("--read-timeout-ms")),
            "--inject-fault" => opts.inject_fault_names.push(val("--inject-fault")),
            "--metrics-out" => metrics_out = Some(val("--metrics-out")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let handle = match daemon::spawn(opts) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bind failed: {e}");
            std::process::exit(3);
        }
    };
    let addr = handle.addr().to_string();
    println!("{}", ipp_core::json_object!({ "listening": addr }));
    let _ = std::io::stdout().flush();

    let metrics = handle.join();
    let json = metrics.to_json();
    match metrics_out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("writing {path}: {e}");
                std::process::exit(1);
            }
        }
        None => println!("{json}"),
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("not a valid number: {s}");
        usage()
    })
}
