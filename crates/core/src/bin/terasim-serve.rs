//! `terasim-serve` — the co-simulation serving daemon under synthetic load.
//!
//! Starts a [`Daemon`], drives the standard mixed request traffic
//! (symbol batches, fast and cycle cluster runs, hardware-in-the-loop
//! BER points) through the deterministic open-loop generator, drains,
//! and prints the load report.
//!
//! ```text
//! terasim-serve [--workers N] [--depth N] [--cache N] [--requests N]
//!               [--rate R] [--seed S] [--budget B] [--check]
//! ```
//!
//! `--rate 0` (the default) saturates the admission queue to measure
//! sustained capacity; a positive rate paces Poisson arrivals at that
//! many requests per second, shedding on overload. `--check` makes the
//! exit status a smoke-test verdict: failure unless every admitted
//! request completed and the artifact cache was actually hit.

use std::process::ExitCode;

use terasim::daemon::{open_loop, standard_mix, Daemon, DaemonConfig};
use terasim::serve::RunPolicy;

#[path = "common/args.rs"]
mod args;
use args::Args;

/// Unwraps a flag or exits with the parse error naming the flag. With a
/// fourth argument `positive`, zero is rejected too: the daemon needs at
/// least one worker, one queue slot and one cache slot.
macro_rules! flag {
    ($args:expr, $name:expr, $default:expr) => {
        match $args.get($name, $default) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    ($args:expr, $name:expr, $default:expr, positive) => {
        match flag!($args, $name, $default) {
            0 => {
                eprintln!("error: invalid value for {}: 0 (want at least 1)", $name);
                return ExitCode::FAILURE;
            }
            v => v,
        }
    };
}

const USAGE: &str = "usage: terasim-serve [--workers N] [--depth N] [--cache N] [--requests N] [--rate R] [--seed S] [--budget B] [--check]";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let flags = ["--workers", "--depth", "--cache", "--requests", "--rate", "--seed", "--budget"];
    let args = match Args::parse(&raw, &flags, &["--check", "--help", "-h"]) {
        Ok(args) if !(args.switch("--help") || args.switch("-h")) => args,
        Ok(_) => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let workers: usize = flag!(args, "--workers", 1, positive);
    let depth: usize = flag!(args, "--depth", 16, positive);
    let cache: usize = flag!(args, "--cache", 4, positive);
    let requests: usize = flag!(args, "--requests", 40);
    let rate: f64 = flag!(args, "--rate", 0.0);
    let seed: u64 = flag!(args, "--seed", 1);
    let budget: u64 = flag!(args, "--budget", 0);
    let check = args.switch("--check");

    let mut policy = RunPolicy::new();
    if budget > 0 {
        policy = policy.with_budget(budget);
    }
    let daemon = Daemon::start(DaemonConfig { workers, queue_depth: depth, cache_capacity: cache, policy });

    println!(
        "terasim-serve: workers={workers} depth={depth} cache={cache} requests={requests} rate={rate} seed={seed}"
    );
    let report = open_loop(&daemon, &standard_mix(), rate, requests, seed);
    let stats = daemon.shutdown();

    println!(
        "offered {} accepted {} rejected {} completed {} failed {}",
        report.offered, report.accepted, report.rejected, report.completed, report.failed
    );
    println!(
        "throughput {:.2} jobs/s  latency p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
        report.jobs_per_sec,
        report.p50_ns as f64 / 1e6,
        report.p99_ns as f64 / 1e6,
        report.max_ns as f64 / 1e6
    );
    println!(
        "cache hits {} misses {} (hit rate {:.1}%)  entries {}/{} evictions {}",
        report.cache_hits,
        report.cache_misses,
        report.hit_rate() * 100.0,
        stats.cache.entries,
        stats.cache.capacity,
        stats.cache.evictions
    );
    let bank: Vec<String> = stats
        .bank
        .iter()
        .map(|g| {
            let mib = g.mapped_bytes() as f64 / (1 << 20) as f64;
            format!("{}c parked {} in-use {} mapped {mib:.1} MiB", g.topology.num_cores(), g.parked, g.in_use)
        })
        .collect();
    println!(
        "arenas fresh {} recycled {} quarantined {}  bank [{}]",
        stats.pools.fresh,
        stats.pools.recycled,
        stats.pools.quarantined,
        bank.join("; ")
    );

    if check {
        if report.failed > 0 {
            eprintln!("check FAILED: {} admitted requests did not complete", report.failed);
            return ExitCode::FAILURE;
        }
        if report.cache_hits == 0 {
            eprintln!("check FAILED: artifact cache was never hit across {} requests", report.completed);
            return ExitCode::FAILURE;
        }
        println!("check OK: zero failures, cross-request cache hits present");
    }
    ExitCode::SUCCESS
}
