//! Simulate the detection of one 5G OFDM symbol (paper Figure 6 style).
//!
//! A 50 MHz NR carrier has NSC = 1638 subcarriers; the paper batches all
//! of them on one Snitch and reports the single-thread simulation runtime,
//! then parallelizes independent symbols over host threads. This example
//! prepares each scenario's immutable artifacts **once**
//! (`SymbolScenario`: kernel image, decoded program, lowered micro-op
//! tables) and reuses them across every simulated symbol — the
//! multi-symbol sweep at the end is a `BatchRunner` batch of thin per-job
//! states over that shared set. It runs a reduced batch by default; pass
//! `--nsc 1638` for paper scale.
//!
//! Run with: `cargo run --release --example ofdm_symbol -- [--nsc N] [--mimo N]`

use std::sync::Arc;

use terasim::experiments::{BatchConfig, JobSpec, SymbolScenario};
use terasim::serve::BatchRunner;
use terasim_kernels::Precision;
use terasim_terapool::MemPool;

fn arg(name: &str, default: u32) -> u32 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nsc = arg("--nsc", 128);
    let n = arg("--mimo", 4);
    println!("OFDM symbol: NSC = {nsc} subcarriers, {n}x{n} MIMO\n");
    println!(" precision | wall time  | Snitch cycles | instructions |  MIPS  | verified");
    println!(" ----------+------------+---------------+--------------+--------+---------");
    for precision in Precision::TIMED {
        let config = BatchConfig { n, precision, nsc, seed: 7, unroll: 2 };
        let scenario = SymbolScenario::prepare(&config)?;
        let out = scenario.run(&JobSpec::seeded(config.seed))?;
        println!(
            " {:<9} | {:>8.2?}   | {:>13} | {:>12} | {:>6.2} | {}",
            precision.paper_name(),
            out.wall,
            out.cycles,
            out.instructions,
            out.mips,
            out.verified
        );
    }

    // Parallel symbols over host threads (reduced count for the example):
    // one shared artifact set, one batch job per symbol with its own
    // seed, cluster memories recycled through the batch's pool (each
    // lane pays the 20 MiB arena allocation once, not per symbol).
    let threads = std::thread::available_parallelism()?.get();
    let symbols = threads as u32 * 2;
    let config = BatchConfig { n, precision: Precision::CDotp16, nsc, seed: 7, unroll: 2 };
    let scenario = SymbolScenario::prepare(&config)?;
    let _ = scenario.run(&JobSpec::seeded(config.seed))?; // warm-up
    let start = std::time::Instant::now();
    let pool = MemPool::new(Arc::clone(scenario.artifacts()));
    let outs = BatchRunner::with_workers(threads).run_pooled_in(&pool, (0..symbols).collect(), |ctx, sym| {
        scenario.run(&JobSpec::in_batch(ctx, config.seed.wrapping_add(u64::from(sym))))
    });
    let wall = start.elapsed();
    let outs = outs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let serial: f64 = outs.iter().map(|o| o.wall.as_secs_f64()).sum();
    println!(
        "\n{} independent symbols on {} threads (shared artifacts, pooled memory): {:.2?} elapsed for {:.2}s of simulation (speedup {:.1}x)",
        symbols,
        threads,
        wall,
        serial,
        serial / wall.as_secs_f64()
    );
    assert!(outs.iter().all(|o| o.verified));
    Ok(())
}
