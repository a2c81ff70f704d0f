//! Cycle-accurate cluster simulation with stall breakdown
//! (paper Figure 8 style).
//!
//! Runs the parallel MMSE on the cycle-stepped backend — the framework's
//! RTL-simulation stand-in — through the epoch-sharded engine
//! (`CycleSim::run_parallel`) and prints where the cycles go: issued
//! instructions vs RAW, LSU-contention, I$-refill, FPU and barrier
//! stalls, cluster-wide and per group (the engine's arbitration
//! domains).
//!
//! Run with:
//! `cargo run --release --example cycle_accurate -- [--cores N] [--mimo N] [--threads N]`

use terasim::experiments::{CycleEngine, JobSpec, ParallelConfig, ParallelScenario};
use terasim_kernels::Precision;

fn arg(name: &str, default: u32) -> u32 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cores = arg("--cores", 64);
    let n = arg("--mimo", 4);
    let default_threads = std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(1).min(4);
    let threads = arg("--threads", default_threads) as usize;
    println!("cycle-accurate parallel MMSE: {cores} cores, {n}x{n} MIMO, {threads} host thread(s)\n");
    println!(" precision | makespan | instr%  | raw%   | lsu%   | ins%   | acc%   | wfi%   | wall");
    println!(" ----------+----------+---------+--------+--------+--------+--------+--------+---------");
    let mut last_groups = Vec::new();
    for precision in Precision::TIMED {
        let config = ParallelConfig { cores, n, precision, seed: 3, unroll: 2 };
        // The epoch-sharded engine: one arbitration domain per topology
        // group (at most one host thread each), bit-identical to
        // `run`/`run_naive` at any thread count.
        let out = ParallelScenario::prepare(&config)?
            .run_cycle(&JobSpec::seeded(config.seed), CycleEngine::Parallel(threads))?;
        let b = out.breakdown;
        let total = b.total() as f64;
        let pct = |x: u64| 100.0 * x as f64 / total;
        println!(
            " {:<9} | {:>8} | {:>6.1}% | {:>5.1}% | {:>5.1}% | {:>5.1}% | {:>5.1}% | {:>5.1}% | {:>7.2?}",
            precision.paper_name(),
            out.cycles,
            pct(b.instructions),
            pct(b.stall_raw),
            pct(b.stall_lsu),
            pct(b.stall_ins),
            pct(b.stall_acc),
            pct(b.stall_wfi),
            out.wall,
        );
        assert!(out.verified, "architectural results diverged");
        last_groups = out.per_group;
    }
    println!("\n(The 16bHalf row shows the highest LSU share: twice the memory ops, paper §V-B.)");

    // Per-group breakdown of the last run: the sharded engine's domains.
    // A balanced workload should stay balanced across groups.
    println!("\nper-group breakdown ({} domain(s), last precision above):", last_groups.len());
    println!(" group | instructions | raw      | lsu      | ins      | acc      | wfi");
    println!(" ------+--------------+----------+----------+----------+----------+----------");
    for (g, s) in last_groups.iter().enumerate() {
        println!(
            " {g:>5} | {:>12} | {:>8} | {:>8} | {:>8} | {:>8} | {:>8}",
            s.instructions, s.stall_raw, s.stall_lsu, s.stall_ins, s.stall_acc, s.stall_wfi,
        );
    }
    Ok(())
}
