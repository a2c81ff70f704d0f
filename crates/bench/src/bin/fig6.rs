//! Figure 6: runtime of one Monte-Carlo iteration (an OFDM symbol of
//! NSC subcarrier problems batched on a single Snitch), single-thread,
//! plus multi-thread scaling over independent symbols.
//!
//! Paper: NSC = 1638 (50 MHz NR), runtimes 9.44 s (4x4) to <3 min (32x32)
//! per iteration on one EPYC thread; 73–121× speedup with 128 threads.
//!
//! Each (MIMO, precision) row prepares its scenario artifacts **once**
//! (`SymbolScenario`); the single-thread measurement and the
//! multi-symbol batch both run over that shared set, the batch through a
//! work-stealing `BatchRunner` (one symbol per job, per-symbol seeds).
//!
//! Run: `cargo run -p terasim-bench --release --bin fig6 [--full]`

use terasim::experiments::{BatchConfig, JobSpec, SymbolScenario};
use terasim::serve::BatchRunner;
use terasim_bench::{host_threads, min_sec, Scale};
use terasim_kernels::Precision;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    let threads = host_threads();
    let nsc = scale.nsc();
    println!("{}", scale.banner("Figure 6 — OFDM-symbol Monte-Carlo iteration runtime"));
    println!(
        "NSC = {nsc} subcarrier problems on one Snitch; {threads} host threads for the parallel sweep\n"
    );

    println!(
        " MIMO  | precision | 1-symbol 1-thread | Snitch cycles | MIPS   | {}-symbols {}-threads | speedup",
        threads, threads
    );
    println!(
        " ------+-----------+-------------------+---------------+--------+----------------------+--------"
    );
    for &n in scale.mimo_sizes() {
        for precision in Precision::TIMED {
            let config = BatchConfig { n, precision, nsc, seed: 60, unroll: 2 };
            // One artifact set per row: the single-symbol reference and
            // every symbol of the batch share it.
            let scenario = SymbolScenario::prepare(&config)?;
            let single = scenario.run(&JobSpec::seeded(config.seed))?;
            assert!(single.verified, "symbol results diverged from native model");
            // Independent symbols over all host threads (paper: 128).
            let symbols = threads as u32;
            let start = std::time::Instant::now();
            let outs = BatchRunner::with_workers(threads).run((0..symbols).collect(), |_ctx, sym| {
                scenario
                    .run(&JobSpec::seeded(config.seed.wrapping_add(u64::from(sym))))
                    .map_err(|e| e.to_string())
            });
            let wall = start.elapsed();
            let outs = outs.into_iter().collect::<Result<Vec<_>, String>>()?;
            assert!(outs.iter().all(|o| o.verified));
            // Aggregate simulated time vs elapsed: the paper's thread-scaling metric.
            let serial: f64 = outs.iter().map(|o| o.wall.as_secs_f64()).sum();
            println!(
                " {n:>2}x{n:<2} | {:<9} | {:>17} | {:>13} | {:>6.2} | {:>20} | {:>5.1}x",
                precision.paper_name(),
                min_sec(single.wall),
                single.cycles,
                single.mips,
                min_sec(wall),
                serial / wall.as_secs_f64(),
            );
        }
        println!();
    }
    println!(
        "Expected shape (paper): near-linear thread scaling; absolute runtime grows ~N^3 with MIMO size."
    );
    Ok(())
}
