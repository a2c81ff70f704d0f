//! Figure 8: breakdown of instructions and architectural stalls over the
//! cycle count, from the cycle-accurate backend.
//!
//! Paper: few I$ (`stall-ins`) and FPU (`stall-acc`) stalls; unrolling
//! keeps RAW stalls moderate; `stall-lsu` (interconnect contention) is
//! highest for the load-heavy 16bHalf; `stall-wfi` is barrier idling.
//!
//! The sweep runs as a `BatchRunner` batch: one cycle-accurate job per
//! (MIMO, precision) configuration, each over its own shared artifact
//! set, widening into idle worker lanes through the sharded engine.
//!
//! Run: `cargo run -p terasim-bench --release --bin fig8 [--full]`

use terasim::experiments::{CycleEngine, JobSpec, ParallelConfig, ParallelScenario};
use terasim::serve::BatchRunner;
use terasim_bench::Scale;
use terasim_kernels::Precision;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    println!("{}", scale.banner("Figure 8 — cycle breakdown (cycle-accurate backend)"));
    println!("cluster: {} cores\n", scale.cores());
    println!(" MIMO  | precision | instr%  | raw%   | lsu%   | ins%   | acc%   | wfi%   | total cycles");
    println!(" ------+-----------+---------+--------+--------+--------+--------+--------+-------------");
    let mut configs = Vec::new();
    for &n in scale.mimo_sizes() {
        for precision in Precision::TIMED {
            configs.push(ParallelConfig { cores: scale.cores(), n, precision, seed: 80, unroll: 2 });
        }
    }
    let rows = BatchRunner::new().run(configs, |ctx, config| -> Result<_, String> {
        let scenario = ParallelScenario::prepare(&config).map_err(|e| e.to_string())?;
        let out = scenario
            .run_cycle(&JobSpec::seeded(config.seed), CycleEngine::Parallel(ctx.claimable_threads()))
            .map_err(|e| e.to_string())?;
        Ok((config, out))
    });
    let mut lsu_shares = Vec::new();
    let mut last_n = 0;
    for row in rows {
        let (config, out) = row?;
        if last_n != 0 && config.n != last_n {
            println!();
        }
        last_n = config.n;
        assert!(out.verified);
        let n = config.n;
        let b = out.breakdown;
        let total = b.total() as f64;
        let pct = |x: u64| 100.0 * x as f64 / total;
        if n == *scale.mimo_sizes().last().unwrap() {
            lsu_shares.push((config.precision, pct(b.stall_lsu)));
        }
        println!(
            " {n:>2}x{n:<2} | {:<9} | {:>6.1}% | {:>5.1}% | {:>5.1}% | {:>5.1}% | {:>5.1}% | {:>5.1}% | {:>12}",
            config.precision.paper_name(),
            pct(b.instructions),
            pct(b.stall_raw),
            pct(b.stall_lsu),
            pct(b.stall_ins),
            pct(b.stall_acc),
            pct(b.stall_wfi),
            out.cycles,
        );
    }
    println!();
    if let Some(max) = lsu_shares.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
        println!("Largest LSU-stall share: {} ({:.1}%) — the paper attributes this to 16bHalf's doubled memory ops.", max.0, max.1);
    }
    Ok(())
}
