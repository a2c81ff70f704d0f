//! Ablation: the fast simulator's memory-latency model.
//!
//! The paper's Banshee assigns *every* memory access the conservative
//! worst-case non-contended latency (9 cycles). This ablation compares
//! three choices against the cycle-accurate reference:
//!
//! 1. uniform 9-cycle loads (the paper's configuration),
//! 2. topology-aware per-address latency (1..9 cycles by NUMA distance),
//! 3. optimistic uniform 1-cycle loads.
//!
//! Run: `cargo run -p terasim-bench --release --bin ablation_latency [--full]`

use terasim::experiments::{CycleEngine, JobSpec, ParallelConfig, ParallelScenario};
use terasim::serve::BatchRunner;
use terasim_bench::Scale;
use terasim_iss::{LatencyModel, RunConfig};
use terasim_kernels::Precision;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    println!("{}", scale.banner("Ablation D2 — fast-mode memory latency model"));
    println!("cluster: {} cores\n", scale.cores());
    println!(" MIMO  | precision | reference | uniform-9 (err)     | per-address (err)   | uniform-1 (err)");
    println!(
        " ------+-----------+-----------+---------------------+---------------------+--------------------"
    );
    let mut configs = Vec::new();
    for &n in scale.mimo_sizes() {
        for precision in [Precision::Half16, Precision::CDotp16] {
            configs.push((n, precision));
        }
    }
    // One configuration per batch job: the cycle-accurate reference and
    // all three fast-mode latency models run over that job's shared
    // artifact set (the fast-mode runs are single-threaded; results are
    // host-thread-invariant anyway).
    let rows = BatchRunner::new().run(configs, |ctx, (n, precision)| -> Result<_, String> {
        let config = ParallelConfig { cores: scale.cores(), n, precision, seed: 7, unroll: 2 };
        let scenario = ParallelScenario::prepare(&config).map_err(|e| e.to_string())?;
        let job = JobSpec::seeded(config.seed);
        let reference = scenario
            .run_cycle(&job, CycleEngine::Parallel(ctx.claimable_threads()))
            .map_err(|e| e.to_string())?
            .cycles;
        let run = |per_address: bool, load: u32| -> Result<u64, String> {
            let rc = RunConfig {
                per_address_latency: per_address,
                latency: LatencyModel { load, ..LatencyModel::default() },
                ..RunConfig::default()
            };
            Ok(scenario.run_fast(&job, 1, Some(rc)).map_err(|e| e.to_string())?.cluster_cycles)
        };
        Ok((n, precision, reference, run(false, 9)?, run(true, 9)?, run(false, 1)?))
    });
    for row in rows {
        let (n, precision, reference, conservative, topo_aware, optimistic) = row?;
        let err = |x: u64| 100.0 * (x as f64 - reference as f64) / reference as f64;
        println!(
            " {n:>2}x{n:<2} | {:<9} | {:>9} | {:>9} ({:>+6.1}%) | {:>9} ({:>+6.1}%) | {:>8} ({:>+6.1}%)",
            precision.paper_name(),
            reference,
            conservative,
            err(conservative),
            topo_aware,
            err(topo_aware),
            optimistic,
            err(optimistic),
        );
    }
    println!("\nReading: uniform-9 over-charges local accesses but absorbs some contention — the paper's");
    println!("\"conservative\" trade-off; per-address tracks topology but misses contention entirely.");
    Ok(())
}
