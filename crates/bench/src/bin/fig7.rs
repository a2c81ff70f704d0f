//! Figure 7: MMSE cycle count — cycle-accurate reference vs the fast
//! simulator's estimate vs a bare instruction count, with relative errors.
//!
//! Paper: Banshee's static-latency + scoreboard estimate lands within
//! ~30% of RTL on average (always optimistic, since contention is not
//! modelled), and beats the raw instruction count by 12–16% in the worst
//! cases. The per-precision *speedup ordering* (16bCDotp fastest) is
//! preserved by the estimate.
//!
//! The sweep runs as a `BatchRunner` batch: one job per (MIMO, precision)
//! configuration, both backends sharing that job's artifact set.
//!
//! Run: `cargo run -p terasim-bench --release --bin fig7 [--full]`

use terasim::experiments::{CycleEngine, JobSpec, ParallelConfig, ParallelScenario};
use terasim::serve::BatchRunner;
use terasim_bench::Scale;
use terasim_kernels::Precision;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    println!("{}", scale.banner("Figure 7 — cycle count: reference vs estimate vs instruction count"));
    println!("cluster: {} cores\n", scale.cores());
    println!(" MIMO  | precision | ref cycles | est cycles | inst count | err(est) | err(inst) | rel-to-16bHalf(ref/est)");
    println!(" ------+-----------+------------+------------+------------+----------+-----------+------------------------");
    let mut configs = Vec::new();
    for &n in scale.mimo_sizes() {
        for precision in Precision::TIMED {
            configs.push(ParallelConfig { cores: scale.cores(), n, precision, seed: 70, unroll: 2 });
        }
    }
    let rows = BatchRunner::new().run(configs, |ctx, config| -> Result<_, String> {
        let scenario = ParallelScenario::prepare(&config).map_err(|e| e.to_string())?;
        let job = JobSpec::seeded(config.seed);
        let fast = scenario.run_fast(&job, 1, None).map_err(|e| e.to_string())?;
        let cycle = scenario
            .run_cycle(&job, CycleEngine::Parallel(ctx.claimable_threads()))
            .map_err(|e| e.to_string())?;
        Ok((config, fast, cycle))
    });
    let mut last_n = 0;
    let mut half_ref = 0u64;
    let mut half_est = 0u64;
    for row in rows {
        let (config, fast, cycle) = row?;
        if last_n != 0 && config.n != last_n {
            println!();
        }
        last_n = config.n;
        assert!(fast.verified && cycle.verified);
        // Per-core averages (the paper plots per-application cycles).
        let n = config.n;
        let cores = u64::from(scale.cores());
        let ref_c = cycle.cycles;
        let est_c = fast.cluster_cycles;
        let inst_c = fast.instructions / cores;
        if config.precision == Precision::Half16 {
            half_ref = ref_c;
            half_est = est_c;
        }
        let err = |x: u64| 100.0 * (x as f64 - ref_c as f64) / ref_c as f64;
        println!(
            " {n:>2}x{n:<2} | {:<9} | {:>10} | {:>10} | {:>10} | {:>+7.1}% | {:>+8.1}% | {:.2} / {:.2}",
            config.precision.paper_name(),
            ref_c,
            est_c,
            inst_c,
            err(est_c),
            err(inst_c),
            half_ref as f64 / ref_c as f64,
            half_est as f64 / est_c as f64,
        );
    }
    println!();
    println!("Expected shape (paper): estimate errors negative (optimistic), smaller than instruction-count errors;");
    println!("16bCDotp shows the largest relative speedup over 16bHalf in both reference and estimate.");
    Ok(())
}
