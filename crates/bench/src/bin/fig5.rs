//! Figure 5: CPU-time of multi-thread fast simulation of the parallel
//! MMSE, and speedup against single-thread cycle-accurate simulation.
//!
//! Paper setup: 1024 TeraPool cores, one MMSE problem per core, four
//! precisions × four MIMO sizes; Banshee multi-thread CPU-time vs
//! QuestaSim single-thread CPU-time (up to 63× CPU-time speedup). Here
//! the cycle-accurate backend plays QuestaSim's role.
//!
//! The sweep is served as a single-lane `BatchRunner` batch: one job per
//! (MIMO, precision) configuration, each preparing its scenario
//! artifacts once and running *both* backends from them. The lane count
//! is pinned to 1 because this figure **measures wall time per job** —
//! co-scheduling other configs would charge their contention to the
//! measured run; the fast mode instead parallelizes *within* the job
//! over all host threads, exactly the paper's setup (the
//! throughput-oriented figures use multi-lane batches).
//!
//! Run: `cargo run -p terasim-bench --release --bin fig5 [--full]`

use terasim::experiments::{CycleEngine, JobSpec, ParallelConfig, ParallelScenario};
use terasim::serve::{BatchRunner, RunPolicy};
use terasim_bench::{host_threads, min_sec, Scale};
use terasim_kernels::Precision;

/// One measured sweep point: both backends over the config's shared
/// artifact set.
type Row = (ParallelConfig, terasim::experiments::FastOutcome, terasim::experiments::CycleOutcome);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    let threads = host_threads();
    println!("{}", scale.banner("Figure 5 — parallel MMSE: fast-sim CPU-time and speedup vs cycle-accurate"));
    println!("cluster: {} cores, {} host threads; CPU-time(fast) ~ wall x threads\n", scale.cores(), threads);
    println!(" MIMO  | precision | fast wall | fast CPU-time | cycle wall | speedup (CPU) | speedup (wall)");
    println!(" ------+-----------+-----------+---------------+------------+---------------+---------------");
    let mut configs = Vec::new();
    for &n in scale.mimo_sizes() {
        for precision in Precision::TIMED {
            configs.push(ParallelConfig { cores: scale.cores(), n, precision, seed: 50, unroll: 2 });
        }
    }
    let labels: Vec<String> =
        configs.iter().map(|c| format!("{}x{} {}", c.n, c.n, c.precision.paper_name())).collect();
    // One lane: jobs run alone, back to back, so their wall times are
    // uncontended; both backends share each job's artifact set. The batch
    // runs supervised: a fault in one configuration is reported on its
    // own row and the rest of the sweep still completes.
    let policy = RunPolicy::new();
    let rows =
        BatchRunner::with_workers(1).try_run(&policy, None, configs, |ctx, config| -> Result<Row, _> {
            let scenario = ParallelScenario::prepare(config).unwrap_or_else(|e| {
                panic!("scenario build failed for {}x{} {}: {e}", config.n, config.n, config.precision)
            });
            // Multi-thread fast emulation (the measured Banshee side) vs the
            // single-thread cycle-accurate engine (the QuestaSim side).
            let job = JobSpec::in_batch(ctx, config.seed);
            let fast = scenario.run_fast(&job, threads, None)?;
            let cycle = scenario.run_cycle(&job, CycleEngine::EventDriven)?;
            Ok((*config, fast, cycle))
        });
    let mut last_n = 0;
    let mut failed = 0usize;
    for (row, label) in rows.into_iter().zip(&labels) {
        let (config, fast, cycle) = match row {
            Ok(row) => row,
            Err(e) => {
                println!(" {label}: FAILED — {e}");
                failed += 1;
                continue;
            }
        };
        if last_n != 0 && config.n != last_n {
            println!();
        }
        last_n = config.n;
        assert!(fast.verified && cycle.verified, "backends diverged");
        let fast_cpu = fast.wall.as_secs_f64() * threads as f64;
        let speedup_cpu = cycle.wall.as_secs_f64() / fast_cpu;
        let speedup_wall = cycle.wall.as_secs_f64() / fast.wall.as_secs_f64();
        let n = config.n;
        println!(
            " {n:>2}x{n:<2} | {:<9} | {:>9} | {:>13} | {:>10} | {:>12.1}x | {:>12.1}x",
            config.precision.paper_name(),
            min_sec(fast.wall),
            format!("{:.2}s", fast_cpu),
            min_sec(cycle.wall),
            speedup_cpu,
            speedup_wall,
        );
    }
    println!();
    println!("Expected shape (paper): speedup grows with MIMO size (3x -> 63x CPU-time at 1024 cores).");
    if failed > 0 {
        return Err(format!("{failed} of {} sweep configurations failed", labels.len()).into());
    }
    Ok(())
}
