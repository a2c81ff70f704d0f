//! Ablation: kernel loop unrolling.
//!
//! The paper: "Loops are unrolled to minimize RAW stalls, with increasing
//! benefits at higher problem sizes." This sweep runs the cycle-accurate
//! backend at unroll factors 1 and 2 and reports cycles and RAW stalls.
//!
//! Run: `cargo run -p terasim-bench --release --bin ablation_unroll [--full]`

use terasim::experiments::{CycleEngine, JobSpec, ParallelConfig, ParallelScenario};
use terasim_bench::Scale;
use terasim_kernels::Precision;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    println!("{}", scale.banner("Ablation D3 — dot-product loop unrolling"));
    println!("cluster: {} cores; cycle-accurate backend\n", scale.cores());
    println!(" MIMO  | precision | unroll | cycles     | raw stalls | raw%  ");
    println!(" ------+-----------+--------+------------+------------+-------");
    let mut configs = Vec::new();
    for &n in scale.mimo_sizes() {
        for precision in [Precision::Half16, Precision::WDotp16] {
            configs.push((n, precision));
        }
    }
    // Both unroll factors of one configuration per batch job (independent
    // cycle-accurate simulations — different unrolls are different guest
    // programs, hence separate artifact sets; `BatchRunner` returns rows
    // in input order and lets each job widen into idle worker lanes).
    let rows = terasim::serve::BatchRunner::new().run(configs, |ctx, (n, precision)| -> Result<_, String> {
        let run = |unroll: u32| {
            let config = ParallelConfig { cores: scale.cores(), n, precision, seed: 8, unroll };
            let out = ParallelScenario::prepare(&config)
                .map_err(|e| e.to_string())?
                .run_cycle(&JobSpec::seeded(config.seed), CycleEngine::Parallel(ctx.claimable_threads()))
                .map_err(|e| e.to_string())?;
            assert!(out.verified);
            Ok::<_, String>(out)
        };
        Ok((n, precision, run(1)?, run(2)?))
    });
    let mut last_n = 0;
    for row in rows {
        let (n, precision, base, unrolled) = row?;
        if last_n != 0 && n != last_n {
            println!();
        }
        last_n = n;
        for (unroll, out) in [(1u32, &base), (2, &unrolled)] {
            let b = out.breakdown;
            let delta = if unroll == 1 {
                String::new()
            } else {
                format!(
                    "  ({:+.1}% vs unroll 1)",
                    100.0 * (out.cycles as f64 - base.cycles as f64) / base.cycles as f64
                )
            };
            println!(
                " {n:>2}x{n:<2} | {:<9} | {unroll:>6} | {:>10} | {:>10} | {:>4.1}%{delta}",
                precision.paper_name(),
                out.cycles,
                b.stall_raw,
                100.0 * b.stall_raw as f64 / b.total() as f64,
            );
        }
    }
    println!();
    println!("Note: unrolling removes loop-counter overhead; the dual accumulation chains that break");
    println!("RAW dependences are present at every unroll factor (the kernel's design, not the unroll).");
    Ok(())
}
