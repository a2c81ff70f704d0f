//! Simulator-speed measurement (paper §V-A): single-thread emulation
//! speed in MIPS and the per-iteration runtime quoted in the abstract
//! ("9.5 s – 3 min per OFDM symbol, 3.57 MIPS peak").
//!
//! Run: `cargo run -p terasim-bench --release --bin mips [--full]`
//!
//! Every other simulator-speed question — batch throughput, cycle-engine
//! scheduling, thread scaling, serving latency — is a workload of the
//! repo benchmark (`benchmark/run.sh`, see `benchmark/README.md`).

use terasim::experiments::{BatchConfig, JobSpec, SymbolScenario};
use terasim_bench::{min_sec, Scale};
use terasim_kernels::Precision;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    println!("{}", scale.banner("Simulator speed — single-thread MIPS"));
    let nsc = scale.nsc();
    println!("one MC iteration = NSC {nsc} problems on one Snitch, one host thread\n");
    println!(" MIMO  | precision | instructions | wall      | MIPS");
    println!(" ------+-----------+--------------+-----------+-------");
    let mut best = 0.0f64;
    for &n in scale.mimo_sizes() {
        for precision in [Precision::Half16, Precision::CDotp16] {
            let config = BatchConfig { n, precision, nsc, seed: 1, unroll: 2 };
            let out = SymbolScenario::prepare(&config)?.run(&JobSpec::seeded(config.seed))?;
            assert!(out.verified, "symbol run diverged from the native model");
            best = best.max(out.mips);
            println!(
                " {n:>2}x{n:<2} | {:<9} | {:>12} | {:>9} | {:>5.2}",
                precision.paper_name(),
                out.instructions,
                min_sec(out.wall),
                out.mips
            );
        }
    }
    println!("\npeak single-thread speed: {best:.2} MIPS (paper: 3.57 MIPS on EPYC-7742 with LLVM SBT)");
    Ok(())
}
