//! Ablation: operand placement in the shared L1.
//!
//! The paper's Figure 4 places vectors at consecutive interleaved
//! addresses so concurrent cores fetch from *different* banks. This
//! ablation compares that layout against an adversarial bank-aligned
//! placement where every core's operands start in the same banks —
//! quantifying how much the allocation strategy is worth.
//!
//! Run: `cargo run -p terasim-bench --release --bin ablation_layout [--full]`

use terasim_bench::Scale;
use terasim_kernels::{data, MmseKernel, Precision};
use terasim_phy::{ChannelKind, Mimo, Modulation, TxGenerator};
use terasim_terapool::{CycleSim, Topology};

fn run(n: u32, precision: Precision, cores: u32, aligned: bool) -> (u64, u64) {
    let kernel = MmseKernel::new(n, precision).with_active_cores(cores).with_bank_aligned_inputs(aligned);
    let mut topo = Topology::scaled(cores);
    while kernel.layout(&topo).is_err() {
        topo.tile_spm_bytes *= 2;
    }
    let layout = kernel.layout(&topo).expect("fits");
    let image = kernel.build(&topo).expect("builds");
    let mut sim = CycleSim::new(topo, &image).expect("translates");
    let scenario = Mimo {
        n_tx: n as usize,
        n_rx: n as usize,
        modulation: Modulation::Qam16,
        channel: ChannelKind::Rayleigh,
    };
    let mut generator = TxGenerator::new(scenario, 12.0, 4);
    for p in 0..layout.problems {
        let t = generator.next_transmission();
        let h: Vec<(f64, f64)> = t.h.iter().map(|z| (*z).into()).collect();
        let y: Vec<(f64, f64)> = t.y.iter().map(|z| (*z).into()).collect();
        data::write_problem(sim.memory(), &layout, p, &h, &y, t.sigma);
    }
    let result = sim.run(cores).expect("runs");
    (result.cycles, result.aggregate().stall_lsu)
}

fn main() {
    let scale = Scale::from_args();
    let cores = scale.cores();
    println!("{}", scale.banner("Ablation D4 — operand placement (interleaved vs bank-aligned)"));
    println!("cluster: {cores} cores; cycle-accurate backend\n");
    println!(" MIMO  | precision | layout       | cycles     | lsu stalls | penalty");
    println!(" ------+-----------+--------------+------------+------------+--------");
    let mut configs = Vec::new();
    for &n in &scale.mimo_sizes()[..2] {
        for precision in [Precision::Half16, Precision::CDotp16] {
            configs.push((n, precision));
        }
    }
    // Both layouts of one configuration per batch job (independent
    // cluster simulations; `BatchRunner` returns rows in input order).
    let rows = terasim::serve::BatchRunner::new().run(configs, |_ctx, (n, precision)| {
        (n, precision, run(n, precision, cores, false), run(n, precision, cores, true))
    });
    for (n, precision, (base_cycles, base_lsu), (bad_cycles, bad_lsu)) in rows {
        println!(
            " {n:>2}x{n:<2} | {:<9} | interleaved  | {:>10} | {:>10} |",
            precision.paper_name(),
            base_cycles,
            base_lsu
        );
        println!(
            " {n:>2}x{n:<2} | {:<9} | bank-aligned | {:>10} | {:>10} | {:>5.2}x",
            precision.paper_name(),
            bad_cycles,
            bad_lsu,
            bad_cycles as f64 / base_cycles as f64
        );
    }
    println!("\nReading: the paper's consecutive-address placement (Figure 4) avoids the serialization");
    println!("that bank-aligned operands provoke; the penalty is the value of the allocation strategy.");
}
