//! Differential validation of the cycle-accurate schedulers: the engine
//! (`CycleSim::run`, the epoch-sharded engine on one thread) must be
//! **bit-identical** — per-core [`CycleStats`], makespan and memory
//! contents — to the retained naive full-scan engine
//! (`CycleSim::run_naive`) on every workload class we model.

use terasim_kernels::{data, MmseKernel, Precision};
use terasim_phy::{ChannelKind, Mimo, Modulation, TxGenerator};
use terasim_riscv::{Assembler, Image, Reg, Segment};
use terasim_terapool::{CycleResult, CycleSim, Topology};

/// Runs both schedulers on identical operands and pins stats + memory.
fn assert_engines_identical(topo: Topology, image: &Image, cores: u32, seed_mem: impl Fn(&CycleSim)) {
    let mut event = CycleSim::new(topo, image).unwrap();
    let mut naive = CycleSim::new(topo, image).unwrap();
    seed_mem(&event);
    seed_mem(&naive);

    let re: CycleResult = event.run(cores).unwrap();
    let rn: CycleResult = naive.run_naive(cores).unwrap();

    assert_eq!(re.cycles, rn.cycles, "makespan differs");
    assert_eq!(re.deadlocked, rn.deadlocked);
    assert_eq!(re.parked, rn.parked);
    for (core, (e, n)) in re.per_core.iter().zip(&rn.per_core).enumerate() {
        assert_eq!(e, n, "per-core stats differ on core {core}");
    }

    // Full L1 sweep: every word of every bank must match.
    for addr in (0..topo.l1_bytes()).step_by(4) {
        assert_eq!(event.memory().read_u32(addr), naive.memory().read_u32(addr), "L1 word {addr:#x} differs");
    }
}

/// The MMSE kernel on a small topology (2 tiles × 8 cores), all
/// precisions the paper times.
#[test]
fn mmse_kernel_bit_identical_across_engines() {
    let topo = Topology::scaled(16);
    for precision in [Precision::Half16, Precision::CDotp16, Precision::WDotp8] {
        let kernel = MmseKernel::new(4, precision).with_active_cores(16);
        let layout = kernel.layout(&topo).unwrap();
        let image = kernel.build(&topo).unwrap();
        assert_engines_identical(topo, &image, 16, |sim| {
            let scenario =
                Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Rayleigh };
            let mut generator = TxGenerator::new(scenario, 11.0, 4242);
            for p in 0..layout.problems {
                let t = generator.next_transmission();
                let h: Vec<(f64, f64)> = t.h.iter().map(|z| (*z).into()).collect();
                let y: Vec<(f64, f64)> = t.y.iter().map(|z| (*z).into()).collect();
                data::write_problem(sim.memory(), &layout, p, &h, &y, t.sigma);
            }
        });
    }
}

fn image_of(build: impl FnOnce(&mut Assembler)) -> Image {
    let mut a = Assembler::new(Topology::L2_BASE);
    build(&mut a);
    a.ecall();
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().unwrap()));
    image
}

/// Emits an amoadd-counting barrier: the last arrival wakes the others.
fn emit_barrier(a: &mut Assembler, counter_addr: i32, cores: u32) {
    a.li(Reg::A1, counter_addr);
    a.li(Reg::A2, 1);
    a.amoadd_w(Reg::A3, Reg::A2, Reg::A1);
    a.li(Reg::A4, (cores - 1) as i32);
    let last = a.new_label();
    let done = a.new_label();
    a.beq(Reg::A3, Reg::A4, last);
    a.wfi();
    a.j(done);
    a.bind(last);
    a.li(Reg::A5, Topology::CTRL_WAKE_ALL as i32);
    a.sw(Reg::A2, 0, Reg::A5);
    a.bind(done);
}

/// Barrier-heavy program in the style of the arch suite: four barrier
/// episodes with contended AMO work and strided remote loads between
/// them — the workload class where parked-core handling and wake timing
/// are most visible.
#[test]
fn barrier_heavy_program_bit_identical_across_engines() {
    let cores = 16u32;
    let topo = Topology::scaled(cores);
    let image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        for phase in 0..4 {
            // Contended work: every core bumps a shared counter...
            a.li(Reg::T1, 0x100 + 4 * phase);
            a.li(Reg::T2, 1);
            a.amoadd_w(Reg::Zero, Reg::T2, Reg::T1);
            // ...and does strided loads that cross tiles.
            a.slli(Reg::A0, Reg::T0, 4);
            for _ in 0..8 {
                a.lw(Reg::A2, 0x400, Reg::A0);
                a.addi(Reg::A0, Reg::A0, 64);
            }
            // Per-core result store (checked via the memory sweep).
            a.slli(Reg::A3, Reg::T0, 2);
            a.add(Reg::A4, Reg::T0, Reg::A2);
            a.li(Reg::A6, 0x700 + 0x80 * phase);
            a.add(Reg::A6, Reg::A6, Reg::A3);
            a.sw(Reg::A4, 0, Reg::A6);
            emit_barrier(a, 0x40 + 4 * phase, cores);
        }
    });
    assert_engines_identical(topo, &image, cores, |sim| {
        for i in 0..0x100u32 {
            sim.memory().write_u32(0x400 + 4 * i, 0x1000_0000 + i);
        }
    });
}

/// Single-core and partial-cluster runs (non-trivial because the I$ and
/// ports are shared per tile).
#[test]
fn partial_cluster_bit_identical_across_engines() {
    let topo = Topology::scaled(16);
    let image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        a.slli(Reg::A0, Reg::T0, 2);
        a.li(Reg::T1, 0);
        for _ in 0..32 {
            a.lw(Reg::A1, 0, Reg::A0);
            a.add(Reg::T1, Reg::T1, Reg::A1);
        }
        a.sw(Reg::T1, 0x600, Reg::A0);
    });
    for cores in [1, 3, 8] {
        assert_engines_identical(topo, &image, cores, |sim| {
            for i in 0..64u32 {
                sim.memory().write_u32(4 * i, 7 * i + 1);
            }
        });
    }
}

/// Deadlock paths report identically (partial stats, parked list).
#[test]
fn deadlock_reported_identically() {
    let topo = Topology::scaled(8);
    let image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        a.li(Reg::T1, 3);
        let skip = a.new_label();
        a.bge(Reg::T0, Reg::T1, skip);
        a.wfi(); // harts 0..3 sleep forever
        a.bind(skip);
    });
    assert_engines_identical(topo, &image, 8, |_| {});
    let mut sim = CycleSim::new(topo, &image).unwrap();
    let result = sim.run(8).unwrap();
    assert!(result.deadlocked);
    assert_eq!(result.parked, vec![0, 1, 2]);
}
