//! Determinism guarantees: the paper's testbench requirement (§I) is
//! "deterministic behavior" — identical results regardless of host thread
//! count, run repetition, or backend.

use terasim::experiments::{CycleEngine, JobSpec, ParallelConfig, ParallelScenario};
use terasim_kernels::{data, MmseKernel, Precision};
use terasim_phy::{ChannelKind, Mimo, Modulation, TxGenerator};
use terasim_terapool::{FastSim, Topology};

fn run_with_threads(threads: usize) -> Vec<u16> {
    let topo = Topology::scaled(16);
    let kernel = MmseKernel::new(4, Precision::CDotp16).with_active_cores(16);
    let layout = kernel.layout(&topo).unwrap();
    let image = kernel.build(&topo).unwrap();
    let mut sim = FastSim::new(topo, &image).unwrap();
    let scenario = Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Rayleigh };
    let mut generator = TxGenerator::new(scenario, 12.0, 1234);
    for p in 0..layout.problems {
        let t = generator.next_transmission();
        let h: Vec<(f64, f64)> = t.h.iter().map(|z| (*z).into()).collect();
        let y: Vec<(f64, f64)> = t.y.iter().map(|z| (*z).into()).collect();
        data::write_problem(sim.memory(), &layout, p, &h, &y, t.sigma);
    }
    let result = sim.run_all(threads).unwrap();
    // The fast engine's cycle estimate is exactly its breakdown on every
    // core, at any host thread count.
    for (core, s) in result.per_core.iter().enumerate() {
        assert_eq!(
            s.est_cycles,
            s.retired + s.raw_stalls + s.branch_bubbles + s.wfi_stalls,
            "{threads} threads, core {core}: {s:?}"
        );
    }
    (0..layout.problems)
        .flat_map(|p| data::read_xhat(sim.memory(), &layout, p))
        .flat_map(|c| [c[0].to_bits(), c[1].to_bits()])
        .collect()
}

#[test]
fn thread_count_does_not_change_results() {
    let one = run_with_threads(1);
    let two = run_with_threads(2);
    let four = run_with_threads(4);
    assert_eq!(one, two);
    assert_eq!(one, four);
}

#[test]
fn repeated_runs_identical_cycles() {
    let config = ParallelConfig { cores: 8, n: 4, precision: Precision::WDotp16, seed: 55, unroll: 2 };
    let scenario = ParallelScenario::prepare(&config).unwrap();
    let job = JobSpec::seeded(config.seed);
    let a = scenario.run_fast(&job, 2, None).unwrap();
    let b = scenario.run_fast(&job, 1, None).unwrap();
    assert_eq!(a.cluster_cycles, b.cluster_cycles, "cycle estimate must not depend on host threads");
    assert_eq!(a.instructions, b.instructions);
    let c1 = scenario.run_cycle(&job, CycleEngine::EventDriven).unwrap();
    let c2 = scenario.run_cycle(&job, CycleEngine::EventDriven).unwrap();
    assert_eq!(c1.cycles, c2.cycles);
    assert_eq!(c1.breakdown.stall_lsu, c2.breakdown.stall_lsu);
}

/// The parallel SNR sweep derives every point's seed from the point
/// *index*, never from the executing thread, so the curve must be
/// identical for any host thread count (including oversubscription).
#[test]
fn parallel_snr_sweep_is_thread_count_invariant() {
    use terasim::DetectorKind;
    use terasim_kernels::Precision as P;

    let scenario = Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Awgn };
    let snrs = [6.0, 9.0, 12.0, 15.0, 18.0];
    let detector = DetectorKind::Native(P::CDotp16).instantiate(4);
    let run = |threads: usize| {
        terasim_phy::sweep_with_threads(scenario, &snrs, &*detector, 120, 2_000, 77, threads)
    };
    let serial = run(1);
    for threads in [2, 4, 9] {
        let parallel = run(threads);
        assert_eq!(serial, parallel, "sweep diverged at {threads} host threads");
    }
    // Sanity: the sweep did real work and the curve is monotone-ish.
    assert!(serial[0].ber() > serial[4].ber());
}

/// Same guarantee with the stateful ISS-in-the-loop detector shared
/// (behind its lock) across the sweep workers.
#[test]
fn parallel_snr_sweep_deterministic_with_iss_detector() {
    use terasim::DetectorKind;
    use terasim_kernels::Precision as P;

    let scenario = Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Rayleigh };
    let snrs = [8.0, 12.0, 16.0];
    let detector = DetectorKind::Iss(P::WDotp16).instantiate(4);
    let a = terasim_phy::sweep_with_threads(scenario, &snrs, &*detector, 25, 60, 5, 1);
    let b = terasim_phy::sweep_with_threads(scenario, &snrs, &*detector, 25, 60, 5, 3);
    assert_eq!(a, b, "ISS-in-the-loop sweep must not depend on thread interleaving");
}

#[test]
fn seeds_change_data_but_not_instruction_count_much() {
    // Control flow is data-independent (no data-dependent branches in the
    // kernel), so the retired instruction count is identical across seeds.
    let mk = |seed| ParallelConfig { cores: 8, n: 4, precision: Precision::Half16, seed, unroll: 2 };
    let fast = |seed| {
        ParallelScenario::prepare(&mk(seed)).unwrap().run_fast(&JobSpec::seeded(seed), 2, None).unwrap()
    };
    let a = fast(1);
    let b = fast(2);
    assert_eq!(a.instructions, b.instructions, "kernel control flow is data-independent");
}
