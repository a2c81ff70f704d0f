//! End-to-end integration: PHY → kernel codegen → cluster simulation →
//! detection quality, across backends.

use terasim::experiments::{
    self, BatchConfig, CycleEngine, JobSpec, ParallelConfig, ParallelScenario, SymbolScenario,
};
use terasim::DetectorKind;
use terasim_kernels::{data, MmseKernel, Precision};
use terasim_phy::{ChannelKind, Mimo, Modulation, TxGenerator};
use terasim_terapool::{CycleSim, FastSim, Topology};

/// The two simulation backends must produce byte-identical detected
/// symbols for the same operands (the paper's determinism requirement).
#[test]
fn fast_and_cycle_backends_bit_identical() {
    for precision in [Precision::Half16, Precision::CDotp16, Precision::WDotp8] {
        let topo = Topology::scaled(16);
        let kernel = MmseKernel::new(4, precision).with_active_cores(16);
        let layout = kernel.layout(&topo).unwrap();
        let image = kernel.build(&topo).unwrap();

        let mut fast = FastSim::new(topo, &image).unwrap();
        let mut cycle = CycleSim::new(topo, &image).unwrap();
        let scenario =
            Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Rayleigh };
        let mut generator = TxGenerator::new(scenario, 10.0, 77);
        for p in 0..layout.problems {
            let t = generator.next_transmission();
            let h: Vec<(f64, f64)> = t.h.iter().map(|z| (*z).into()).collect();
            let y: Vec<(f64, f64)> = t.y.iter().map(|z| (*z).into()).collect();
            data::write_problem(fast.memory(), &layout, p, &h, &y, t.sigma);
            data::write_problem(cycle.memory(), &layout, p, &h, &y, t.sigma);
        }
        fast.run_all(2).unwrap();
        cycle.run(16).unwrap();
        for p in 0..layout.problems {
            let a = data::read_xhat(fast.memory(), &layout, p);
            let b = data::read_xhat(cycle.memory(), &layout, p);
            for i in 0..4 {
                assert_eq!(a[i][0].to_bits(), b[i][0].to_bits(), "{precision} p{p} x[{i}].re");
                assert_eq!(a[i][1].to_bits(), b[i][1].to_bits(), "{precision} p{p} x[{i}].im");
            }
        }
    }
}

/// The fast backend's cycle estimate should land in the right ballpark of
/// the cycle-accurate reference (the paper reports ~30% average error;
/// we accept a generous band to stay robust).
#[test]
fn timing_estimate_within_band() {
    for (n, precision) in [(4, Precision::CDotp16), (8, Precision::Half16)] {
        let config = ParallelConfig { cores: 16, n, precision, seed: 5, unroll: 2 };
        let scenario = ParallelScenario::prepare(&config).unwrap();
        let job = JobSpec::seeded(config.seed);
        let fast = scenario.run_fast(&job, 2, None).unwrap();
        let cycle = scenario.run_cycle(&job, CycleEngine::EventDriven).unwrap();
        let ratio = fast.cluster_cycles as f64 / cycle.cycles as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "{precision} {n}x{n}: estimate {} vs reference {} (ratio {ratio:.2})",
            fast.cluster_cycles,
            cycle.cycles
        );
    }
}

/// Detection through the ISS improves with SNR and the 16-bit kernels
/// essentially match the reference at moderate SNR (Figure 9's headline).
#[test]
fn e2e_ber_sanity() {
    let scenario = Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Awgn };
    let gold = experiments::ber_curve(scenario, &[8.0, 16.0], DetectorKind::Reference64, 150, 3_000, 13);
    let dut = experiments::ber_curve(
        scenario,
        &[8.0, 16.0],
        DetectorKind::Native(Precision::CDotp16),
        150,
        3_000,
        13,
    );
    assert!(gold[0].ber() > gold[1].ber());
    assert!(dut[0].ber() > dut[1].ber());
    // Same seed, same channel draws: the DUT should be within 2x of gold.
    let rel = dut[0].ber() / gold[0].ber().max(1e-9);
    assert!((0.5..2.0).contains(&rel), "DUT BER {} vs gold {}", dut[0].ber(), gold[0].ber());
}

/// ISS-in-the-loop BER equals native-model BER bit for bit (they are the
/// same arithmetic; this closes the loop at the system level).
#[test]
fn iss_and_native_detectors_equal_ber() {
    let scenario = Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Rayleigh };
    let native =
        experiments::ber_curve(scenario, &[10.0], DetectorKind::Native(Precision::WDotp16), 40, 150, 21);
    let iss = experiments::ber_curve(scenario, &[10.0], DetectorKind::Iss(Precision::WDotp16), 40, 150, 21);
    assert_eq!(native[0].errors, iss[0].errors);
    assert_eq!(native[0].bits, iss[0].bits);
}

/// The Monte-Carlo batch on one core retires roughly `nsc` times one
/// problem's instructions and its cycle estimate scales linearly.
#[test]
fn batching_scales_linearly() {
    let one = SymbolScenario::prepare(&BatchConfig {
        n: 4,
        precision: Precision::WDotp16,
        nsc: 2,
        seed: 1,
        unroll: 2,
    })
    .unwrap()
    .run(&JobSpec::seeded(1))
    .unwrap();
    let four = SymbolScenario::prepare(&BatchConfig {
        n: 4,
        precision: Precision::WDotp16,
        nsc: 8,
        seed: 1,
        unroll: 2,
    })
    .unwrap()
    .run(&JobSpec::seeded(1))
    .unwrap();
    let ratio = four.instructions as f64 / one.instructions as f64;
    assert!((3.5..4.5).contains(&ratio), "instructions ratio {ratio}");
    assert!(one.verified && four.verified);
}

/// Bigger MIMO means superlinearly more cycles (O(N^3) Cholesky), and the
/// SIMD precisions beat 16bHalf — the Figure 7 ordering.
#[test]
fn cycle_count_orderings() {
    let cores = 8;
    let run = |n, precision| {
        ParallelScenario::prepare(&ParallelConfig { cores, n, precision, seed: 2, unroll: 2 })
            .unwrap()
            .run_cycle(&JobSpec::seeded(2), CycleEngine::EventDriven)
            .unwrap()
            .cycles
    };
    let half_4 = run(4, Precision::Half16);
    let half_8 = run(8, Precision::Half16);
    assert!(half_8 as f64 > 3.0 * half_4 as f64, "expected superlinear growth: {half_4} -> {half_8}");

    let cdotp_8 = run(8, Precision::CDotp16);
    assert!(cdotp_8 < half_8, "16bCDotp ({cdotp_8}) must beat 16bHalf ({half_8})");
}
