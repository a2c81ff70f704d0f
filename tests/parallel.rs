//! Epoch-sharded cycle engine, full-workload differential: the parallel
//! MMSE kernel on multi-group topologies must produce bit-identical
//! per-core `CycleStats`, makespans and memory contents across
//! `run` / `run_naive` / `run_parallel` at every thread count — and its
//! architectural results must still match the bit-true native model.

use terasim_kernels::{data, native, MmseKernel, Precision, C64};
use terasim_phy::{ChannelKind, Mimo, Modulation, TxGenerator};
use terasim_terapool::{CycleResult, CycleSim, Topology};

/// One generated subcarrier problem: `(H, y, sigma)`.
type Problem = (Vec<C64>, Vec<C64>, f64);

/// Builds the MMSE workload, seeds identical operands into a fresh sim,
/// runs it with `run_with`, and returns the result + solved memory.
fn mmse_case(
    topo: Topology,
    cores: u32,
    precision: Precision,
    run_with: impl FnOnce(&mut CycleSim) -> CycleResult,
) -> (CycleResult, Vec<[u16; 2]>, Vec<Problem>) {
    let n = 4u32;
    let kernel = MmseKernel::new(n, precision).with_active_cores(cores);
    let layout = kernel.layout(&topo).unwrap();
    let image = kernel.build(&topo).unwrap();
    let mut sim = CycleSim::new(topo, &image).unwrap();
    let scenario = Mimo {
        n_tx: n as usize,
        n_rx: n as usize,
        modulation: Modulation::Qam16,
        channel: ChannelKind::Rayleigh,
    };
    let mut generator = TxGenerator::new(scenario, 10.0, 777);
    let mut problems = Vec::new();
    for p in 0..layout.problems {
        let t = generator.next_transmission();
        let h: Vec<C64> = t.h.iter().map(|z| (*z).into()).collect();
        let y: Vec<C64> = t.y.iter().map(|z| (*z).into()).collect();
        data::write_problem(sim.memory(), &layout, p, &h, &y, t.sigma);
        problems.push((h, y, t.sigma));
    }
    let result = run_with(&mut sim);
    let mut xhats = Vec::new();
    for p in 0..layout.problems {
        for x in data::read_xhat(sim.memory(), &layout, p) {
            xhats.push([x[0].to_bits(), x[1].to_bits()]);
        }
    }
    (result, xhats, problems)
}

#[test]
fn mmse_at_scale_three_way_and_thread_invariant() {
    for (cores, precision) in [(512u32, Precision::CDotp16), (1024, Precision::Half16)] {
        let topo = Topology::scaled(cores);
        assert!(topo.num_domains() > 1);

        let (reference, ref_xhat, problems) =
            mmse_case(topo, cores, precision, |sim| sim.run(cores).unwrap());

        // Architectural correctness survives the epoch-deferred model:
        // the guest's results still match the bit-true native model.
        let n = 4usize;
        for (p, (h, y, sigma)) in problems.iter().enumerate() {
            let want = native::detect(precision, n, h, y, *sigma);
            for (i, w) in want.iter().enumerate() {
                assert_eq!(
                    ref_xhat[p * n + i],
                    [w[0].to_bits(), w[1].to_bits()],
                    "cores={cores}: native mismatch at problem {p} element {i}"
                );
            }
        }

        let check = |label: &str, run_with: Box<dyn FnOnce(&mut CycleSim) -> CycleResult>| {
            let (result, xhat, _) = mmse_case(topo, cores, precision, run_with);
            assert_eq!(result.cycles, reference.cycles, "{label}: makespan differs");
            assert_eq!(result.per_core, reference.per_core, "{label}: per-core stats differ");
            assert_eq!(result.deadlocked, reference.deadlocked, "{label}");
            assert_eq!(xhat, ref_xhat, "{label}: solved outputs differ");
        };
        check("naive", Box::new(|sim| sim.run_naive(cores).unwrap()));
        for threads in [1usize, 2, 4] {
            check(
                &format!("parallel x{threads}"),
                Box::new(move |sim| sim.run_parallel(cores, threads).unwrap()),
            );
        }
    }
}

/// FNV-1a over every L1 word (the interleaved view covers each physical
/// word once) and every L2 word.
fn memory_digest(sim: &CycleSim) -> u64 {
    let topo = sim.topology();
    let l1 = (0..topo.l1_bytes()).step_by(4);
    let l2 = (0..Topology::L2_SIZE).step_by(4).map(|off| Topology::L2_BASE + off);
    l1.chain(l2).fold(0xcbf2_9ce4_8422_2325u64, |hash, addr| {
        (hash ^ u64::from(sim.memory().read_u32(addr))).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Schedule independence of the lock-free step protocol: the 1024-core
/// MMSE on the threaded driver, repeated many times at 2 and 4 host
/// threads, must give the identical result, scheduling telemetry and
/// memory image every time — whatever the OS does to the workers. One
/// lucky interleaving proves little; twenty of them, looped again by the
/// CI stress leg, make a schedule-dependent outcome hard to miss. (The
/// unoptimized profile, where hashing the image dominates, repeats less.)
#[test]
fn threaded_mmse_is_schedule_independent() {
    let cores = 1024u32;
    let topo = Topology::scaled(cores);
    let observe = |threads: usize| {
        let mut seen = None;
        let (result, xhat, _) = mmse_case(topo, cores, Precision::CDotp16, |sim| {
            let result = sim.run_parallel(cores, threads).unwrap();
            seen = Some((sim.epoch_report(), memory_digest(sim)));
            result
        });
        let (report, image) = seen.expect("run_with ran");
        (result.per_core, result.cycles, result.parked, xhat, report, image)
    };
    let reference = observe(1);
    assert!(reference.4.windows > 0, "sharded run recorded no windows");
    for threads in [2usize, 4] {
        for repeat in 0..if cfg!(debug_assertions) { 5 } else { 20 } {
            assert!(observe(threads) == reference, "{threads} threads, repeat {repeat}: run differs");
        }
    }
}
