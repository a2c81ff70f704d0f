//! Batch determinism: a batch of N jobs served over one shared artifact
//! set must be bit-identical to N serial runs that each rebuild their
//! artifacts from scratch — for every worker count (hence every
//! work-stealing schedule and completion order), on both backends,
//! including multi-group topologies where cycle jobs widen into idle
//! worker lanes through the epoch-sharded engine.

use std::sync::Arc;

use terasim::experiments::{
    self, BatchConfig, CycleEngine, JobSpec, ParallelConfig, ParallelScenario, SymbolScenario,
};
use terasim::serve::BatchRunner;
use terasim_kernels::Precision;
use terasim_terapool::MemPool;

/// Per-job fingerprint of a fast-mode symbol run.
fn symbol_key(o: &experiments::BatchOutcome) -> (u64, u64, bool) {
    (o.cycles, o.instructions, o.verified)
}

#[test]
fn fast_symbol_batch_is_bit_identical_to_serial_rebuilds() {
    let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 4, seed: 21, unroll: 2 };
    let jobs = 6u32;

    // Serial reference: each run rebuilds kernel, image, translation and
    // lowered tables from scratch (the pre-serve-layer path).
    let serial: Vec<(u64, u64, bool)> = (0..jobs)
        .map(|j| {
            let mut c = config;
            c.seed = config.seed.wrapping_add(u64::from(j));
            symbol_key(&SymbolScenario::prepare(&c).unwrap().run(&JobSpec::seeded(c.seed)).unwrap())
        })
        .collect();
    assert!(serial.iter().all(|k| k.2), "serial reference runs must verify");

    // Batched: one shared artifact set, every worker count. Oversubscribed
    // counts (more workers than a 1-CPU host can run at once) shake the
    // completion order.
    let scenario = SymbolScenario::prepare(&config).unwrap();
    for workers in [1usize, 2, 4, 7] {
        let batch = BatchRunner::with_workers(workers).run((0..jobs).collect(), |_ctx, j| {
            symbol_key(&scenario.run(&JobSpec::seeded(config.seed.wrapping_add(u64::from(j)))).unwrap())
        });
        assert_eq!(batch, serial, "fast batch diverged at {workers} workers");
    }
}

#[test]
fn parallel_fast_batch_matches_serial_at_cluster_scale() {
    // Whole-cluster fast jobs (every hart active) batched over shared
    // artifacts, seeds per job.
    let config = ParallelConfig { cores: 16, n: 4, precision: Precision::Half16, seed: 40, unroll: 2 };
    let jobs = 4u64;
    let serial: Vec<(u64, u64)> = (0..jobs)
        .map(|j| {
            let mut c = config;
            c.seed = config.seed.wrapping_add(j);
            let out =
                ParallelScenario::prepare(&c).unwrap().run_fast(&JobSpec::seeded(c.seed), 1, None).unwrap();
            assert!(out.verified);
            (out.cluster_cycles, out.instructions)
        })
        .collect();
    let scenario = ParallelScenario::prepare(&config).unwrap();
    for workers in [1usize, 3] {
        let batch = BatchRunner::with_workers(workers).run((0..jobs).collect(), |_ctx, j| {
            let out = scenario.run_fast(&JobSpec::seeded(config.seed.wrapping_add(j)), 1, None).unwrap();
            assert!(out.verified);
            (out.cluster_cycles, out.instructions)
        });
        assert_eq!(batch, serial, "parallel fast batch diverged at {workers} workers");
    }
}

/// Cycle-accurate batch on a multi-group topology (512 cores = 2 groups):
/// jobs run the epoch-sharded engine and claim idle worker lanes; per-job
/// stats, makespan and verification must match serial rebuilt runs for
/// every worker count.
#[test]
fn cycle_batch_is_bit_identical_on_multi_group_topology() {
    let config = ParallelConfig { cores: 512, n: 4, precision: Precision::WDotp8, seed: 31, unroll: 2 };
    let jobs = 2u64;

    let serial: Vec<(u64, terasim_terapool::CycleStats, u64)> = (0..jobs)
        .map(|j| {
            let mut c = config;
            c.seed = config.seed.wrapping_add(j);
            let out = ParallelScenario::prepare(&c)
                .unwrap()
                .run_cycle(&JobSpec::seeded(c.seed), CycleEngine::EventDriven)
                .unwrap();
            assert!(out.verified);
            (out.cycles, out.breakdown, out.instructions)
        })
        .collect();

    let scenario = ParallelScenario::prepare(&config).unwrap();
    for workers in [1usize, 2] {
        let batch = BatchRunner::with_workers(workers).run((0..jobs).collect(), |ctx, j| {
            // The sharded engine is bit-identical at every thread count,
            // so claiming idle lanes is invisible in the results.
            let out = scenario
                .run_cycle(
                    &JobSpec::seeded(config.seed.wrapping_add(j)),
                    CycleEngine::Parallel(ctx.claimable_threads()),
                )
                .unwrap();
            assert!(out.verified);
            (out.cycles, out.breakdown, out.instructions)
        });
        assert_eq!(batch, serial, "cycle batch diverged at {workers} workers");
    }
}

#[test]
fn ber_batch_matches_phy_sweep() {
    use terasim::DetectorKind;
    use terasim_phy::{ber_jobs, ChannelKind, Mimo, Modulation};

    let scenario = Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Awgn };
    let snrs = [6.0, 10.0, 14.0];
    let detector = DetectorKind::Native(Precision::CDotp16).instantiate(4);
    let reference = terasim_phy::sweep_with_threads(scenario, &snrs, &*detector, 80, 1_500, 13, 1);
    for workers in [1usize, 2, 5] {
        let batch = BatchRunner::with_workers(workers)
            .run(ber_jobs(scenario, &snrs, 13), |_ctx, job| job.run(&*detector, 80, 1_500));
        assert_eq!(batch, reference, "BER batch diverged at {workers} workers");
    }
    // And the experiments-level entry point (detector instantiated inside).
    let curve =
        experiments::ber_curve(scenario, &snrs, DetectorKind::Native(Precision::CDotp16), 80, 1_500, 13);
    assert_eq!(curve, reference);
}

#[test]
fn pooled_symbol_batch_is_worker_count_invariant() {
    let config = BatchConfig { n: 4, precision: Precision::Half16, nsc: 4, seed: 11, unroll: 2 };
    // Five symbols over one scenario, recycling memory through a pool.
    let symbols = |workers: usize| {
        let scenario = SymbolScenario::prepare(&config).unwrap();
        let pool = MemPool::new(Arc::clone(scenario.artifacts()));
        BatchRunner::with_workers(workers).run_pooled_in(&pool, (0..5u32).collect(), |ctx, sym| {
            scenario.run(&JobSpec::in_batch(ctx, config.seed.wrapping_add(u64::from(sym)))).unwrap()
        })
    };
    let one = symbols(1);
    let keys: Vec<_> = one.iter().map(symbol_key).collect();
    for threads in [2usize, 4] {
        let many = symbols(threads);
        assert_eq!(many.iter().map(symbol_key).collect::<Vec<_>>(), keys, "diverged at {threads} workers");
    }
    assert!(one.iter().all(|o| o.verified));
}
