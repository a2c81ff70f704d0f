//! Pooled-memory determinism: a batch whose jobs recycle cluster
//! memories through a `MemPool` must be bit-identical to fresh-memory
//! serial runs that each allocate from scratch — at every worker count
//! (hence every recycling order and dirty history), on both backends and
//! for ISS-in-the-loop BER batches.

use std::sync::Arc;

use terasim::experiments::{
    self, BatchConfig, CycleEngine, JobSpec, ParallelConfig, ParallelScenario, SymbolScenario,
};
use terasim::serve::BatchRunner;
use terasim::DetectorKind;
use terasim_kernels::Precision;
use terasim_terapool::MemPool;

/// Per-job fingerprint of a fast-mode symbol run.
fn symbol_key(o: &experiments::BatchOutcome) -> (u64, u64, bool) {
    (o.cycles, o.instructions, o.verified)
}

#[test]
fn pooled_fast_symbol_batch_matches_fresh_serial_rebuilds() {
    let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 4, seed: 77, unroll: 2 };
    let jobs = 6u32;

    // Fresh-memory serial reference: every run allocates its own arena
    // (and rebuilds its artifacts — the strictest baseline).
    let serial: Vec<(u64, u64, bool)> = (0..jobs)
        .map(|j| {
            let mut c = config;
            c.seed = config.seed.wrapping_add(u64::from(j));
            symbol_key(&SymbolScenario::prepare(&c).unwrap().run(&JobSpec::seeded(c.seed)).unwrap())
        })
        .collect();
    assert!(serial.iter().all(|k| k.2), "fresh reference runs must verify");

    let scenario = SymbolScenario::prepare(&config).unwrap();
    for workers in [1usize, 2, 4, 7] {
        let pool = MemPool::new(Arc::clone(scenario.artifacts()));
        let batch = BatchRunner::with_workers(workers).run_pooled_in(&pool, (0..jobs).collect(), |ctx, j| {
            let pool = ctx.pool().expect("pooled batch");
            symbol_key(&scenario.run_symbol_pooled(pool, config.seed.wrapping_add(u64::from(j))).unwrap())
        });
        assert_eq!(batch, serial, "pooled fast batch diverged at {workers} workers");
    }
}

/// Pooled cycle-accurate batch on a multi-group topology (512 cores =
/// 2 groups): jobs recycle arenas *and* widen into idle worker lanes via
/// the epoch-sharded engine; stats, makespan and verification must match
/// fresh-memory serial runs for every worker count.
#[test]
fn pooled_cycle_batch_matches_fresh_on_multi_group_topology() {
    let config = ParallelConfig { cores: 512, n: 4, precision: Precision::WDotp8, seed: 61, unroll: 2 };
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
    for workers in [1usize, 2, 4, 7] {
        let pool = MemPool::new(Arc::clone(scenario.artifacts()));
        let batch = BatchRunner::with_workers(workers).run_pooled_in(&pool, (0..jobs).collect(), |ctx, j| {
            let pool = ctx.pool().expect("pooled batch");
            let out = scenario
                .run_cycle_pooled(
                    pool,
                    CycleEngine::Parallel(ctx.claimable_threads()),
                    config.seed.wrapping_add(j),
                )
                .unwrap();
            assert!(out.verified);
            (out.cycles, out.breakdown, out.instructions)
        });
        assert_eq!(batch, serial, "pooled cycle batch diverged at {workers} workers");
    }
}

/// Pooled fast-mode batch at cluster scale: every hart active, arenas
/// recycled between whole-cluster jobs.
#[test]
fn pooled_parallel_fast_batch_matches_fresh_serial() {
    let config = ParallelConfig { cores: 16, n: 4, precision: Precision::Half16, seed: 52, unroll: 2 };
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
    for workers in [1usize, 2, 4, 7] {
        let pool = MemPool::new(Arc::clone(scenario.artifacts()));
        let batch = BatchRunner::with_workers(workers).run_pooled_in(&pool, (0..jobs).collect(), |ctx, j| {
            let out = scenario
                .run_fast_pooled(ctx.pool().expect("pooled batch"), 1, config.seed.wrapping_add(j))
                .unwrap();
            assert!(out.verified);
            (out.cluster_cycles, out.instructions)
        });
        assert_eq!(batch, serial, "pooled parallel fast batch diverged at {workers} workers");
    }
}

/// ISS-in-the-loop BER batch with one *pooled* detector per job: shared
/// kernel artifacts, recycled cluster memory. Must reproduce the curve
/// of per-job fresh detectors exactly, at every worker count.
#[test]
fn pooled_iss_ber_batch_matches_fresh_detectors() {
    use terasim_phy::{ber_jobs, ChannelKind, Mimo, Modulation};

    let scenario = Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Awgn };
    let snrs = [8.0, 14.0];
    let kind = DetectorKind::Iss(Precision::CDotp16);
    let (errors, iters) = (6u64, 24u64);

    // Fresh reference: one brand-new detector (own artifacts, own
    // memory) per job, serially.
    let reference = BatchRunner::with_workers(1)
        .run(ber_jobs(scenario, &snrs, 19), |_ctx, job| job.run(&*kind.instantiate(4), errors, iters));

    let pool = kind.memory_pool(4).expect("ISS kinds own cluster memory");
    for workers in [1usize, 2, 4, 7] {
        let batch = BatchRunner::with_workers(workers).run(ber_jobs(scenario, &snrs, 19), |_ctx, job| {
            job.run(&*kind.instantiate_pooled(4, &pool), errors, iters)
        });
        assert_eq!(batch, reference, "pooled BER batch diverged at {workers} workers");
    }
    // Four batches of one detector (one arena) per SNR point: which
    // acquires recycle is up to the scheduler, that no more arenas exist
    // than one batch's jobs could hold at once is not.
    let stats = pool.stats();
    assert_eq!(stats.fresh + stats.recycled, 4 * snrs.len() as u64, "{stats:?}");
    assert!((1..=snrs.len() as u64).contains(&stats.fresh), "the BER batches must recycle ({stats:?})");
    // Non-ISS kinds have no cluster memory to pool.
    assert!(DetectorKind::Native(Precision::CDotp16).memory_pool(4).is_none());
}

/// A pooled batch of symbols over one scenario must stay invariant
/// across worker counts and identical to the unpooled per-symbol path.
#[test]
fn pooled_symbol_batch_recycles_invariantly() {
    let config = BatchConfig { n: 4, precision: Precision::Half16, nsc: 4, seed: 23, unroll: 2 };
    let scenario = SymbolScenario::prepare(&config).unwrap();
    let unpooled: Vec<_> = (0..5u32)
        .map(|s| symbol_key(&scenario.run(&JobSpec::seeded(config.seed.wrapping_add(u64::from(s)))).unwrap()))
        .collect();
    for threads in [1usize, 3] {
        // A fresh pool per batch, as the one-shot pooled batch had.
        let pool = MemPool::new(Arc::clone(scenario.artifacts()));
        let outcomes =
            BatchRunner::with_workers(threads).run_pooled_in(&pool, (0..5u32).collect(), |ctx, sym| {
                scenario.run(&JobSpec::in_batch(ctx, config.seed.wrapping_add(u64::from(sym)))).unwrap()
            });
        assert_eq!(
            outcomes.iter().map(symbol_key).collect::<Vec<_>>(),
            unpooled,
            "pooled symbol batch diverged at {threads} workers"
        );
    }
}
