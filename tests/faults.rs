//! Fault-containment differentials: a supervised batch with injected
//! faults must report a structured [`JobError`] at *exactly* the injected
//! indices and stay bit-identical to fresh serial runs everywhere else —
//! for every worker count (hence every work-stealing schedule), pooled
//! and unpooled, on both backends. The injected guests are real programs
//! run through the real engines (see [`terasim::faults`]).

use std::sync::Arc;

use terasim::experiments::{
    self, BatchConfig, CycleEngine, JobSpec, ParallelConfig, ParallelScenario, SymbolScenario,
};
use terasim::faults::{self, Fault, FaultPlan};
use terasim::serve::{BatchRunner, JobError, RunPolicy};
use terasim::CancelToken;
use terasim_iss::Trap;
use terasim_kernels::Precision;
use terasim_terapool::{MemPool, SimArtifacts, Topology};

/// Per-job fingerprint of a fast-mode symbol run.
fn symbol_key(o: &experiments::BatchOutcome) -> (u64, u64, bool) {
    (o.cycles, o.instructions, o.verified)
}

/// Fresh serial rebuilds of every symbol job (the pre-serve-layer path):
/// the healthy reference the supervised batches are pinned against.
fn serial_symbols(config: &BatchConfig, jobs: u32) -> Vec<(u64, u64, bool)> {
    (0..jobs)
        .map(|j| {
            let mut c = *config;
            c.seed = config.seed.wrapping_add(u64::from(j));
            symbol_key(&SymbolScenario::prepare(&c).unwrap().run(&JobSpec::seeded(c.seed)).unwrap())
        })
        .collect()
}

/// The tentpole differential: panics, traps, budget exhaustion and a
/// deliberate straggler injected into one batch. Errors must land at
/// exactly the injected indices with their exact taxonomy entry, and
/// every healthy index must be bit-identical to a fresh serial rebuild —
/// at every worker count, pooled and unpooled.
#[test]
fn injected_faults_surface_at_their_indices_and_nowhere_else() {
    let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 4, seed: 21, unroll: 2 };
    let jobs = 10u32;
    let plan = FaultPlan::new()
        .inject(2, Fault::Panic)
        .inject(5, Fault::Trap)
        .inject(7, Fault::BudgetExhaust { budget: 50 })
        .inject(8, Fault::Slow { spins: 20_000 });

    let serial = serial_symbols(&config, jobs);
    let scenario = SymbolScenario::prepare(&config).unwrap();
    let trap_arts = faults::trap_artifacts(Topology::scaled(8));

    let job = |ctx: &terasim::JobCtx, j: u32| -> Result<(u64, u64, bool), JobError> {
        let seed = config.seed.wrapping_add(u64::from(j));
        match plan.fault(j as usize) {
            Some(Fault::Panic) => faults::inject_panic(j as usize),
            Some(Fault::Trap) => Err(faults::run_fault_guest_fast(&trap_arts, 1)),
            Some(Fault::BudgetExhaust { budget }) => scenario
                .run(&JobSpec { budget: Some(budget), ..JobSpec::in_batch(ctx, seed) })
                .map(|o| symbol_key(&o)),
            Some(Fault::Slow { spins }) => {
                faults::spin(spins);
                scenario.run(&JobSpec::in_batch(ctx, seed)).map(|o| symbol_key(&o))
            }
            Some(Fault::Deadlock) | None => {
                scenario.run(&JobSpec::in_batch(ctx, seed)).map(|o| symbol_key(&o))
            }
        }
    };

    for workers in [1usize, 2, 4, 7] {
        for pooled in [false, true] {
            let runner = BatchRunner::with_workers(workers);
            let pool = pooled.then(|| MemPool::new(Arc::clone(scenario.artifacts())));
            let out =
                runner.try_run(&RunPolicy::new(), pool.as_ref(), (0..jobs).collect(), |ctx, &j| job(ctx, j));
            let tag = format!("{workers} workers, pooled={pooled}");

            assert_eq!(
                out[2],
                Err(JobError::Panicked { payload: faults::panic_payload(2) }),
                "panic index ({tag})"
            );
            assert_eq!(out[5], Err(JobError::Trap(Trap::IllegalFetch { pc: 0 })), "trap index ({tag})");
            assert_eq!(out[7], Err(JobError::BudgetExhausted { budget: 50 }), "budget index ({tag})");
            for (i, (got, want)) in out.iter().zip(&serial).enumerate() {
                if plan.expects_error(i) {
                    continue;
                }
                assert_eq!(got.as_ref().ok(), Some(want), "healthy index {i} diverged ({tag})");
            }
        }
    }
}

/// Satellite: a batch containing a job whose guest deadlocks (every hart
/// parked in `wfi` with no waker) reports [`JobError::Deadlocked`] at
/// that index — naming the parked harts — while its neighbours complete
/// bit-identically, pooled and unpooled, with the deadlock detected by
/// either backend.
#[test]
fn deadlocked_guest_fails_its_own_index_with_correct_neighbours() {
    let config = BatchConfig { n: 4, precision: Precision::Half16, nsc: 4, seed: 33, unroll: 2 };
    let jobs = 5u32;
    let deadlock_at = 2usize;

    let serial = serial_symbols(&config, jobs);
    let scenario = SymbolScenario::prepare(&config).unwrap();
    let deadlock_arts = faults::deadlock_artifacts(Topology::scaled(8));

    for workers in [1usize, 2, 4] {
        for pooled in [false, true] {
            // Alternate the detecting backend so both engines' deadlock
            // reporting flows through the batch at least once.
            let cycle_backend = workers % 2 == 0;
            let job = |ctx: &terasim::JobCtx, j: u32| {
                if j as usize == deadlock_at {
                    return Err(if cycle_backend {
                        faults::run_fault_guest_cycle(&deadlock_arts, 4)
                    } else {
                        faults::run_fault_guest_fast(&deadlock_arts, 4)
                    });
                }
                scenario
                    .run(&JobSpec::in_batch(ctx, config.seed.wrapping_add(u64::from(j))))
                    .map(|o| symbol_key(&o))
            };
            let runner = BatchRunner::with_workers(workers);
            let pool = pooled.then(|| MemPool::new(Arc::clone(scenario.artifacts())));
            let out =
                runner.try_run(&RunPolicy::new(), pool.as_ref(), (0..jobs).collect(), |ctx, &j| job(ctx, j));
            let tag = format!("{workers} workers, pooled={pooled}");
            assert_eq!(
                out[deadlock_at],
                Err(JobError::Deadlocked { parked: vec![0, 1, 2, 3] }),
                "deadlock index ({tag})"
            );
            for (i, (got, want)) in out.iter().zip(&serial).enumerate() {
                if i != deadlock_at {
                    assert_eq!(got.as_ref().ok(), Some(want), "neighbour {i} diverged ({tag})");
                }
            }
        }
    }
}

/// The cycle backend under injected faults: errors at exactly the
/// injected indices, bit-identical cycle counts and breakdowns elsewhere,
/// against serial rebuilds.
#[test]
fn cycle_batch_with_injected_faults_is_bit_identical_elsewhere() {
    let config = ParallelConfig { cores: 16, n: 4, precision: Precision::WDotp8, seed: 44, unroll: 2 };
    let jobs = 4u64;
    let plan = FaultPlan::new().inject(1, Fault::Trap).inject(2, Fault::BudgetExhaust { budget: 100 });

    let serial: Vec<(u64, u64, bool)> = (0..jobs)
        .map(|j| {
            let mut c = config;
            c.seed = config.seed.wrapping_add(j);
            let out = ParallelScenario::prepare(&c)
                .unwrap()
                .run_cycle(&JobSpec::seeded(c.seed), CycleEngine::EventDriven)
                .unwrap();
            (out.cycles, out.instructions, out.verified)
        })
        .collect();

    let scenario = ParallelScenario::prepare(&config).unwrap();
    let trap_arts = faults::trap_artifacts(Topology::scaled(8));
    let policy = RunPolicy::new();
    for workers in [1usize, 2] {
        let out =
            BatchRunner::with_workers(workers).try_run(&policy, None, (0..jobs).collect(), |ctx, &j| {
                let job = JobSpec::in_batch(ctx, config.seed.wrapping_add(j));
                match plan.fault(j as usize) {
                    Some(Fault::Trap) => Err(faults::run_fault_guest_cycle(&trap_arts, 1)),
                    Some(Fault::BudgetExhaust { budget }) => scenario
                        .run_cycle(&JobSpec { budget: Some(budget), ..job }, CycleEngine::EventDriven)
                        .map(|o| (o.cycles, o.instructions, o.verified)),
                    _ => scenario
                        .run_cycle(&job, CycleEngine::EventDriven)
                        .map(|o| (o.cycles, o.instructions, o.verified)),
                }
            });
        assert_eq!(out[1], Err(JobError::Trap(Trap::IllegalFetch { pc: 0 })), "{workers} workers");
        assert_eq!(out[2], Err(JobError::BudgetExhausted { budget: 100 }), "{workers} workers");
        for i in [0usize, 3] {
            assert_eq!(out[i].as_ref().ok(), Some(&serial[i]), "healthy index {i} at {workers} workers");
        }
    }
}

/// A too-small per-job instruction budget surfaces as the same
/// [`JobError::BudgetExhausted`] on the fast backend and on all three
/// cycle-engine schedulers — the safety net is part of the architectural
/// contract, not a scheduler accident. And `JobSpec::in_batch` carries
/// exactly the batch's inputs into each of the three job bodies.
#[test]
fn budget_exhaustion_is_backend_and_engine_invariant() {
    let config = ParallelConfig { cores: 8, n: 4, precision: Precision::Half16, seed: 7, unroll: 2 };
    let scenario = ParallelScenario::prepare(&config).unwrap();
    let budget = 200u64;
    let policy = RunPolicy::new().with_budget(budget);

    let out = BatchRunner::with_workers(2).try_run(&policy, None, (0..4u32).collect(), |ctx, &j| {
        // The policy's budget reaches every engine through `JobCtx`.
        let job = JobSpec::in_batch(ctx, config.seed);
        match j {
            0 => scenario.run_fast(&job, 1, None).map(|o| o.instructions),
            1 => scenario.run_cycle(&job, CycleEngine::EventDriven).map(|o| o.instructions),
            2 => scenario.run_cycle(&job, CycleEngine::NaiveScan).map(|o| o.instructions),
            _ => scenario.run_cycle(&job, CycleEngine::Parallel(2)).map(|o| o.instructions),
        }
    });
    for (i, r) in out.iter().enumerate() {
        assert_eq!(*r, Err(JobError::BudgetExhausted { budget }), "engine {i}");
    }

    // And with a per-job override lifting the budget, the same jobs pass.
    let ok = BatchRunner::with_workers(2).try_run(&policy, None, (0..2u32).collect(), |ctx, &j| {
        let job = JobSpec { budget: None, ..JobSpec::in_batch(ctx, config.seed) };
        match j {
            0 => scenario.run_fast(&job, 1, None).map(|o| o.instructions),
            _ => scenario.run_cycle(&job, CycleEngine::EventDriven).map(|o| o.instructions),
        }
    });
    let fast = ok[0].as_ref().expect("unbudgeted fast job completes");
    let cycle = ok[1].as_ref().expect("unbudgeted cycle job completes");
    assert_eq!(fast, cycle, "backends retire the same instruction count");

    // On each job body, the policy's budget through `JobSpec::in_batch`
    // fails the job exactly as the same budget set on the spec does, and
    // a healthy job through `in_batch`, pooled or not, is bit-identical
    // to one given only its seed.
    let symbol_config = BatchConfig { n: 4, precision: Precision::Half16, nsc: 2, seed: 7, unroll: 2 };
    let symbol = SymbolScenario::prepare(&symbol_config).unwrap();
    type Body<'a> = dyn Fn(&JobSpec) -> Result<(u64, u64, bool), JobError> + Sync + 'a;
    let bodies: [(&str, &Arc<SimArtifacts>, &Body); 3] = [
        ("symbol", symbol.artifacts(), &|job| {
            symbol.run(job).map(|o| (o.cycles, o.instructions, o.verified))
        }),
        ("fast", scenario.artifacts(), &|job| {
            scenario.run_fast(job, 1, None).map(|o| (o.cluster_cycles, o.instructions, o.verified))
        }),
        ("cycle", scenario.artifacts(), &|job| {
            scenario.run_cycle(job, CycleEngine::EventDriven).map(|o| (o.cycles, o.instructions, o.verified))
        }),
    ];
    let healthy = RunPolicy::new();
    for (name, arts, body) in bodies {
        let direct = body(&JobSpec { budget: Some(budget), ..JobSpec::seeded(config.seed) });
        assert_eq!(direct, Err(JobError::BudgetExhausted { budget }), "{name}: budget on the spec");
        let batched = BatchRunner::with_workers(1)
            .try_run(&policy, None, vec![config.seed], |ctx, &s| body(&JobSpec::in_batch(ctx, s)));
        assert_eq!(batched[0], direct, "{name}: budget from the batch policy");

        let alone = body(&JobSpec::seeded(config.seed)).expect("healthy job completes");
        assert!(alone.2, "{name}: healthy job verifies");
        let pool = MemPool::new(Arc::clone(arts));
        for pool in [None, Some(&pool)] {
            let batched =
                BatchRunner::with_workers(1)
                    .try_run(&healthy, pool, vec![config.seed], |ctx, &s| body(&JobSpec::in_batch(ctx, s)));
            assert_eq!(batched[0], Ok(alone), "{name}: in_batch (pooled={}) vs seed only", pool.is_some());
        }
    }
}

/// Cooperative cancellation: raising the batch token while a job is in
/// flight abandons that job at an engine safe point (reported as
/// [`JobError::Cancelled`]) and fails every not-yet-started job at the
/// dispatch boundary — on both backends, with completed jobs untouched.
#[test]
fn cancelling_mid_batch_abandons_running_and_pending_jobs() {
    let config = ParallelConfig { cores: 8, n: 4, precision: Precision::Half16, seed: 15, unroll: 2 };
    let scenario = ParallelScenario::prepare(&config).unwrap();

    for cycle_backend in [false, true] {
        let cancel = CancelToken::new();
        let policy = RunPolicy::new().with_cancel(cancel.clone());
        let trigger = cancel.clone();
        let out = BatchRunner::with_workers(1).try_run(&policy, None, (0..4u32).collect(), |ctx, &j| {
            if j == 1 {
                // Raised while job 1 is already past the dispatch check:
                // the engine itself must notice at its next safe point.
                trigger.cancel();
            }
            let seed = config.seed.wrapping_add(u64::from(j));
            let job = JobSpec::in_batch(ctx, seed);
            if cycle_backend {
                scenario.run_cycle(&job, CycleEngine::EventDriven).map(|o| o.instructions)
            } else {
                scenario.run_fast(&job, 1, None).map(|o| o.instructions)
            }
        });
        assert!(out[0].is_ok(), "job 0 completed before the cancel (cycle={cycle_backend})");
        for (i, r) in out.iter().enumerate().skip(1) {
            assert_eq!(*r, Err(JobError::Cancelled), "job {i} (cycle={cycle_backend})");
        }
    }
}

/// Pool hygiene under faults: the arena of a panicked job is quarantined
/// — counted in [`PoolStats::quarantined`](terasim_terapool::PoolStats)
/// and never handed to a later job — while healthy jobs keep recycling.
#[test]
fn panicked_jobs_quarantine_their_arena() {
    let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 4, seed: 9, unroll: 2 };
    let scenario = SymbolScenario::prepare(&config).unwrap();
    let serial = serial_symbols(&config, 3);

    // One lane: jobs run strictly in submission order, so job 2 observes
    // the pool exactly one panic and one healthy run later.
    let (policy, pool) = (RunPolicy::new(), MemPool::new(Arc::clone(scenario.artifacts())));
    let out = BatchRunner::with_workers(1).try_run(&policy, Some(&pool), (0..3u32).collect(), |ctx, &j| {
        let pool = ctx.pool().expect("pooled batch");
        if j == 0 {
            // Panic while holding a pooled simulator: the unwind runs
            // its drop, which must quarantine — not recycle — the arena.
            let _sim = terasim_terapool::FastSim::from_pool(pool);
            faults::inject_panic(0);
        }
        let key = scenario
            .run(&JobSpec::in_batch(ctx, config.seed.wrapping_add(u64::from(j))))
            .map(|o| symbol_key(&o))?;
        Ok((key, pool.stats().quarantined))
    });

    assert_eq!(out[0], Err(JobError::Panicked { payload: faults::panic_payload(0) }));
    let (key1, quarantined1) = out[1].clone().expect("job 1 healthy");
    let (key2, quarantined2) = out[2].clone().expect("job 2 healthy");
    assert_eq!(key1, serial[1], "job 1 bit-identical on a fresh (post-quarantine) arena");
    assert_eq!(key2, serial[2], "job 2 bit-identical on the recycled arena");
    assert_eq!((quarantined1, quarantined2), (1, 1), "exactly the panicked job's arena was quarantined");
}

/// One pool rule for every job body: a pool built over another artifact
/// set is a caller bug. The `run_*_pooled` adapters panic on it, and a
/// supervised batch carrying such a pool reports the job as
/// [`JobError::Panicked`] without handing out an arena.
#[test]
fn a_pool_over_other_artifacts_is_rejected_by_every_runner() {
    let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 2, seed: 4, unroll: 2 };
    let symbol = SymbolScenario::prepare(&config).unwrap();
    // A second build of the same scenario: equal content, other artifacts.
    let other = MemPool::new(Arc::clone(SymbolScenario::prepare(&config).unwrap().artifacts()));
    let cluster_config = ParallelConfig { cores: 8, n: 4, precision: Precision::Half16, seed: 4, unroll: 2 };
    let cluster = ParallelScenario::prepare(&cluster_config).unwrap();
    let want = "pool built over a different scenario";

    let adapters: [(&str, &dyn Fn()); 3] = [
        ("symbol", &|| drop(symbol.run_symbol_pooled(&other, 1))),
        ("fast", &|| drop(cluster.run_fast_pooled(&other, 1, 1))),
        ("cycle", &|| drop(cluster.run_cycle_pooled(&other, CycleEngine::EventDriven, 1))),
    ];
    for (name, adapter) in adapters {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(adapter))
            .expect_err("a mismatched pool must panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&want), "{name} adapter");
    }

    let out =
        BatchRunner::with_workers(1).try_run(&RunPolicy::new(), Some(&other), vec![1u64], |ctx, &seed| {
            cluster.run_fast(&JobSpec::in_batch(ctx, seed), 1, None)
        });
    assert_eq!(out[0].as_ref().err(), Some(&JobError::Panicked { payload: want.into() }));
    let stats = other.stats();
    assert_eq!(stats.fresh + stats.recycled, 0, "a rejected pool hands out no arena");
}
