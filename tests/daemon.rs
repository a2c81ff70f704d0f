//! Serving-daemon differentials: the persistent tier (artifact cache +
//! warm pools + bounded admission queue) must change *nothing* about
//! results — pooled-across-requests outcomes are bit-identical to fresh
//! serial rebuilds at every worker count — while its caching, eviction,
//! backpressure, drain and fault-accounting behaviours hold exactly.

use terasim::daemon::{
    open_loop, standard_mix, ArtifactCache, CachedScenario, Daemon, DaemonConfig, Rejected, ServeError,
    ServeRequest, ServeResponse,
};
use terasim::experiments::{self, BatchConfig};
use terasim::faults;
use terasim::serve::{BatchRunner, JobError, RunPolicy};
use terasim_kernels::Precision;

fn symbol_req(config: BatchConfig) -> ServeRequest {
    ServeRequest::Symbol { config }
}

fn scenario(n: u32, nsc: u32, seed: u64) -> BatchConfig {
    BatchConfig { n, precision: Precision::CDotp16, nsc, seed, unroll: 2 }
}

/// Per-job fingerprint of a fast-mode symbol run.
fn symbol_key(o: &experiments::BatchOutcome) -> (u64, u64, bool) {
    (o.cycles, o.instructions, o.verified)
}

/// The tentpole acceptance check: a daemon-served stream of requests for
/// one scenario — second request onward riding the warm cache and pool —
/// is bit-identical to fresh serial rebuilds, at every worker count
/// (hence every interleaving of cache lookups and arena recycling).
#[test]
fn daemon_served_symbols_match_fresh_serial_at_every_worker_count() {
    let config = scenario(4, 4, 120);
    let jobs = 8u64;
    let serial: Vec<(u64, u64, bool)> = (0..jobs)
        .map(|j| {
            let mut c = config;
            c.seed = config.seed.wrapping_add(j);
            symbol_key(&experiments::mc_symbol_single(&c).unwrap())
        })
        .collect();
    assert!(serial.iter().all(|k| k.2), "fresh reference runs must verify");

    for workers in [1usize, 2, 4, 7] {
        let daemon = Daemon::start(DaemonConfig { workers, ..DaemonConfig::default() });
        let tickets: Vec<_> = (0..jobs)
            .map(|j| {
                let mut c = config;
                c.seed = config.seed.wrapping_add(j);
                daemon.submit(symbol_req(c)).expect("default queue depth fits the batch")
            })
            .collect();
        let served: Vec<(u64, u64, bool)> = tickets
            .into_iter()
            .map(|t| match t.wait().response.expect("healthy request") {
                ServeResponse::Symbol(o) => symbol_key(&o),
                other => panic!("symbol request returned {other:?}"),
            })
            .collect();
        assert_eq!(served, serial, "daemon-served batch diverged at {workers} workers");
        let stats = daemon.shutdown();
        // A request that reaches the cache while the first one is still
        // building shares that build without being a warm hit; how many
        // do is up to the scheduler, their sum with the hits is not.
        assert_eq!(stats.cache.builds, 1, "one scenario, one build ({workers} workers)");
        assert_eq!(
            stats.cache.hits + stats.cache.coalesced,
            jobs - 1,
            "second request onward must skip the rebuild"
        );
        assert_eq!(stats.cache.misses, stats.cache.builds + stats.cache.coalesced);
        assert!(stats.pools.recycled > 0, "warm pool must recycle arenas across requests");
    }
}

/// Cache hit/miss/eviction accounting under concurrent mixed requests:
/// three scenarios through a two-entry cache must evict, keep serving
/// correct results, and still end with a nonzero hit rate.
#[test]
fn cache_evicts_least_recent_scenario_under_concurrent_requests() {
    let a = scenario(4, 4, 1);
    let b = scenario(4, 8, 1);
    let c = scenario(4, 16, 1);
    let daemon = Daemon::start(DaemonConfig { workers: 4, cache_capacity: 2, ..DaemonConfig::default() });
    // Two rounds of A/B interleaving (warming both), then C forces an
    // eviction, then A again — possibly rebuilt, never wrong.
    let mut tickets = Vec::new();
    for seed in 0..2u64 {
        for cfg in [a, b] {
            let mut cfg = cfg;
            cfg.seed = seed;
            tickets.push(daemon.submit(symbol_req(cfg)).expect("admitted"));
        }
    }
    for cfg in [c, a] {
        tickets.push(daemon.submit(symbol_req(cfg)).expect("admitted"));
    }
    for t in tickets {
        assert!(t.wait().response.expect("healthy request").verified());
    }
    let stats = daemon.shutdown();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.failed, 0);
    assert!(stats.cache.hits > 0, "interleaved same-scenario requests must hit");
    assert!(stats.cache.evictions >= 1, "third scenario must evict from a two-entry cache");
    assert_eq!(stats.cache.entries, 2, "cache stays at capacity");
}

/// Concurrent cold-start on one key: many workers racing the same
/// scenario must share a single build (one cache entry, one artifact
/// set) and all complete correctly.
#[test]
fn concurrent_cold_requests_share_one_build() {
    let daemon = Daemon::start(DaemonConfig { workers: 4, ..DaemonConfig::default() });
    let tickets: Vec<_> =
        (0..4u64).map(|seed| daemon.submit(symbol_req(scenario(4, 4, seed))).expect("admitted")).collect();
    for t in tickets {
        assert!(t.wait().response.expect("healthy request").verified());
    }
    let stats = daemon.shutdown();
    assert_eq!(stats.cache.entries, 1, "one scenario key, one entry");
    assert_eq!(stats.cache.builds, 1, "racing cold requests share one build");
    assert_eq!(stats.cache.hits + stats.cache.coalesced, 3, "the rest waited for it or found it built");
    assert_eq!(stats.completed, 4);
}

/// The ISSUE's direct acceptance assertion, at the cache layer: the
/// second lookup of a key must not invoke the builder at all.
#[test]
fn second_lookup_skips_the_artifact_build() {
    let cache = ArtifactCache::new(2);
    let req = symbol_req(scenario(4, 4, 5));
    let mut builds = 0u32;
    let (first, hit1) = cache.get_or_build(req.key(), || {
        builds += 1;
        CachedScenario::build(&req)
    });
    assert!(first.is_ok() && !hit1 && builds == 1);
    let (second, hit2) = cache.get_or_build(req.key(), || {
        builds += 1;
        CachedScenario::build(&req)
    });
    assert!(hit2, "second lookup must be a warm hit");
    assert_eq!(builds, 1, "the builder must not run again");
    // Same entry, same artifact set: later requests run over the
    // identical immutable artifacts (no rebuild happened anywhere).
    assert!(std::sync::Arc::ptr_eq(first.unwrap().artifacts(), second.unwrap().artifacts()));
}

/// Fault-quarantine accounting must survive cache eviction: a panicked
/// job quarantines its arena in the cached scenario's pool; evicting
/// that scenario folds the pool's counters into the cache's retired
/// total instead of dropping them.
#[test]
fn quarantine_accounting_survives_cache_eviction() {
    let cache = ArtifactCache::new(1);
    let req_a = symbol_req(scenario(4, 4, 9));
    let (entry, _) = cache.get_or_build(req_a.key(), || CachedScenario::build(&req_a));
    let cached = entry.expect("scenario builds");

    // A supervised batch over the cached pool: job 0 panics while
    // holding a pooled simulator (quarantining its arena on unwind),
    // job 1 runs healthy on a fresh arena.
    let config = scenario(4, 4, 9);
    let scenario_handle = experiments::SymbolScenario::prepare(&config).unwrap();
    let policy = RunPolicy::new();
    let out = BatchRunner::with_workers(1).try_run_pooled_in(&policy, cached.pool(), (0..2u32).collect(), {
        let pool = cached.pool();
        move |ctx, &j| {
            if j == 0 {
                let _sim = terasim_terapool::FastSim::from_pool(pool);
                faults::inject_panic(0);
            }
            // The cached pool's artifacts differ from this ad-hoc
            // scenario's (separate builds), so the job falls back to
            // fresh memory for the run itself — the quarantine above is
            // what this test is about.
            scenario_handle.try_run_symbol(ctx, config.seed.wrapping_add(u64::from(j)))
        }
    });
    assert!(
        matches!(&out[0], Err(JobError::Panicked { payload }) if *payload == faults::panic_payload(0)),
        "job 0 must fail as the injected panic, got {:?}",
        out[0]
    );
    assert!(out[1].as_ref().is_ok_and(|o| o.verified));
    assert_eq!(cached.pool().stats().quarantined, 1, "panicked job's arena is quarantined");
    drop(cached);

    // Evict scenario A by inserting B into the one-entry cache.
    let req_b = symbol_req(scenario(4, 8, 9));
    let (entry_b, _) = cache.get_or_build(req_b.key(), || CachedScenario::build(&req_b));
    assert!(entry_b.is_ok());
    assert_eq!(cache.stats().evictions, 1, "capacity-1 cache must evict A for B");
    assert_eq!(
        cache.pool_stats().quarantined,
        1,
        "the evicted pool's quarantine count must survive in the retired total"
    );
}

/// Backpressure: with one busy worker and a two-deep queue, a burst of
/// submissions must see `Overloaded` rejections, and everything admitted
/// must still complete and drain.
#[test]
fn overload_rejects_beyond_high_water_and_drain_finishes_the_rest() {
    let daemon = Daemon::start(DaemonConfig { workers: 1, queue_depth: 2, ..DaemonConfig::default() });
    let mut tickets = Vec::new();
    let mut overloaded = 0u32;
    // The first request pins the worker on a cold scenario build; the
    // queue (depth 2) then fills and the rest of the burst bounces.
    for seed in 0..20u64 {
        match daemon.submit(symbol_req(scenario(4, 16, seed))) {
            Ok(t) => tickets.push(t),
            Err(Rejected::Overloaded { depth }) => {
                assert!(depth >= 2, "rejection must report the saturated depth");
                overloaded += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert!(overloaded > 0, "a 20-request burst must overflow a depth-2 queue");
    daemon.begin_drain();
    assert_eq!(
        daemon.submit(symbol_req(scenario(4, 16, 99))).unwrap_err(),
        Rejected::ShuttingDown,
        "drain stops intake"
    );
    for t in tickets {
        assert!(t.wait().response.expect("admitted work drains").verified());
    }
    let stats = daemon.shutdown();
    assert_eq!(stats.completed, stats.submitted, "every admitted request completed");
    assert_eq!(u64::from(overloaded), stats.rejected_overload);
    assert_eq!(stats.rejected_draining, 1);
}

/// The per-request policy flows through the daemon: an instruction
/// budget too small for the workload surfaces as a structured
/// `BudgetExhausted` failure, counted but contained — later daemons and
/// requests are unaffected.
#[test]
fn budget_exhaustion_is_contained_per_request() {
    let tiny =
        Daemon::start(DaemonConfig { policy: RunPolicy::new().with_budget(64), ..DaemonConfig::default() });
    let done = tiny.submit(symbol_req(scenario(4, 4, 3))).expect("admitted").wait();
    assert!(
        matches!(done.response, Err(ServeError::Job(JobError::BudgetExhausted { budget: 64 }))),
        "the policy budget must reach the engine and classify the fault, got {:?}",
        done.response
    );
    let stats = tiny.shutdown();
    assert_eq!((stats.completed, stats.failed), (0, 1));

    // Same scenario under a permissive daemon: unaffected.
    let daemon = Daemon::start(DaemonConfig::default());
    assert!(daemon
        .submit(symbol_req(scenario(4, 4, 3)))
        .expect("admitted")
        .wait()
        .response
        .expect("healthy")
        .verified());
}

/// The load generator end to end (the CI serve-smoke shape): saturating
/// mixed traffic, zero failures, nonzero cross-request cache hits, and
/// graceful shutdown accounting that matches the report.
#[test]
fn saturating_mixed_load_completes_with_cache_hits() {
    let daemon = Daemon::start(DaemonConfig { queue_depth: 8, ..DaemonConfig::default() });
    let report = open_loop(&daemon, &standard_mix(), 0.0, 24, 11);
    let stats = daemon.shutdown();
    assert_eq!(report.failed, 0, "no request may fail under clean synthetic load");
    assert_eq!(report.completed, 24);
    assert!(report.cache_hits > 0, "mixed traffic repeats scenarios: the cache must hit");
    assert!(report.p99_ns >= report.p50_ns);
    assert_eq!(stats.completed, report.completed);
    assert!(stats.pools.recycled > 0, "pools must recycle across requests");
}
