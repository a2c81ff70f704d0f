//! The daemon's cross-request artifact cache, and the arena bank under
//! it.
//!
//! A serving process sees the same scenarios over and over: the same
//! MIMO size, precision and subcarrier count arrive from many clients,
//! differing only in operand seeds. Rebuilding the kernel image and
//! re-lowering the uop tables per request would dominate service time,
//! so the daemon keys every request to a [`ScenarioKey`] and memoises
//! the prepared scenario — immutable [`SimArtifacts`] plus a [`MemPool`]
//! handle that applies their image — in this cache.
//!
//! The cluster arenas are *not* part of an entry. They live in one
//! [`ArenaBank`] the cache owns, keyed by geometry, and every entry's
//! pool draws from it. Preparing a scenario costs tens of microseconds;
//! mapping, faulting in and unmapping a 20 MiB arena costs milliseconds
//! — so the cheap half is what the LRU turns over, and the expensive
//! half stays.
//!
//! Four rules govern the cache:
//!
//! * **Build once, even under races.** Each entry is an
//!   [`OnceLock`] cell inserted under the map lock but *initialised
//!   outside it*: concurrent requests for the same cold key all block on
//!   one build instead of duplicating it, and unrelated keys never wait
//!   behind a slow build.
//! * **Deterministic failures are cached too.** A scenario whose kernel
//!   cannot be built fails identically every time; the error string is
//!   memoised so repeat offenders are rejected without re-paying the
//!   failed build.
//! * **Eviction frees tables only.** Dropping an entry drops its
//!   artifacts and lowered tables. Its parked arenas stay in the bank,
//!   and the entry rebuilt later (or any other scenario of the same
//!   geometry) starts on one with a dirty-page reset.
//! * **Accounting lives with the arenas.** The bank counts every
//!   acquire, return and quarantine as it happens, whichever entry's
//!   pool it went through and whether or not that entry is still
//!   resident — a request that outlives its entry's eviction is counted
//!   when it finishes. [`ArtifactCache::pool_stats`] is therefore a
//!   process-lifetime view, not a view of whatever happens to be warm.

use std::sync::{Arc, Mutex, OnceLock};

use terasim_phy::{BerJob, Detector};
use terasim_terapool::{ArenaBank, MemPool, PoolStats, SimArtifacts};

use super::{ScenarioKey, ServeRequest, ServeResponse};
use crate::detectors::{DetectorKind, IssDetector};
use crate::experiments::{JobSpec, ParallelScenario, SymbolScenario};
use crate::serve::{JobCtx, JobError};

/// What a cache entry holds per request family.
enum Prepared {
    /// A batched OFDM-symbol scenario (single Snitch, `nsc` problems).
    Symbol(SymbolScenario),
    /// A parallel-cluster scenario; serves both fast-mode and
    /// cycle-accurate requests (they share one artifact set).
    Parallel(ParallelScenario),
    /// A hardware-in-the-loop BER detector, its cluster memory drawn
    /// from the entry's pool. Detections serialise on the detector's
    /// internal simulator lock; the kernel image is built exactly once.
    Ber(Box<dyn Detector + Send + Sync>),
}

/// One prepared, immutable scenario plus its pool handle on the cache's
/// arena bank — the unit the [`ArtifactCache`] shares across requests.
pub struct CachedScenario {
    prepared: Prepared,
    pool: Arc<MemPool>,
}

impl std::fmt::Debug for CachedScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.prepared {
            Prepared::Symbol(_) => "symbol",
            Prepared::Parallel(_) => "parallel",
            Prepared::Ber(_) => "ber",
        };
        f.debug_struct("CachedScenario").field("kind", &kind).field("pool", &self.pool.stats()).finish()
    }
}

impl CachedScenario {
    /// Prepares the scenario a request needs — kernel build, translation,
    /// artifact lowering — with a pool over the artifacts drawing from
    /// `bank`. Seeds are normalised out: the prepared scenario serves
    /// every seed of its key. Public so embedders (and the workspace's
    /// cache tests) can fill an [`ArtifactCache`] outside a daemon.
    ///
    /// # Errors
    ///
    /// Returns the kernel build or translation error as a string (the
    /// form the cache memoises).
    pub fn build(req: &ServeRequest, bank: &Arc<ArenaBank>) -> Result<Self, String> {
        match req {
            ServeRequest::Symbol { config } => {
                let mut config = *config;
                config.seed = 0;
                let scenario = SymbolScenario::prepare(&config).map_err(|e| e.to_string())?;
                let pool = MemPool::in_bank(Arc::clone(scenario.artifacts()), bank);
                Ok(Self { prepared: Prepared::Symbol(scenario), pool })
            }
            ServeRequest::Fast { config } | ServeRequest::Cycle { config, .. } => {
                let mut config = *config;
                config.seed = 0;
                let scenario = ParallelScenario::prepare(&config).map_err(|e| e.to_string())?;
                let pool = MemPool::in_bank(Arc::clone(scenario.artifacts()), bank);
                Ok(Self { prepared: Prepared::Parallel(scenario), pool })
            }
            ServeRequest::Ber { scenario, kind, .. } => {
                let DetectorKind::Iss(precision) = kind else {
                    return Err(format!("{} detectors run uncached", kind.label()));
                };
                let arts = IssDetector::build_artifacts(*precision, scenario.n_tx as u32)
                    .map_err(|e| e.to_string())?;
                let pool = MemPool::in_bank(arts, bank);
                let detector = kind.instantiate_pooled(scenario.n_tx, &pool);
                Ok(Self { prepared: Prepared::Ber(detector), pool })
            }
        }
    }

    /// The entry's pool handle (over the scenario's own artifact set, so
    /// the scenario runners' pool identity check passes; its arenas
    /// come from and return to the cache's bank).
    pub fn pool(&self) -> &Arc<MemPool> {
        &self.pool
    }

    /// The shared artifact set behind the pool.
    pub fn artifacts(&self) -> &Arc<SimArtifacts> {
        self.pool.artifacts()
    }

    /// Executes one request against the prepared scenario, under the
    /// supervisor's context (pool, budget, cancellation all flow through
    /// `ctx`).
    ///
    /// # Errors
    ///
    /// Returns the [`JobError`] classifying the fault, if any. A request
    /// whose family does not match the entry (only possible through a
    /// key collision) is reported as a panic-class error rather than
    /// silently running the wrong scenario.
    pub(super) fn run(&self, ctx: &JobCtx, req: &ServeRequest) -> Result<ServeResponse, JobError> {
        match (&self.prepared, req) {
            (Prepared::Symbol(s), ServeRequest::Symbol { config }) => {
                s.run(&JobSpec::in_batch(ctx, config.seed)).map(ServeResponse::Symbol)
            }
            (Prepared::Parallel(s), ServeRequest::Fast { config }) => {
                s.run_fast(&JobSpec::in_batch(ctx, config.seed), 1, None).map(ServeResponse::Fast)
            }
            (Prepared::Parallel(s), ServeRequest::Cycle { config, engine }) => {
                s.run_cycle(&JobSpec::in_batch(ctx, config.seed), *engine).map(ServeResponse::Cycle)
            }
            (
                Prepared::Ber(detector),
                ServeRequest::Ber { scenario, snr_db, seed, target_errors, max_iterations, .. },
            ) => {
                let job = BerJob { scenario: *scenario, snr_db: *snr_db, seed: *seed };
                Ok(ServeResponse::Ber(job.run(detector.as_ref(), *target_errors, *max_iterations)))
            }
            _ => Err(JobError::Panicked {
                payload: "request family does not match its cached scenario (scenario-key collision)".into(),
            }),
        }
    }
}

/// A build-once cell: placeholder inserted under the map lock,
/// initialised outside it.
type Cell = Arc<OnceLock<Result<Arc<CachedScenario>, String>>>;

struct Slot {
    key: ScenarioKey,
    last_used: u64,
    cell: Cell,
}

struct Inner {
    slots: Vec<Slot>,
    tick: u64,
    hits: u64,
    builds: u64,
    coalesced: u64,
    evictions: u64,
}

/// Observability counters of an [`ArtifactCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups whose entry was already built on arrival (warm).
    pub hits: u64,
    /// Lookups that were not warm: `builds + coalesced`.
    pub misses: u64,
    /// Lookups that inserted a fresh entry and ran its build.
    pub builds: u64,
    /// Lookups that arrived while another request's build of the entry
    /// was still running and waited for it: no second build, but not
    /// warm either. How many there are depends on worker timing — only
    /// `builds` and `hits + coalesced` are fixed by the request sequence.
    pub coalesced: u64,
    /// Entries dropped to make room (LRU order).
    pub evictions: u64,
    /// Entries currently resident (built or building).
    pub entries: usize,
    /// The configured capacity.
    pub capacity: usize,
}

impl CacheStats {
    /// Warm fraction of all lookups so far: `hits / (hits + builds +
    /// coalesced)`, 0 when none happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A capacity-bounded LRU cache of prepared scenarios, shared by all
/// daemon workers, over the one [`ArenaBank`] their pools draw from.
/// Capacities are small, so lookup is a linear scan — the lock is held
/// only for the scan, never for a build.
pub struct ArtifactCache {
    inner: Mutex<Inner>,
    capacity: usize,
    bank: Arc<ArenaBank>,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache").field("stats", &self.stats()).finish()
    }
}

impl ArtifactCache {
    /// Creates an empty cache holding at most `capacity` scenarios.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a cache that can hold nothing
    /// would rebuild artifacts per request and silently defeat the
    /// serving tier.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "artifact cache needs capacity for at least one scenario");
        let inner = Inner { slots: Vec::new(), tick: 0, hits: 0, builds: 0, coalesced: 0, evictions: 0 };
        Self { inner: Mutex::new(inner), capacity, bank: ArenaBank::new() }
    }

    /// The bank every entry's pool draws from. It outlives the entries:
    /// per geometry it never holds more arenas than were in use at one
    /// moment (one per busy worker, plus one per resident BER entry,
    /// whose detector keeps its simulator).
    pub fn bank(&self) -> &Arc<ArenaBank> {
        &self.bank
    }

    /// Looks up `key`, building the entry with `build` on a miss; `build`
    /// receives the cache's bank for the entry's pool. Returns the entry
    /// (or its memoised build error) and whether the lookup was a warm
    /// hit. Concurrent misses on one key run `build` exactly once; the
    /// rest block on the winner's cell.
    pub fn get_or_build(
        &self,
        key: ScenarioKey,
        build: impl FnOnce(&Arc<ArenaBank>) -> Result<CachedScenario, String>,
    ) -> (Result<Arc<CachedScenario>, String>, bool) {
        let (cell, hit) = {
            // Poison recovery: the map holds plain slots with no
            // invariant a panicking builder could break (builds run
            // outside the lock).
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.tick += 1;
            let tick = inner.tick;
            match inner.slots.iter().position(|s| s.key == key) {
                Some(i) => {
                    inner.slots[i].last_used = tick;
                    let hit = inner.slots[i].cell.get().is_some();
                    if hit {
                        inner.hits += 1;
                    } else {
                        inner.coalesced += 1;
                    }
                    (Arc::clone(&inner.slots[i].cell), hit)
                }
                None => {
                    inner.builds += 1;
                    if inner.slots.len() >= self.capacity {
                        self.evict_lru(&mut inner);
                    }
                    let cell: Cell = Arc::new(OnceLock::new());
                    inner.slots.push(Slot { key, last_used: tick, cell: Arc::clone(&cell) });
                    (cell, false)
                }
            }
        };
        (cell.get_or_init(|| build(&self.bank).map(Arc::new)).clone(), hit)
    }

    /// Drops the least-recently-used slot: the entry's artifacts and
    /// tables go once its in-flight requests finish, its arenas stay in
    /// the bank. An entry still mid-build simply loses its slot — its
    /// in-flight waiters keep their handle on the cell and complete
    /// normally.
    fn evict_lru(&self, inner: &mut Inner) {
        let Some(victim) = inner.slots.iter().enumerate().min_by_key(|(_, s)| s.last_used).map(|(i, _)| i)
        else {
            return;
        };
        inner.slots.swap_remove(victim);
        inner.evictions += 1;
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        CacheStats {
            hits: inner.hits,
            misses: inner.builds + inner.coalesced,
            builds: inner.builds,
            coalesced: inner.coalesced,
            evictions: inner.evictions,
            entries: inner.slots.len(),
            capacity: self.capacity,
        }
    }

    /// Process-lifetime arena accounting: the bank's totals over every
    /// pool the cache ever built, counted as each event happens — so a
    /// faulted job's quarantined arena is on the books whether its
    /// scenario is resident, evicted, or was evicted while the job ran.
    pub fn pool_stats(&self) -> PoolStats {
        self.bank.stats()
    }
}
