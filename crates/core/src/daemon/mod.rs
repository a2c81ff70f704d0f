//! A long-lived, in-process co-simulation serving daemon.
//!
//! The batch tier ([`crate::serve`]) amortises artifact builds *within*
//! one batch; this module amortises them *across* batches, for a process
//! that stays up and serves many independent requests — the shape of a
//! CI farm, a BER-curve service, or the paper's Monte-Carlo campaigns
//! run as a shared facility. The layering is strict:
//!
//! ```text
//! SimArtifacts   immutable per-scenario build products   (terapool)
//!   ArenaBank    parked cluster arenas per geometry      (terapool)
//!     MemPool    one scenario's handle on a bank         (terapool)
//!       BatchRunner  supervised work-stealing batch      (serve)
//!         Daemon     queue + artifact cache + workers    (this module)
//! ```
//!
//! A [`Daemon`] owns three things:
//!
//! * an [`ArtifactCache`] — an LRU of prepared scenarios keyed by
//!   [`ScenarioKey`], over one [`ArenaBank`](terasim_terapool::ArenaBank)
//!   that holds the cluster arenas of every geometry the daemon has
//!   served. Entries come and go; arenas stay, so a cache miss costs a
//!   scenario rebuild (tens of microseconds) and a dirty-page reset, not
//!   a 20 MiB mapping;
//! * a bounded admission queue — [`Daemon::submit`] enqueues a
//!   [`ServeRequest`] and hands back a [`Ticket`]; beyond the high-water
//!   depth, submission fails fast with [`Rejected::Overloaded`]
//!   (backpressure, never unbounded memory);
//! * worker threads — each pops requests and executes them through the
//!   supervised batch runner, so every per-request fault surfaces as a
//!   structured [`JobError`] and a faulted arena is quarantined, never
//!   recycled.
//!
//! Every [`Completion`] says what the request found: whether its
//! scenario was warm ([`Completion::cache_hit`]) and whether its arena
//! was recycled or freshly mapped ([`Completion::arena`]).
//!
//! Shutdown is graceful by construction: [`Daemon::begin_drain`] stops
//! intake (subsequent submissions get [`Rejected::ShuttingDown`]) while
//! workers finish everything already queued; [`Daemon::shutdown`] drains
//! and joins, returning the final [`DaemonStats`].
//!
//! Determinism contract: responses are a pure function of the request —
//! artifacts are immutable, pooled arenas are reset to image state on
//! acquire, and seeds travel inside the request — so a cache hit, a
//! cache miss, and a fresh process all produce bit-identical outcomes.
//!
//! # Example
//!
//! ```
//! use terasim::daemon::{Daemon, DaemonConfig, ServeRequest, ServeResponse};
//! use terasim::experiments::BatchConfig;
//! use terasim_kernels::Precision;
//!
//! let daemon = Daemon::start(DaemonConfig::default());
//! let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 4, seed: 7, unroll: 2 };
//! let ticket = daemon.submit(ServeRequest::Symbol { config }).expect("queue empty");
//! let done = ticket.wait();
//! match done.response {
//!     Ok(ServeResponse::Symbol(out)) => assert!(out.verified),
//!     other => panic!("unexpected response: {other:?}"),
//! }
//! let stats = daemon.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

mod cache;
mod loadgen;

pub use cache::{ArtifactCache, CacheStats, CachedScenario};
pub use loadgen::{open_loop, standard_mix, LoadMix, LoadReport};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use terasim_phy::{BerPoint, Mimo};
use terasim_terapool::{BankGeometry, MemPool, PoolStats};

use crate::detectors::DetectorKind;
use crate::experiments::{BatchConfig, BatchOutcome, CycleEngine, CycleOutcome, FastOutcome, ParallelConfig};
use crate::serve::{BatchRunner, JobError, RunPolicy};

/// The stable identity of a request's *scenario* — everything that
/// determines the artifact set (topology, kernel image, run
/// configuration), and nothing that doesn't (operand seeds, SNR points,
/// cycle engine choice). Requests with equal keys share one cache entry.
///
/// The key is an FNV-1a digest of the scenario-defining fields, so it is
/// stable across processes (unlike `std`'s randomly-seeded hasher) —
/// cache hit accounting is comparable between runs and machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioKey(u64);

impl ScenarioKey {
    /// The raw digest (for logs and bench JSON).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// Incremental FNV-1a, the same digest family `SimArtifacts::digest`
/// uses for cross-process stability.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// One unit of work a client hands to the daemon. Seeds (and for BER,
/// the SNR point) ride *inside* the request; the scenario identity used
/// for caching deliberately excludes them — see [`ServeRequest::key`].
#[derive(Debug, Clone)]
pub enum ServeRequest {
    /// One batched OFDM symbol (`nsc` subcarrier problems on a single
    /// Snitch) — the Figure 6 Monte-Carlo iteration.
    Symbol {
        /// Scenario and operand seed.
        config: BatchConfig,
    },
    /// One fast-mode parallel-cluster run (Banshee-equivalent timing).
    Fast {
        /// Scenario and operand seed.
        config: ParallelConfig,
    },
    /// One cycle-accurate parallel-cluster run.
    Cycle {
        /// Scenario and operand seed.
        config: ParallelConfig,
        /// Which cycle engine to drive (all engines are bit-identical;
        /// the choice is not part of the scenario key).
        engine: CycleEngine,
    },
    /// One BER-vs-SNR Monte-Carlo point.
    Ber {
        /// The MIMO scenario swept.
        scenario: Mimo,
        /// The detector in the loop. [`DetectorKind::Iss`] requests are
        /// cached (kernel + artifacts + pooled simulator); the cheap
        /// reference/native detectors run uncached.
        kind: DetectorKind,
        /// This point's SNR in dB.
        snr_db: f64,
        /// This point's Monte-Carlo seed.
        seed: u64,
        /// Stop after this many bit errors.
        target_errors: u64,
        /// Hard cap on channel uses.
        max_iterations: u64,
    },
}

impl ServeRequest {
    /// The request's scenario identity. Operand seeds, SNR points,
    /// Monte-Carlo bounds and engine choice are excluded: they select
    /// *work*, not *artifacts*. [`Fast`](Self::Fast) and
    /// [`Cycle`](Self::Cycle) requests over the same config share a key
    /// (and a cache entry) because [`ParallelScenario`] serves both
    /// backends from one artifact set.
    ///
    /// [`ParallelScenario`]: crate::experiments::ParallelScenario
    pub fn key(&self) -> ScenarioKey {
        let mut h = Fnv::new();
        match self {
            ServeRequest::Symbol { config } => {
                h.bytes(b"symbol");
                h.u64(u64::from(config.n));
                h.bytes(config.precision.paper_name().as_bytes());
                h.u64(u64::from(config.nsc));
                h.u64(u64::from(config.unroll));
            }
            ServeRequest::Fast { config } | ServeRequest::Cycle { config, .. } => {
                h.bytes(b"parallel");
                h.u64(u64::from(config.cores));
                h.u64(u64::from(config.n));
                h.bytes(config.precision.paper_name().as_bytes());
                h.u64(u64::from(config.unroll));
            }
            ServeRequest::Ber { scenario, kind, .. } => {
                h.bytes(b"ber");
                h.bytes(kind.label().as_bytes());
                h.u64(scenario.n_tx as u64);
            }
        }
        ScenarioKey(h.0)
    }

    /// Whether the daemon caches this request's scenario. Everything is
    /// cacheable except BER with a detector that owns no cluster memory
    /// ([`DetectorKind::Reference64`] / [`DetectorKind::Native`]): those
    /// detectors are a few arithmetic ops to build, so caching would
    /// only add lock traffic.
    pub fn cacheable(&self) -> bool {
        match self {
            ServeRequest::Ber { kind, .. } => matches!(kind, DetectorKind::Iss(_)),
            _ => true,
        }
    }

    /// Replaces the request's operand/Monte-Carlo seed — the load
    /// generator's knob for emitting many independent requests from one
    /// template without touching the scenario identity.
    pub fn reseed(&mut self, seed: u64) {
        match self {
            ServeRequest::Symbol { config } => config.seed = seed,
            ServeRequest::Fast { config } | ServeRequest::Cycle { config, .. } => config.seed = seed,
            ServeRequest::Ber { seed: s, .. } => *s = seed,
        }
    }

    /// Short family label for reports ("symbol", "fast", "cycle",
    /// "ber").
    pub fn label(&self) -> &'static str {
        match self {
            ServeRequest::Symbol { .. } => "symbol",
            ServeRequest::Fast { .. } => "fast",
            ServeRequest::Cycle { .. } => "cycle",
            ServeRequest::Ber { .. } => "ber",
        }
    }
}

/// The successful outcome of a [`ServeRequest`], variant-matched to the
/// request family.
#[derive(Debug, Clone)]
pub enum ServeResponse {
    /// Outcome of a [`ServeRequest::Symbol`].
    Symbol(BatchOutcome),
    /// Outcome of a [`ServeRequest::Fast`].
    Fast(FastOutcome),
    /// Outcome of a [`ServeRequest::Cycle`].
    Cycle(CycleOutcome),
    /// Outcome of a [`ServeRequest::Ber`].
    Ber(BerPoint),
}

impl ServeResponse {
    /// Whether the run's architectural results matched the bit-true
    /// native model (BER points carry no verification flag and report
    /// `true`).
    pub fn verified(&self) -> bool {
        match self {
            ServeResponse::Symbol(o) => o.verified,
            ServeResponse::Fast(o) => o.verified,
            ServeResponse::Cycle(o) => o.verified,
            ServeResponse::Ber(_) => true,
        }
    }
}

/// Why a submission was refused at the door (backpressure — the request
/// was never queued and had no side effects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The admission queue is at its high-water depth; retry later or
    /// shed the request.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
    },
    /// The daemon is draining; no new work is admitted.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Overloaded { depth } => write!(f, "overloaded: queue at depth {depth}"),
            Rejected::ShuttingDown => write!(f, "shutting down: daemon is draining"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Why an *admitted* request did not produce a [`ServeResponse`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The scenario could not be prepared (kernel build or translation
    /// failure). Deterministic, and memoised by the cache.
    Build(String),
    /// The run itself faulted; the [`JobError`] taxonomy from the batch
    /// tier applies unchanged (panic, trap, deadlock, budget,
    /// cancellation).
    Job(JobError),
    /// The daemon terminated before completing the request (only
    /// observable if a [`Ticket`] outlives its daemon).
    Terminated,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Build(e) => write!(f, "scenario build failed: {e}"),
            ServeError::Job(e) => write!(f, "job faulted: {e}"),
            ServeError::Terminated => write!(f, "daemon terminated before completing the request"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Everything the daemon reports back for one admitted request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The response, or why there is none.
    pub response: Result<ServeResponse, ServeError>,
    /// Submission-to-completion latency (queueing included).
    pub latency: Duration,
    /// Time spent waiting in the admission queue.
    pub queued: Duration,
    /// Whether the request's scenario was already warm in the artifact
    /// cache when a worker picked it up (uncached request families
    /// always report `false`).
    pub cache_hit: bool,
    /// Where the request's cluster arena came from; `None` when it
    /// acquired none (a BER point runs on its detector's resident
    /// simulator; a failed build runs nothing).
    pub arena: Option<Arena>,
}

/// Where a request's cluster arena came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arena {
    /// Mapped for this request: no arena of its geometry was parked.
    Fresh,
    /// A parked arena, reset to the scenario's image.
    Recycled,
}

impl Arena {
    /// What the acquires counted in `stats` amount to: `Fresh` if any of
    /// them mapped (a retried request acquires more than once), else
    /// `Recycled` if there was one at all.
    fn acquired(stats: &PoolStats) -> Option<Self> {
        match (stats.fresh, stats.recycled) {
            (0, 0) => None,
            (0, _) => Some(Arena::Recycled),
            _ => Some(Arena::Fresh),
        }
    }
}

/// The claim check for one admitted request; redeem it with
/// [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Completion>,
}

impl Ticket {
    /// Blocks until the request completes.
    pub fn wait(self) -> Completion {
        self.rx.recv().unwrap_or(Completion {
            response: Err(ServeError::Terminated),
            latency: Duration::ZERO,
            queued: Duration::ZERO,
            cache_hit: false,
            arena: None,
        })
    }

    /// Non-blocking poll; `Some` exactly once, when the request has
    /// completed.
    pub fn try_wait(&self) -> Option<Completion> {
        self.rx.try_recv().ok()
    }
}

/// Daemon sizing and policy.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads executing requests (each runs its request through
    /// a single-lane supervised batch, so per-request host parallelism
    /// stays bounded by this count).
    pub workers: usize,
    /// Admission-queue high-water depth: submissions beyond this are
    /// rejected with [`Rejected::Overloaded`].
    pub queue_depth: usize,
    /// Scenarios the artifact cache keeps warm (LRU beyond this).
    pub cache_capacity: usize,
    /// Execution policy applied to every request (instruction budget,
    /// retry-on-panic, cancellation token).
    pub policy: RunPolicy,
}

impl Default for DaemonConfig {
    /// One worker, depth 64, four warm scenarios, permissive policy.
    fn default() -> Self {
        Self { workers: 1, queue_depth: 64, cache_capacity: 4, policy: RunPolicy::new() }
    }
}

/// Lifetime counters of a [`Daemon`], including the artifact cache, the
/// process-lifetime arena accounting and what the arena bank holds.
#[derive(Debug, Clone)]
pub struct DaemonStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Submissions refused with [`Rejected::Overloaded`].
    pub rejected_overload: u64,
    /// Submissions refused with [`Rejected::ShuttingDown`].
    pub rejected_draining: u64,
    /// Admitted requests that produced a [`ServeResponse`].
    pub completed: u64,
    /// Admitted requests that ended in a [`ServeError`].
    pub failed: u64,
    /// Artifact-cache counters.
    pub cache: CacheStats,
    /// Arena accounting over every scenario pool the daemon ever had,
    /// resident or evicted.
    pub pools: PoolStats,
    /// What the cache's arena bank holds now, per geometry: arenas
    /// parked and in use, and the address space they map.
    pub bank: Vec<BankGeometry>,
}

struct Work {
    req: ServeRequest,
    tx: Sender<Completion>,
    submitted: Instant,
}

struct QueueState {
    jobs: VecDeque<Work>,
    draining: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    cache: ArtifactCache,
    policy: RunPolicy,
    high_water: usize,
    submitted: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_draining: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

/// The serving daemon: admission queue, artifact cache, worker threads.
/// See the [module docs](self) for the architecture; `examples/serve_loop.rs`
/// is a minimal embedding.
#[derive(Debug)]
pub struct Daemon {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("high_water", &self.high_water).finish_non_exhaustive()
    }
}

impl Daemon {
    /// Starts the daemon's worker threads and returns the handle.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.queue_depth` is zero, or if
    /// the host refuses to spawn threads.
    pub fn start(config: DaemonConfig) -> Self {
        assert!(config.workers > 0, "daemon needs at least one worker");
        assert!(config.queue_depth > 0, "daemon needs a nonzero admission queue");
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), draining: false }),
            available: Condvar::new(),
            cache: ArtifactCache::new(config.cache_capacity),
            policy: config.policy,
            high_water: config.queue_depth,
            submitted: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        });
        let handles = (0..config.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("terasim-serve-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn daemon worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Submits one request. On admission the returned [`Ticket`] will
    /// eventually yield exactly one [`Completion`]; on rejection the
    /// request had no effect and may be retried.
    ///
    /// # Errors
    ///
    /// [`Rejected::ShuttingDown`] after [`begin_drain`](Self::begin_drain),
    /// [`Rejected::Overloaded`] at the high-water queue depth.
    pub fn submit(&self, req: ServeRequest) -> Result<Ticket, Rejected> {
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.draining {
            self.shared.rejected_draining.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::ShuttingDown);
        }
        let depth = q.jobs.len();
        if depth >= self.shared.high_water {
            self.shared.rejected_overload.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::Overloaded { depth });
        }
        let (tx, rx) = mpsc::channel();
        q.jobs.push_back(Work { req, tx, submitted: Instant::now() });
        drop(q);
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.available.notify_one();
        Ok(Ticket { rx })
    }

    /// Requests currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().unwrap_or_else(|e| e.into_inner()).jobs.len()
    }

    /// Stops intake: every subsequent [`submit`](Self::submit) is
    /// rejected with [`Rejected::ShuttingDown`], while already-queued
    /// requests keep draining. Idempotent.
    pub fn begin_drain(&self) {
        self.shared.queue.lock().unwrap_or_else(|e| e.into_inner()).draining = true;
        self.shared.available.notify_all();
    }

    /// Graceful shutdown: stop intake, let the workers finish the
    /// queue, join them, and report the final counters.
    pub fn shutdown(mut self) -> DaemonStats {
        self.join_workers();
        self.stats()
    }

    /// Current counters (also available live, before shutdown).
    pub fn stats(&self) -> DaemonStats {
        DaemonStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            rejected_overload: self.shared.rejected_overload.load(Ordering::Relaxed),
            rejected_draining: self.shared.rejected_draining.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            cache: self.shared.cache.stats(),
            pools: self.shared.cache.pool_stats(),
            bank: self.shared.cache.bank().geometries(),
        }
    }

    /// Artifact-cache counters only (hit/miss/eviction).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    fn join_workers(&mut self) {
        self.begin_drain();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    /// Dropping the handle drains and joins — the daemon never leaks
    /// detached workers.
    fn drop(&mut self) {
        self.join_workers();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let work = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(w) = q.jobs.pop_front() {
                    break Some(w);
                }
                if q.draining {
                    break None;
                }
                q = shared.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(work) = work else { return };
        let queued = work.submitted.elapsed();
        let Served { response, cache_hit, arena } = serve_one(shared, &work.req);
        if response.is_ok() {
            shared.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.failed.fetch_add(1, Ordering::Relaxed);
        }
        // A client that dropped its ticket just doesn't read the result.
        let latency = work.submitted.elapsed();
        let _ = work.tx.send(Completion { response, latency, queued, cache_hit, arena });
    }
}

/// What [`serve_one`] found out about one request.
struct Served {
    response: Result<ServeResponse, ServeError>,
    cache_hit: bool,
    arena: Option<Arena>,
}

/// Executes one request on the calling worker thread. Both paths run
/// through the supervised batch runner at a single lane (zero extra
/// threads), so panics, traps, budgets and cancellation all surface as
/// [`JobError`]s instead of killing the worker.
fn serve_one(shared: &Shared, req: &ServeRequest) -> Served {
    let runner = BatchRunner::with_workers(1);
    if req.cacheable() {
        let (entry, cache_hit) =
            shared.cache.get_or_build(req.key(), |bank| CachedScenario::build(req, bank));
        match entry {
            Ok(scenario) => {
                // A pool handle of the request's own over the entry's
                // artifacts: same bank, same image, and counters that
                // say what this request's acquire did.
                let pool = MemPool::in_bank(Arc::clone(scenario.artifacts()), shared.cache.bank());
                let mut out =
                    runner.try_run(&shared.policy, Some(&pool), vec![()], |ctx, ()| scenario.run(ctx, req));
                let response = out.pop().expect("one job, one result").map_err(ServeError::Job);
                Served { response, cache_hit, arena: Arena::acquired(&pool.stats()) }
            }
            Err(e) => Served { response: Err(ServeError::Build(e)), cache_hit, arena: None },
        }
    } else {
        let ServeRequest::Ber { scenario, kind, snr_db, seed, target_errors, max_iterations } = req else {
            unreachable!("only BER requests can be uncacheable");
        };
        let mut out = runner.try_run(&shared.policy, None, vec![()], |_ctx, ()| {
            let detector = kind.instantiate(scenario.n_tx);
            let job = terasim_phy::BerJob { scenario: *scenario, snr_db: *snr_db, seed: *seed };
            Ok(ServeResponse::Ber(job.run(detector.as_ref(), *target_errors, *max_iterations)))
        });
        let response = out.pop().expect("one job, one result").map_err(ServeError::Job);
        Served { response, cache_hit: false, arena: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terasim_kernels::Precision;

    fn symbol_req(n: u32, nsc: u32, seed: u64) -> ServeRequest {
        ServeRequest::Symbol {
            config: BatchConfig { n, precision: Precision::CDotp16, nsc, seed, unroll: 2 },
        }
    }

    #[test]
    fn keys_ignore_seeds_but_separate_scenarios() {
        assert_eq!(symbol_req(4, 8, 1).key(), symbol_req(4, 8, 999).key());
        assert_ne!(symbol_req(4, 8, 1).key(), symbol_req(4, 16, 1).key());
        assert_ne!(symbol_req(4, 8, 1).key(), symbol_req(8, 8, 1).key());
        let parallel = ServeRequest::Fast {
            config: ParallelConfig { cores: 16, n: 4, precision: Precision::CDotp16, seed: 1, unroll: 2 },
        };
        let cycle = ServeRequest::Cycle {
            config: ParallelConfig { cores: 16, n: 4, precision: Precision::CDotp16, seed: 7, unroll: 2 },
            engine: CycleEngine::EventDriven,
        };
        // Fast and cycle share artifacts, hence a cache entry.
        assert_eq!(parallel.key(), cycle.key());
        assert_ne!(parallel.key(), symbol_req(4, 8, 1).key());
    }

    #[test]
    fn reseed_changes_only_the_seed() {
        let mut req = symbol_req(4, 8, 1);
        let key = req.key();
        req.reseed(42);
        assert_eq!(req.key(), key);
        let ServeRequest::Symbol { config } = &req else { unreachable!() };
        assert_eq!(config.seed, 42);
    }

    #[test]
    fn serves_and_caches_a_symbol_scenario() {
        let daemon = Daemon::start(DaemonConfig::default());
        let first = daemon.submit(symbol_req(4, 4, 3)).expect("admitted").wait();
        let second = daemon.submit(symbol_req(4, 4, 4)).expect("admitted").wait();
        assert!(first.response.expect("first").verified());
        assert!(!first.cache_hit, "cold start must miss");
        assert!(second.response.expect("second").verified());
        assert!(second.cache_hit, "same scenario, different seed: must hit");
        let stats = daemon.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        // The second request recycled the first's arena.
        assert_eq!(stats.pools.fresh, 1);
        assert_eq!(stats.pools.recycled, 1);
    }

    #[test]
    fn drain_rejects_new_work_but_finishes_queued() {
        let daemon = Daemon::start(DaemonConfig::default());
        let ticket = daemon.submit(symbol_req(4, 4, 1)).expect("admitted");
        daemon.begin_drain();
        assert_eq!(daemon.submit(symbol_req(4, 4, 2)).unwrap_err(), Rejected::ShuttingDown);
        assert!(ticket.wait().response.expect("queued work drains").verified());
        let stats = daemon.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected_draining, 1);
    }
}
