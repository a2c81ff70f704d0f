//! The batched job-serving layer: a work-stealing [`BatchRunner`] that
//! drives many independent simulation jobs over one shared artifact set.
//!
//! The paper's evaluation is inherently batched — BER curves, figure
//! sweeps and ablations each run hundreds of *independent* cluster
//! simulations. The cycle engine already parallelizes *within* a job
//! (`CycleSim::run_parallel`); this module adds the throughput axis
//! *across* jobs:
//!
//! * **Artifact sharing.** All jobs of a scenario run over one
//!   [`SimArtifacts`](terasim_terapool::SimArtifacts) set — decoded
//!   program, lowered micro-op tables, topology maps, initial memory
//!   image — built once instead of once per run (the scenario types in
//!   [`experiments`](crate::experiments) wrap this; the benchmark's
//!   `terapool.artifacts_s` layer metric prices the one-time build).
//! * **Work stealing.** Jobs are dealt round-robin to per-worker queues;
//!   a worker that drains its own queue steals from the busiest
//!   neighbour, so a batch of wildly uneven jobs (BER points near the
//!   error target differ by orders of magnitude) keeps every host thread
//!   busy.
//! * **Ordered results.** Results return in submission order, keyed by
//!   job index — never by completion order or executing worker — so a
//!   batch is deterministic for every worker count.
//! * **Idle-worker claiming.** Fast-mode jobs run one-per-worker; a
//!   sharded cycle job can widen into threads the batch is not using —
//!   [`JobCtx::claimable_threads`] reports `1 +` the workers that have
//!   gone idle (the tail of a draining batch), which the job passes to
//!   `CycleSim::run_parallel`. Because the sharded engine is
//!   bit-identical at every thread count, claiming is invisible in the
//!   results.
//! * **Memory recycling.** [`BatchRunner::run_pooled_in`] and
//!   [`BatchRunner::try_run`] take a caller-owned [`MemPool`] and expose
//!   it through [`JobCtx::pool`]: each lane's jobs acquire and return one
//!   recycled `ClusterMem` instead of re-mapping the 20 MiB arena per job
//!   — the dominant fixed cost of small jobs after artifact sharing. A
//!   one-shot batch writes `MemPool::new(arts)`; a long-lived caller (the
//!   serving daemon) keeps one pool across batches. Recycled arenas are
//!   reset to the exact fresh state (only the dirty footprint is
//!   re-zeroed), so pooled batches stay bit-identical to unpooled ones.
//!
//! # Supervised mode (fault containment)
//!
//! [`BatchRunner::try_run`] runs each job under supervision and returns
//! `Vec<Result<T, JobError>>` in submission order. The contract:
//!
//! * **Panic isolation.** A panic inside one job closure is caught with
//!   [`std::panic::catch_unwind`] and becomes
//!   [`JobError::Panicked`] *for that index only*; every other job runs
//!   and reports normally. Queue locks use poison recovery, so a panicked
//!   lane can never cascade into its siblings (the queues hold plain
//!   `(index, job)` pairs — there is no invariant a mid-panic closure
//!   could have broken). The runner does not touch the process panic
//!   hook: the default hook still prints each caught panic to stderr.
//! * **Structured faults.** Job closures report guest-level faults —
//!   traps, deadlocks, exhausted budgets — as [`JobError`] values; the
//!   scenario runners in [`experiments`](crate::experiments) do this
//!   mapping for the standard workloads, and
//!   [`JobSpec::in_batch`](crate::experiments::JobSpec::in_batch) hands
//!   them the batch's pool, budget and cancel token.
//! * **Policy.** A [`RunPolicy`] carries the per-job instruction budget,
//!   the bounded-retry count for retryable faults (only host-side panics
//!   are retryable: guest faults are deterministic and would simply
//!   recur), and the batch's [`CancelToken`]. The token is checked at
//!   every job boundary — jobs not yet started return
//!   [`JobError::Cancelled`] without running — and the scenario runners
//!   forward it into the engines, which poll it at scheduling-round /
//!   event-step / epoch boundaries to abort a stuck job mid-run.
//! * **Quarantine.** A pooled job that panics or is cancelled mid-run
//!   never returns its arena to the free list: the simulator drop
//!   detects the unwind (or the cancelled run) and routes the arena to
//!   [`MemPool::quarantine`] — counted in
//!   [`PoolStats::quarantined`](terasim_terapool::PoolStats) — so later
//!   jobs can't inherit memory abandoned mid-write.
//! * **Determinism.** Supervision changes *scheduling*, never results: a
//!   supervised batch with k faulty jobs reports errors at exactly those
//!   k indices and is bit-identical to a fresh serial run at every other
//!   index, for every worker count, pooled and unpooled, on both
//!   backends (pinned by the workspace's `faults` integration tests).
//!
//! # Examples
//!
//! Run a BER sweep as a batch of per-SNR-point jobs:
//!
//! ```
//! use terasim::serve::BatchRunner;
//! use terasim_phy::{ber_jobs, ChannelKind, Mimo, MmseF64, Modulation};
//!
//! let scenario = Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Awgn };
//! let runner = BatchRunner::with_workers(2);
//! let points = runner.run(ber_jobs(scenario, &[6.0, 12.0, 18.0], 1), |_ctx, job| {
//!     job.run(&MmseF64, 200, 2_000)
//! });
//! assert_eq!(points.len(), 3);
//! assert!(points[0].ber() > points[2].ber());
//! ```
//!
//! Supervised: one job panics, its neighbours are unaffected:
//!
//! ```
//! use terasim::serve::{BatchRunner, JobError, RunPolicy};
//!
//! let runner = BatchRunner::with_workers(2);
//! let out = runner.try_run(&RunPolicy::new(), None, (0..4u32).collect(), |_ctx, &j| {
//!     if j == 2 {
//!         panic!("injected");
//!     }
//!     Ok(j * 10)
//! });
//! assert_eq!(out[0], Ok(0));
//! assert_eq!(out[1], Ok(10));
//! assert!(matches!(out[2], Err(JobError::Panicked { .. })));
//! assert_eq!(out[3], Ok(30));
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use terasim_iss::Trap;
use terasim_terapool::{CancelToken, ClusterResult, CycleResult, MemPool};

/// Why one supervised job failed — the per-job fault taxonomy of
/// [`BatchRunner::try_run`]. One job's error never affects its batch
/// neighbours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job closure panicked; the payload is the panic message when it
    /// was a string (the common `panic!`/`assert!` case). The only
    /// *retryable* fault: a host-side panic may be environmental, while
    /// guest faults are deterministic and would simply recur.
    Panicked {
        /// The panic payload, stringified.
        payload: String,
    },
    /// The guest raised an architectural trap (illegal fetch, faulting
    /// memory access, breakpoint).
    Trap(Trap),
    /// The guest deadlocked: the listed harts were parked in `wfi` with
    /// nobody left to wake them.
    Deadlocked {
        /// Hart ids still parked when the run gave up.
        parked: Vec<u32>,
    },
    /// The job hit its [`RunPolicy::budget`] instruction budget before
    /// finishing (a runaway guest, stopped by the engines' per-core
    /// safety net instead of hanging the lane).
    BudgetExhausted {
        /// The per-core instruction budget that was exhausted.
        budget: u64,
    },
    /// The batch's [`CancelToken`] was raised before or during this job.
    Cancelled,
}

impl JobError {
    /// Whether a bounded retry ([`RunPolicy::max_retries`]) may be
    /// attempted: true only for [`JobError::Panicked`]. Guest faults
    /// (traps, deadlocks, exhausted budgets) are deterministic functions
    /// of the job and would fail identically again; cancellation is an
    /// explicit request to stop.
    pub fn is_retryable(&self) -> bool {
        matches!(self, JobError::Panicked { .. })
    }

    /// Maps a fast-mode result's fault flags to a `JobError`, in severity
    /// order: cancellation, then budget exhaustion (only when a budget
    /// was actually set — `budget` is the configured per-core limit
    /// reported in the error), then deadlock. `Ok(())` for a clean run.
    ///
    /// # Errors
    ///
    /// Returns the fault recorded in `res`, if any.
    pub fn check_fast(res: &ClusterResult, budget: Option<u64>) -> Result<(), JobError> {
        if res.cancelled {
            return Err(JobError::Cancelled);
        }
        if let Some(b) = budget {
            if res.budget_exhausted() {
                return Err(JobError::BudgetExhausted { budget: b });
            }
        }
        if res.deadlocked {
            return Err(JobError::Deadlocked { parked: res.parked.clone() });
        }
        Ok(())
    }

    /// Maps a cycle-mode result's fault flags to a `JobError` (same
    /// severity order as [`check_fast`](Self::check_fast)).
    ///
    /// # Errors
    ///
    /// Returns the fault recorded in `res`, if any.
    pub fn check_cycle(res: &CycleResult, budget: Option<u64>) -> Result<(), JobError> {
        if res.cancelled {
            return Err(JobError::Cancelled);
        }
        if let Some(b) = budget {
            if !res.budgeted.is_empty() {
                return Err(JobError::BudgetExhausted { budget: b });
            }
        }
        if res.deadlocked {
            return Err(JobError::Deadlocked { parked: res.parked.clone() });
        }
        Ok(())
    }
}

impl From<Trap> for JobError {
    fn from(trap: Trap) -> Self {
        JobError::Trap(trap)
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked { payload } => write!(f, "job panicked: {payload}"),
            JobError::Trap(trap) => write!(f, "guest trap: {trap}"),
            JobError::Deadlocked { parked } => {
                write!(f, "guest deadlock: harts {parked:?} parked with no wake in flight")
            }
            JobError::BudgetExhausted { budget } => {
                write!(f, "instruction budget of {budget} exhausted")
            }
            JobError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

/// Batch-level execution policy for supervised runs: per-job instruction
/// budget, bounded retry for retryable faults, and cooperative
/// cancellation. `RunPolicy::default()` is permissive: no budget, no
/// retries, a token nobody cancels.
#[derive(Debug, Clone, Default)]
pub struct RunPolicy {
    /// Per-core instruction budget applied to every job (wired into
    /// `RunConfig::max_instructions` / `CycleSim::max_instructions` by
    /// the supervised scenario runners); exhaustion surfaces as
    /// [`JobError::BudgetExhausted`] instead of a hung lane.
    pub budget: Option<u64>,
    /// Times a job may be re-run after a *retryable* fault (see
    /// [`JobError::is_retryable`]); `0` fails fast.
    pub max_retries: u32,
    /// The batch's cancellation flag: raised, it fails not-yet-started
    /// jobs at the job boundary and aborts in-flight engine runs at
    /// their next safe point.
    pub cancel: CancelToken,
}

impl RunPolicy {
    /// The permissive default policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-job instruction budget.
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the bounded-retry count for retryable faults.
    #[must_use]
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Attaches a caller-held cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

/// Context handed to every job: which worker lane runs it, how much host
/// parallelism the job may claim for itself, (in pooled batches) the
/// batch's recycling cluster-memory pool, and (in supervised batches)
/// the batch's [`RunPolicy`].
#[derive(Debug)]
pub struct JobCtx<'a> {
    worker: usize,
    workers: usize,
    idle: &'a AtomicUsize,
    pool: Option<&'a Arc<MemPool>>,
    policy: Option<&'a RunPolicy>,
}

impl JobCtx<'_> {
    /// The worker lane executing this job (`0..workers`).
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The runner's total worker-lane count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Host threads this job may use for *intra-job* parallelism: its own
    /// lane plus every lane currently idle (out of work, or never spawned
    /// because the batch was smaller than the runner). A sharded cycle
    /// job passes this to `CycleSim::run_parallel`; since that engine is
    /// bit-identical at every thread count, the claim affects wall time
    /// only, never results.
    pub fn claimable_threads(&self) -> usize {
        1 + self.idle.load(Ordering::Relaxed).min(self.workers.saturating_sub(1))
    }

    /// The batch's recycling cluster-memory pool — present when the batch
    /// was started with [`BatchRunner::run_pooled_in`] or with a pool
    /// passed to [`BatchRunner::try_run`]. Jobs hand it to
    /// `FastSim::from_pool` / `CycleSim::from_pool` (or to the scenario
    /// runners in [`experiments`](crate::experiments) through a
    /// [`JobSpec`](crate::experiments::JobSpec)) so each worker lane
    /// recycles one arena instead of re-mapping 20 MiB per job.
    pub fn pool(&self) -> Option<&Arc<MemPool>> {
        self.pool
    }

    /// The batch's [`RunPolicy`] — present in supervised batches
    /// ([`BatchRunner::try_run`]). Scenario jobs forward its budget and
    /// cancel token into the engines through
    /// [`JobSpec::in_batch`](crate::experiments::JobSpec::in_batch).
    pub fn policy(&self) -> Option<&RunPolicy> {
        self.policy
    }
}

/// A batch executor over a fixed pool of worker lanes: work-stealing job
/// distribution, submission-order results. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct BatchRunner {
    workers: usize,
}

impl Default for BatchRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchRunner {
    /// A runner with one worker lane per available host core.
    pub fn new() -> Self {
        Self::with_workers(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// A runner with an explicit worker-lane count.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker lane");
        Self { workers }
    }

    /// The worker-lane count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job through `f` and returns the results in submission
    /// order.
    ///
    /// Jobs are dealt round-robin to per-worker queues; workers pop their
    /// own queue front-first and steal from the fullest other queue when
    /// empty. A worker with nothing left to do (or steal) retires into
    /// the idle pool that [`JobCtx::claimable_threads`] reports. The
    /// output is a pure function of `jobs` and `f` — worker count,
    /// stealing order and completion order never show.
    pub fn run<I: Send, T: Send>(&self, jobs: Vec<I>, f: impl Fn(&JobCtx, I) -> T + Sync) -> Vec<T> {
        self.run_with_pool(None, None, jobs, f)
    }

    /// As [`run`](Self::run) over a **caller-owned** recycling
    /// cluster-memory pool, exposed to every job through
    /// [`JobCtx::pool`]. Each worker lane's jobs acquire and return one
    /// arena in turn, so the per-job `ClusterMem` allocation (the
    /// dominant fixed cost of small jobs) is paid at most once per lane,
    /// and arenas recycled by one batch serve the next batch over the
    /// same pool. Recycled arenas are reset to the exact fresh state, so
    /// the results are bit-identical to an unpooled run.
    pub fn run_pooled_in<I: Send, T: Send>(
        &self,
        pool: &Arc<MemPool>,
        jobs: Vec<I>,
        f: impl Fn(&JobCtx, I) -> T + Sync,
    ) -> Vec<T> {
        self.run_with_pool(Some(pool), None, jobs, f)
    }

    /// Supervised batch under `policy`, optionally over a caller-owned
    /// `pool` (as in [`run_pooled_in`](Self::run_pooled_in)): results
    /// come back as `Vec<Result<T, JobError>>` in submission order, and
    /// one faulty job fails *its own index* and nothing else. Jobs
    /// receive their item by reference so a retryable fault can re-run
    /// it. See the [module docs](self) for the full contract.
    ///
    /// # Examples
    ///
    /// A supervised pooled batch over a prepared scenario: pool and
    /// policy arrive through the [`JobCtx`], faults come back as
    /// [`JobError`]s at their own index.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use terasim::experiments::{BatchConfig, JobSpec, SymbolScenario};
    /// use terasim::serve::{BatchRunner, RunPolicy};
    /// use terasim_kernels::Precision;
    /// use terasim_terapool::MemPool;
    ///
    /// let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 4, seed: 3, unroll: 2 };
    /// let scenario = SymbolScenario::prepare(&config)?;
    /// let pool = MemPool::new(Arc::clone(scenario.artifacts()));
    /// let out = BatchRunner::with_workers(2).try_run(
    ///     &RunPolicy::new(),
    ///     Some(&pool),
    ///     (0..4u64).collect(),
    ///     |ctx, &seed| scenario.run(&JobSpec::in_batch(ctx, seed)),
    /// );
    /// assert!(out.iter().all(|r| r.as_ref().is_ok_and(|o| o.verified)));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn try_run<I: Send + Sync, T: Send>(
        &self,
        policy: &RunPolicy,
        pool: Option<&Arc<MemPool>>,
        jobs: Vec<I>,
        f: impl Fn(&JobCtx, &I) -> Result<T, JobError> + Sync,
    ) -> Vec<Result<T, JobError>> {
        self.run_with_pool(pool, Some(policy), jobs, |ctx, item| supervise(ctx, policy, &item, &f))
    }

    fn run_with_pool<I: Send, T: Send>(
        &self,
        pool: Option<&Arc<MemPool>>,
        policy: Option<&RunPolicy>,
        jobs: Vec<I>,
        f: impl Fn(&JobCtx, I) -> T + Sync,
    ) -> Vec<T> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let spawned = self.workers.min(n);
        // Lanes the batch never fills are idle (claimable) from the start.
        let idle = AtomicUsize::new(self.workers - spawned);

        // Deal jobs round-robin so every lane starts with local work.
        let mut queues: Vec<VecDeque<(usize, I)>> = (0..spawned).map(|_| VecDeque::new()).collect();
        for (i, job) in jobs.into_iter().enumerate() {
            queues[i % spawned].push_back((i, job));
        }
        let queues: Vec<Mutex<VecDeque<(usize, I)>>> = queues.into_iter().map(Mutex::new).collect();

        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let worker = |w: usize, tx: mpsc::Sender<(usize, T)>| {
            let ctx = JobCtx { worker: w, workers: self.workers, idle: &idle, pool, policy };
            loop {
                // Own queue first (front: submission order within the lane)...
                // Every queue lock recovers from poisoning: the queues hold
                // plain (index, job) pairs with no invariant a mid-panic
                // closure could have broken, and a supervised lane must
                // keep draining after catching a sibling's panic.
                let mut job = queues[w].lock().unwrap_or_else(|e| e.into_inner()).pop_front();
                while job.is_none() {
                    // ... then steal the *back* of the fullest other queue,
                    // leaving the victim its locally-next work. A steal can
                    // race to an emptied queue (the scan and the pop are
                    // separate locks), so keep re-scanning and retire only
                    // once a full pass observes every queue empty — queues
                    // drain monotonically, so this terminates.
                    let victim = (0..queues.len())
                        .filter(|&v| v != w)
                        .map(|v| (v, queues[v].lock().unwrap_or_else(|e| e.into_inner()).len()))
                        .filter(|&(_, len)| len > 0)
                        .max_by_key(|&(_, len)| len);
                    let Some((v, _)) = victim else { break };
                    job = queues[v].lock().unwrap_or_else(|e| e.into_inner()).pop_back();
                }
                let Some((i, item)) = job else { break };
                let _ = tx.send((i, f(&ctx, item)));
            }
            // Out of work everywhere: this lane is claimable by the
            // still-running jobs' intra-job parallelism.
            idle.fetch_add(1, Ordering::Relaxed);
        };

        std::thread::scope(|s| {
            for w in 1..spawned {
                let tx = tx.clone();
                let worker = &worker;
                s.spawn(move || worker(w, tx));
            }
            worker(0, tx);
        });

        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, v) in rx {
            out[i] = Some(v);
        }
        out.into_iter().map(|v| v.expect("every job produced a result")).collect()
    }
}

/// Runs one supervised job: cancellation check at the job boundary, a
/// `catch_unwind` guard around the closure, and bounded retry for
/// retryable faults.
fn supervise<I, T>(
    ctx: &JobCtx,
    policy: &RunPolicy,
    item: &I,
    f: &(impl Fn(&JobCtx, &I) -> Result<T, JobError> + Sync),
) -> Result<T, JobError> {
    let mut attempt = 0u32;
    loop {
        // Job boundary: never start (or re-start) work on a cancelled
        // batch.
        if policy.cancel.is_cancelled() {
            return Err(JobError::Cancelled);
        }
        // `AssertUnwindSafe` is sound here: on a caught panic nothing of
        // the closure's partial state is reused — the job either reports
        // `Panicked` or re-runs from the original item, and pooled
        // simulators quarantine their arena during the unwind.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx, item)))
            .unwrap_or_else(|payload| Err(JobError::Panicked { payload: panic_message(&*payload) }));
        match result {
            Ok(value) => return Ok(value),
            Err(e) if e.is_retryable() && attempt < policy.max_retries => attempt += 1,
            Err(e) => return Err(e),
        }
    }
}

/// Extracts the human-readable message from a panic payload (`&str` and
/// `String` cover `panic!`, `assert!` and `expect`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_submission_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 17] {
            let runner = BatchRunner::with_workers(workers);
            let out = runner.run((0..100u64).collect(), |_ctx, x| x * x);
            assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>(), "workers = {workers}");
        }
        assert!(BatchRunner::with_workers(4).run(Vec::<u32>::new(), |_c, x| x).is_empty());
    }

    #[test]
    fn uneven_jobs_all_complete_once() {
        // Jobs with wildly different runtimes (the BER-point profile):
        // every job must run exactly once and land at its own index.
        let runner = BatchRunner::with_workers(4);
        let counter = AtomicUsize::new(0);
        let out = runner.run((0..40u64).collect(), |_ctx, x| {
            counter.fetch_add(1, Ordering::Relaxed);
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x + 1
        });
        assert_eq!(counter.load(Ordering::Relaxed), 40);
        assert_eq!(out, (1..=40u64).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_batch_recycles_and_matches_unpooled() {
        use terasim_riscv::{Assembler, Image, Reg, Segment};
        use terasim_terapool::{FastSim, SimArtifacts, Topology};

        let mut a = Assembler::new(Topology::L2_BASE);
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        a.slli(Reg::T1, Reg::T0, 2);
        a.addi(Reg::T0, Reg::T0, 3);
        a.sw(Reg::T0, 0x40, Reg::T1);
        a.ecall();
        let mut image = Image::new(Topology::L2_BASE);
        image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().unwrap()));
        let arts = SimArtifacts::build(Topology::scaled(8), &image).unwrap();

        let job = |sim: &mut FastSim, j: u32| {
            sim.memory().write_u32(0x80, j);
            sim.run_all(1).unwrap();
            (sim.memory().read_u32(0x40), sim.memory().read_u32(0x80))
        };
        let runner = BatchRunner::with_workers(2);
        let unpooled = runner.run((0..6u32).collect(), |_ctx, j| {
            job(&mut FastSim::from_artifacts(std::sync::Arc::clone(&arts)), j)
        });
        let pool = MemPool::new(std::sync::Arc::clone(&arts));
        let pooled = runner.run_pooled_in(&pool, (0..6u32).collect(), |ctx, j| {
            let pool = ctx.pool().expect("pooled batch exposes its pool");
            job(&mut FastSim::from_pool(pool), j)
        });
        assert_eq!(pooled, unpooled, "pooled batch must be bit-identical");
        // Unpooled batches expose no pool.
        let flags = runner.run(vec![0u32], |ctx, _| ctx.pool().is_some());
        assert!(!flags[0]);
    }

    #[test]
    fn panicked_jobs_fail_alone_at_any_worker_count() {
        for workers in [1, 2, 4, 7] {
            let runner = BatchRunner::with_workers(workers);
            let out = runner.try_run(&RunPolicy::new(), None, (0..20u64).collect(), |_ctx, &x| {
                if x % 5 == 3 {
                    panic!("injected panic at {x}");
                }
                Ok(x * 2)
            });
            for (i, r) in out.iter().enumerate() {
                if i % 5 == 3 {
                    let Err(JobError::Panicked { payload }) = r else {
                        panic!("expected Panicked at {i}, got {r:?}")
                    };
                    assert_eq!(payload, &format!("injected panic at {i}"));
                } else {
                    assert_eq!(*r, Ok(i as u64 * 2), "workers = {workers}");
                }
            }
        }
    }

    #[test]
    fn retryable_faults_are_retried_up_to_the_bound() {
        use std::sync::atomic::AtomicU32;
        // A job that panics twice, then succeeds: passes with 2 retries.
        let attempts = AtomicU32::new(0);
        let policy = RunPolicy::new().with_retries(2);
        let out = BatchRunner::with_workers(1).try_run(&policy, None, vec![7u32], |_ctx, &x| {
            if attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("flaky");
            }
            Ok(x)
        });
        assert_eq!(out, vec![Ok(7)]);
        assert_eq!(attempts.load(Ordering::Relaxed), 3);

        // An always-panicking job exhausts the bound: 1 + max_retries runs.
        let attempts = AtomicU32::new(0);
        let out = BatchRunner::with_workers(1).try_run(
            &policy,
            None,
            vec![0u32],
            |_ctx, _| -> Result<u32, JobError> {
                attempts.fetch_add(1, Ordering::Relaxed);
                panic!("always");
            },
        );
        assert!(matches!(&out[0], Err(JobError::Panicked { payload }) if payload == "always"));
        assert_eq!(attempts.load(Ordering::Relaxed), 3);

        // Guest faults are not retryable: exactly one attempt.
        let attempts = AtomicU32::new(0);
        let out = BatchRunner::with_workers(1).try_run(&policy, None, vec![0u32], |_ctx, _| {
            attempts.fetch_add(1, Ordering::Relaxed);
            Err::<u32, _>(JobError::Deadlocked { parked: vec![0] })
        });
        assert_eq!(out[0], Err(JobError::Deadlocked { parked: vec![0] }));
        assert_eq!(attempts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cancelled_batch_fails_unstarted_jobs_at_the_boundary() {
        let policy = RunPolicy::new();
        policy.cancel.cancel();
        let ran = AtomicUsize::new(0);
        let out = BatchRunner::with_workers(2).try_run(&policy, None, (0..5u32).collect(), |_c, &x| {
            ran.fetch_add(1, Ordering::Relaxed);
            Ok(x)
        });
        assert!(out.iter().all(|r| *r == Err(JobError::Cancelled)), "{out:?}");
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no job may start on a cancelled batch");
    }

    #[test]
    fn claimable_threads_within_bounds() {
        // Claimable parallelism is always >= 1 and <= the lane count; a
        // batch smaller than the runner starts with the unfilled lanes
        // already claimable.
        let runner = BatchRunner::with_workers(4);
        let claims = runner.run(vec![0u32], |ctx, _| ctx.claimable_threads());
        assert_eq!(claims[0], 4, "3 never-spawned lanes + own lane");
        let runner = BatchRunner::with_workers(2);
        let claims = runner.run((0..8u32).collect(), |ctx, _| ctx.claimable_threads());
        assert!(claims.iter().all(|&c| (1..=2).contains(&c)), "{claims:?}");
    }
}
