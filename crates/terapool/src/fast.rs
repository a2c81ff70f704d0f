//! The Banshee-style fast mode: parallel per-hart emulation with
//! cooperative barrier parking.
//!
//! Each hart runs to completion (or to a `wfi` barrier park) with the
//! static-latency scoreboard of [`terasim-iss`]. Harts are distributed over
//! host threads; because barrier arrival *parks* instead of spinning, any
//! host thread count is deadlock-free. Barrier idle time is accounted as
//! the paper's `stall-wfi`: when a barrier releases, every parked hart's
//! local clock advances to the release time.

use std::sync::Arc;

use terasim_iss::uop::UopProgram;
use terasim_iss::{
    resume_lowered, resume_spmd, BlockProgram, Cpu, Lane, Program, RunConfig, RunStats, Scoreboard,
    StopReason, Trap,
};
use terasim_riscv::Image;

use crate::artifacts::SimArtifacts;
use crate::cancel::CancelToken;
use crate::mem::{ClusterMem, CoreMem};
use crate::pool::MemPool;
use crate::topology::Topology;

/// Aggregate result of a fast-mode cluster run.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Per-hart statistics, indexed by position in the simulated core
    /// range. `stats.wfi_stalls` carries barrier idle time.
    pub per_core: Vec<RunStats>,
    /// Cluster makespan estimate: the slowest hart's cycle count.
    pub cycles: u64,
    /// The run ended with harts parked in `wfi` and no wake pending —
    /// a guest deadlock. Statistics are the partial state at the hang
    /// (an RTL run would spin here forever).
    pub deadlocked: bool,
    /// Harts still parked when the run ended (deadlock diagnostics).
    pub parked: Vec<u32>,
    /// The run was abandoned at a scheduling-round boundary because its
    /// [`CancelToken`] was raised; statistics are partial.
    pub cancelled: bool,
}

impl ClusterResult {
    /// Total retired instructions across the cluster.
    pub fn total_instructions(&self) -> u64 {
        self.per_core.iter().map(|s| s.retired).sum()
    }

    /// Whether any hart stopped because it hit the configured
    /// [`RunConfig::max_instructions`](terasim_iss::RunConfig) budget
    /// rather than exiting cleanly.
    pub fn budget_exhausted(&self) -> bool {
        self.per_core.iter().any(|s| s.stop == StopReason::Budget)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HartState {
    Runnable,
    Parked,
    Done,
}

struct Hart {
    cpu: Cpu,
    mem: CoreMem,
    sb: Scoreboard,
    stats: RunStats,
    state: HartState,
}

fn state_of(stop: StopReason) -> HartState {
    match stop {
        StopReason::Exit { .. } | StopReason::Budget => HartState::Done,
        StopReason::Wfi => HartState::Parked,
    }
}

/// The code a scheduling round runs its harts over.
enum Code {
    /// The per-instruction reference loop (the
    /// `run_cores_per_instruction` test hook).
    Lowered(Arc<UopProgram<CoreMem>>),
    /// The block engine with SPMD groups: up to
    /// [`MAX_GROUP`](terasim_iss::MAX_GROUP) harts of a chunk on the same
    /// PC with equal scoreboards share each block's dispatch and timing.
    Blocks(Arc<BlockProgram<CoreMem>>),
}

/// Runs one chunk of runnable harts to their next stop.
fn run_chunk(batch: &mut [&mut Hart], code: &Code, config: &RunConfig) -> Result<(), Trap> {
    match code {
        Code::Lowered(table) => {
            for hart in batch.iter_mut() {
                let stop = resume_lowered(
                    &mut hart.cpu,
                    table,
                    &mut hart.mem,
                    config,
                    &mut hart.sb,
                    &mut hart.stats,
                )?;
                hart.state = state_of(stop);
            }
        }
        Code::Blocks(blocks) => {
            let mut lanes: Vec<Lane<'_, CoreMem>> = batch
                .iter_mut()
                .map(|h| Lane { cpu: &mut h.cpu, mem: &mut h.mem, sb: &mut h.sb, stats: &mut h.stats })
                .collect();
            let stops = resume_spmd(&mut lanes, blocks, config)?;
            drop(lanes);
            for (hart, stop) in batch.iter_mut().zip(stops) {
                hart.state = state_of(stop);
            }
        }
    }
    Ok(())
}

/// The fast (Banshee-equivalent) cluster simulator.
///
/// A `FastSim` is *per-job mutable state* — a private [`ClusterMem`] and a
/// run configuration — over a shared immutable [`SimArtifacts`] set
/// (decoded program, lowered micro-op table, initial image). Build the
/// artifacts once per scenario and instantiate one `FastSim` per job with
/// [`FastSim::from_artifacts`]; the convenience constructor
/// [`FastSim::new`] builds a single-use artifact set internally.
///
/// # Examples
///
/// See the [crate-level example](crate) and [`SimArtifacts`].
pub struct FastSim {
    arts: Arc<SimArtifacts>,
    /// Privately re-lowered table when [`set_config`](Self::set_config)
    /// departs from the artifacts' latency model.
    local_table: Option<Arc<UopProgram<CoreMem>>>,
    /// Job-private block table, mirroring `local_table`.
    local_blocks: Option<Arc<BlockProgram<CoreMem>>>,
    /// Always `Some` until drop, where a pooled job's arena is *taken*
    /// and handed back to the pool by value — ownership transfers, so the
    /// parked handle is immediately recyclable (never aliased by this
    /// simulator's own dying field).
    mem: Option<ClusterMem>,
    config: RunConfig,
    /// The pool this job's memory returns to on drop (pooled jobs only —
    /// see [`FastSim::from_pool`]).
    pool: Option<Arc<MemPool>>,
    /// Cooperative cancellation flag, polled between scheduling rounds.
    cancel: Option<CancelToken>,
    /// Set when a run was cancelled mid-flight: the arena holds partial
    /// writes from an abandoned job, so drop quarantines instead of
    /// releasing.
    tainted: bool,
}

impl std::fmt::Debug for FastSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastSim")
            .field("cores", &self.arts.topology().num_cores())
            .field("text_insts", &self.arts.program().len())
            .finish()
    }
}

impl FastSim {
    /// Builds a simulator: translates the image and loads all segments
    /// (a single-use artifact set; batch drivers build one
    /// [`SimArtifacts`] and use [`FastSim::from_artifacts`] per job).
    ///
    /// # Errors
    ///
    /// Returns the translation error if the image's text cannot be decoded.
    pub fn new(topo: Topology, image: &Image) -> Result<Self, terasim_iss::TranslateError> {
        Ok(Self::from_artifacts(SimArtifacts::build(topo, image)?))
    }

    /// Instantiates one job over a shared artifact set: fresh per-job
    /// memory (image loaded), run configuration taken from
    /// [`SimArtifacts::fast_config`], micro-op table shared.
    pub fn from_artifacts(arts: Arc<SimArtifacts>) -> Self {
        let mem = arts.fresh_memory();
        Self::with_memory(arts, mem)
    }

    /// Instantiates one job drawing its cluster memory from a recycling
    /// [`MemPool`] (over the pool's own artifact set). The memory arrives
    /// in the exact fresh state and **returns to the pool when the
    /// simulator drops**, so a batch lane pays the 20 MiB arena's
    /// allocation at most once.
    pub fn from_pool(pool: &Arc<MemPool>) -> Self {
        let mem = pool.acquire();
        let mut sim = Self::with_memory(Arc::clone(pool.artifacts()), mem);
        sim.pool = Some(Arc::clone(pool));
        sim
    }

    fn with_memory(arts: Arc<SimArtifacts>, mem: ClusterMem) -> Self {
        // Lower the shared fast table and cut its blocks now, on the first
        // job of the artifact set, so no run's wall time includes them.
        arts.fast_blocks();
        let config = arts.fast_config().clone();
        Self {
            arts,
            local_table: None,
            local_blocks: None,
            mem: Some(mem),
            config,
            pool: None,
            cancel: None,
            tainted: false,
        }
    }

    /// The job's cluster memory (present from construction to drop).
    fn mem(&self) -> &ClusterMem {
        self.mem.as_ref().expect("cluster memory present until drop")
    }

    /// Replaces the run configuration (latency model, budgets). If the new
    /// latency model differs from the artifacts' table, a private table is
    /// re-lowered here, outside any run; otherwise the shared table keeps
    /// being used.
    pub fn set_config(&mut self, config: RunConfig) {
        self.local_table = None;
        self.local_blocks = None;
        self.config = config;
        self.blocks();
    }

    /// Attaches a cooperative [`CancelToken`], polled between scheduling
    /// rounds: when raised, the run returns its partial result with
    /// [`ClusterResult::cancelled`] set and the job's memory is
    /// quarantined rather than recycled on drop.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = Some(cancel);
    }

    /// The shared artifact set this job runs over.
    pub fn artifacts(&self) -> &Arc<SimArtifacts> {
        &self.arts
    }

    /// The job-private cluster memory (for operand setup and result
    /// readback).
    pub fn memory(&self) -> &ClusterMem {
        self.mem()
    }

    /// The cluster geometry.
    pub fn topology(&self) -> Topology {
        self.arts.topology()
    }

    /// The translated program.
    pub fn program(&self) -> &Program {
        self.arts.program()
    }

    /// The micro-op table for the current configuration: the artifacts'
    /// shared table when the latency models agree, a job-private lowering
    /// otherwise (cached across runs).
    fn table(&mut self) -> Arc<UopProgram<CoreMem>> {
        if let Some(table) = &self.local_table {
            return Arc::clone(table);
        }
        // The artifacts' configuration is the model the shared table is
        // lowered under, by construction.
        if self.arts.fast_config().latency == self.config.latency {
            let shared = self.arts.fast_table();
            debug_assert_eq!(*shared.latency_model(), self.config.latency);
            return Arc::clone(shared);
        }
        let table = Arc::new(UopProgram::lower(self.arts.program(), &self.config.latency));
        self.local_table = Some(Arc::clone(&table));
        table
    }

    /// The basic-block table for the current configuration, mirroring
    /// [`table`](Self::table): the artifacts' shared block table when the
    /// latency models agree, a job-private build otherwise.
    fn blocks(&mut self) -> Arc<BlockProgram<CoreMem>> {
        if let Some(blocks) = &self.local_blocks {
            return Arc::clone(blocks);
        }
        if self.arts.fast_config().latency == self.config.latency {
            return Arc::clone(self.arts.fast_blocks());
        }
        let table = self.table();
        let blocks = Arc::new(BlockProgram::build(self.arts.program(), &table));
        self.local_blocks = Some(Arc::clone(&blocks));
        blocks
    }

    /// Runs every hart to completion using `host_threads` worker threads.
    ///
    /// Harts that execute `wfi` park until another hart stores to the
    /// wake-all control register (the TeraPool barrier protocol); parked
    /// harts consume pending wakes and continue. The run ends when all
    /// harts exit via `ecall` (or no progress is possible).
    ///
    /// # Errors
    ///
    /// Returns the first [`Trap`] raised by any hart.
    pub fn run_all(&mut self, host_threads: usize) -> Result<ClusterResult, Trap> {
        self.run_cores(0..self.arts.topology().num_cores(), host_threads)
    }

    /// Runs a contiguous subset of harts (single-core and batching
    /// experiments).
    ///
    /// # Errors
    ///
    /// Returns the first [`Trap`] raised by any hart.
    ///
    /// # Panics
    ///
    /// Panics if `host_threads == 0` or the range exceeds the core count.
    pub fn run_cores(
        &mut self,
        cores: std::ops::Range<u32>,
        host_threads: usize,
    ) -> Result<ClusterResult, Trap> {
        self.run_cores_on(cores, host_threads, false)
    }

    /// Test hook: [`run_cores`](Self::run_cores) on the per-instruction
    /// reference loop ([`resume_lowered`], one hart after another) instead
    /// of the block loop with SPMD groups. The two are
    /// bit-identical; the differential suites pin it through this hook.
    ///
    /// # Errors
    ///
    /// Returns the first [`Trap`] raised by any hart.
    #[doc(hidden)]
    pub fn run_cores_per_instruction(
        &mut self,
        cores: std::ops::Range<u32>,
        host_threads: usize,
    ) -> Result<ClusterResult, Trap> {
        self.run_cores_on(cores, host_threads, true)
    }

    fn run_cores_on(
        &mut self,
        cores: std::ops::Range<u32>,
        host_threads: usize,
        per_instruction: bool,
    ) -> Result<ClusterResult, Trap> {
        assert!(host_threads > 0, "need at least one host thread");
        assert!(cores.end <= self.arts.topology().num_cores(), "core range out of bounds");

        let entry = self.arts.program().entry();
        let mut harts: Vec<Hart> = cores
            .map(|core| {
                let mut cpu = Cpu::new(core);
                cpu.set_pc(entry);
                Hart {
                    cpu,
                    mem: self.mem().core_view(core),
                    sb: Scoreboard::new(),
                    stats: RunStats::default(),
                    state: HartState::Runnable,
                }
            })
            .collect();

        // Round-based cooperative scheduling: run every runnable hart until
        // it exits or parks, then release barriers. Because parked harts
        // yield their host thread, any thread count is deadlock-free.
        let mut deadlocked = false;
        let mut cancelled = false;
        loop {
            // Safe point: abandon the job between rounds if its token was
            // raised. Checked only here — never inside the hart resume
            // loop — so an uncancelled run pays nothing per instruction.
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                self.tainted = true;
                cancelled = true;
                break;
            }
            {
                let mut runnable: Vec<&mut Hart> =
                    harts.iter_mut().filter(|h| h.state == HartState::Runnable).collect();
                if runnable.is_empty() {
                    break;
                }
                let code =
                    if per_instruction { Code::Lowered(self.table()) } else { Code::Blocks(self.blocks()) };
                let config = &self.config;
                let chunk = runnable.len().div_ceil(host_threads).max(1);
                if runnable.len() <= chunk {
                    // One chunk: run it here rather than on a spawned worker.
                    run_chunk(&mut runnable, &code, config)?;
                } else {
                    let code = &code;
                    // The first trap in chunk order, as a serial run reports.
                    std::thread::scope(|s| {
                        let handles: Vec<_> = runnable
                            .chunks_mut(chunk)
                            .map(|batch| s.spawn(move || run_chunk(batch, code, config)))
                            .collect();
                        handles.into_iter().try_for_each(|h| h.join().expect("simulation thread panicked"))
                    })?;
                }
            }

            // Barrier release: wake parked harts that have a pending wake.
            // The release time is the latest hart clock (the releaser was
            // the last arrival); idle time becomes stall-wfi.
            let release_time = harts.iter().map(|h| h.sb.cycles()).max().unwrap_or(0);
            let mut woke_any = false;
            for hart in harts.iter_mut() {
                if hart.state == HartState::Parked && self.mem().take_wake(hart.cpu.hart_id()) {
                    let idle = hart.sb.advance_to(release_time);
                    hart.stats.wfi_stalls += idle;
                    hart.stats.est_cycles = hart.sb.cycles();
                    hart.state = HartState::Runnable;
                    woke_any = true;
                }
            }
            if !woke_any && harts.iter().any(|h| h.state == HartState::Parked) {
                // Guest deadlock: no runnable harts and nobody issued a
                // wake. Report partial results (an RTL run would hang here).
                deadlocked = true;
                break;
            }
        }

        let per_core: Vec<RunStats> = harts.iter().map(|h| h.stats.clone()).collect();
        let cycles = per_core.iter().map(|s| s.est_cycles).max().unwrap_or(0);
        let parked: Vec<u32> =
            harts.iter().filter(|h| h.state == HartState::Parked).map(|h| h.cpu.hart_id()).collect();
        Ok(ClusterResult { per_core, cycles, deadlocked, parked, cancelled })
    }
}

impl Drop for FastSim {
    /// Pooled jobs return their (possibly dirty — deadlocks included)
    /// cluster memory for recycling; the pool resets it on reuse. The
    /// arena is moved out by value, so the parked handle is unique the
    /// moment it lands in the pool — a concurrent acquire on another
    /// lane can recycle it immediately.
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            if let Some(mem) = self.mem.take() {
                // A cancelled run, or a drop during a panic unwind (the
                // job closure died with the simulator live), quarantines
                // the arena: its contents were abandoned mid-write and
                // are not trusted even for a dirty-page reset.
                if self.tainted || std::thread::panicking() {
                    pool.quarantine(mem);
                } else {
                    let _ = pool.release(mem);
                }
            }
        }
    }
}
