//! The paper's experiment harness: one entry point per evaluation axis.
//!
//! Each function sets up operands through the PHY, generates the kernel,
//! runs a simulator backend, *verifies* the architectural results against
//! the native bit-true model, and reports timing/statistics. The figure
//! binaries in `terasim-bench` are thin wrappers over these.

use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};

use terasim_iss::RunConfig;
use terasim_kernels::{data, native, MmseKernel, Precision, ProblemLayout, C64};
use terasim_phy::{BerPoint, ChannelKind, Mimo, Modulation, TxGenerator};
use terasim_terapool::{ClusterMem, CycleSim, CycleStats, FastSim, MemPool, SimArtifacts, Topology};

use crate::detectors::DetectorKind;
use crate::serve::{BatchRunner, JobCtx, JobError};

/// Configuration of the parallel-MMSE experiment (Figures 5, 7, 8): one
/// subcarrier problem per core, all cores at once.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Simulated cores (1024 in the paper; scaled configs keep the
    /// hierarchy shape).
    pub cores: u32,
    /// MIMO size.
    pub n: u32,
    /// Kernel precision.
    pub precision: Precision,
    /// Seed for operand generation.
    pub seed: u64,
    /// Dot-product unroll factor.
    pub unroll: u32,
}

/// Result of a fast-mode (Banshee-equivalent) parallel run.
#[derive(Debug, Clone)]
pub struct FastOutcome {
    /// Host wall-clock time of the emulation.
    pub wall: Duration,
    /// Estimated cluster cycles (slowest hart).
    pub cluster_cycles: u64,
    /// Total retired instructions.
    pub instructions: u64,
    /// Total RAW stall estimate.
    pub raw_stalls: u64,
    /// Total barrier idle estimate.
    pub wfi_stalls: u64,
    /// Simulation speed in MIPS (instructions / wall second).
    pub mips: f64,
    /// All results matched the bit-true native model.
    pub verified: bool,
}

/// Result of a cycle-accurate (RTL-equivalent) parallel run.
#[derive(Debug, Clone)]
pub struct CycleOutcome {
    /// Host wall-clock time of the simulation.
    pub wall: Duration,
    /// Cluster makespan in cycles.
    pub cycles: u64,
    /// Aggregated per-class breakdown (instructions and stalls).
    pub breakdown: CycleStats,
    /// Per-group breakdown (the sharded engine's arbitration domains).
    pub per_group: Vec<CycleStats>,
    /// Total retired instructions.
    pub instructions: u64,
    /// All results matched the bit-true native model.
    pub verified: bool,
}

/// Picks a topology that fits the experiment: the TeraPool hierarchy at
/// `cores`, with banks deepened (larger tile SPM) when the operand set of
/// big MIMO sizes exceeds the 32 KiB/tile of the taped-out design. The
/// substitution changes capacity only: bank count, interleaving and
/// latencies stay the paper's, so timing is unaffected.
pub fn topology_for(
    cores: u32,
    active: u32,
    n: u32,
    precision: Precision,
    problems_per_core: u32,
) -> Topology {
    let mut topo = Topology::scaled(cores);
    let kernel = kernel_for(n, precision, problems_per_core, active, 2);
    while kernel.layout(&topo).is_err() && topo.tile_spm_bytes < (1 << 19) {
        topo.tile_spm_bytes *= 2;
    }
    assert!(topo.tile_spm_bytes <= Topology::SEQ_STRIDE, "tile SPM outgrew the sequential-view stride");
    topo
}

fn kernel_for(n: u32, precision: Precision, ppc: u32, active: u32, unroll: u32) -> MmseKernel {
    MmseKernel::new(n, precision).with_problems_per_core(ppc).with_active_cores(active).with_unroll(unroll)
}

/// Generated operands for verification.
struct ProblemSet {
    problems: Vec<(Vec<C64>, Vec<C64>, f64)>,
}

fn generate_problems(mem: &ClusterMem, layout: &ProblemLayout, seed: u64) -> ProblemSet {
    let scenario = Mimo {
        n_tx: layout.n as usize,
        n_rx: layout.n as usize,
        modulation: Modulation::Qam16,
        channel: ChannelKind::Rayleigh,
    };
    let mut generator = TxGenerator::new(scenario, 12.0, seed);
    let mut problems = Vec::with_capacity(layout.problems as usize);
    for p in 0..layout.problems {
        let t = generator.next_transmission();
        let h: Vec<C64> = t.h.iter().map(|z| (*z).into()).collect();
        let y: Vec<C64> = t.y.iter().map(|z| (*z).into()).collect();
        data::write_problem(mem, layout, p, &h, &y, t.sigma);
        problems.push((h, y, t.sigma));
    }
    ProblemSet { problems }
}

fn verify(mem: &ClusterMem, layout: &ProblemLayout, set: &ProblemSet) -> bool {
    set.problems.iter().enumerate().all(|(p, (h, y, sigma))| {
        let got = data::read_xhat(mem, layout, p as u32);
        let want = native::detect(layout.precision, layout.n as usize, h, y, *sigma);
        got.iter()
            .zip(&want)
            .all(|(a, b)| a[0].to_bits() == b[0].to_bits() && a[1].to_bits() == b[1].to_bits())
    })
}

/// A prepared parallel-MMSE scenario: the immutable artifact set —
/// topology, generated kernel image, decoded program and lowered micro-op
/// tables — built **once** and shared (via [`SimArtifacts`]) by every job
/// run from it, on either backend, at any seed.
///
/// [`parallel_fast`] / [`parallel_cycle`] are one-shot wrappers; batch
/// drivers ([`crate::serve::BatchRunner`] clients, the figure binaries)
/// prepare a scenario and fan jobs out over it.
#[derive(Debug)]
pub struct ParallelScenario {
    config: ParallelConfig,
    layout: ProblemLayout,
    arts: Arc<SimArtifacts>,
}

impl ParallelScenario {
    /// Builds the scenario's shared artifacts: picks the topology,
    /// generates and assembles the kernel, translates it, and configures
    /// the fast mode with the paper's rule (every access charged the
    /// topology's largest non-contended latency, 9 cycles on full
    /// TeraPool).
    ///
    /// # Errors
    ///
    /// Propagates kernel build and translation errors.
    pub fn prepare(config: &ParallelConfig) -> Result<Self, Box<dyn Error>> {
        let topo = topology_for(config.cores, config.cores, config.n, config.precision, 1);
        let kernel = kernel_for(config.n, config.precision, 1, config.cores, config.unroll);
        let layout = kernel.layout(&topo)?;
        let image = kernel.build(&topo)?;
        let mut rc = RunConfig::default();
        rc.latency.load = topo.max_access_latency();
        let arts = SimArtifacts::build_with(topo, &image, rc)?;
        Ok(Self { config: *config, layout, arts })
    }

    /// The scenario's shared artifact set.
    pub fn artifacts(&self) -> &Arc<SimArtifacts> {
        &self.arts
    }

    /// The configuration the scenario was prepared from.
    pub fn config(&self) -> &ParallelConfig {
        &self.config
    }

    /// One fast-mode job at the scenario's own seed.
    ///
    /// # Errors
    ///
    /// Propagates guest traps.
    pub fn run_fast(&self, host_threads: usize) -> Result<FastOutcome, Box<dyn Error>> {
        self.run_fast_seeded(host_threads, self.config.seed)
    }

    /// One fast-mode job with an explicit operand seed (batch drivers
    /// derive per-job seeds; artifacts are shared regardless).
    ///
    /// # Errors
    ///
    /// Propagates guest traps.
    pub fn run_fast_seeded(&self, host_threads: usize, seed: u64) -> Result<FastOutcome, Box<dyn Error>> {
        self.fast_job(host_threads, seed, None)
    }

    /// One fast-mode job with an explicit ISS timing configuration (the
    /// latency-model ablation, `ablation_latency`). A configuration whose
    /// latency model matches the scenario's still uses the shared table;
    /// otherwise the job re-lowers privately.
    ///
    /// # Errors
    ///
    /// Propagates guest traps.
    pub fn run_fast_configured(
        &self,
        host_threads: usize,
        run_config: RunConfig,
    ) -> Result<FastOutcome, Box<dyn Error>> {
        self.fast_job(host_threads, self.config.seed, Some(run_config))
    }

    /// One fast-mode job drawing its cluster memory from a recycling
    /// pool (built over this scenario's artifacts — see
    /// [`SimArtifacts`]-tied [`MemPool`]); results are bit-identical to
    /// [`run_fast_seeded`](Self::run_fast_seeded).
    ///
    /// # Errors
    ///
    /// Propagates guest traps.
    ///
    /// # Panics
    ///
    /// Panics if `pool` was built over a different artifact set.
    pub fn run_fast_pooled(
        &self,
        pool: &Arc<MemPool>,
        host_threads: usize,
        seed: u64,
    ) -> Result<FastOutcome, Box<dyn Error>> {
        assert!(Arc::ptr_eq(pool.artifacts(), &self.arts), "pool built over a different scenario");
        self.fast_outcome(FastSim::from_pool(pool), host_threads, seed)
    }

    /// One fast-mode job run under a batch supervisor (the
    /// [`BatchRunner::try_run`] family): draws cluster memory from the
    /// batch's pool when one is attached over this scenario's artifacts,
    /// applies the batch [`RunPolicy`](crate::serve::RunPolicy)'s per-job
    /// instruction budget and cooperative cancel token, and surfaces
    /// engine-level faults — traps, deadlocks, exhausted budgets,
    /// cancellation — as structured [`JobError`]s instead of boxed
    /// strings. Healthy jobs are bit-identical to
    /// [`run_fast_seeded`](Self::run_fast_seeded).
    ///
    /// # Errors
    ///
    /// Returns the [`JobError`] classifying the fault, if any.
    pub fn try_run_fast(
        &self,
        ctx: &JobCtx,
        host_threads: usize,
        seed: u64,
    ) -> Result<FastOutcome, JobError> {
        self.try_run_fast_with(ctx, host_threads, seed, ctx.budget())
    }

    /// As [`try_run_fast`](Self::try_run_fast) with an explicit per-job
    /// instruction budget overriding the batch policy's (fault-injection
    /// drivers shrink the budget of chosen jobs only).
    ///
    /// # Errors
    ///
    /// Returns the [`JobError`] classifying the fault, if any.
    pub fn try_run_fast_with(
        &self,
        ctx: &JobCtx,
        host_threads: usize,
        seed: u64,
        budget: Option<u64>,
    ) -> Result<FastOutcome, JobError> {
        let mut sim = match ctx.pool() {
            Some(pool) if Arc::ptr_eq(pool.artifacts(), &self.arts) => FastSim::from_pool(pool),
            _ => FastSim::from_artifacts(Arc::clone(&self.arts)),
        };
        if let Some(b) = budget {
            // Same latency model, so the shared lowered table is kept.
            let mut rc = self.arts.fast_config().clone();
            rc.max_instructions = b;
            sim.set_config(rc);
        }
        if let Some(cancel) = ctx.cancel() {
            sim.set_cancel(cancel.clone());
        }

        let set = generate_problems(sim.memory(), &self.layout, seed);
        let start = Instant::now();
        let result = sim.run_all(host_threads).map_err(JobError::Trap)?;
        let wall = start.elapsed();
        JobError::check_fast(&result, budget)?;

        let instructions = result.total_instructions();
        Ok(FastOutcome {
            wall,
            cluster_cycles: result.cycles,
            instructions,
            raw_stalls: result.per_core.iter().map(|s| s.raw_stalls).sum(),
            wfi_stalls: result.per_core.iter().map(|s| s.wfi_stalls).sum(),
            mips: instructions as f64 / wall.as_secs_f64().max(1e-9) / 1e6,
            verified: verify(sim.memory(), &self.layout, &set),
        })
    }

    fn fast_job(
        &self,
        host_threads: usize,
        seed: u64,
        run_config: Option<RunConfig>,
    ) -> Result<FastOutcome, Box<dyn Error>> {
        let mut sim = FastSim::from_artifacts(Arc::clone(&self.arts));
        if let Some(rc) = run_config {
            sim.set_config(rc);
        }
        self.fast_outcome(sim, host_threads, seed)
    }

    fn fast_outcome(
        &self,
        mut sim: FastSim,
        host_threads: usize,
        seed: u64,
    ) -> Result<FastOutcome, Box<dyn Error>> {
        let set = generate_problems(sim.memory(), &self.layout, seed);

        let start = Instant::now();
        let result = sim.run_all(host_threads)?;
        let wall = start.elapsed();

        let instructions = result.total_instructions();
        Ok(FastOutcome {
            wall,
            cluster_cycles: result.cycles,
            instructions,
            raw_stalls: result.per_core.iter().map(|s| s.raw_stalls).sum(),
            wfi_stalls: result.per_core.iter().map(|s| s.wfi_stalls).sum(),
            mips: instructions as f64 / wall.as_secs_f64().max(1e-9) / 1e6,
            verified: verify(sim.memory(), &self.layout, &set),
        })
    }

    /// One cycle-accurate job at the scenario's own seed.
    ///
    /// # Errors
    ///
    /// Propagates guest traps.
    pub fn run_cycle(&self, engine: CycleEngine) -> Result<CycleOutcome, Box<dyn Error>> {
        self.run_cycle_seeded(engine, self.config.seed)
    }

    /// One cycle-accurate job with an explicit operand seed. In a batch,
    /// pass `CycleEngine::Parallel(ctx.claimable_threads())` so a sharded
    /// job widens into worker lanes the batch has stopped using — results
    /// are bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// Propagates guest traps.
    pub fn run_cycle_seeded(&self, engine: CycleEngine, seed: u64) -> Result<CycleOutcome, Box<dyn Error>> {
        self.cycle_outcome(CycleSim::from_artifacts(Arc::clone(&self.arts)), engine, seed)
    }

    /// One cycle-accurate job drawing its cluster memory from a recycling
    /// pool; results are bit-identical to
    /// [`run_cycle_seeded`](Self::run_cycle_seeded).
    ///
    /// # Errors
    ///
    /// Propagates guest traps.
    ///
    /// # Panics
    ///
    /// Panics if `pool` was built over a different artifact set.
    pub fn run_cycle_pooled(
        &self,
        pool: &Arc<MemPool>,
        engine: CycleEngine,
        seed: u64,
    ) -> Result<CycleOutcome, Box<dyn Error>> {
        assert!(Arc::ptr_eq(pool.artifacts(), &self.arts), "pool built over a different scenario");
        self.cycle_outcome(CycleSim::from_pool(pool), engine, seed)
    }

    /// One cycle-accurate job run under a batch supervisor: the
    /// cycle-mode counterpart of [`try_run_fast`](Self::try_run_fast).
    /// The policy's per-job instruction budget feeds the engine's
    /// per-core safety net (`CycleSim::max_instructions`) and the cancel
    /// token is polled at event steps, scan passes and epoch boundaries.
    /// Healthy jobs are bit-identical to
    /// [`run_cycle_seeded`](Self::run_cycle_seeded) on every engine.
    ///
    /// # Errors
    ///
    /// Returns the [`JobError`] classifying the fault, if any.
    pub fn try_run_cycle(
        &self,
        ctx: &JobCtx,
        engine: CycleEngine,
        seed: u64,
    ) -> Result<CycleOutcome, JobError> {
        self.try_run_cycle_with(ctx, engine, seed, ctx.budget())
    }

    /// As [`try_run_cycle`](Self::try_run_cycle) with an explicit per-job
    /// instruction budget overriding the batch policy's.
    ///
    /// # Errors
    ///
    /// Returns the [`JobError`] classifying the fault, if any.
    pub fn try_run_cycle_with(
        &self,
        ctx: &JobCtx,
        engine: CycleEngine,
        seed: u64,
        budget: Option<u64>,
    ) -> Result<CycleOutcome, JobError> {
        let mut sim = match ctx.pool() {
            Some(pool) if Arc::ptr_eq(pool.artifacts(), &self.arts) => CycleSim::from_pool(pool),
            _ => CycleSim::from_artifacts(Arc::clone(&self.arts)),
        };
        if let Some(b) = budget {
            sim.max_instructions = b;
        }
        if let Some(cancel) = ctx.cancel() {
            sim.set_cancel(cancel.clone());
        }

        let topo = self.arts.topology();
        let set = generate_problems(sim.memory(), &self.layout, seed);
        let start = Instant::now();
        let result = match engine {
            CycleEngine::EventDriven => sim.run(topo.num_cores()),
            CycleEngine::NaiveScan => sim.run_naive(topo.num_cores()),
            CycleEngine::Parallel(threads) => sim.run_parallel(topo.num_cores(), threads),
        }
        .map_err(JobError::Trap)?;
        let wall = start.elapsed();
        JobError::check_cycle(&result, budget)?;

        let breakdown = result.aggregate();
        Ok(CycleOutcome {
            wall,
            cycles: result.cycles,
            breakdown,
            per_group: result.aggregate_groups(&topo),
            instructions: breakdown.instructions,
            verified: verify(sim.memory(), &self.layout, &set),
        })
    }

    fn cycle_outcome(
        &self,
        mut sim: CycleSim,
        engine: CycleEngine,
        seed: u64,
    ) -> Result<CycleOutcome, Box<dyn Error>> {
        let topo = self.arts.topology();
        let set = generate_problems(sim.memory(), &self.layout, seed);

        let start = Instant::now();
        let result = match engine {
            CycleEngine::EventDriven => sim.run(topo.num_cores())?,
            CycleEngine::NaiveScan => sim.run_naive(topo.num_cores())?,
            CycleEngine::Parallel(threads) => sim.run_parallel(topo.num_cores(), threads)?,
        };
        let wall = start.elapsed();

        let breakdown = result.aggregate();
        Ok(CycleOutcome {
            wall,
            cycles: result.cycles,
            breakdown,
            per_group: result.aggregate_groups(&topo),
            instructions: breakdown.instructions,
            verified: verify(sim.memory(), &self.layout, &set),
        })
    }
}

/// Runs the parallel MMSE on the fast (Banshee-style) backend.
///
/// # Errors
///
/// Propagates kernel build, translation and guest traps.
pub fn parallel_fast(config: &ParallelConfig, host_threads: usize) -> Result<FastOutcome, Box<dyn Error>> {
    ParallelScenario::prepare(config)?.run_fast(host_threads)
}

/// As [`parallel_fast`] with an explicit ISS timing configuration — used
/// by the latency-model ablation (`ablation_latency`) to compare the paper's
/// uniform conservative 9-cycle load latency against topology-aware
/// per-address latencies.
///
/// # Errors
///
/// Propagates kernel build, translation and guest traps.
pub fn parallel_fast_configured(
    config: &ParallelConfig,
    host_threads: usize,
    run_config: RunConfig,
) -> Result<FastOutcome, Box<dyn Error>> {
    ParallelScenario::prepare(config)?.run_fast_configured(host_threads, run_config)
}

/// Which cycle-accurate scheduler to drive (see [`CycleSim`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleEngine {
    /// The event-driven ready-queue scheduler (`CycleSim::run`).
    EventDriven,
    /// The retained full-scan reference scheduler (`CycleSim::run_naive`).
    NaiveScan,
    /// The epoch-sharded engine (`CycleSim::run_parallel`) over this many
    /// host threads — bit-identical to the other two at any count.
    Parallel(usize),
}

/// Runs the parallel MMSE on the cycle-accurate backend (the RTL-simulation
/// stand-in).
///
/// # Errors
///
/// Propagates kernel build, translation and guest traps.
pub fn parallel_cycle(config: &ParallelConfig) -> Result<CycleOutcome, Box<dyn Error>> {
    parallel_cycle_with_engine(config, CycleEngine::EventDriven)
}

/// As [`parallel_cycle`] on the epoch-sharded engine with `threads` host
/// threads (domain-per-group; see `CycleSim::run_parallel`).
///
/// # Errors
///
/// Propagates kernel build, translation and guest traps.
pub fn parallel_cycle_threads(
    config: &ParallelConfig,
    threads: usize,
) -> Result<CycleOutcome, Box<dyn Error>> {
    parallel_cycle_with_engine(config, CycleEngine::Parallel(threads))
}

/// As [`parallel_cycle`] with an explicit scheduler — the hook the
/// differential tests use to compare the event-driven engine against the
/// retained naive scan on identical workloads.
///
/// # Errors
///
/// Propagates kernel build, translation and guest traps.
pub fn parallel_cycle_with_engine(
    config: &ParallelConfig,
    engine: CycleEngine,
) -> Result<CycleOutcome, Box<dyn Error>> {
    ParallelScenario::prepare(config)?.run_cycle(engine)
}

/// Configuration of the batched Monte-Carlo experiment (Figure 6): all
/// `nsc` subcarrier problems of one OFDM symbol on a single Snitch.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// MIMO size.
    pub n: u32,
    /// Kernel precision.
    pub precision: Precision,
    /// Subcarriers per OFDM symbol (1638 for the paper's 50 MHz NR
    /// carrier).
    pub nsc: u32,
    /// Operand seed.
    pub seed: u64,
    /// Dot-product unroll factor.
    pub unroll: u32,
}

/// Result of one batched symbol simulation.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Host wall-clock time.
    pub wall: Duration,
    /// Estimated Snitch cycles for the whole symbol.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Simulation speed in MIPS.
    pub mips: f64,
    /// Results matched the native model.
    pub verified: bool,
}

/// A prepared OFDM-symbol scenario: the batched single-Snitch kernel and
/// its shared artifact set, built once; every simulated symbol is then a
/// cheap per-job instantiation ([`SymbolScenario::run_symbol`]) that only
/// pays for fresh memory, operand generation, the run and verification.
#[derive(Debug)]
pub struct SymbolScenario {
    config: BatchConfig,
    layout: ProblemLayout,
    arts: Arc<SimArtifacts>,
}

impl SymbolScenario {
    /// Builds the scenario's shared artifacts: one Snitch of the full
    /// TeraPool cluster, as in the paper, with banks deepened when `nsc`
    /// outgrows the taped-out tile SPM.
    ///
    /// # Errors
    ///
    /// Propagates kernel build and translation errors.
    pub fn prepare(config: &BatchConfig) -> Result<Self, Box<dyn Error>> {
        let topo = topology_for(1024, 1, config.n, config.precision, config.nsc);
        let kernel = kernel_for(config.n, config.precision, config.nsc, 1, config.unroll);
        let layout = kernel.layout(&topo)?;
        let image = kernel.build(&topo)?;
        let arts = SimArtifacts::build(topo, &image)?;
        Ok(Self { config: *config, layout, arts })
    }

    /// The scenario's shared artifact set.
    pub fn artifacts(&self) -> &Arc<SimArtifacts> {
        &self.arts
    }

    /// The configuration the scenario was prepared from.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Simulates one OFDM symbol (`nsc` problems batched on a single
    /// Snitch, one host thread) with operands drawn from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates guest traps.
    pub fn run_symbol(&self, seed: u64) -> Result<BatchOutcome, Box<dyn Error>> {
        self.symbol_outcome(FastSim::from_artifacts(Arc::clone(&self.arts)), seed)
    }

    /// As [`run_symbol`](Self::run_symbol) with the job's cluster memory
    /// drawn from a recycling pool over this scenario's artifacts —
    /// bit-identical results, without the per-job 20 MiB arena
    /// allocation (the dominant fixed cost of a small symbol job).
    ///
    /// # Errors
    ///
    /// Propagates guest traps.
    ///
    /// # Panics
    ///
    /// Panics if `pool` was built over a different artifact set.
    pub fn run_symbol_pooled(&self, pool: &Arc<MemPool>, seed: u64) -> Result<BatchOutcome, Box<dyn Error>> {
        assert!(Arc::ptr_eq(pool.artifacts(), &self.arts), "pool built over a different scenario");
        self.symbol_outcome(FastSim::from_pool(pool), seed)
    }

    /// One OFDM-symbol job run under a batch supervisor: pool, budget and
    /// cancellation wired exactly as in
    /// [`ParallelScenario::try_run_fast`], faults surfaced as
    /// [`JobError`]s. Healthy jobs are bit-identical to
    /// [`run_symbol`](Self::run_symbol).
    ///
    /// # Errors
    ///
    /// Returns the [`JobError`] classifying the fault, if any.
    pub fn try_run_symbol(&self, ctx: &JobCtx, seed: u64) -> Result<BatchOutcome, JobError> {
        self.try_run_symbol_with(ctx, seed, ctx.budget())
    }

    /// As [`try_run_symbol`](Self::try_run_symbol) with an explicit
    /// per-job instruction budget overriding the batch policy's.
    ///
    /// # Errors
    ///
    /// Returns the [`JobError`] classifying the fault, if any.
    pub fn try_run_symbol_with(
        &self,
        ctx: &JobCtx,
        seed: u64,
        budget: Option<u64>,
    ) -> Result<BatchOutcome, JobError> {
        let mut sim = match ctx.pool() {
            Some(pool) if Arc::ptr_eq(pool.artifacts(), &self.arts) => FastSim::from_pool(pool),
            _ => FastSim::from_artifacts(Arc::clone(&self.arts)),
        };
        if let Some(b) = budget {
            let mut rc = self.arts.fast_config().clone();
            rc.max_instructions = b;
            sim.set_config(rc);
        }
        if let Some(cancel) = ctx.cancel() {
            sim.set_cancel(cancel.clone());
        }

        let set = generate_problems(sim.memory(), &self.layout, seed);
        let start = Instant::now();
        let result = sim.run_cores(0..1, 1).map_err(JobError::Trap)?;
        let wall = start.elapsed();
        JobError::check_fast(&result, budget)?;

        let instructions = result.total_instructions();
        Ok(BatchOutcome {
            wall,
            cycles: result.cycles,
            instructions,
            mips: instructions as f64 / wall.as_secs_f64().max(1e-9) / 1e6,
            verified: verify(sim.memory(), &self.layout, &set),
        })
    }

    fn symbol_outcome(&self, mut sim: FastSim, seed: u64) -> Result<BatchOutcome, Box<dyn Error>> {
        let set = generate_problems(sim.memory(), &self.layout, seed);

        let start = Instant::now();
        let result = sim.run_cores(0..1, 1)?;
        let wall = start.elapsed();

        let instructions = result.total_instructions();
        Ok(BatchOutcome {
            wall,
            cycles: result.cycles,
            instructions,
            mips: instructions as f64 / wall.as_secs_f64().max(1e-9) / 1e6,
            verified: verify(sim.memory(), &self.layout, &set),
        })
    }
}

/// Simulates one OFDM symbol (`nsc` problems) batched on a single core,
/// on one host thread — the paper's single-thread MC iteration (a
/// single-use [`SymbolScenario`]).
///
/// # Errors
///
/// Propagates kernel build, translation and guest traps.
pub fn mc_symbol_single(config: &BatchConfig) -> Result<BatchOutcome, Box<dyn Error>> {
    SymbolScenario::prepare(config)?.run_symbol(config.seed)
}

/// Simulates `symbols` independent OFDM symbols over `host_threads`
/// worker lanes of a [`BatchRunner`] (the paper's 128-thread scaling
/// experiment) and returns the wall time together with the per-symbol
/// outcomes in submission order.
///
/// All symbols share one artifact set and recycle cluster memories
/// through the batch's [`MemPool`] (one arena per worker lane instead of
/// one allocation per symbol); per-symbol seeds derive from the symbol
/// index, so the outcomes are identical for any worker count and any
/// work-stealing schedule, and bit-identical to unpooled per-symbol runs.
///
/// # Errors
///
/// Propagates the first failure from any symbol.
pub fn mc_symbols_parallel(
    config: &BatchConfig,
    symbols: u32,
    host_threads: usize,
) -> Result<(Duration, Vec<BatchOutcome>), Box<dyn Error>> {
    let start = Instant::now();
    let scenario = SymbolScenario::prepare(config)?;
    let outcomes = BatchRunner::with_workers(host_threads).run_pooled(
        scenario.artifacts(),
        (0..symbols).collect(),
        |ctx, sym| {
            scenario
                .run_symbol_pooled(
                    ctx.pool().expect("pooled batch"),
                    config.seed.wrapping_add(u64::from(sym)),
                )
                .map_err(|e| e.to_string())
        },
    );
    let wall = start.elapsed();
    let outcomes: Result<Vec<_>, String> = outcomes.into_iter().collect();
    Ok((wall, outcomes.map_err(|e| -> Box<dyn Error> { e.into() })?))
}

/// Runs a BER-vs-SNR sweep for one scenario and detector kind
/// (Figures 9–10): one [`BatchRunner`] job per SNR point
/// ([`terasim_phy::ber_jobs`]), bit-identical to [`terasim_phy::sweep`]
/// for every worker count because each point's seed travels with its job.
pub fn ber_curve(
    scenario: Mimo,
    snrs_db: &[f64],
    kind: DetectorKind,
    target_errors: u64,
    max_iterations: u64,
    seed: u64,
) -> Vec<BerPoint> {
    let detector = kind.instantiate(scenario.n_tx);
    BatchRunner::new().run(terasim_phy::ber_jobs(scenario, snrs_db, seed), |_ctx, job| {
        job.run(detector.as_ref(), target_errors, max_iterations)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_and_cycle_agree_architecturally() {
        let config = ParallelConfig { cores: 8, n: 4, precision: Precision::WDotp8, seed: 9, unroll: 2 };
        let fast = parallel_fast(&config, 2).unwrap();
        let cycle = parallel_cycle(&config).unwrap();
        assert!(fast.verified, "fast backend diverged from native model");
        assert!(cycle.verified, "cycle backend diverged from native model");
        assert_eq!(fast.instructions, cycle.instructions, "same retired instruction count");
        assert!(cycle.wall >= fast.wall / 50, "sanity: both ran");
    }

    #[test]
    fn batch_runs_and_verifies() {
        let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 16, seed: 5, unroll: 2 };
        let out = mc_symbol_single(&config).unwrap();
        assert!(out.verified);
        assert!(out.instructions > 16 * 500, "16 problems retired {}", out.instructions);
    }

    #[test]
    fn parallel_symbols_match_single() {
        let config = BatchConfig { n: 4, precision: Precision::Half16, nsc: 4, seed: 11, unroll: 2 };
        let (_, outcomes) = mc_symbols_parallel(&config, 4, 2).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| o.verified));
    }

    #[test]
    fn ber_curve_with_native_dut() {
        let scenario = Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Awgn };
        let points =
            ber_curve(scenario, &[8.0, 16.0], DetectorKind::Native(Precision::CDotp16), 100, 1_000, 3);
        assert_eq!(points.len(), 2);
        assert!(points[0].ber() > points[1].ber());
    }
}
