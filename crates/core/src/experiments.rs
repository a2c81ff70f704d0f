//! The paper's experiment harness: one prepared scenario per job family.
//!
//! [`ParallelScenario`] (Figures 5, 7, 8) and [`SymbolScenario`]
//! (Figure 6) build their immutable artifact set once. Every job then
//! sets up operands through the PHY, runs one simulator backend,
//! *verifies* the architectural results against the native bit-true
//! model, and reports timing and statistics. There is one job body per
//! engine — [`SymbolScenario::run`], [`ParallelScenario::run_fast`] and
//! [`ParallelScenario::run_cycle`] — each taking a [`JobSpec`] and
//! reporting guest faults as [`JobError`]s; the `run_*_pooled` methods
//! are one-line adapters over them. [`ber_curve`] drives Figures 9–10.
//! The figure binaries in `terasim-bench` are thin wrappers over these.

use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};

use terasim_iss::RunConfig;
use terasim_kernels::{data, native, MmseKernel, Precision, ProblemLayout, C64};
use terasim_phy::{BerPoint, ChannelKind, Mimo, Modulation, TxGenerator};
use terasim_terapool::{
    CancelToken, ClusterMem, CycleSim, CycleStats, FastSim, MemPool, SimArtifacts, Topology,
};

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

/// Generated operands for verification, quantized once: the bits
/// written to L1 are the bits the native model checks against.
struct ProblemSet {
    problems: Vec<native::Operands>,
}

fn generate_problems(mem: &ClusterMem, layout: &ProblemLayout, seed: u64) -> ProblemSet {
    let n = layout.n as usize;
    let scenario = Mimo { n_tx: n, n_rx: n, modulation: Modulation::Qam16, channel: ChannelKind::Rayleigh };
    let mut generator = TxGenerator::new(scenario, 12.0, seed);
    let mut problems = Vec::with_capacity(layout.problems as usize);
    for p in 0..layout.problems {
        let t = generator.next_transmission();
        let h: Vec<C64> = t.h.iter().map(|z| (*z).into()).collect();
        let y: Vec<C64> = t.y.iter().map(|z| (*z).into()).collect();
        let operands = native::Operands::quantize(layout.precision, n, &h, &y, t.sigma);
        data::write_operands(mem, layout, p, &operands);
        problems.push(operands);
    }
    ProblemSet { problems }
}

/// Checks every problem's result against the native model, a batch of
/// [`native::LANES`] problems at a time, stopping at the first mismatch.
fn verify(mem: &ClusterMem, layout: &ProblemLayout, set: &ProblemSet) -> bool {
    let n = layout.n as usize;
    set.problems.chunks(native::LANES).zip((0..).step_by(native::LANES)).all(|(chunk, first)| {
        let want = native::detect_batch(layout.precision, n, chunk);
        want.chunks(n).zip(first..).all(|(want, p)| data::read_xhat(mem, layout, p) == want)
    })
}

/// The per-job inputs of one scenario run: the operand seed, plus the
/// recycling pool, per-core instruction budget and cancellation token a
/// supervised or serving caller attaches. `JobSpec::seeded(seed)` is a
/// plain job on fresh memory; [`JobSpec::in_batch`] takes the rest from
/// a [`BatchRunner`] job's context.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobSpec<'a> {
    /// Operand seed (the scenario's artifacts are shared regardless).
    pub seed: u64,
    /// Draw the job's cluster memory from this pool instead of mapping a
    /// fresh 20 MiB arena; results are bit-identical either way. The
    /// pool must be built over the scenario's own artifact set.
    pub pool: Option<&'a Arc<MemPool>>,
    /// Per-core instruction budget; exhausting it is
    /// [`JobError::BudgetExhausted`] instead of a hung job.
    pub budget: Option<u64>,
    /// Cooperative cancellation, polled by the engines at their safe
    /// points; a raised token is [`JobError::Cancelled`].
    pub cancel: Option<&'a CancelToken>,
}

impl<'a> JobSpec<'a> {
    /// A job with operands from `seed` and nothing else attached.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// A job at `seed` under a batch supervisor: the batch's pool (if
    /// any) and its [`RunPolicy`](crate::serve::RunPolicy)'s budget and
    /// cancel token (in supervised batches).
    pub fn in_batch(ctx: &'a JobCtx, seed: u64) -> Self {
        let policy = ctx.policy();
        Self {
            seed,
            pool: ctx.pool(),
            budget: policy.and_then(|p| p.budget),
            cancel: policy.map(|p| &p.cancel),
        }
    }
}

/// `pool`, after checking it was built over `arts`.
fn own_pool<'p>(pool: &'p Arc<MemPool>, arts: &Arc<SimArtifacts>) -> &'p Arc<MemPool> {
    assert!(Arc::ptr_eq(pool.artifacts(), arts), "pool built over a different scenario");
    pool
}

/// The job's fast simulator over `arts`, with `timing` (or the
/// artifacts' own) as its ISS configuration.
fn fast_sim(arts: &Arc<SimArtifacts>, job: &JobSpec, timing: Option<RunConfig>) -> FastSim {
    let mut sim = match job.pool {
        Some(pool) => FastSim::from_pool(own_pool(pool, arts)),
        None => FastSim::from_artifacts(Arc::clone(arts)),
    };
    if timing.is_some() || job.budget.is_some() {
        // A latency model equal to the artifacts' keeps the shared
        // lowered table; any other re-lowers privately.
        let mut rc = timing.unwrap_or_else(|| arts.fast_config().clone());
        if let Some(b) = job.budget {
            rc.max_instructions = b;
        }
        sim.set_config(rc);
    }
    if let Some(cancel) = job.cancel {
        sim.set_cancel(cancel.clone());
    }
    sim
}

fn mips(instructions: u64, wall: Duration) -> f64 {
    instructions as f64 / wall.as_secs_f64().max(1e-9) / 1e6
}

/// A prepared parallel-MMSE scenario: the immutable artifact set —
/// topology, generated kernel image, decoded program and lowered micro-op
/// tables — built **once** and shared (via [`SimArtifacts`]) by every job
/// run from it, on either backend, at any seed. A one-shot run is
/// `ParallelScenario::prepare(&config)?.run_fast(&JobSpec::seeded(config.seed), threads, None)`.
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

    /// One fast-mode job over `host_threads`. `timing` replaces the
    /// scenario's ISS timing configuration (the latency-model ablation,
    /// `ablation_latency`); `None` keeps the paper's rule from
    /// [`prepare`](Self::prepare).
    ///
    /// # Errors
    ///
    /// Returns the [`JobError`] classifying the fault, if any.
    ///
    /// # Panics
    ///
    /// Panics if `job.pool` was built over a different artifact set.
    pub fn run_fast(
        &self,
        job: &JobSpec,
        host_threads: usize,
        timing: Option<RunConfig>,
    ) -> Result<FastOutcome, JobError> {
        let mut sim = fast_sim(&self.arts, job, timing);
        let set = generate_problems(sim.memory(), &self.layout, job.seed);
        let start = Instant::now();
        let result = sim.run_all(host_threads)?;
        let wall = start.elapsed();
        JobError::check_fast(&result, job.budget)?;

        let instructions = result.total_instructions();
        Ok(FastOutcome {
            wall,
            cluster_cycles: result.cycles,
            instructions,
            raw_stalls: result.per_core.iter().map(|s| s.raw_stalls).sum(),
            wfi_stalls: result.per_core.iter().map(|s| s.wfi_stalls).sum(),
            mips: mips(instructions, wall),
            verified: verify(sim.memory(), &self.layout, &set),
        })
    }

    /// [`run_fast`](Self::run_fast) with the job's memory from `pool`
    /// (which must be built over this scenario's artifacts).
    pub fn run_fast_pooled(
        &self,
        pool: &Arc<MemPool>,
        host_threads: usize,
        seed: u64,
    ) -> Result<FastOutcome, Box<dyn Error>> {
        Ok(self.run_fast(&JobSpec { pool: Some(pool), ..JobSpec::seeded(seed) }, host_threads, None)?)
    }

    /// One cycle-accurate job on `engine`. In a batch, pass
    /// `CycleEngine::Parallel(ctx.claimable_threads())` so a sharded job
    /// widens into worker lanes the batch has stopped using — results are
    /// bit-identical at every thread count. The budget feeds the engine's
    /// per-core safety net (`CycleSim::max_instructions`) and the cancel
    /// token is polled at event steps, scan passes and epoch boundaries.
    ///
    /// # Errors
    ///
    /// Returns the [`JobError`] classifying the fault, if any.
    ///
    /// # Panics
    ///
    /// Panics if `job.pool` was built over a different artifact set.
    pub fn run_cycle(&self, job: &JobSpec, engine: CycleEngine) -> Result<CycleOutcome, JobError> {
        let mut sim = match job.pool {
            Some(pool) => CycleSim::from_pool(own_pool(pool, &self.arts)),
            None => CycleSim::from_artifacts(Arc::clone(&self.arts)),
        };
        if let Some(b) = job.budget {
            sim.max_instructions = b;
        }
        if let Some(cancel) = job.cancel {
            sim.set_cancel(cancel.clone());
        }

        let topo = self.arts.topology();
        let set = generate_problems(sim.memory(), &self.layout, job.seed);
        let start = Instant::now();
        let result = match engine {
            CycleEngine::EventDriven => sim.run(topo.num_cores()),
            CycleEngine::NaiveScan => sim.run_naive(topo.num_cores()),
            CycleEngine::Parallel(threads) => sim.run_parallel(topo.num_cores(), threads),
        }?;
        let wall = start.elapsed();
        JobError::check_cycle(&result, job.budget)?;

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

    /// [`run_cycle`](Self::run_cycle) with the job's memory from `pool`
    /// (which must be built over this scenario's artifacts).
    pub fn run_cycle_pooled(
        &self,
        pool: &Arc<MemPool>,
        engine: CycleEngine,
        seed: u64,
    ) -> Result<CycleOutcome, Box<dyn Error>> {
        Ok(self.run_cycle(&JobSpec { pool: Some(pool), ..JobSpec::seeded(seed) }, engine)?)
    }
}

/// Which cycle-accurate scheduler to drive (see [`CycleSim`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleEngine {
    /// `CycleSim::run`: the epoch-sharded engine on the calling thread,
    /// exactly [`Parallel(1)`](CycleEngine::Parallel) on every topology.
    /// The variant stays only because callers outside this workspace
    /// still name it.
    EventDriven,
    /// The retained full-scan reference scheduler (`CycleSim::run_naive`).
    NaiveScan,
    /// The epoch-sharded engine (`CycleSim::run_parallel`) over this many
    /// host threads — bit-identical to the other two at any count.
    Parallel(usize),
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
/// cheap per-job instantiation ([`SymbolScenario::run`]) that only
/// pays for memory, operand generation, the run and verification.
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
    /// Snitch, one host thread) with operands drawn from `job.seed`.
    ///
    /// # Errors
    ///
    /// Returns the [`JobError`] classifying the fault, if any.
    ///
    /// # Panics
    ///
    /// Panics if `job.pool` was built over a different artifact set.
    pub fn run(&self, job: &JobSpec) -> Result<BatchOutcome, JobError> {
        let mut sim = fast_sim(&self.arts, job, None);
        let set = generate_problems(sim.memory(), &self.layout, job.seed);
        let start = Instant::now();
        let result = sim.run_cores(0..1, 1)?;
        let wall = start.elapsed();
        JobError::check_fast(&result, job.budget)?;

        let instructions = result.total_instructions();
        Ok(BatchOutcome {
            wall,
            cycles: result.cycles,
            instructions,
            mips: mips(instructions, wall),
            verified: verify(sim.memory(), &self.layout, &set),
        })
    }

    /// [`run`](Self::run) with the job's memory from `pool`
    /// (which must be built over this scenario's artifacts).
    pub fn run_symbol_pooled(&self, pool: &Arc<MemPool>, seed: u64) -> Result<BatchOutcome, Box<dyn Error>> {
        Ok(self.run(&JobSpec { pool: Some(pool), ..JobSpec::seeded(seed) })?)
    }
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
        let scenario = ParallelScenario::prepare(&config).unwrap();
        let job = JobSpec::seeded(config.seed);
        let fast = scenario.run_fast(&job, 2, None).unwrap();
        let cycle = scenario.run_cycle(&job, CycleEngine::EventDriven).unwrap();
        assert!(fast.verified, "fast backend diverged from native model");
        assert!(cycle.verified, "cycle backend diverged from native model");
        assert_eq!(fast.instructions, cycle.instructions, "same retired instruction count");
        assert!(cycle.wall >= fast.wall / 50, "sanity: both ran");
    }

    #[test]
    fn batch_runs_and_verifies() {
        let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 16, seed: 5, unroll: 2 };
        let out = SymbolScenario::prepare(&config).unwrap().run(&JobSpec::seeded(config.seed)).unwrap();
        assert!(out.verified);
        assert!(out.instructions > 16 * 500, "16 problems retired {}", out.instructions);
    }

    #[test]
    fn parallel_symbols_match_single() {
        let config = BatchConfig { n: 4, precision: Precision::Half16, nsc: 4, seed: 11, unroll: 2 };
        let scenario = SymbolScenario::prepare(&config).unwrap();
        let pool = MemPool::new(Arc::clone(scenario.artifacts()));
        let outcomes = BatchRunner::with_workers(2).run_pooled_in(&pool, (0..4u64).collect(), |ctx, sym| {
            scenario.run(&JobSpec::in_batch(ctx, config.seed.wrapping_add(sym))).unwrap()
        });
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
