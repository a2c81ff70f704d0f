//! The MMSE detection job two ways: through the top-level entry points
//! of `terasim::experiments` (what the end-to-end metrics time), and
//! re-composed from the layers' public functions with a span around
//! every call (what the per-layer metrics time). The two must agree
//! bit for bit; the traced pass checks that they do.

use std::sync::Arc;

use terasim::experiments::{
    topology_for, BatchConfig, CycleEngine, ParallelConfig, ParallelScenario, SymbolScenario,
};
use terasim_iss::RunConfig;
use terasim_kernels::{data, native, MmseKernel, ProblemLayout, C64};
use terasim_phy::{ChannelKind, Mimo, Modulation, TxGenerator};
use terasim_terapool::{ClusterMem, CycleSim, FastSim, MemPool, SimArtifacts};

use crate::job::{Job, JobStats};
use crate::stats::Digest;
use crate::trace::{Open, Tracer};

/// Which scenario a job runs and on which engine.
#[derive(Debug, Clone, Copy)]
pub enum MmseConfig {
    /// One OFDM symbol batched on a single Snitch, fast engine.
    Symbol(BatchConfig),
    /// One problem per core, all cores, fast engine on `host_threads`.
    Fast(ParallelConfig, usize),
    /// One problem per core, all cores, cycle engine.
    Cycle(ParallelConfig, CycleEngine),
}

/// The job as users run it.
#[derive(Debug)]
pub enum TopLevel {
    Symbol(SymbolScenario),
    Fast(ParallelScenario, usize),
    Cycle(ParallelScenario, CycleEngine),
}

impl TopLevel {
    pub fn prepare(config: &MmseConfig) -> Self {
        match config {
            MmseConfig::Symbol(c) => {
                TopLevel::Symbol(SymbolScenario::prepare(c).expect("symbol scenario builds"))
            }
            MmseConfig::Fast(c, threads) => {
                TopLevel::Fast(ParallelScenario::prepare(c).expect("parallel scenario builds"), *threads)
            }
            MmseConfig::Cycle(c, engine) => {
                TopLevel::Cycle(ParallelScenario::prepare(c).expect("parallel scenario builds"), *engine)
            }
        }
    }
}

impl Job for TopLevel {
    fn artifacts(&self) -> &Arc<SimArtifacts> {
        match self {
            TopLevel::Symbol(s) => s.artifacts(),
            TopLevel::Fast(s, _) | TopLevel::Cycle(s, _) => s.artifacts(),
        }
    }

    fn run(&self, pool: &Arc<MemPool>, seed: u64, _spans: Option<(&Tracer, &Open)>) -> JobStats {
        match self {
            TopLevel::Symbol(s) => {
                let out = s.run_symbol_pooled(pool, seed).expect("symbol job runs");
                JobStats {
                    instructions: out.instructions,
                    sim_cycles: out.cycles,
                    verified: out.verified,
                    harts: 1,
                    ..JobStats::default()
                }
            }
            TopLevel::Fast(s, threads) => {
                let out = s.run_fast_pooled(pool, *threads, seed).expect("fast job runs");
                JobStats {
                    instructions: out.instructions,
                    sim_cycles: out.cluster_cycles,
                    verified: out.verified,
                    stalls: [out.raw_stalls, 0, 0, 0, out.wfi_stalls],
                    harts: u64::from(s.config().cores),
                    ..JobStats::default()
                }
            }
            TopLevel::Cycle(s, engine) => {
                let out = s.run_cycle_pooled(pool, *engine, seed).expect("cycle job runs");
                let b = out.breakdown;
                JobStats {
                    instructions: out.instructions,
                    sim_cycles: out.cycles,
                    verified: out.verified,
                    stalls: [b.stall_raw, b.stall_lsu, b.stall_ins, b.stall_acc, b.stall_wfi],
                    harts: u64::from(s.config().cores),
                    ..JobStats::default()
                }
            }
        }
    }
}

/// The same job re-composed from the layers' public functions.
#[derive(Debug)]
pub struct Composed {
    config: MmseConfig,
    layout: ProblemLayout,
    arts: Arc<SimArtifacts>,
}

impl Composed {
    /// Builds the scenario the way `experiments::*Scenario::prepare_with`
    /// does, with `kernels.emit` and `terapool.artifacts` spans under
    /// `parent`.
    pub fn prepare(tracer: &Tracer, parent: &Open, config: &MmseConfig) -> Self {
        let (n, precision, problems_per_core, active, unroll) = match config {
            MmseConfig::Symbol(c) => (c.n, c.precision, c.nsc, 1, c.unroll),
            MmseConfig::Fast(c, _) | MmseConfig::Cycle(c, _) => (c.n, c.precision, 1, c.cores, c.unroll),
        };
        let cores = if matches!(config, MmseConfig::Symbol(_)) { 1024 } else { active };
        let (topo, layout, image) = tracer.span("kernels.emit", parent, || {
            let topo = topology_for(cores, active, n, precision, problems_per_core);
            let kernel = MmseKernel::new(n, precision)
                .with_problems_per_core(problems_per_core)
                .with_active_cores(active)
                .with_unroll(unroll);
            let layout = kernel.layout(&topo).expect("problem set fits the topology");
            (topo, layout, kernel.build(&topo).expect("kernel builds"))
        });
        let arts = tracer.span("terapool.artifacts", parent, || {
            let mut rc = RunConfig::default();
            if !matches!(config, MmseConfig::Symbol(_)) {
                // The paper's fast-mode rule for the parallel kernel: every
                // access pays the largest non-contended latency.
                rc.latency.load = topo.max_access_latency();
            }
            SimArtifacts::build_with(topo, &image, rc).expect("kernel translates")
        });
        Self { config: *config, layout, arts }
    }
}

type Problem = (Vec<C64>, Vec<C64>, f64);

/// Operands as `experiments` draws them: 16-QAM over a Rayleigh channel
/// at 12 dB, one transmission per subcarrier problem.
fn generate(layout: &ProblemLayout, seed: u64) -> Vec<Problem> {
    let n = layout.n as usize;
    let scenario = Mimo { n_tx: n, n_rx: n, modulation: Modulation::Qam16, channel: ChannelKind::Rayleigh };
    let mut generator = TxGenerator::new(scenario, 12.0, seed);
    (0..layout.problems)
        .map(|_| {
            let t = generator.next_transmission();
            let h = t.h.iter().map(|z| (*z).into()).collect();
            let y = t.y.iter().map(|z| (*z).into()).collect();
            (h, y, t.sigma)
        })
        .collect()
}

/// Reads every result back, checks it against the native model, and
/// hashes the bits read.
fn verify(mem: &ClusterMem, layout: &ProblemLayout, problems: &[Problem]) -> (bool, u64) {
    let mut hash = Digest::new();
    let mut ok = true;
    for (p, (h, y, sigma)) in problems.iter().enumerate() {
        let got = data::read_xhat(mem, layout, p as u32);
        let want = native::detect(layout.precision, layout.n as usize, h, y, *sigma);
        for (a, b) in got.iter().zip(&want) {
            ok &= a[0].to_bits() == b[0].to_bits() && a[1].to_bits() == b[1].to_bits();
            hash.u64(u64::from(a[0].to_bits()) | u64::from(a[1].to_bits()) << 16);
        }
    }
    (ok, hash.finish())
}

impl Job for Composed {
    fn artifacts(&self) -> &Arc<SimArtifacts> {
        &self.arts
    }

    fn run(&self, pool: &Arc<MemPool>, seed: u64, spans: Option<(&Tracer, &Open)>) -> JobStats {
        let (tracer, job) = spans.expect("composed jobs run traced");
        let layout = &self.layout;
        let problems = tracer.span("phy.generate", job, || generate(layout, seed));
        let write = |mem: &ClusterMem| {
            tracer.span("kernels.write", job, || {
                for (p, (h, y, sigma)) in problems.iter().enumerate() {
                    data::write_problem(mem, layout, p as u32, h, y, *sigma);
                }
            });
        };
        let mut stats = JobStats::default();
        match self.config {
            MmseConfig::Symbol(_) | MmseConfig::Fast(..) => {
                let mut sim = tracer.span("terapool.pool", job, || FastSim::from_pool(pool));
                write(sim.memory());
                let (cores, threads) = match self.config {
                    MmseConfig::Fast(c, threads) => (0..c.cores, threads),
                    _ => (0..1, 1),
                };
                stats.harts = u64::from(cores.end);
                let result = tracer
                    .span("terapool.fast_exec", job, || sim.run_cores(cores, threads))
                    .expect("guest runs");
                assert!(!result.deadlocked && !result.budget_exhausted(), "guest must finish");
                stats.instructions = result.total_instructions();
                stats.sim_cycles = result.cycles;
                for core in &result.per_core {
                    stats.stalls[0] += core.raw_stalls;
                    stats.stalls[4] += core.wfi_stalls;
                    stats.classes.iter_mut().zip(core.class_counts).for_each(|(a, b)| *a += b);
                }
                (stats.verified, stats.result_hash) =
                    tracer.span("kernels.verify", job, || verify(sim.memory(), layout, &problems));
                tracer.span("terapool.pool", job, || drop(sim));
            }
            MmseConfig::Cycle(c, engine) => {
                let mut sim = tracer.span("terapool.pool", job, || CycleSim::from_pool(pool));
                write(sim.memory());
                stats.harts = u64::from(c.cores);
                let result = tracer
                    .span("terapool.cycle_exec", job, || match engine {
                        CycleEngine::EventDriven => sim.run(c.cores),
                        CycleEngine::NaiveScan => sim.run_naive(c.cores),
                        CycleEngine::Parallel(threads) => sim.run_parallel(c.cores, threads),
                    })
                    .expect("guest runs");
                assert!(!result.deadlocked && result.budgeted.is_empty(), "guest must finish");
                let total = result.aggregate();
                stats.instructions = total.instructions;
                stats.sim_cycles = result.cycles;
                stats.stalls =
                    [total.stall_raw, total.stall_lsu, total.stall_ins, total.stall_acc, total.stall_wfi];
                stats.epochs = sim.epoch_report();
                (stats.verified, stats.result_hash) =
                    tracer.span("kernels.verify", job, || verify(sim.memory(), layout, &problems));
                tracer.span("terapool.pool", job, || drop(sim));
            }
        }
        // Dropping the operands is part of the job too.
        tracer.span("phy.generate", job, || drop(problems));
        stats
    }
}
