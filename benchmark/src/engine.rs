//! The four engine workloads: batches of jobs over one prepared
//! scenario, untraced for the end-to-end metrics and traced for the
//! per-layer ones.

use terasim::experiments::CycleEngine;

use crate::job::{self, Batch, Job, JobRecord, Pass, Prepared, Segment, SEGMENTS};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::mmse::{Composed, MmseConfig, TopLevel};
use crate::skew::Skew;
use crate::stats;
use crate::trace::{Open, Tracer};

#[derive(Debug, Clone, Copy)]
pub enum EngineKind {
    Mmse(MmseConfig),
    Skew { cores: u32, spin: u32 },
}

#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    pub kind: EngineKind,
    /// `BatchRunner` lanes.
    pub workers: usize,
    /// Reference-host rate: fixes the job count from `--seconds`, so a
    /// run is fixed work, its digest repeats, and a faster commit
    /// finishes sooner instead of doing more.
    pub jobs_per_second: f64,
}

impl EngineSpec {
    fn job_count(&self, seconds: f64) -> usize {
        (seconds * self.jobs_per_second).round() as usize
    }

    /// The job as users run it.
    fn top_level(&self) -> Box<dyn Job> {
        match &self.kind {
            EngineKind::Mmse(config) => Box::new(TopLevel::prepare(config)),
            EngineKind::Skew { cores, spin } => Box::new(Skew::prepare(*cores, *spin, None)),
        }
    }

    /// The job composed from the layers' public functions, its scenario
    /// preparation recorded under `setup`.
    fn composed(&self, tracer: &Tracer, setup: &Open) -> Box<dyn Job> {
        match &self.kind {
            EngineKind::Mmse(config) => Box::new(Composed::prepare(tracer, setup, config)),
            EngineKind::Skew { cores, spin } => Box::new(Skew::prepare(*cores, *spin, Some((tracer, setup)))),
        }
    }

    /// One job per lane, so lazy tables, first arena maps and caches are
    /// filled before timing.
    fn warm_seeds(&self, seed: u64) -> Vec<u64> {
        job::job_seeds(stats::mix(seed, u64::MAX), self.workers)
    }
}

pub fn untraced(spec: &EngineSpec, seed: u64, seconds: f64) -> Pass {
    let mut pass = Pass::new(Metrics::new(&END_TO_END));
    let set_up = |pass: &mut Pass| {
        let prepared = Prepared::new(spec.top_level());
        pass.count(&prepared.run_batch(spec.workers, &spec.warm_seeds(seed), None, 0).records);
        prepared
    };
    pass.set_up_and_measure(set_up, |pass, prepared| {
        let per_segment = job::per_segment(spec.job_count(seconds), spec.workers);
        let seeds = job::job_seeds(seed, per_segment * SEGMENTS);
        let batches: Vec<Batch> =
            seeds.chunks(per_segment).map(|chunk| prepared.run_batch(spec.workers, chunk, None, 0)).collect();
        let records: Vec<JobRecord> = batches.iter().flat_map(|b| b.records.iter().cloned()).collect();
        pass.count(&records);
        pass.digest = job::digest(&records);
        job::end_to_end(&mut pass.metrics, &batches.iter().map(Segment::of_batch).collect::<Vec<_>>());
        pass.note("samples", records.len() as f64);
    });
    pass
}

pub fn traced(spec: &EngineSpec, seed: u64, seconds: f64, tracer: &Tracer) -> Pass {
    let mut pass = Pass::new(Metrics::zeroed(&PER_LAYER));
    let lanes = spec.workers as u64;

    let setup = tracer.open("setup", None, None);
    let composed = Prepared::new(spec.composed(tracer, &setup));
    let warm = composed.run_batch(spec.workers, &spec.warm_seeds(seed), Some(tracer), 0);
    tracer.close(setup);
    pass.count(&warm.records);

    // Half the time composed and traced, half through the top-level entry
    // point on the same seeds: the two must agree, and their medians give
    // the tracing overhead.
    let seeds = job::job_seeds(seed, (spec.job_count(seconds) / 2).max(2 * spec.workers));
    let traced = composed.run_batch(spec.workers, &seeds, Some(tracer), lanes);
    drop(composed);
    let top = Prepared::new(spec.top_level());
    pass.count(&top.run_batch(spec.workers, &spec.warm_seeds(seed), None, 0).records);
    let plain = top.run_batch(spec.workers, &seeds, None, 0);
    pass.count(&traced.records);
    pass.count(&plain.records);
    pass.digest = job::digest(&traced.records);
    if let Some(diff) = job::first_mismatch(&traced.records, &plain.records) {
        pass.errors.push(format!("composed job differs from the top-level entry point: {diff}"));
    }

    job::layer_metrics(&mut pass.metrics, &tracer.spans(), &traced.records, lanes);
    job::batch_metrics(&mut pass.metrics, &traced);
    let overhead = stats::median(&job::walls(&traced.records)) / stats::median(&job::walls(&plain.records));
    pass.metrics.set("trace_overhead_pct", 100.0 * (overhead - 1.0));
    let (tail_percentile, tail) = stats::tail(&job::walls(&plain.records));
    pass.metrics.set("job_tail_s", tail);
    pass.note("job_tail_percentile", tail_percentile);

    // The fast mode's cycle estimate against the cycle-accurate makespan
    // of the same scenario and seed. The cycle model is itself
    // unvalidated: the repo holds no RTL reference.
    if let EngineKind::Mmse(MmseConfig::Fast(config, _)) = spec.kind {
        let reference = TopLevel::prepare(&MmseConfig::Cycle(config, CycleEngine::Parallel(2)));
        let cycle = Prepared::new(Box::new(reference)).run_batch(1, &seeds[..1], None, 0);
        pass.count(&cycle.records);
        let estimate = traced.records[0].stats.sim_cycles as f64;
        let makespan = cycle.records[0].stats.sim_cycles as f64;
        pass.metrics.set("est_cycle_err_pct", 100.0 * (estimate - makespan).abs() / makespan);
    }
    pass
}
