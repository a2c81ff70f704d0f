//! What every engine workload shares: the job interface, the batch
//! harness around `BatchRunner::run_pooled_in`, and the arithmetic from
//! job records and spans to metrics.

use std::sync::Arc;
use std::time::Instant;

use terasim::BatchRunner;
use terasim_iss::InstClass;
use terasim_terapool::{EpochReport, MemPool, SimArtifacts};

use crate::metrics::{Metrics, CLASS_METRICS, STALL_METRICS};
use crate::stats::{self, Digest};
use crate::trace::{self, Open, Span, Tracer};

/// Simulated statistics of one job: what a speed-only change must leave
/// bit-identical. The top-level entry points expose less than the
/// composed jobs; unexposed fields stay at their default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobStats {
    pub instructions: u64,
    pub sim_cycles: u64,
    /// Results matched the bit-true native model.
    pub verified: bool,
    /// raw, lsu, ins, acc, wfi — cycles summed over harts.
    pub stalls: [u64; 5],
    /// Harts simulated (for IPC).
    pub harts: u64,
    /// Composed jobs only: retired instructions by class.
    pub classes: [u64; InstClass::COUNT],
    /// Composed jobs only: hash of the result bits read back.
    pub result_hash: u64,
    /// Composed jobs only: scheduling telemetry of a sharded cycle run.
    pub epochs: EpochReport,
}

/// One kind of job over one prepared scenario. `spans` is `Some` when
/// the job is to record a child span around every call into a layer.
pub trait Job: Sync {
    fn artifacts(&self) -> &Arc<SimArtifacts>;
    fn run(&self, pool: &Arc<MemPool>, seed: u64, spans: Option<(&Tracer, &Open)>) -> JobStats;
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// What one pass (untraced or traced) of one workload found.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Jobs run, warm-up included.
    pub attempted: u64,
    /// Jobs that trapped, were refused, or did not verify.
    pub failed: u64,
    pub metrics: Metrics,
    /// See [`digest`].
    pub digest: u64,
    /// Printed and recorded, not gated: sample counts and the like.
    pub notes: Vec<(&'static str, f64)>,
    /// Closure or composed-vs-top-level failures; any makes the run
    /// incorrect.
    pub errors: Vec<String>,
}

impl Pass {
    pub fn new(metrics: Metrics) -> Self {
        Self { attempted: 0, failed: 0, metrics, digest: 0, notes: Vec::new(), errors: Vec::new() }
    }

    pub fn count(&mut self, records: &[JobRecord]) {
        self.attempted += records.len() as u64;
        self.failed += failed(records);
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }

    /// The untraced pass's order of events: one timed set-up, the
    /// measured region on what it built (`measure` consumes it and sets
    /// the metrics), the process's peak memory so far — one set-up and
    /// one measured region, as a user's process would have — and only
    /// then the further set-ups whose median with the first is `setup_s`.
    pub fn set_up_and_measure<S>(
        &mut self,
        mut set_up: impl FnMut(&mut Pass) -> S,
        measure: impl FnOnce(&mut Pass, S),
    ) {
        let mut timed = |pass: &mut Pass| {
            let start = Instant::now();
            let built = set_up(pass);
            (built, start.elapsed().as_secs_f64())
        };
        let (built, first) = timed(self);
        measure(self, built);
        let peak_rss_mb = crate::host::peak_rss_mb();
        let mut setups = vec![first];
        for _ in 1..SETUP_REPS {
            // Dropped at once: one scenario (or daemon) alive at a time.
            setups.push(timed(self).1);
        }
        self.metrics.set("setup_s", stats::median(&setups));
        self.metrics.set("peak_rss_mb", peak_rss_mb);
    }

    /// Closure is a hard failure: the layer spans must account for the
    /// job.
    pub fn check_closure(&mut self) {
        let gap = self.metrics.get("trace_closure_gap_pct").unwrap_or(f64::NAN);
        let limit = 100.0 * trace::CLOSURE_TOLERANCE;
        if gap.is_nan() || gap > limit {
            self.errors.push(format!(
                "span closure: {gap:.3} % of a job is outside every layer span (limit {limit} %)"
            ));
        }
    }
}

#[derive(Debug, Clone)]
pub struct JobRecord {
    pub seed: u64,
    /// Benchmark-clock wall around the whole job.
    pub wall_s: f64,
    pub stats: JobStats,
}

#[derive(Debug, Clone)]
pub struct Batch {
    pub records: Vec<JobRecord>,
    /// Benchmark-clock wall around the whole `run_pooled_in` call.
    pub wall_s: f64,
    pub workers: usize,
}

/// A prepared job and the recycling arena pool its batches share: what
/// a set-up builds. One pool for the whole run, as a sweep script that
/// keeps its pool between batches has; arenas are mapped once, during
/// the warm-up, and recycled from then on.
pub struct Prepared {
    pub job: Box<dyn Job>,
    pub pool: Arc<MemPool>,
}

impl Prepared {
    pub fn new(job: Box<dyn Job>) -> Self {
        let pool = MemPool::new(Arc::clone(job.artifacts()));
        Self { job, pool }
    }

    /// Runs one job per seed through `BatchRunner::run_pooled_in` on
    /// `workers` lanes. With a tracer, the batch and every job get a
    /// span; jobs are numbered from `first_job`.
    pub fn run_batch(&self, workers: usize, seeds: &[u64], tracer: Option<&Tracer>, first_job: u64) -> Batch {
        let batch_span = tracer.map(|t| t.open("core.batch", None, None));
        let batch_id = batch_span.as_ref().map(|b| b.id);
        let items: Vec<(u64, u64)> =
            seeds.iter().enumerate().map(|(i, s)| (first_job + i as u64, *s)).collect();
        let start = Instant::now();
        let records =
            BatchRunner::with_workers(workers).run_pooled_in(&self.pool, items, |ctx, (index, seed)| {
                let pool = ctx.pool().expect("run_pooled_in attaches the pool");
                let open = tracer.map(|t| t.open("job", batch_id, Some(index)));
                let start = Instant::now();
                let stats = self.job.run(pool, seed, tracer.zip(open.as_ref()));
                let wall_s = start.elapsed().as_secs_f64();
                if let (Some(t), Some(open)) = (tracer, open) {
                    t.close(open);
                }
                JobRecord { seed, wall_s, stats }
            });
        let wall_s = start.elapsed().as_secs_f64();
        if let (Some(t), Some(open)) = (tracer, batch_span) {
            t.close(open);
        }
        Batch { records, wall_s, workers }
    }
}

/// Per-job seeds of a pass, derived from `--seed`.
pub fn job_seeds(seed: u64, jobs: usize) -> Vec<u64> {
    (0..jobs as u64).map(|i| stats::mix(seed, i)).collect()
}

/// Hash over per-job (seed, instructions, cycles, stalls, verified) and,
/// for composed jobs, (classes, result bits). Repeats exactly for a
/// fixed `--seed`.
pub fn digest(records: &[JobRecord]) -> u64 {
    let mut d = Digest::new();
    for r in records {
        let s = &r.stats;
        d.u64(r.seed);
        d.u64(s.instructions);
        d.u64(s.sim_cycles);
        d.u64(u64::from(s.verified));
        s.stalls.iter().chain(&s.classes).for_each(|v| d.u64(*v));
        d.u64(s.result_hash);
    }
    d.finish()
}

pub fn failed(records: &[JobRecord]) -> u64 {
    records.iter().filter(|r| !r.stats.verified).count() as u64
}

/// Segments a measured region is cut into. Every timing metric is the
/// median over segments of that segment's statistic, so host noise that
/// hits fewer than half of them does not move the result.
pub const SEGMENTS: usize = 9;

/// One consecutive part of the untraced measured region.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Per-job wall; `+∞` for a job that failed.
    pub walls: Vec<f64>,
    /// Instructions retired by the jobs that completed.
    pub instructions: u64,
    /// Benchmark-clock wall around the whole segment: operand
    /// generation, arena acquire, execute and verify included.
    pub region_s: f64,
}

impl Segment {
    pub fn of_batch(batch: &Batch) -> Self {
        Self {
            walls: walls(&batch.records),
            instructions: instructions(&batch.records),
            region_s: batch.wall_s,
        }
    }
}

/// The end-to-end metrics of the untraced measured region (everything
/// but `setup_s` and `peak_rss_mb`, see [`Pass::set_up_and_measure`]):
/// each the median over segments of the segment's own rate or median.
pub fn end_to_end(m: &mut Metrics, segments: &[Segment]) {
    let over_segments =
        |f: &dyn Fn(&Segment) -> f64| stats::median(&segments.iter().map(f).collect::<Vec<f64>>());
    m.set("sim_mips", over_segments(&|s| s.instructions as f64 / 1e6 / s.region_s));
    m.set(
        "jobs_per_s",
        over_segments(&|s| s.walls.iter().filter(|w| w.is_finite()).count() as f64 / s.region_s),
    );
    m.set("job_p50_s", over_segments(&|s| stats::median(&s.walls)));
}

/// Splits `jobs` into [`SEGMENTS`] equal parts, each a whole number of
/// `lanes`-sized rounds so no lane idles at a segment's end.
pub fn per_segment(jobs: usize, lanes: usize) -> usize {
    let rounds = (jobs as f64 / (SEGMENTS * lanes) as f64).round() as usize;
    rounds.max(1) * lanes
}

/// Per-job walls; a job that failed counts as +∞, so it misses every
/// latency limit.
pub fn walls(records: &[JobRecord]) -> Vec<f64> {
    records.iter().map(|r| if r.stats.verified { r.wall_s } else { f64::INFINITY }).collect()
}

pub fn instructions(records: &[JobRecord]) -> u64 {
    records.iter().map(|r| r.stats.instructions).sum()
}

/// Per-layer metrics of the composed jobs, from their records and the
/// spans around their layer calls. Job `first_job + i` is `records[i]`;
/// jobs numbered below `first_job` are warm-up and only feed the
/// lazy-table estimate.
pub fn layer_metrics(m: &mut Metrics, spans: &[Span], records: &[JobRecord], first_job: u64) {
    let (measured, warm): (Vec<Span>, Vec<Span>) =
        spans.iter().filter(|s| s.job.is_some()).cloned().partition(|s| s.job >= Some(first_job));
    let setup_sum = |name: &str| spans.iter().filter(|s| s.name == name).map(Span::seconds).sum::<f64>();
    let per_job = |name: &str| trace::per_job_seconds(&measured, name);
    let median_of = |name: &str| {
        let v: Vec<f64> = per_job(name).into_values().collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let total = |name: &str| per_job(name).values().sum::<f64>();
    let jobs = records.len() as f64;

    for (metric, span) in [
        ("phy.generate_s", "phy.generate"),
        ("kernels.write_s", "kernels.write"),
        ("kernels.verify_s", "kernels.verify"),
        ("terapool.pool_s", "terapool.pool"),
        ("terapool.fast_exec_s", "terapool.fast_exec"),
        ("terapool.cycle_exec_s", "terapool.cycle_exec"),
    ] {
        m.set(metric, median_of(span));
    }

    // Lowered tables are built lazily inside the first run: the warm-up
    // job's execute span over the steady median is their cost as seen
    // from outside.
    let exec_names = ["terapool.fast_exec", "terapool.cycle_exec"];
    let lazy: f64 = exec_names
        .iter()
        .map(|name| {
            let first = trace::per_job_seconds(&warm, name).into_values().fold(0.0, f64::max);
            (first - median_of(name)).max(0.0)
        })
        .sum();
    m.set("kernels.emit_s", setup_sum("kernels.emit"));
    m.set("terapool.artifacts_s", setup_sum("terapool.artifacts") + lazy);

    // Host time per simulated event, over the jobs that ran on that
    // engine.
    let engine_totals = |name: &str| {
        per_job(name).iter().fold((0.0, 0.0, 0.0), |(s, inst, cycles), (job, seconds)| {
            let stats = &records[(job - first_job) as usize].stats;
            (s + seconds, inst + stats.instructions as f64, cycles + stats.sim_cycles as f64)
        })
    };
    let (fast_s, fast_inst, _) = engine_totals("terapool.fast_exec");
    let (cycle_s, cycle_inst, cycle_cycles) = engine_totals("terapool.cycle_exec");
    if fast_inst > 0.0 {
        m.set("terapool.fast_ns_per_inst", fast_s * 1e9 / fast_inst);
    }
    if cycle_inst > 0.0 {
        m.set("terapool.cycle_ns_per_inst", cycle_s * 1e9 / cycle_inst);
        m.set("terapool.cycle_ns_per_simcycle", cycle_s * 1e9 / cycle_cycles);
    }

    let epochs = records.iter().fold(EpochReport::default(), |mut acc, r| {
        acc.windows += r.stats.epochs.windows;
        acc.extended += r.stats.epochs.extended;
        acc.cycles += r.stats.epochs.cycles;
        acc
    });
    if epochs.windows > 0 {
        m.set("terapool.epoch_windows", epochs.windows as f64 / jobs);
        m.set("terapool.epoch_extended_frac", epochs.extended as f64 / epochs.windows as f64);
        m.set("terapool.epoch_avg_len", epochs.avg_epoch_len());
    }

    let hart_cycles: f64 = records.iter().map(|r| (r.stats.sim_cycles * r.stats.harts) as f64).sum();
    if hart_cycles > 0.0 {
        m.set("terapool.ipc", instructions(records) as f64 / hart_cycles);
    }
    for (i, name) in STALL_METRICS.iter().enumerate() {
        m.set(name, records.iter().map(|r| r.stats.stalls[i] as f64).sum::<f64>() / jobs);
    }
    for (i, name) in CLASS_METRICS.iter().enumerate() {
        m.set(name, records.iter().map(|r| r.stats.classes[i] as f64).sum::<f64>() / jobs);
    }

    let job_spans: f64 = measured.iter().filter(|s| s.name == "job").map(Span::seconds).sum();
    let share = |names: &[&str]| 100.0 * names.iter().map(|n| total(n)).sum::<f64>() / job_spans;
    m.set("share.exec_pct", share(&exec_names));
    m.set("share.operands_pct", share(&["phy.generate", "kernels.write", "kernels.verify"]));
    m.set("share.serving_pct", share(&["terapool.pool"]));
    m.set("trace_closure_gap_pct", 100.0 * trace::job_gap_p99(&measured));
    m.set("traced_job_p50_s", stats::median(&walls(records)));
    m.set("traced_jobs", jobs);
}

/// How well a batch kept its lanes busy: the lane-average time spent
/// outside jobs (spawn, steal, tail imbalance), and its complement as a
/// share.
pub fn batch_metrics(m: &mut Metrics, batch: &Batch) {
    let job_s: f64 = batch.records.iter().map(|r| r.wall_s).sum();
    let lanes = batch.workers.min(batch.records.len()) as f64;
    m.set("core.batch_self_s", batch.wall_s - job_s / lanes);
    m.set("core.batch_efficiency", job_s / (lanes * batch.wall_s));
}

/// The composed jobs must reproduce the top-level entry points exactly.
pub fn first_mismatch(composed: &[JobRecord], top_level: &[JobRecord]) -> Option<String> {
    composed.iter().zip(top_level).find_map(|(c, t)| {
        let same = (c.seed, c.stats.instructions, c.stats.sim_cycles, c.stats.verified)
            == (t.seed, t.stats.instructions, t.stats.sim_cycles, t.stats.verified);
        (!same).then(|| {
            format!(
                "seed {:#x}: composed (inst {}, cycles {}, verified {}) != top-level (inst {}, cycles {}, verified {})",
                c.seed,
                c.stats.instructions,
                c.stats.sim_cycles,
                c.stats.verified,
                t.stats.instructions,
                t.stats.sim_cycles,
                t.stats.verified
            )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn record(seed: u64, instructions: u64) -> JobRecord {
        JobRecord {
            seed,
            wall_s: 0.5,
            stats: JobStats { instructions, verified: true, ..JobStats::default() },
        }
    }

    #[test]
    fn digest_covers_seed_and_statistics() {
        let a = [record(1, 10), record(2, 10)];
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&[record(1, 10), record(3, 10)]));
        assert_ne!(digest(&a), digest(&[record(1, 10), record(2, 11)]));
        let mut unverified = a.clone();
        unverified[1].stats.verified = false;
        assert_ne!(digest(&a), digest(&unverified));
        assert_eq!(failed(&unverified), 1);
    }

    #[test]
    fn mismatch_names_the_first_diverging_job() {
        let a = [record(1, 10), record(2, 10)];
        assert_eq!(first_mismatch(&a, &a), None);
        let b = [record(1, 10), record(2, 12)];
        assert!(first_mismatch(&a, &b).unwrap().starts_with("seed 0x2:"));
    }

    #[test]
    fn end_to_end_metrics_are_segment_medians() {
        let segment = |region_s, wall| Segment { walls: vec![wall; 4], instructions: 8_000_000, region_s };
        // One slow segment of three moves neither the rates nor the job time.
        let mut m = Metrics::new(&END_TO_END);
        end_to_end(&mut m, &[segment(2.0, 0.5), segment(2.0, 0.5), segment(4.0, 1.0)]);
        assert_eq!(m.get("sim_mips"), Some(4.0));
        assert_eq!(m.get("jobs_per_s"), Some(2.0));
        assert_eq!(m.get("job_p50_s"), Some(0.5));
        // A failed job has no latency and is not completed work.
        let mut failed = segment(2.0, 0.5);
        failed.walls[0] = f64::INFINITY;
        end_to_end(&mut m, &[failed]);
        assert_eq!(m.get("jobs_per_s"), Some(1.5));
    }

    #[test]
    fn segments_are_whole_rounds_of_lanes() {
        assert_eq!(per_segment(37, 2), 4);
        assert_eq!(per_segment(135, 1), 15);
        assert_eq!(per_segment(1, 2), 2);
    }
}
