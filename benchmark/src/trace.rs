//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory during the run and written out at exit.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

/// Share of a job span that may lie outside every child span.
pub const CLOSURE_TOLERANCE: f64 = 0.02;

/// One closed span. `parent` is the span that caused it; the spans of
/// one job share `job`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub job: Option<u64>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span that has started; [`Tracer::close`] records it.
#[derive(Debug)]
pub struct Open {
    pub id: u32,
    name: &'static str,
    start_ns: u64,
    parent: Option<u32>,
    job: Option<u64>,
}

/// The span store. Shared by reference between worker threads: a span
/// costs two clock reads and one short lock, against jobs of
/// milliseconds to seconds.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), next_id: AtomicU32::new(0), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: Option<u32>, job: Option<u64>) -> Open {
        // Relaxed: the id publishes nothing, it only has to be unique.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, name, start_ns: self.now_ns(), parent, job }
    }

    pub fn close(&self, open: Open) -> Span {
        let span = Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            parent: open.parent,
            job: open.job,
        };
        self.spans.lock().expect("no span holder panics").push(span.clone());
        span
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn span<T>(&self, name: &'static str, parent: &Open, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, Some(parent.id), parent.job);
        let out = f();
        self.close(open);
        out
    }

    /// Every recorded span, in id (= start) order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("no span holder panics").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// The same call either way; a child span of `parent` only when asked
/// for.
pub fn in_span<T>(spans: Option<(&Tracer, &Open)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some((tracer, parent)) => tracer.span(name, parent, f),
        None => f(),
    }
}

/// A span's self time: its duration minus the part of its interval its
/// child spans cover (overlapping children count once).
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in intervals {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

/// Per-job closure: the share of a `job` span that none of its child
/// spans covers, at the 99th percentile over jobs (the worst job when
/// there are fewer than a hundred). The layers sum to the whole when
/// this is small; one preempted job among thousands does not count as a
/// hole in the accounting.
pub fn job_gap_p99(spans: &[Span]) -> f64 {
    let mut children = BTreeMap::<u32, Vec<&Span>>::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push(s);
        }
    }
    let gaps: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "job")
        .map(|job| {
            let kids = children.get(&job.id).map_or(&[][..], Vec::as_slice);
            self_ns(job, kids) as f64 / (job.end_ns - job.start_ns).max(1) as f64
        })
        .collect();
    if gaps.is_empty() {
        0.0
    } else {
        crate::stats::percentile(&gaps, 99.0)
    }
}

/// Seconds spent in spans called `name`, per job (a layer entered twice
/// in one job counts once, with both visits).
pub fn per_job_seconds(spans: &[Span], name: &str) -> BTreeMap<u64, f64> {
    let mut by_job = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        if let Some(job) = s.job {
            *by_job.entry(job).or_default() += s.seconds();
        }
    }
    by_job
}

pub fn to_json(spans: &[Span]) -> Value {
    let opt = |v: Option<u64>| v.map_or(Value::Null, |x| Value::Num(x as f64));
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("id", Value::Num(f64::from(s.id))),
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("parent", opt(s.parent.map(u64::from))),
                    ("job", opt(s.job)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { id, name, start_ns, end_ns, parent, job: Some(0) }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let job = span(0, "job", 100, 200, None);
        let a = span(1, "a", 100, 140, Some(0));
        let b = span(2, "b", 130, 160, Some(0)); // overlaps a by 10
        let c = span(3, "c", 190, 250, Some(0)); // clipped to the parent
        assert_eq!(self_ns(&job, &[&a, &b, &c]), 100 - (60 + 10));
        assert_eq!(self_ns(&job, &[]), 100);
    }

    #[test]
    fn closure_reports_the_worst_of_few_jobs() {
        let spans = vec![
            span(0, "job", 0, 100, None),
            span(1, "x", 0, 99, Some(0)),
            span(2, "job", 100, 200, None),
            span(3, "x", 100, 150, Some(2)),
            span(4, "y", 150, 190, Some(2)),
        ];
        assert!((job_gap_p99(&spans) - 0.10).abs() < 1e-12);
        assert_eq!(job_gap_p99(&[]), 0.0);
    }

    #[test]
    fn tracer_links_children_to_their_job() {
        let tracer = Tracer::new();
        let job = tracer.open("job", None, Some(7));
        assert_eq!(tracer.span("layer", &job, || 41 + 1), 42);
        tracer.span("layer", &job, || ());
        let job = tracer.close(job);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0], job);
        assert!(spans[1..].iter().all(|s| s.parent == Some(job.id) && s.job == Some(7)));
        assert!(spans[1].end_ns <= spans[2].start_ns && spans[2].end_ns <= job.end_ns);
        assert_eq!(per_job_seconds(&spans, "layer").len(), 1);
    }
}
