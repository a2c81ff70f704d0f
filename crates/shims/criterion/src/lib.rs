//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! API subset used by this workspace's benches.
//!
//! The build environment has no network access, so the real crates.io
//! `criterion` cannot be fetched. This shim keeps the bench sources
//! compiling unchanged and produces simple wall-clock measurements
//! (median of several samples, ns/iter plus element throughput and cost
//! per element) on stdout — enough to track relative regressions,
//! without criterion's statistics machinery.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measurement harness handed to bench functions.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A `function/parameter` benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Creates an id rendered as `function/parameter`.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        Self { label: format!("{function}/{parameter}") }
    }
}

/// Group of related benchmarks sharing a name prefix and throughput.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

/// Timing loop driver passed to the bench closure.
#[derive(Debug, Default)]
pub struct Bencher {
    ns_per_iter: f64,
}

impl Bencher {
    /// Times `f`, storing the per-iteration cost.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm up and calibrate an iteration count targeting ~50 ms per
        // sample, then keep the median of five samples.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let per_sample = ((0.05 / once.as_secs_f64()).ceil() as u64).clamp(1, 1_000_000);
        let mut samples: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..per_sample {
                    black_box(f());
                }
                start.elapsed().as_secs_f64() * 1e9 / per_sample as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        self.ns_per_iter = samples[samples.len() / 2];
    }
}

fn report(name: &str, ns_per_iter: f64, throughput: Option<Throughput>) {
    match throughput {
        Some(Throughput::Elements(n)) => {
            let rate = n as f64 / (ns_per_iter * 1e-9);
            let per_elem = ns_per_iter / n as f64;
            println!(
                "{name:<40} {ns_per_iter:>14.1} ns/iter   {:>10.2} Melem/s   {per_elem:>10.1} ns/elem",
                rate / 1e6
            );
        }
        Some(Throughput::Bytes(n)) => {
            let rate = n as f64 / (ns_per_iter * 1e-9);
            println!("{name:<40} {ns_per_iter:>14.1} ns/iter   {:>10.2} MiB/s", rate / (1 << 20) as f64);
        }
        None => println!("{name:<40} {ns_per_iter:>14.1} ns/iter"),
    }
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _criterion: self, name: name.into(), throughput: None }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b);
        report(name, b.ns_per_iter, None);
        self
    }
}

impl BenchmarkGroup<'_> {
    /// Sets the group's throughput annotation.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b);
        report(&format!("{}/{}", self.name, name), b.ns_per_iter, self.throughput);
        self
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::default();
        f(&mut b, input);
        report(&format!("{}/{}", self.name, id.label), b.ns_per_iter, self.throughput);
        self
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(self) {}
}

/// Collects bench functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.throughput(Throughput::Elements(64));
        group.bench_function("sum", |b| b.iter(|| (0..64u64).sum::<u64>()));
        group.finish();
        c.bench_function("free", |b| b.iter(|| black_box(1 + 1)));
    }
}
