//! Synthetic open-loop load generation against a [`Daemon`].
//!
//! Two modes, one entry point ([`open_loop`]):
//!
//! * **Paced** (`rate_per_sec > 0`): a Poisson arrival process —
//!   exponential inter-arrival gaps at the given mean rate, submissions
//!   never waiting for earlier responses (true open loop). When the
//!   daemon pushes back with [`Rejected::Overloaded`] the request is
//!   *dropped* and counted, exactly like a shed request in a real
//!   front end.
//! * **Saturating** (`rate_per_sec == 0`): submissions as fast as the
//!   admission queue accepts them, waiting out the oldest in-flight
//!   ticket whenever the queue is full. This measures the daemon's
//!   sustained capacity (`jobs_per_sec`) without choosing an arrival
//!   rate first — the mode `terasim-serve` runs by default.
//!
//! All randomness (template choice, inter-arrival gaps, per-request
//! seeds) derives from one `u64` seed through the PHY's deterministic
//! [`Rng64`], so a load run is reproducible end to end.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use terasim_phy::rng::Rng64;
use terasim_phy::{ChannelKind, Mimo, Modulation};

use super::{Completion, Daemon, Rejected, ServeRequest, Ticket};
use crate::detectors::DetectorKind;
use crate::experiments::{BatchConfig, CycleEngine, ParallelConfig};
use terasim_kernels::Precision;

/// A weighted set of request templates; each emitted request is a clone
/// of one template with a fresh seed ([`ServeRequest::reseed`]).
#[derive(Debug, Clone, Default)]
pub struct LoadMix {
    entries: Vec<(u32, ServeRequest)>,
}

impl LoadMix {
    /// An empty mix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a template with the given relative weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    #[must_use]
    pub fn with(mut self, weight: u32, template: ServeRequest) -> Self {
        assert!(weight > 0, "a zero-weight template would never be emitted");
        self.entries.push((weight, template));
        self
    }

    /// Number of templates in the mix.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the mix has no templates.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Picks one template by weight and reseeds it from `rng`.
    fn sample(&self, rng: &mut Rng64) -> ServeRequest {
        assert!(!self.entries.is_empty(), "cannot sample an empty load mix");
        let total: u64 = self.entries.iter().map(|(w, _)| u64::from(*w)).sum();
        let mut pick = rng.next_u64() % total;
        for (weight, template) in &self.entries {
            if pick < u64::from(*weight) {
                let mut req = template.clone();
                req.reseed(rng.next_u64());
                return req;
            }
            pick -= u64::from(*weight);
        }
        unreachable!("weighted pick is bounded by the total weight");
    }
}

/// The benchmark's mixed traffic: mostly symbol batches (two scenarios,
/// so the cache holds more than one key), some fast-mode cluster runs,
/// an occasional cycle-accurate run and an occasional
/// hardware-in-the-loop BER point. Sized for CI — every template is a
/// sub-second request on one host core.
pub fn standard_mix() -> LoadMix {
    LoadMix::new()
        .with(
            4,
            ServeRequest::Symbol {
                config: BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 8, seed: 0, unroll: 2 },
            },
        )
        .with(
            2,
            ServeRequest::Symbol {
                config: BatchConfig { n: 4, precision: Precision::Half16, nsc: 4, seed: 0, unroll: 2 },
            },
        )
        .with(
            2,
            ServeRequest::Fast {
                config: ParallelConfig { cores: 16, n: 4, precision: Precision::CDotp16, seed: 0, unroll: 2 },
            },
        )
        .with(
            1,
            ServeRequest::Cycle {
                config: ParallelConfig { cores: 8, n: 4, precision: Precision::WDotp8, seed: 0, unroll: 2 },
                engine: CycleEngine::EventDriven,
            },
        )
        .with(
            1,
            ServeRequest::Ber {
                scenario: Mimo {
                    n_tx: 4,
                    n_rx: 4,
                    modulation: Modulation::Qam16,
                    channel: ChannelKind::Awgn,
                },
                kind: DetectorKind::Iss(Precision::CDotp16),
                snr_db: 12.0,
                seed: 0,
                target_errors: 4,
                max_iterations: 32,
            },
        )
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests the generator tried to submit.
    pub offered: u64,
    /// Requests the daemon admitted.
    pub accepted: u64,
    /// Requests shed at the door (paced mode) or refused because the
    /// daemon was draining.
    pub rejected: u64,
    /// Admitted requests that produced a response.
    pub completed: u64,
    /// Admitted requests that ended in a [`ServeError`](super::ServeError).
    pub failed: u64,
    /// Wall-clock span from first submission to last completion.
    pub wall: Duration,
    /// Sustained completion throughput over `wall`.
    pub jobs_per_sec: f64,
    /// Median submission-to-completion latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// Worst-case latency, nanoseconds.
    pub max_ns: u64,
    /// Requests whose scenario was warm in the artifact cache.
    pub cache_hits: u64,
    /// Requests that ran a scenario build or waited for one in flight
    /// (`builds + coalesced` in [`super::CacheStats`] terms).
    pub cache_misses: u64,
}

impl LoadReport {
    /// Warm-cache fraction of all completed requests (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Drives `requests` requests from `mix` at `rate_per_sec` (0 =
/// saturating — see [`crate::daemon`] for the two pacing modes), waits for every admitted
/// request, and reports throughput, latency percentiles and cache
/// behaviour. Fully deterministic in its request *sequence* given
/// `seed`; timing numbers are of course host-dependent.
///
/// # Panics
///
/// Panics if `mix` is empty.
pub fn open_loop(
    daemon: &Daemon,
    mix: &LoadMix,
    rate_per_sec: f64,
    requests: usize,
    seed: u64,
) -> LoadReport {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut outstanding: VecDeque<Ticket> = VecDeque::new();
    let mut completions: Vec<Completion> = Vec::with_capacity(requests);
    let mut rejected = 0u64;
    let mut accepted = 0u64;
    let start = Instant::now();
    let mut next_arrival = Duration::ZERO;

    for _ in 0..requests {
        let req = mix.sample(&mut rng);
        if rate_per_sec > 0.0 {
            // Poisson arrivals: exponential gap at the mean rate.
            let gap = -(1.0 - rng.next_f64()).ln() / rate_per_sec;
            next_arrival += Duration::from_secs_f64(gap);
            let elapsed = start.elapsed();
            if next_arrival > elapsed {
                std::thread::sleep(next_arrival - elapsed);
            }
            match daemon.submit(req) {
                Ok(ticket) => {
                    accepted += 1;
                    outstanding.push_back(ticket);
                }
                Err(_) => rejected += 1,
            }
        } else {
            // Saturating: never shed; when the queue is full, wait out
            // the oldest in-flight request (guaranteeing the queue made
            // progress) and retry.
            loop {
                match daemon.submit(req.clone()) {
                    Ok(ticket) => {
                        accepted += 1;
                        outstanding.push_back(ticket);
                        break;
                    }
                    Err(Rejected::Overloaded { .. }) => match outstanding.pop_front() {
                        Some(ticket) => completions.push(ticket.wait()),
                        None => std::thread::yield_now(),
                    },
                    Err(Rejected::ShuttingDown) => {
                        rejected += 1;
                        break;
                    }
                }
            }
        }
    }
    for ticket in outstanding {
        completions.push(ticket.wait());
    }
    let wall = start.elapsed();

    let failed = completions.iter().filter(|c| c.response.is_err()).count() as u64;
    let cache_hits = completions.iter().filter(|c| c.cache_hit).count() as u64;
    let mut latencies: Vec<u64> = completions.iter().map(|c| c.latency.as_nanos() as u64).collect();
    latencies.sort_unstable();
    let completed = completions.len() as u64 - failed;
    LoadReport {
        offered: requests as u64,
        accepted,
        rejected,
        completed,
        failed,
        wall,
        jobs_per_sec: completed as f64 / wall.as_secs_f64().max(1e-9),
        p50_ns: percentile(&latencies, 50.0),
        p99_ns: percentile(&latencies, 99.0),
        max_ns: latencies.last().copied().unwrap_or(0),
        cache_hits,
        cache_misses: completions.len() as u64 - cache_hits,
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((sorted_ns.len() as f64 * p / 100.0).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_sampling_is_deterministic_and_reseeded() {
        let mix = standard_mix();
        assert_eq!(mix.len(), 5);
        let mut a = Rng64::seed_from_u64(7);
        let mut b = Rng64::seed_from_u64(7);
        for _ in 0..32 {
            let ra = mix.sample(&mut a);
            let rb = mix.sample(&mut b);
            assert_eq!(ra.key(), rb.key());
            assert_eq!(ra.label(), rb.label());
        }
    }

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
