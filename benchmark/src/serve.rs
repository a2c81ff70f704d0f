//! The serving workload: an in-process `Daemon` under a closed loop of
//! clients that each submit, wait for the reply, and submit again — the
//! shape of the sweep scripts that call it. The request mix is owned by
//! the benchmark so that edits to `daemon::standard_mix` cannot change it.

use std::sync::Arc;
use std::time::Instant;

use terasim::daemon::{Daemon, DaemonConfig, DaemonStats, ServeRequest, ServeResponse};
use terasim::experiments::{BatchConfig, CycleEngine, ParallelConfig};
use terasim::DetectorKind;
use terasim_kernels::Precision;
use terasim_phy::rng::Rng64;
use terasim_phy::{BerJob, ChannelKind, Detector, Mimo, Modulation};
use terasim_terapool::MemPool;

use crate::job::{self, Job, JobRecord, JobStats, Pass, Segment, SEGMENTS};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::mmse::{Composed, MmseConfig};
use crate::stats::{self, Digest};
use crate::trace::{self, in_span, Tracer};

#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub workers: usize,
    pub clients: usize,
    pub cache_capacity: usize,
    pub warmup_requests: usize,
    /// Reference-host rate: fixes the request count from `--seconds`.
    pub requests_per_second: f64,
    /// `(weight, template)`; emitted requests are reseeded clones.
    pub mix: Vec<(u32, ServeRequest)>,
}

/// Six scenario keys over four cache slots, so eviction and rebuild stay
/// in the path; guests of 0.1-5 ms, so the serving layers do most of the
/// work.
pub fn mix() -> Vec<(u32, ServeRequest)> {
    let symbol = |n, precision, nsc| ServeRequest::Symbol {
        config: BatchConfig { n, precision, nsc, seed: 0, unroll: 2 },
    };
    let parallel = |cores, precision| ParallelConfig { cores, n: 4, precision, seed: 0, unroll: 2 };
    vec![
        (8, symbol(4, Precision::CDotp16, 64)),
        (2, symbol(8, Precision::Half16, 16)),
        (2, ServeRequest::Fast { config: parallel(64, Precision::CDotp16) }),
        (
            1,
            ServeRequest::Cycle { config: parallel(16, Precision::WDotp8), engine: CycleEngine::EventDriven },
        ),
        (
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
        ),
        (1, ServeRequest::Fast { config: parallel(16, Precision::Quarter8) }),
    ]
}

/// One generated request: which template it came from, and the request.
type Request = (usize, ServeRequest);

/// The request sequence for `seed`. Stratified: every block of
/// total-weight requests holds each template exactly weight times, in an
/// order shuffled from the seed, and every request gets a fresh operand
/// seed. So the mix is exact for every seed and only order and operands
/// vary. The daemon receives only these.
fn requests(spec: &ServeSpec, seed: u64, count: usize) -> Vec<Request> {
    let mut rng = Rng64::seed_from_u64(seed);
    let block: Vec<usize> =
        spec.mix.iter().enumerate().flat_map(|(t, (w, _))| std::iter::repeat_n(t, *w as usize)).collect();
    let mut out = Vec::with_capacity(count + block.len());
    while out.len() < count {
        let mut order = block.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for template in order {
            let mut req = spec.mix[template].1.clone();
            req.reseed(rng.next_u64());
            out.push((template, req));
        }
    }
    out.truncate(count);
    out
}

fn request_seed(req: &ServeRequest) -> u64 {
    match req {
        ServeRequest::Symbol { config } => config.seed,
        ServeRequest::Fast { config } | ServeRequest::Cycle { config, .. } => config.seed,
        ServeRequest::Ber { seed, .. } => *seed,
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct Served {
    record: JobRecord,
    /// Time in the admission queue; `None` for a request refused at the
    /// door.
    queued_s: Option<f64>,
    /// Guest execute wall the response reports (BER points report none).
    exec_s: Option<f64>,
}

fn ber_stats(point: &terasim_phy::BerPoint) -> JobStats {
    let mut hash = Digest::new();
    [point.bits, point.errors, point.iterations].iter().for_each(|v| hash.u64(*v));
    JobStats { verified: true, result_hash: hash.finish(), ..JobStats::default() }
}

fn response_stats(response: &ServeResponse) -> (JobStats, Option<f64>) {
    match response {
        ServeResponse::Symbol(o) => (
            JobStats {
                instructions: o.instructions,
                sim_cycles: o.cycles,
                verified: o.verified,
                ..JobStats::default()
            },
            Some(o.wall.as_secs_f64()),
        ),
        ServeResponse::Fast(o) => (
            JobStats {
                instructions: o.instructions,
                sim_cycles: o.cluster_cycles,
                verified: o.verified,
                stalls: [o.raw_stalls, 0, 0, 0, o.wfi_stalls],
                ..JobStats::default()
            },
            Some(o.wall.as_secs_f64()),
        ),
        ServeResponse::Cycle(o) => {
            let b = o.breakdown;
            (
                JobStats {
                    instructions: o.instructions,
                    sim_cycles: o.cycles,
                    verified: o.verified,
                    stalls: [b.stall_raw, b.stall_lsu, b.stall_ins, b.stall_acc, b.stall_wfi],
                    ..JobStats::default()
                },
                Some(o.wall.as_secs_f64()),
            )
        }
        ServeResponse::Ber(point) => (ber_stats(point), None),
    }
}

/// The closed loop: `clients` threads, client `c` owning requests
/// `c, c + clients, ...`, each submitting its next request only after
/// the previous reply. With a tracer every request gets a `job` span
/// (numbered as the request) over `submit` and `wait` child spans.
/// Returns the per-request views in request order and the loop's wall.
fn closed_loop(
    daemon: &Daemon,
    clients: usize,
    requests: &[Request],
    tracer: Option<&Tracer>,
) -> (Vec<Served>, f64) {
    let start = Instant::now();
    let mut per_client: Vec<Vec<(usize, Served)>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut served = Vec::new();
                    for i in (c..requests.len()).step_by(clients) {
                        let req = &requests[i].1;
                        let job = tracer.map(|t| t.open("job", None, Some(i as u64)));
                        let sent = Instant::now();
                        let spans = tracer.zip(job.as_ref());
                        let ticket = in_span(spans, "core.daemon.submit", || daemon.submit(req.clone()));
                        let completion =
                            ticket.ok().map(|ticket| in_span(spans, "core.daemon.wait", || ticket.wait()));
                        let wall_s = sent.elapsed().as_secs_f64();
                        if let (Some(t), Some(job)) = (tracer, job) {
                            t.close(job);
                        }
                        let (stats, exec_s) = match completion.as_ref().map(|c| &c.response) {
                            Some(Ok(response)) => response_stats(response),
                            _ => (JobStats::default(), None),
                        };
                        let record = JobRecord { seed: request_seed(req), wall_s, stats };
                        let queued_s = completion.map(|c| c.queued.as_secs_f64());
                        served.push((i, Served { record, queued_s, exec_s }));
                    }
                    served
                })
            })
            .collect();
        per_client = handles.into_iter().map(|h| h.join().expect("client thread finishes")).collect();
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut all: Vec<(usize, Served)> = per_client.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    (all.into_iter().map(|(_, s)| s).collect(), wall_s)
}

fn records(served: &[Served]) -> Vec<JobRecord> {
    served.iter().map(|s| s.record.clone()).collect()
}

/// Starts the daemon and fills its caches: set-up as a user pays it.
fn start_warm(spec: &ServeSpec, seed: u64) -> (Daemon, Vec<JobRecord>) {
    let daemon = Daemon::start(DaemonConfig {
        workers: spec.workers,
        cache_capacity: spec.cache_capacity,
        ..DaemonConfig::default()
    });
    let warm = requests(spec, stats::mix(seed, u64::MAX), spec.warmup_requests);
    let (served, _) = closed_loop(&daemon, spec.clients, &warm, None);
    (daemon, records(&served))
}

fn request_count(spec: &ServeSpec, seconds: f64) -> usize {
    (seconds * spec.requests_per_second).round() as usize
}

pub fn untraced(spec: &ServeSpec, seed: u64, seconds: f64) -> Pass {
    let mut pass = Pass::new(Metrics::new(&END_TO_END));
    let set_up = |pass: &mut Pass| {
        let (daemon, warm) = start_warm(spec, seed);
        pass.count(&warm);
        daemon
    };
    pass.set_up_and_measure(set_up, |pass, daemon| {
        let per_segment = job::per_segment(request_count(spec, seconds), spec.clients);
        let reqs = requests(spec, seed, per_segment * SEGMENTS);
        let mut recs = Vec::new();
        let mut segments = Vec::new();
        for chunk in reqs.chunks(per_segment) {
            let (part, region_s) = closed_loop(&daemon, spec.clients, chunk, None);
            let part = records(&part);
            segments.push(Segment {
                walls: job::walls(&part),
                instructions: job::instructions(&part),
                region_s,
            });
            recs.extend(part);
        }
        let stats = daemon.shutdown();
        pass.count(&recs);
        pass.digest = job::digest(&recs);
        job::end_to_end(&mut pass.metrics, &segments);
        pass.note("samples", recs.len() as f64);
        pass.note("cache_evictions", stats.cache.evictions as f64);
    });
    pass
}

/// A request re-run outside the daemon, from the layers' public
/// functions.
enum Direct {
    Mmse(Composed, Arc<MemPool>),
    Ber(Box<dyn Detector + Send + Sync>),
}

fn percentile_ms(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::percentile(values, p) * 1e3
    }
}

fn stats_delta(after: &DaemonStats, before: &DaemonStats, m: &mut Metrics) {
    let hits = (after.cache.hits - before.cache.hits) as f64;
    let misses = (after.cache.misses - before.cache.misses) as f64;
    let recycled = (after.pools.recycled - before.pools.recycled) as f64;
    let fresh = (after.pools.fresh - before.pools.fresh) as f64;
    m.set("core.cache_hit_frac", if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 });
    m.set("core.cache_evictions", (after.cache.evictions - before.cache.evictions) as f64);
    m.set(
        "core.pool_recycled_frac",
        if recycled + fresh > 0.0 { recycled / (recycled + fresh) } else { 0.0 },
    );
    let rejected = (after.rejected_overload + after.rejected_draining)
        - (before.rejected_overload + before.rejected_draining);
    m.set("core.rejected", rejected as f64);
}

pub fn traced(spec: &ServeSpec, seed: u64, seconds: f64, tracer: &Tracer) -> Pass {
    let mut pass = Pass::new(Metrics::zeroed(&PER_LAYER));

    // Set-up: the daemon, and every template prepared a second time from
    // the layers' public functions for the direct re-runs.
    let setup = tracer.open("setup", None, None);
    let (daemon, warm) = tracer.span("core.daemon.start_warm", &setup, || start_warm(spec, seed));
    pass.count(&warm);
    let direct: Vec<Direct> = spec
        .mix
        .iter()
        .map(|(_, template)| {
            let mmse = |config| {
                let composed = Composed::prepare(tracer, &setup, &config);
                let pool = MemPool::new(Arc::clone(composed.artifacts()));
                Direct::Mmse(composed, pool)
            };
            match template {
                ServeRequest::Symbol { config } => mmse(MmseConfig::Symbol(*config)),
                ServeRequest::Fast { config } => mmse(MmseConfig::Fast(*config, 1)),
                ServeRequest::Cycle { config, engine } => mmse(MmseConfig::Cycle(*config, *engine)),
                ServeRequest::Ber { scenario, kind, .. } => {
                    Direct::Ber(
                        tracer.span("core.detector_build", &setup, || kind.instantiate(scenario.n_tx)),
                    )
                }
            }
        })
        .collect();
    tracer.close(setup);

    // A third of the time each: traced loop, untraced loop, direct re-runs.
    let count = (request_count(spec, seconds) / 3).max(4 * spec.clients);
    let reqs = requests(spec, seed, count);
    let before = daemon.stats();
    let (served, _) = closed_loop(&daemon, spec.clients, &reqs, Some(tracer));
    let after = daemon.stats();
    let plain = records(&closed_loop(&daemon, spec.clients, &reqs, None).0);
    drop(daemon);
    let recs = records(&served);
    pass.count(&recs);
    pass.count(&plain);
    pass.digest = job::digest(&recs);

    // The same requests outside the daemon, one after another.
    let first_direct = count as u64;
    let direct_recs: Vec<JobRecord> = reqs
        .iter()
        .enumerate()
        .map(|(i, (template, req))| {
            let seed = request_seed(req);
            let open = tracer.open("job", None, Some(first_direct + i as u64));
            let start = Instant::now();
            let stats = match (&direct[*template], req) {
                (Direct::Mmse(composed, pool), _) => composed.run(pool, seed, Some((tracer, &open))),
                (
                    Direct::Ber(detector),
                    ServeRequest::Ber { scenario, snr_db, target_errors, max_iterations, .. },
                ) => {
                    let job = BerJob { scenario: *scenario, snr_db: *snr_db, seed };
                    tracer.span("core.ber_point", &open, || {
                        ber_stats(&job.run(detector.as_ref(), *target_errors, *max_iterations))
                    })
                }
                _ => unreachable!("a BER detector serves only BER requests"),
            };
            let wall_s = start.elapsed().as_secs_f64();
            tracer.close(open);
            JobRecord { seed, wall_s, stats }
        })
        .collect();
    pass.count(&direct_recs);
    let mismatch = direct_recs.iter().zip(&recs).find(|(d, s)| {
        // BER points compare by their (bits, errors, iterations) hash,
        // the others by what every response reports.
        (d.stats.instructions, d.stats.sim_cycles, d.stats.verified)
            != (s.stats.instructions, s.stats.sim_cycles, s.stats.verified)
            || (d.stats.instructions == 0 && d.stats.result_hash != s.stats.result_hash)
    });
    if let Some((d, s)) = mismatch {
        pass.errors.push(format!(
            "direct re-run of seed {:#x} differs from the daemon's reply: {:?} vs {:?}",
            d.seed, d.stats, s.stats
        ));
    }

    let spans = tracer.spans();
    let m = &mut pass.metrics;
    job::layer_metrics(m, &spans, &direct_recs, first_direct);

    let queue: Vec<f64> = served.iter().filter_map(|s| s.queued_s).collect();
    // The requests that report an execute wall: (latency, queued, exec).
    let with_exec: Vec<(f64, f64, f64)> =
        served.iter().filter_map(|s| Some((s.record.wall_s, s.queued_s?, s.exec_s?))).collect();
    let exec: Vec<f64> = with_exec.iter().map(|(_, _, e)| *e).collect();
    let overhead: Vec<f64> = with_exec.iter().map(|(latency, queued, e)| latency - queued - e).collect();
    for (name, values) in [("queue", &queue), ("exec", &exec), ("overhead", &overhead)] {
        m.set(&format!("core.daemon_{name}_ms_p50"), percentile_ms(values, 50.0));
        m.set(&format!("core.daemon_{name}_ms_p99"), percentile_ms(values, 99.0));
    }
    stats_delta(&after, &before, m);

    // Shares of the client's latency, over the requests that report an
    // execute wall: the guest, the operand work around it (as the direct
    // re-runs of the same requests measured it), and everything else —
    // queue, cache, pool, supervision, reply.
    let latency: f64 = with_exec.iter().map(|(latency, _, _)| latency).sum();
    let operands: f64 = ["phy.generate", "kernels.write", "kernels.verify"]
        .iter()
        .flat_map(|name| trace::per_job_seconds(&spans, name).into_values())
        .sum();
    let exec_pct = 100.0 * exec.iter().sum::<f64>() / latency;
    let operands_pct = 100.0 * operands / latency;
    m.set("share.exec_pct", exec_pct);
    m.set("share.operands_pct", operands_pct);
    m.set("share.serving_pct", 100.0 - exec_pct - operands_pct);

    let traced_p50 = stats::median(&job::walls(&recs));
    let plain_walls = job::walls(&plain);
    m.set("trace_overhead_pct", 100.0 * (traced_p50 / stats::median(&plain_walls) - 1.0));
    m.set("job_tail_s", stats::tail(&plain_walls).1);
    m.set("traced_job_p50_s", traced_p50);
    m.set("traced_jobs", count as f64);
    // Closure over the daemon requests too: submit + wait make the job.
    m.set("trace_closure_gap_pct", 100.0 * trace::job_gap_p99(&spans));
    pass
}
