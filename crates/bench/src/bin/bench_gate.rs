//! CI performance-regression gate over the cycle-engine benchmark report.
//!
//! Compares a candidate report (normally the `mips --smoke` output,
//! `BENCH_smoke.json`) against the committed smoke baseline
//! (`BENCH_baseline.json`) and **fails** (non-zero exit) when:
//!
//! * the MMSE event-vs-naive speedup falls below the baseline by more
//!   than the relative tolerance (`--tol-speedup`, default 0.35 — CI
//!   runners are noisy, the gate is for real regressions, not jitter);
//! * the barrier-skew speedup falls below the baseline by more than the
//!   same tolerance;
//! * any domain-sharded scaling or batch-serving entry present in the
//!   baseline (`speedup_threads_2`, `speedup_threads_4`,
//!   `speedup_event_vs_naive_at_scale`, `batch_amortization` — the
//!   jobs/sec win of shared artifacts over per-job rebuild —
//!   `symbol_amortization_pooled` — the small-symbol-job jobs/sec win of
//!   pool-recycled cluster memory over per-job rebuild) is missing from
//!   the candidate or falls below the baseline beyond the same tolerance
//!   band;
//! * the pooled small-job throughput (`jobs_per_sec_pooled`) is missing
//!   from the candidate while the baseline has it, or falls below the
//!   baseline by more than the factor `--tol-jobs` (default 3.0 —
//!   absolute jobs/sec varies across machines far more than the
//!   amortization ratios, so this is a did-the-pool-break check, not a
//!   jitter band);
//! * the 4-thread sharded speedup falls below the absolute floor
//!   (`--floor-threads4`, default 2.0) **when the candidate runner has
//!   at least 4 host CPUs** (`host_cpus` in the report) — a 1-core
//!   runner cannot exhibit wall-clock scaling, so only the
//!   baseline-relative band applies there;
//! * any serving-daemon entry present in the baseline is missing from
//!   the candidate, the sustained serve throughput
//!   (`serve_jobs_per_sec`) falls below the baseline by more than the
//!   `--tol-jobs` factor, the p99 serve latency (`serve_p99_ns`,
//!   queueing included) exceeds the baseline by more than the same
//!   factor, or the cross-request artifact-cache hit rate
//!   (`serve_cache_hit_rate`, the warm fraction of SERVING.md's
//!   *Cache keying* rule 2) is zero or falls below the
//!   baseline-relative band — a zero hit rate means the cache stopped
//!   carrying scenarios across requests, the serving tier's whole point;
//! * the event engine's per-instruction floor (`ns_per_inst`) exceeds
//!   the baseline by more than the factor `--tol-ns` (default 2.5 —
//!   baseline and CI run on different hardware);
//! * any adaptive-epoch entry (`avg_epoch_len`, `extended_epoch_pct`,
//!   `ns_per_inst_event_adaptive`, `speedup_threads_4_adaptive`,
//!   `speedup_adaptive_vs_fixed_skew` — written by the `mips
//!   --epoch-report` leg) is **missing from the candidate** — the leg
//!   silently disappearing fails even against a pre-adaptive baseline —
//!   or the extended-epoch share on the barrier-skew guest is zero (the
//!   quiescence predicate stopped firing: a correctness-adjacent
//!   regression, zero tolerance), or the adaptive-vs-fixed skew speedup
//!   falls below the absolute floor (`--floor-skew-adaptive`, default
//!   1.1 — the acceptance bar for the work the adaptive cadence
//!   deletes), or any of them falls outside its baseline-relative band
//!   (`--tol-speedup` for the ratios and shares, `--tol-ns` for the
//!   adaptive per-instruction floor);
//! * any block-engine entry (`ns_per_inst_fused`, `fast_speedup_fused`
//!   — written by the `mips --fusion-report` leg) is **missing from the
//!   candidate** — the leg silently disappearing fails even against a
//!   baseline without it — or the block engine's per-instruction floor
//!   exceeds the baseline by more than `--tol-ns`, or its wall-clock
//!   ratio over the per-instruction reference falls below the
//!   baseline-relative `--tol-speedup` band;
//! * any `stats_identical` flag in the candidate is not `true` (the
//!   engines diverged — that is a correctness bug, zero tolerance).
//!
//! Usage:
//! `bench_gate [--baseline BENCH_baseline.json] [--candidate BENCH_smoke.json]
//!             [--tol-speedup 0.35] [--tol-ns 2.5] [--tol-jobs 3.0]
//!             [--floor-threads4 2.0] [--floor-skew-adaptive 1.1]`
//!
//! The parser is a deliberately small scanner over the fixed report
//! format written by the `mips` binary (this workspace has no JSON
//! dependency); it extracts every numeric value following a quoted key.

use std::process::ExitCode;

use terasim_bench::{arg_f64, arg_str};

/// Every number appearing after `"key":` in `json`, in document order.
fn numbers_after(json: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find(&pat) {
        let tail = rest[i + pat.len()..].trim_start();
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(tail.len());
        if let Ok(v) = tail[..end].parse::<f64>() {
            out.push(v);
        }
        rest = &rest[i + pat.len()..];
    }
    out
}

/// Every boolean appearing after `"key":` in `json`, in document order.
fn bools_after(json: &str, key: &str) -> Vec<bool> {
    let pat = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find(&pat) {
        let tail = rest[i + pat.len()..].trim_start();
        if tail.starts_with("true") {
            out.push(true);
        } else if tail.starts_with("false") {
            out.push(false);
        }
        rest = &rest[i + pat.len()..];
    }
    out
}

struct Report {
    /// `[mmse, skew]` in document order.
    speedups: Vec<f64>,
    /// Event-engine per-instruction floor of the MMSE workload.
    ns_per_inst: f64,
    stats_identical: Vec<bool>,
    /// Domain-sharded scaling entries (absent in pre-sharding reports).
    threads2: Option<f64>,
    threads4: Option<f64>,
    at_scale: Option<f64>,
    /// Batch-serving amortization (jobs/sec, shared artifacts vs per-job
    /// rebuild; absent in pre-serve-layer reports).
    batch_amortization: Option<f64>,
    /// Small-symbol-job amortization with pool-recycled cluster memory
    /// (absent in pre-pooling reports).
    symbol_amortization_pooled: Option<f64>,
    /// Absolute pooled small-job throughput (jobs/sec; absent in
    /// pre-pooling reports).
    jobs_per_sec_pooled: Option<f64>,
    /// Host CPUs of the reporting machine (absent in older reports).
    host_cpus: Option<f64>,
    /// Serving-daemon sustained throughput (jobs/sec; absent in
    /// pre-daemon reports or runs without `--serve`).
    serve_jobs_per_sec: Option<f64>,
    /// Serving-daemon p99 latency, queueing included (nanoseconds).
    serve_p99_ns: Option<f64>,
    /// Serving-daemon cross-request artifact-cache hit rate (0..1).
    serve_cache_hit_rate: Option<f64>,
    /// Block-engine per-instruction floor on the MMSE workload
    /// (`--fusion-report` leg; absent in older reports).
    ns_per_inst_fused: Option<f64>,
    /// Block-engine vs per-instruction-loop wall-clock ratio on the MMSE
    /// workload.
    fast_speedup_fused: Option<f64>,
    /// Mean simulated cycles per scheduling window of the adaptive
    /// sharded engine on the barrier-skew guest (`--epoch-report` leg;
    /// absent in pre-adaptive reports).
    avg_epoch_len: Option<f64>,
    /// Percentage of windows granted longer than one base epoch on the
    /// barrier-skew guest.
    extended_epoch_pct: Option<f64>,
    /// Adaptive-cadence per-instruction floor of the 1024-core MMSE
    /// (full occupancy — bounds the decide-overhead regression).
    ns_per_inst_event_adaptive: Option<f64>,
    /// 4-thread sharded speedup with the adaptive cadence.
    speedup_threads_4_adaptive: Option<f64>,
    /// Adaptive-vs-fixed wall-clock ratio on the barrier-skew guest.
    speedup_adaptive_vs_fixed_skew: Option<f64>,
}

fn parse(path: &str) -> Result<Report, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let speedups = numbers_after(&json, "speedup_event_vs_naive");
    if speedups.len() < 2 {
        return Err(format!("{path}: expected 2 speedup_event_vs_naive entries, found {}", speedups.len()));
    }
    let threads2 = numbers_after(&json, "speedup_threads_2").first().copied();
    let threads4 = numbers_after(&json, "speedup_threads_4").first().copied();
    let at_scale = numbers_after(&json, "speedup_event_vs_naive_at_scale").first().copied();
    let batch_amortization = numbers_after(&json, "batch_amortization").first().copied();
    let symbol_amortization_pooled = numbers_after(&json, "symbol_amortization_pooled").first().copied();
    let jobs_per_sec_pooled = numbers_after(&json, "jobs_per_sec_pooled").first().copied();
    let host_cpus = numbers_after(&json, "host_cpus").first().copied();
    let ns = numbers_after(&json, "ns_per_inst_event");
    let ns_per_inst = match ns.first() {
        Some(&v) => v,
        // Reports written before the floor was recorded (the PR 1 format)
        // fall back to wall_s / instructions of the first (event) run.
        None => {
            let walls = numbers_after(&json, "wall_s");
            let insts = numbers_after(&json, "instructions");
            match (walls.first(), insts.first()) {
                (Some(&w), Some(&i)) if i > 0.0 => w * 1e9 / i,
                _ => return Err(format!("{path}: no ns_per_inst_event and no wall_s/instructions")),
            }
        }
    };
    Ok(Report {
        speedups,
        ns_per_inst,
        stats_identical: bools_after(&json, "stats_identical"),
        threads2,
        threads4,
        at_scale,
        batch_amortization,
        symbol_amortization_pooled,
        jobs_per_sec_pooled,
        host_cpus,
        serve_jobs_per_sec: numbers_after(&json, "serve_jobs_per_sec").first().copied(),
        serve_p99_ns: numbers_after(&json, "serve_p99_ns").first().copied(),
        serve_cache_hit_rate: numbers_after(&json, "serve_cache_hit_rate").first().copied(),
        ns_per_inst_fused: numbers_after(&json, "ns_per_inst_fused").first().copied(),
        fast_speedup_fused: numbers_after(&json, "fast_speedup_fused").first().copied(),
        avg_epoch_len: numbers_after(&json, "avg_epoch_len").first().copied(),
        extended_epoch_pct: numbers_after(&json, "extended_epoch_pct").first().copied(),
        ns_per_inst_event_adaptive: numbers_after(&json, "ns_per_inst_event_adaptive").first().copied(),
        speedup_threads_4_adaptive: numbers_after(&json, "speedup_threads_4_adaptive").first().copied(),
        speedup_adaptive_vs_fixed_skew: numbers_after(&json, "speedup_adaptive_vs_fixed_skew")
            .first()
            .copied(),
    })
}

fn main() -> ExitCode {
    let baseline_path = arg_str("--baseline", "BENCH_baseline.json");
    let candidate_path = arg_str("--candidate", "BENCH_smoke.json");
    let tol_speedup = arg_f64("--tol-speedup", 0.35);
    let tol_ns = arg_f64("--tol-ns", 2.5);
    let tol_jobs = arg_f64("--tol-jobs", 3.0);
    let floor_threads4 = arg_f64("--floor-threads4", 2.0);
    let floor_skew_adaptive = arg_f64("--floor-skew-adaptive", 1.1);

    let (baseline, candidate) = match (parse(&baseline_path), parse(&candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for r in [b, c] {
                if let Err(e) = r {
                    eprintln!("bench-gate: {e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };

    let mut failures = Vec::new();

    if candidate.stats_identical.iter().any(|&ok| !ok) {
        failures.push("candidate reports stats_identical=false: the engines diverged".to_string());
    }

    for (idx, label) in [(0, "MMSE full-occupancy"), (1, "barrier skew")] {
        let base = baseline.speedups[idx];
        let cand = candidate.speedups[idx];
        let floor = base * (1.0 - tol_speedup);
        let status = if cand >= floor { "ok" } else { "REGRESSION" };
        println!(
            "{label:<22} speedup: baseline {base:>7.3}x  candidate {cand:>7.3}x  floor {floor:>7.3}x  [{status}]"
        );
        if cand < floor {
            failures.push(format!(
                "{label} event-vs-naive speedup regressed: {cand:.3}x < {floor:.3}x \
                 (baseline {base:.3}x, tolerance {tol_speedup})"
            ));
        }
    }

    // Domain-sharded scaling and batch-serving entries: tolerance-banded
    // against the baseline, like the engine speedups above. A baseline
    // without them (older format) waives the check; a candidate missing
    // one the baseline has means the sweep silently disappeared — that
    // fails.
    for (label, base, cand) in [
        ("threads x2 sharding", baseline.threads2, candidate.threads2),
        ("threads x4 sharding", baseline.threads4, candidate.threads4),
        ("event-vs-naive @1024", baseline.at_scale, candidate.at_scale),
        ("batch amortization", baseline.batch_amortization, candidate.batch_amortization),
        ("pooled symbol amort.", baseline.symbol_amortization_pooled, candidate.symbol_amortization_pooled),
    ] {
        let Some(base) = base else { continue };
        let Some(cand) = cand else {
            failures.push(format!("{label}: baseline has the entry but the candidate is missing it"));
            continue;
        };
        let floor = base * (1.0 - tol_speedup);
        let status = if cand >= floor { "ok" } else { "REGRESSION" };
        println!(
            "{label:<22} speedup: baseline {base:>7.3}x  candidate {cand:>7.3}x  floor {floor:>7.3}x  [{status}]"
        );
        if cand < floor {
            failures.push(format!(
                "{label} speedup regressed: {cand:.3}x < {floor:.3}x \
                 (baseline {base:.3}x, tolerance {tol_speedup})"
            ));
        }
    }

    // Pooled small-job throughput: an absolute jobs/sec figure, so the
    // band is a coarse cross-machine factor (`--tol-jobs`), not the
    // jitter tolerance — it catches the pool silently degrading to
    // per-job allocation (which costs ~1 ms/job, an order of magnitude),
    // not scheduler noise. Missing entry = the pooled leg disappeared —
    // that fails like the other batch entries.
    if let Some(base) = baseline.jobs_per_sec_pooled {
        match candidate.jobs_per_sec_pooled {
            None => {
                failures
                    .push("pooled jobs/sec: baseline has the entry but the candidate is missing it".into());
            }
            Some(cand) => {
                let floor = base / tol_jobs;
                let status = if cand >= floor { "ok" } else { "REGRESSION" };
                println!(
                    "pooled symbol jobs/sec: baseline {base:>7.1}   candidate {cand:>7.1}   floor {floor:>7.1}   [{status}]"
                );
                if cand < floor {
                    failures.push(format!(
                        "pooled small-job throughput regressed: {cand:.1} jobs/s < {floor:.1} \
                         (baseline {base:.1}, factor {tol_jobs})"
                    ));
                }
            }
        }
    }

    // Serving-daemon entries. Throughput and p99 latency are absolute
    // figures, banded with the coarse cross-machine factor (`--tol-jobs`)
    // like the pooled jobs/sec above; the cache hit rate (warm fraction,
    // `hits / (hits + builds + coalesced)`) comes from a seeded request
    // sequence served by one worker — nothing coalesces, so it is exact —
    // and gets the tight baseline-relative band plus a hard nonzero
    // floor: zero hits means scenarios stopped surviving across requests.
    if let Some(base) = baseline.serve_jobs_per_sec {
        match candidate.serve_jobs_per_sec {
            None => {
                failures
                    .push("serve jobs/sec: baseline has the entry but the candidate is missing it".into());
            }
            Some(cand) => {
                let floor = base / tol_jobs;
                let status = if cand >= floor { "ok" } else { "REGRESSION" };
                println!(
                    "serve sustained jobs/s: baseline {base:>7.1}   candidate {cand:>7.1}   floor {floor:>7.1}   [{status}]"
                );
                if cand < floor {
                    failures.push(format!(
                        "serving-daemon throughput regressed: {cand:.1} jobs/s < {floor:.1} \
                         (baseline {base:.1}, factor {tol_jobs})"
                    ));
                }
            }
        }
    }
    if let Some(base) = baseline.serve_p99_ns {
        match candidate.serve_p99_ns {
            None => {
                failures
                    .push("serve p99 latency: baseline has the entry but the candidate is missing it".into());
            }
            Some(cand) => {
                let ceiling = base * tol_jobs;
                let status = if cand <= ceiling { "ok" } else { "REGRESSION" };
                println!(
                    "serve p99 latency (ms): baseline {:>7.3}   candidate {:>7.3}   ceiling {:>7.3}   [{status}]",
                    base / 1e6,
                    cand / 1e6,
                    ceiling / 1e6
                );
                if cand > ceiling {
                    failures.push(format!(
                        "serving-daemon p99 latency regressed: {:.3} ms > {:.3} ms \
                         (baseline {:.3} ms, factor {tol_jobs})",
                        cand / 1e6,
                        ceiling / 1e6,
                        base / 1e6
                    ));
                }
            }
        }
    }
    if let Some(base) = baseline.serve_cache_hit_rate {
        match candidate.serve_cache_hit_rate {
            None => {
                failures.push(
                    "serve cache hit rate: baseline has the entry but the candidate is missing it".into(),
                );
            }
            Some(cand) => {
                let floor = base * (1.0 - tol_speedup);
                let ok = cand > 0.0 && cand >= floor;
                let status = if ok { "ok" } else { "REGRESSION" };
                println!(
                    "serve cache hit rate:   baseline {base:>7.3}   candidate {cand:>7.3}   floor {floor:>7.3}   [{status}]"
                );
                if cand <= 0.0 {
                    failures.push(
                        "serving-daemon cache hit rate is zero: no scenario survived across requests".into(),
                    );
                } else if cand < floor {
                    failures.push(format!(
                        "serving-daemon cache hit rate regressed: {cand:.3} < {floor:.3} \
                         (baseline {base:.3}, tolerance {tol_speedup})"
                    ));
                }
            }
        }
    }

    // Absolute floor for the 4-thread sharded run — only meaningful when
    // the runner can actually execute 4 domains concurrently.
    if let Some(cand) = candidate.threads4 {
        let cpus = candidate.host_cpus.unwrap_or(1.0);
        if cpus >= 4.0 {
            let status = if cand >= floor_threads4 { "ok" } else { "REGRESSION" };
            println!(
                "threads x4 hard floor  speedup: candidate {cand:>7.3}x  floor {floor_threads4:>7.3}x  [{status}]"
            );
            if cand < floor_threads4 {
                failures.push(format!(
                    "4-domain sharded speedup below the hard floor: {cand:.3}x < {floor_threads4:.3}x \
                     on a {cpus:.0}-CPU runner"
                ));
            }
        } else {
            println!(
                "threads x4 hard floor  waived: candidate runner has {cpus:.0} host CPU(s), \
                 wall-clock scaling needs >= 4"
            );
        }
    }

    let ns_ceiling = baseline.ns_per_inst * tol_ns;
    let ns_status = if candidate.ns_per_inst <= ns_ceiling { "ok" } else { "REGRESSION" };
    println!(
        "per-instruction floor   ns/inst: baseline {:>7.1}  candidate {:>7.1}  ceiling {:>7.1}  [{ns_status}]",
        baseline.ns_per_inst, candidate.ns_per_inst, ns_ceiling
    );
    if candidate.ns_per_inst > ns_ceiling {
        failures.push(format!(
            "per-instruction floor regressed: {:.1} ns > {:.1} ns (baseline {:.1} ns, factor {tol_ns})",
            candidate.ns_per_inst, ns_ceiling, baseline.ns_per_inst
        ));
    }

    // Block-engine entries: part of the smoke contract, so a candidate
    // missing either of them fails outright — even against a baseline
    // without them, where only the bands are waived.
    for (key, present) in [
        ("ns_per_inst_fused", candidate.ns_per_inst_fused.is_some()),
        ("fast_speedup_fused", candidate.fast_speedup_fused.is_some()),
    ] {
        if !present {
            failures.push(format!("{key}: missing from the candidate (fusion-report leg disappeared)"));
        }
    }
    if let (Some(base), Some(cand)) = (baseline.ns_per_inst_fused, candidate.ns_per_inst_fused) {
        let ceiling = base * tol_ns;
        let status = if cand <= ceiling { "ok" } else { "REGRESSION" };
        println!(
            "block per-inst floor    ns/inst: baseline {base:>7.1}  candidate {cand:>7.1}  ceiling {ceiling:>7.1}  [{status}]"
        );
        if cand > ceiling {
            failures.push(format!(
                "block-engine per-instruction floor regressed: {cand:.1} ns > {ceiling:.1} ns \
                 (baseline {base:.1} ns, factor {tol_ns})"
            ));
        }
    }
    if let (Some(base), Some(cand)) = (baseline.fast_speedup_fused, candidate.fast_speedup_fused) {
        let floor = base * (1.0 - tol_speedup);
        let status = if cand >= floor { "ok" } else { "REGRESSION" };
        println!(
            "block-vs-reference     speedup: baseline {base:>7.3}x  candidate {cand:>7.3}x  floor {floor:>7.3}x  [{status}]"
        );
        if cand < floor {
            failures.push(format!(
                "block-engine speedup regressed: {cand:.3}x < {floor:.3}x \
                 (baseline {base:.3}x, tolerance {tol_speedup})"
            ));
        }
    }

    // Adaptive-epoch entries: part of the smoke contract like the fusion
    // keys, so a candidate missing any of them fails outright — even
    // against a pre-adaptive baseline, where only the bands are waived.
    for (key, present) in [
        ("avg_epoch_len", candidate.avg_epoch_len.is_some()),
        ("extended_epoch_pct", candidate.extended_epoch_pct.is_some()),
        ("ns_per_inst_event_adaptive", candidate.ns_per_inst_event_adaptive.is_some()),
        ("speedup_threads_4_adaptive", candidate.speedup_threads_4_adaptive.is_some()),
        ("speedup_adaptive_vs_fixed_skew", candidate.speedup_adaptive_vs_fixed_skew.is_some()),
    ] {
        if !present {
            failures.push(format!("{key}: missing from the candidate (epoch-report leg disappeared)"));
        }
    }
    // The extended share on the barrier-skew guest is a hard nonzero
    // floor: zero means the quiescence predicate stopped granting
    // extensions entirely — the adaptive cadence silently degraded to
    // the fixed one.
    if let Some(cand) = candidate.extended_epoch_pct {
        let floor = baseline.extended_epoch_pct.map_or(0.0, |b| b * (1.0 - tol_speedup));
        let ok = cand > 0.0 && cand >= floor;
        let status = if ok { "ok" } else { "REGRESSION" };
        println!(
            "extended epochs (skew)  percent: baseline {:>7.1}  candidate {cand:>7.1}  floor {floor:>7.1}  [{status}]",
            baseline.extended_epoch_pct.unwrap_or(0.0)
        );
        if cand <= 0.0 {
            failures.push(
                "extended epoch share is zero on the barrier-skew guest: no grants were extended".into(),
            );
        } else if cand < floor {
            failures.push(format!(
                "extended epoch share regressed: {cand:.1}% < {floor:.1}% (tolerance {tol_speedup})"
            ));
        }
    }
    if let (Some(base), Some(cand)) = (baseline.avg_epoch_len, candidate.avg_epoch_len) {
        let floor = base * (1.0 - tol_speedup);
        let status = if cand >= floor { "ok" } else { "REGRESSION" };
        println!(
            "avg epoch length (skew)  cycles: baseline {base:>7.1}  candidate {cand:>7.1}  floor {floor:>7.1}  [{status}]"
        );
        if cand < floor {
            failures.push(format!(
                "average adaptive epoch length regressed: {cand:.1} < {floor:.1} \
                 (baseline {base:.1}, tolerance {tol_speedup})"
            ));
        }
    }
    if let (Some(base), Some(cand)) =
        (baseline.ns_per_inst_event_adaptive, candidate.ns_per_inst_event_adaptive)
    {
        let ceiling = base * tol_ns;
        let status = if cand <= ceiling { "ok" } else { "REGRESSION" };
        println!(
            "adaptive per-inst floor ns/inst: baseline {base:>7.1}  candidate {cand:>7.1}  ceiling {ceiling:>7.1}  [{status}]"
        );
        if cand > ceiling {
            failures.push(format!(
                "adaptive per-instruction floor regressed: {cand:.1} ns > {ceiling:.1} ns \
                 (baseline {base:.1} ns, factor {tol_ns})"
            ));
        }
    }
    if let (Some(base), Some(cand)) =
        (baseline.speedup_threads_4_adaptive, candidate.speedup_threads_4_adaptive)
    {
        let floor = base * (1.0 - tol_speedup);
        let status = if cand >= floor { "ok" } else { "REGRESSION" };
        println!(
            "threads x4 adaptive    speedup: baseline {base:>7.3}x  candidate {cand:>7.3}x  floor {floor:>7.3}x  [{status}]"
        );
        if cand < floor {
            failures.push(format!(
                "adaptive 4-thread sharded speedup regressed: {cand:.3}x < {floor:.3}x \
                 (baseline {base:.3}x, tolerance {tol_speedup})"
            ));
        }
    }
    // Adaptive-vs-fixed on barrier skew carries both the baseline band
    // and the absolute acceptance floor: the whole point of the adaptive
    // cadence is to delete barrier/replay work where domains are
    // quiescent, so it must stay measurably faster than fixed there.
    if let Some(cand) = candidate.speedup_adaptive_vs_fixed_skew {
        let band = baseline.speedup_adaptive_vs_fixed_skew.map_or(0.0, |b| b * (1.0 - tol_speedup));
        let floor = band.max(floor_skew_adaptive);
        let status = if cand >= floor { "ok" } else { "REGRESSION" };
        println!(
            "adaptive-vs-fixed skew speedup: baseline {:>7.3}x  candidate {cand:>7.3}x  floor {floor:>7.3}x  [{status}]",
            baseline.speedup_adaptive_vs_fixed_skew.unwrap_or(0.0)
        );
        if cand < floor {
            failures.push(format!(
                "adaptive-vs-fixed barrier-skew speedup below the floor: {cand:.3}x < {floor:.3}x \
                 (hard floor {floor_skew_adaptive}, tolerance {tol_speedup})"
            ));
        }
    }

    if failures.is_empty() {
        println!("bench-gate: PASS ({candidate_path} vs {baseline_path})");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench-gate: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_extracts_in_order() {
        let json = r#"{"a": 1.5, "nested": {"a": -2e3}, "flag": true, "flag": false}"#;
        assert_eq!(numbers_after(json, "a"), vec![1.5, -2e3]);
        assert_eq!(bools_after(json, "flag"), vec![true, false]);
        assert!(numbers_after(json, "missing").is_empty());
    }
}
