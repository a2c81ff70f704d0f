//! Simulator-speed measurement (paper §V-A): single-thread emulation
//! speed in MIPS and the per-iteration runtime quoted in the abstract
//! ("9.5 s – 3 min per OFDM symbol, 3.57 MIPS peak"), plus the
//! cycle-accurate engine benchmark: event-driven scheduler vs the seed's
//! naive full-scan, recorded machine-readably in `BENCH_cycle.json`.
//!
//! Run: `cargo run -p terasim-bench --release --bin mips [--full|--smoke]
//!       [--threads N] [--jobs N] [--serve] [--fusion-report] [--out PATH]`
//!
//! The JSON report defaults to `BENCH_cycle.json` for measurement runs
//! and to `BENCH_smoke.json` for `--smoke` (so CI smoke runs never
//! clobber the committed full-scale report); `--out` overrides either.
//! `--threads` caps the domain-sharded scaling sweep (default 4: the
//! 1024-core workload's four groups over 1/2/4 host threads, recorded as
//! `speedup_threads_{2,4}`). `--jobs` sizes the batch-throughput
//! measurement: jobs/sec over a shared-artifact batch with fresh per-job
//! memory (`jobs_per_sec_shared`), with pool-recycled memory
//! (`jobs_per_sec_pooled`, `symbol_amortization_pooled`) and with
//! per-job artifact rebuild (`jobs_per_sec_rebuild`), the measured
//! per-job setup cost the pool deletes (`per_job_setup_ns{,_pooled}`),
//! and the ISS BER-batch amortizations (`batch_amortization`,
//! `ber_amortization_pooled`).
//!
//! `--serve` additionally drives the persistent serving daemon
//! (`terasim::daemon`) with saturating mixed open-loop traffic and
//! records its sustained throughput (`serve_jobs_per_sec`), latency
//! percentiles (`serve_p50_ns`, `serve_p99_ns`, queueing included) and
//! cross-request artifact-cache hit rate (`serve_cache_hit_rate`: the
//! warm fraction `hits / (hits + builds + coalesced)` of SERVING.md —
//! exact for the seeded sequence, since the one worker used here can
//! never find a build in flight).
//!
//! `--fusion-report` additionally times the fast engine's block loop
//! (basic-block dispatch + lane-major SPMD groups, `FusionMode::On`)
//! against the per-instruction reference (`Off`), results asserted
//! bit-identical, on the parallel-MMSE and OFDM-symbol workloads, and
//! records `ns_per_inst_fused`, `fast_speedup_fused` and
//! `symbol_speedup_fused`.
//!
//! `--epoch-report` additionally A/Bs the sharded cycle engine's
//! adaptive epoch cadence against the fixed 4-cycle reference on the
//! 1024-core MMSE (full occupancy) and on a multi-domain barrier-skew
//! guest (one straggler domain, the rest parked), asserts bit-identical
//! stats, and records the adaptive telemetry: `avg_epoch_len`,
//! `extended_epoch_pct`, `ns_per_inst_event_adaptive`,
//! `speedup_threads_4_adaptive` and `speedup_adaptive_vs_fixed_skew`.
//!
//! `--cycle-engine {event,naive,sharded}` selects a scheduler for a
//! one-off A/B measurement on the MMSE workload (printed, not recorded);
//! unknown values are a hard error naming the flag.

use std::time::{Duration, Instant};

use terasim::experiments::{
    self, BatchConfig, CycleEngine, ParallelConfig, ParallelScenario, SymbolScenario,
};
use terasim::serve::BatchRunner;
use terasim_bench::{arg_str, arg_u32, min_sec, Scale};
use terasim_iss::{EpochMode, FusionMode, RunConfig};
use terasim_kernels::Precision;

/// One measured cycle-engine run (best wall time of `reps`).
struct EngineRun {
    label: &'static str,
    wall: Duration,
    cycles: u64,
    instructions: u64,
}

impl EngineRun {
    fn sim_mips(&self) -> f64 {
        self.instructions as f64 / self.wall.as_secs_f64().max(1e-9) / 1e6
    }

    /// The per-instruction floor: host nanoseconds per simulated
    /// instruction (interpreter + softfloat + scheduler bookkeeping).
    fn ns_per_inst(&self) -> f64 {
        self.wall.as_secs_f64() * 1e9 / (self.instructions as f64).max(1.0)
    }
}

fn measure_engine(
    label: &'static str,
    config: &ParallelConfig,
    engine: CycleEngine,
    reps: u32,
) -> Result<EngineRun, Box<dyn std::error::Error>> {
    let mut best: Option<EngineRun> = None;
    for _ in 0..reps {
        let out = experiments::parallel_cycle_with_engine(config, engine)?;
        assert!(out.verified, "cycle run diverged from the native model");
        if best.as_ref().is_none_or(|b| out.wall < b.wall) {
            best =
                Some(EngineRun { label, wall: out.wall, cycles: out.cycles, instructions: out.instructions });
        }
    }
    Ok(best.expect("at least one rep"))
}

fn json_run(run: &EngineRun) -> String {
    format!(
        "    {{\"engine\": \"{}\", \"wall_s\": {:.6}, \"simulated_cycles\": {}, \"instructions\": {}, \"sim_mips\": {:.3}, \"ns_per_inst\": {:.3}}}",
        run.label,
        run.wall.as_secs_f64(),
        run.cycles,
        run.instructions,
        run.sim_mips(),
        run.ns_per_inst()
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke runs default to their own report so CI never clobbers the
    // committed measurement file.
    let out_path = arg_str("--out", if smoke { "BENCH_smoke.json" } else { "BENCH_cycle.json" });
    // CLI-selected scheduler for one-off A/B runs. Parsed up front so an
    // invalid value fails before any measurement.
    let engine_flag = match arg_str("--cycle-engine", "").as_str() {
        "" => None,
        "event" => Some(CycleEngine::EventDriven),
        "naive" => Some(CycleEngine::NaiveScan),
        "sharded" => Some(CycleEngine::Parallel((arg_u32("--threads", 4) as usize).max(1))),
        other => {
            return Err(format!(
                "invalid value for --cycle-engine: {other:?} (expected event|naive|sharded)"
            )
            .into());
        }
    };
    println!("{}", scale.banner("Simulator speed — single-thread MIPS"));
    let nsc = if smoke { 16 } else { scale.nsc() };
    println!("one MC iteration = NSC {nsc} problems on one Snitch, one host thread\n");
    println!(" MIMO  | precision | instructions | wall      | MIPS");
    println!(" ------+-----------+--------------+-----------+-------");
    let mut best = 0.0f64;
    let sizes: &[u32] = if smoke { &[4] } else { scale.mimo_sizes() };
    for &n in sizes {
        for precision in [Precision::Half16, Precision::CDotp16] {
            let out = experiments::mc_symbol_single(&BatchConfig { n, precision, nsc, seed: 1, unroll: 2 })?;
            best = best.max(out.mips);
            println!(
                " {n:>2}x{n:<2} | {:<9} | {:>12} | {:>9} | {:>5.2}",
                precision.paper_name(),
                out.instructions,
                min_sec(out.wall),
                out.mips
            );
        }
    }
    println!("\npeak single-thread speed: {best:.2} MIPS (paper: 3.57 MIPS on EPYC-7742 with LLVM SBT)");

    // --- Cycle-accurate engine: event-driven vs the seed's naive scan ---
    let cores = if scale == Scale::Full { 1024 } else { 64 };
    // Smoke workloads are milliseconds each; best-of-5 keeps the gate's
    // input stable on noisy CI runners.
    let reps = if smoke { 5 } else { 3 };
    let precision = Precision::CDotp16;
    let n = 4;
    println!("\n=== Cycle engine — event-driven ready queue vs naive full scan ===");
    println!("workload: parallel MMSE, {cores} cores, {n}x{n} {}, best of {reps}\n", precision.paper_name());
    let config = ParallelConfig { cores, n, precision, seed: 50, unroll: 2 };
    let event = measure_engine("event_driven", &config, CycleEngine::EventDriven, reps)?;
    let naive = measure_engine("naive_scan", &config, CycleEngine::NaiveScan, reps)?;
    assert_eq!(
        (event.cycles, event.instructions),
        (naive.cycles, naive.instructions),
        "schedulers must agree bit-exactly"
    );
    let speedup = naive.wall.as_secs_f64() / event.wall.as_secs_f64().max(1e-9);
    for run in [&event, &naive] {
        println!(
            " {:<13} | wall {:>9} | {:>12} cycles | sim speed {:>8.2} MIPS | {:>6.1} ns/inst",
            run.label,
            min_sec(run.wall),
            run.cycles,
            run.sim_mips(),
            run.ns_per_inst()
        );
    }
    println!(
        "\nevent-driven speedup vs seed engine (MMSE, full occupancy): {speedup:.2}x (identical CycleStats)"
    );
    println!("per-instruction floor (event engine, cycle mode): {:.1} ns/inst", event.ns_per_inst());

    // --- CLI-selected scheduler (the `--cycle-engine` A/B hook): one
    // extra measured run of the chosen engine on the same MMSE workload,
    // printed for side-by-side comparison but not recorded in the JSON
    // report (the standard entries keep their fixed meaning). ---
    if let Some(engine) = engine_flag {
        let label = match engine {
            CycleEngine::EventDriven => "event_driven",
            CycleEngine::NaiveScan => "naive_scan",
            CycleEngine::Parallel(_) => "sharded",
        };
        let run = measure_engine(label, &config, engine, reps)?;
        println!("\n=== Cycle engine — CLI-selected scheduler (--cycle-engine {label}) ===");
        println!(
            " {:<13} | wall {:>9} | {:>12} cycles | sim speed {:>8.2} MIPS | {:>6.1} ns/inst",
            run.label,
            min_sec(run.wall),
            run.cycles,
            run.sim_mips(),
            run.ns_per_inst()
        );
    }

    // --- Domain-sharded engine: cycle-mode thread scaling at full scale
    // (1024 cores = 4 groups = 4 arbitration domains). The 1-thread run
    // is the sequential reference (`run`); `run_parallel` must agree
    // bit-exactly at every thread count. `--threads` caps the sweep. ---
    let scale_cores = 1024u32;
    let threads_cap = arg_u32("--threads", 4) as usize;
    let scale_reps = 3;
    let sconfig = ParallelConfig { cores: scale_cores, n, precision, seed: 50, unroll: 2 };
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("\n=== Cycle engine — domain-sharded scaling (epoch-synchronized groups) ===");
    println!(
        "workload: parallel MMSE, {scale_cores} cores / 4 domains, {n}x{n} {}, best of {scale_reps}, {host_cpus} host CPUs\n",
        precision.paper_name()
    );
    let base = measure_engine("event_1thread", &sconfig, CycleEngine::EventDriven, scale_reps)?;
    let naive_scale = measure_engine("naive_scan", &sconfig, CycleEngine::NaiveScan, scale_reps)?;
    let mut thread_runs: Vec<(usize, EngineRun)> = Vec::new();
    for (t, label) in [(2usize, "parallel_2"), (4, "parallel_4")] {
        if t <= threads_cap {
            thread_runs.push((t, measure_engine(label, &sconfig, CycleEngine::Parallel(t), scale_reps)?));
        }
    }
    for run in std::iter::once(&naive_scale).chain(thread_runs.iter().map(|(_, r)| r)) {
        assert_eq!(
            (run.cycles, run.instructions),
            (base.cycles, base.instructions),
            "sharded engine must agree bit-exactly with the sequential reference"
        );
    }
    for run in
        std::iter::once(&base).chain(std::iter::once(&naive_scale)).chain(thread_runs.iter().map(|(_, r)| r))
    {
        println!(
            " {:<13} | wall {:>9} | {:>12} cycles | sim speed {:>8.2} MIPS | {:>6.1} ns/inst",
            run.label,
            min_sec(run.wall),
            run.cycles,
            run.sim_mips(),
            run.ns_per_inst()
        );
    }
    let scale_event_vs_naive = naive_scale.wall.as_secs_f64() / base.wall.as_secs_f64().max(1e-9);
    let mut speedups_json = String::new();
    let mut speedup_threads4: Option<f64> = None;
    for (t, run) in &thread_runs {
        let s = base.wall.as_secs_f64() / run.wall.as_secs_f64().max(1e-9);
        println!("thread scaling x{t}: {s:.2}x vs 1-thread sequential");
        speedups_json.push_str(&format!("      \"speedup_threads_{t}\": {s:.3},\n"));
        if *t == 4 {
            speedup_threads4 = Some(s);
        }
    }
    println!("event(1 thread) vs naive at scale: {scale_event_vs_naive:.2}x (identical CycleStats)");
    let scaling_runs_json: String = std::iter::once(&base)
        .chain(std::iter::once(&naive_scale))
        .chain(thread_runs.iter().map(|(_, r)| r))
        .map(json_run)
        .collect::<Vec<_>>()
        .join(",\n");
    let scaling_json = format!(
        "    {{\n      \"kind\": \"parallel_mmse_scaling\",\n      \"cores\": {scale_cores}, \"mimo\": {n}, \"precision\": \"{}\", \"reps\": {scale_reps}, \"domains\": 4,\n      \"host_cpus\": {host_cpus},\n      \"runs\": [\n{}\n      ],\n{}      \"speedup_event_vs_naive_at_scale\": {scale_event_vs_naive:.3},\n      \"stats_identical\": true\n    }}",
        precision.paper_name(),
        scaling_runs_json,
        speedups_json,
    );

    // --- Barrier-skew workload: the parked-core pathology the event engine
    // removes (naive rescans every context per step; parked harts here are
    // re-queued by the wake channel instead). ---
    println!("\n=== Cycle engine — barrier-skew (N-1 harts parked in wfi) ===");
    let spin = if smoke { 20_000 } else { 200_000 };
    let (skew_event, skew_naive, skew_cycles) = measure_skew(cores, spin, reps);
    let skew_speedup = skew_naive.as_secs_f64() / skew_event.as_secs_f64().max(1e-9);
    println!(
        " event_driven  | wall {:>9} | {skew_cycles:>12} cycles\n naive_scan    | wall {:>9} | {skew_cycles:>12} cycles",
        min_sec(skew_event),
        min_sec(skew_naive),
    );
    println!("\nevent-driven speedup vs seed engine (barrier skew): {skew_speedup:.2}x");

    // --- Adaptive epochs: the quiescence-extended cadence vs the fixed
    // 4-cycle reference. Two A/Bs, both asserted bit-identical: the
    // 1024-core MMSE (full occupancy, loads everywhere — extensions
    // rarely apply, so this bounds the decide-overhead regression) and a
    // multi-domain barrier-skew guest (one straggler domain, the rest
    // parked in wfi — the sole-active grant's home turf). The adaptive
    // run's epoch telemetry feeds the gate: a zero extended share on the
    // skew guest means the predicate stopped firing. ---
    let epoch_json = if std::env::args().any(|a| a == "--epoch-report") {
        println!("\n=== Cycle engine — adaptive epochs vs fixed cadence ===");
        println!(
            "workloads: parallel MMSE ({scale_cores} cores / 4 domains) and barrier-skew ({scale_cores} cores), 1 host thread, best of {scale_reps}\n"
        );
        let fixed_scn = ParallelScenario::prepare_with(&sconfig, FusionMode::default(), EpochMode::Fixed)?;
        let mut fixed_best: Option<EngineRun> = None;
        for _ in 0..scale_reps {
            let out = fixed_scn.run_cycle(CycleEngine::EventDriven)?;
            assert!(out.verified, "fixed-epoch cycle run diverged from the native model");
            if fixed_best.as_ref().is_none_or(|b| out.wall < b.wall) {
                fixed_best = Some(EngineRun {
                    label: "event_fixed",
                    wall: out.wall,
                    cycles: out.cycles,
                    instructions: out.instructions,
                });
            }
        }
        let fixed = fixed_best.expect("at least one rep");
        assert_eq!(
            (fixed.cycles, fixed.instructions),
            (base.cycles, base.instructions),
            "adaptive epochs must be bit-identical to the fixed cadence"
        );
        let mmse_adaptive_speedup = fixed.wall.as_secs_f64() / base.wall.as_secs_f64().max(1e-9);
        for run in [&base, &fixed] {
            println!(
                " {:<13} | wall {:>9} | {:>12} cycles | sim speed {:>8.2} MIPS | {:>6.1} ns/inst",
                run.label,
                min_sec(run.wall),
                run.cycles,
                run.sim_mips(),
                run.ns_per_inst()
            );
        }
        println!(
            "adaptive vs fixed (MMSE, full occupancy): {mmse_adaptive_speedup:.2}x (identical CycleStats)"
        );

        let (skew_adaptive, skew_fixed, ereport, eskew_cycles) = measure_skew_epochs(scale_cores, spin, reps);
        let skew_adaptive_speedup = skew_fixed.as_secs_f64() / skew_adaptive.as_secs_f64().max(1e-9);
        println!(
            "\n adaptive      | wall {:>9} | {eskew_cycles:>12} cycles\n fixed         | wall {:>9} | {eskew_cycles:>12} cycles",
            min_sec(skew_adaptive),
            min_sec(skew_fixed),
        );
        println!(
            "adaptive vs fixed (barrier skew): {skew_adaptive_speedup:.2}x — \
             {} windows, avg epoch {:.1} cycles, {:.1}% extended, {} trimmed",
            ereport.windows,
            ereport.avg_epoch_len(),
            ereport.extended_pct(),
            ereport.trimmed
        );
        assert!(
            ereport.extended_pct() > 0.0,
            "barrier-skew guest granted no extended epochs — the quiescence predicate stopped firing"
        );
        let threads4_json = speedup_threads4
            .map(|s| format!("      \"speedup_threads_4_adaptive\": {s:.3},\n"))
            .unwrap_or_default();
        format!(
            ",\n    {{\n      \"kind\": \"adaptive_epochs\",\n      \"cores\": {scale_cores}, \"skew_straggler_spin\": {spin}, \"reps\": {scale_reps},\n      \"ns_per_inst_event_fixed\": {:.3},\n      \"ns_per_inst_event_adaptive\": {:.3},\n      \"speedup_adaptive_vs_fixed_mmse\": {mmse_adaptive_speedup:.3},\n{threads4_json}      \"skew_wall_s_adaptive\": {:.6}, \"skew_wall_s_fixed\": {:.6},\n      \"speedup_adaptive_vs_fixed_skew\": {skew_adaptive_speedup:.3},\n      \"windows\": {}, \"extended_windows\": {}, \"trimmed_windows\": {},\n      \"avg_epoch_len\": {:.3},\n      \"extended_epoch_pct\": {:.3},\n      \"stats_identical\": true\n    }}",
            fixed.ns_per_inst(),
            base.ns_per_inst(),
            skew_adaptive.as_secs_f64(),
            skew_fixed.as_secs_f64(),
            ereport.windows,
            ereport.extended,
            ereport.trimmed,
            ereport.avg_epoch_len(),
            ereport.extended_pct(),
        )
    } else {
        String::new()
    };

    // --- Batch serving: jobs/sec over one shared artifact set (with and
    // without cluster-memory recycling) vs per-job artifact rebuild.
    // Jobs are small OFDM symbols (setup-heavy relative to their run —
    // the BER-point / figure-sweep profile the serve layer targets); all
    // three paths run through the same BatchRunner scheduling, so the
    // ratios isolate exactly the deleted fixed costs: `shared` deletes
    // the per-run artifact rebuild, `pooled` additionally deletes the
    // per-job 20 MiB ClusterMem mmap/munmap round trip. ---
    let jobs = arg_u32("--jobs", 16);
    let batch_nsc = 8u32;
    let bconfig = BatchConfig { n, precision, nsc: batch_nsc, seed: 90, unroll: 2 };
    let workers = host_cpus;
    println!("\n=== Batch serving — shared artifacts (fresh / pooled memory) vs per-job rebuild ===");
    println!(
        "workload: {jobs} OFDM-symbol jobs (NSC {batch_nsc}, {n}x{n} {}), {workers} worker(s), best of {reps}\n",
        precision.paper_name()
    );
    let seeds: Vec<u32> = (0..jobs).collect();
    let mut shared_best = Duration::MAX;
    let mut pooled_best = Duration::MAX;
    let mut rebuild_best = Duration::MAX;
    let mut batch_insts = 0u64;
    let mut reference: Option<Vec<(u64, u64)>> = None;
    for _ in 0..reps {
        // Shared path: one artifact build, `jobs` thin per-job states,
        // each allocating a fresh cluster memory.
        let t0 = Instant::now();
        let scenario = SymbolScenario::prepare(&bconfig)?;
        let outs = BatchRunner::with_workers(workers).run(seeds.clone(), |_ctx, j| {
            scenario.run_symbol(bconfig.seed.wrapping_add(u64::from(j))).map_err(|e| e.to_string())
        });
        let shared_wall = t0.elapsed();
        let outs = outs.into_iter().collect::<Result<Vec<_>, String>>()?;
        assert!(outs.iter().all(|o| o.verified), "batch job diverged from the native model");
        let key: Vec<(u64, u64)> = outs.iter().map(|o| (o.cycles, o.instructions)).collect();

        // Pooled path: same shared artifacts, but every worker lane
        // recycles one cluster arena through the batch's MemPool.
        let t1 = Instant::now();
        let pscenario = SymbolScenario::prepare(&bconfig)?;
        let pouts =
            BatchRunner::with_workers(workers).run_pooled(pscenario.artifacts(), seeds.clone(), |ctx, j| {
                pscenario
                    .run_symbol_pooled(
                        ctx.pool().expect("pooled batch"),
                        bconfig.seed.wrapping_add(u64::from(j)),
                    )
                    .map_err(|e| e.to_string())
            });
        let pooled_wall = t1.elapsed();
        let pouts = pouts.into_iter().collect::<Result<Vec<_>, String>>()?;
        let pkey: Vec<(u64, u64)> = pouts.iter().map(|o| (o.cycles, o.instructions)).collect();
        assert_eq!(key, pkey, "pooled batch must be bit-identical to fresh-memory jobs");

        // Rebuild path: identical jobs and scheduling, but every job
        // rebuilds its own artifacts (the pre-serve-layer behaviour).
        let t2 = Instant::now();
        let routs = BatchRunner::with_workers(workers).run(seeds.clone(), |_ctx, j| {
            let mut c = bconfig;
            c.seed = bconfig.seed.wrapping_add(u64::from(j));
            experiments::mc_symbol_single(&c).map_err(|e| e.to_string())
        });
        let rebuild_wall = t2.elapsed();
        let routs = routs.into_iter().collect::<Result<Vec<_>, String>>()?;
        let rkey: Vec<(u64, u64)> = routs.iter().map(|o| (o.cycles, o.instructions)).collect();
        assert_eq!(key, rkey, "shared-artifact batch must be bit-identical to per-job rebuilds");
        match &reference {
            Some(k) => assert_eq!(*k, key, "batch results must be identical across reps"),
            None => reference = Some(key),
        }
        if shared_wall < shared_best {
            shared_best = shared_wall;
            batch_insts = outs.iter().map(|o| o.instructions).sum();
        }
        pooled_best = pooled_best.min(pooled_wall);
        rebuild_best = rebuild_best.min(rebuild_wall);
    }
    let jps_shared = f64::from(jobs) / shared_best.as_secs_f64().max(1e-9);
    let jps_pooled = f64::from(jobs) / pooled_best.as_secs_f64().max(1e-9);
    let jps_rebuild = f64::from(jobs) / rebuild_best.as_secs_f64().max(1e-9);
    let symbol_amortization = jps_shared / jps_rebuild.max(1e-9);
    let symbol_amortization_pooled = jps_pooled / jps_rebuild.max(1e-9);
    let ns_per_inst_batch = shared_best.as_secs_f64() * 1e9 / (batch_insts as f64).max(1.0);

    // Where the per-job fixed cost goes: bare job setup (cluster-memory
    // allocation or pool acquire+reset, image load), amortized per job.
    let setup_scenario = SymbolScenario::prepare(&bconfig)?;
    let setup_reps = jobs.max(8);
    let t = Instant::now();
    for _ in 0..setup_reps {
        std::hint::black_box(terasim_terapool::FastSim::from_artifacts(std::sync::Arc::clone(
            setup_scenario.artifacts(),
        )));
    }
    let per_job_setup_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(setup_reps);
    let setup_pool = terasim_terapool::MemPool::new(std::sync::Arc::clone(setup_scenario.artifacts()));
    // Warm: the first acquire allocates; every later one recycles.
    drop(terasim_terapool::FastSim::from_pool(&setup_pool));
    let t = Instant::now();
    for _ in 0..setup_reps {
        std::hint::black_box(terasim_terapool::FastSim::from_pool(&setup_pool));
    }
    let per_job_setup_ns_pooled = t.elapsed().as_secs_f64() * 1e9 / f64::from(setup_reps);

    println!(
        " shared artifacts | wall {:>9} | {jps_shared:>8.1} jobs/s | {ns_per_inst_batch:>6.1} ns/inst amortized",
        min_sec(shared_best)
    );
    println!(" pooled memory    | wall {:>9} | {jps_pooled:>8.1} jobs/s |", min_sec(pooled_best));
    println!(" per-job rebuild  | wall {:>9} | {jps_rebuild:>8.1} jobs/s |", min_sec(rebuild_best));
    println!(
        "\nsymbol-job amortization: {symbol_amortization:.2}x jobs/sec shared, \
         {symbol_amortization_pooled:.2}x pooled (identical per-job results)"
    );
    println!(
        "per-job setup: {:.0} us fresh ClusterMem vs {:.0} us pooled reset — the fixed cost the pool deletes",
        per_job_setup_ns / 1e3,
        per_job_setup_ns_pooled / 1e3
    );

    // The headline amortization metric runs the paper's actual batch
    // shape: an ISS-in-the-loop BER curve, one job per SNR point. The
    // shared path instantiates one hardware-in-the-loop detector (kernel
    // image, translated program, lowered table, cluster memory) per
    // *worker lane*; the rebuild path instantiates one per *job* — the
    // pre-serve-layer cost model. Point jobs are short relative to the
    // detector build, so the deleted rebuild shows directly in jobs/sec.
    let ber_scenario = terasim_phy::Mimo {
        n_tx: 4,
        n_rx: 4,
        modulation: terasim_phy::Modulation::Qam16,
        channel: terasim_phy::ChannelKind::Rayleigh,
    };
    let ber_kind = terasim::DetectorKind::Iss(precision);
    let (ber_errors, ber_iters) = (64u64, 200u64);
    let snrs: Vec<f64> = (0..jobs).map(|i| 2.0 + 14.0 * f64::from(i) / f64::from(jobs.max(2) - 1)).collect();
    println!(
        "\nISS-in-the-loop BER batch: {jobs} SNR-point jobs, detector per lane vs pooled per job vs per job"
    );
    let mut ber_shared_best = Duration::MAX;
    let mut ber_pooled_best = Duration::MAX;
    let mut ber_rebuild_best = Duration::MAX;
    let mut ber_reference: Option<Vec<terasim_phy::BerPoint>> = None;
    // Warm the lazy softfloat tables out of the measurement.
    let _ = terasim_phy::ber_jobs(ber_scenario, &snrs, 5)[0].run(&*ber_kind.instantiate(4), 4, 4);
    for _ in 0..reps {
        let t0 = Instant::now();
        let lanes: Vec<_> = (0..workers.min(jobs as usize)).map(|_| ber_kind.instantiate(4)).collect();
        let shared = BatchRunner::with_workers(workers)
            .run(terasim_phy::ber_jobs(ber_scenario, &snrs, 5), |ctx, job| {
                job.run(&*lanes[ctx.worker() % lanes.len()], ber_errors, ber_iters)
            });
        let shared_wall = t0.elapsed();
        // Pooled path: one detector per *job* (the serving shape), but
        // each draws shared artifacts + a recycled cluster arena from a
        // per-batch pool, so the per-job detector costs ~nothing.
        let t1 = Instant::now();
        let pool = ber_kind.memory_pool(4).expect("ISS kinds own cluster memory");
        let pooled = BatchRunner::with_workers(workers)
            .run(terasim_phy::ber_jobs(ber_scenario, &snrs, 5), |_ctx, job| {
                job.run(&*ber_kind.instantiate_pooled(4, &pool), ber_errors, ber_iters)
            });
        let pooled_wall = t1.elapsed();
        let t2 = Instant::now();
        let rebuilt = BatchRunner::with_workers(workers)
            .run(terasim_phy::ber_jobs(ber_scenario, &snrs, 5), |_ctx, job| {
                job.run(&*ber_kind.instantiate(4), ber_errors, ber_iters)
            });
        let rebuild_wall = t2.elapsed();
        assert_eq!(shared, rebuilt, "shared-artifact BER batch diverged from per-job rebuilds");
        assert_eq!(shared, pooled, "pooled-detector BER batch diverged from per-job rebuilds");
        match &ber_reference {
            Some(r) => assert_eq!(*r, shared, "BER batch must be identical across reps"),
            None => ber_reference = Some(shared),
        }
        ber_shared_best = ber_shared_best.min(shared_wall);
        ber_pooled_best = ber_pooled_best.min(pooled_wall);
        ber_rebuild_best = ber_rebuild_best.min(rebuild_wall);
    }
    let batch_amortization = ber_rebuild_best.as_secs_f64() / ber_shared_best.as_secs_f64().max(1e-9);
    let ber_amortization_pooled = ber_rebuild_best.as_secs_f64() / ber_pooled_best.as_secs_f64().max(1e-9);
    println!(
        " shared detector  | wall {:>9} | {:>8.1} jobs/s\n pooled detector  | wall {:>9} | {:>8.1} jobs/s\n per-job rebuild  | wall {:>9} | {:>8.1} jobs/s",
        min_sec(ber_shared_best),
        f64::from(jobs) / ber_shared_best.as_secs_f64().max(1e-9),
        min_sec(ber_pooled_best),
        f64::from(jobs) / ber_pooled_best.as_secs_f64().max(1e-9),
        min_sec(ber_rebuild_best),
        f64::from(jobs) / ber_rebuild_best.as_secs_f64().max(1e-9),
    );
    println!(
        "\nartifact-sharing amortization (ISS BER batch): {batch_amortization:.2}x jobs/sec shared, \
         {ber_amortization_pooled:.2}x pooled per-job detectors (identical curves)"
    );
    let batch_json = format!(
        "    {{\n      \"kind\": \"batch_throughput\",\n      \"jobs\": {jobs}, \"nsc\": {batch_nsc}, \"mimo\": {n}, \"precision\": \"{}\", \"reps\": {reps}, \"workers\": {workers},\n      \"wall_s_shared\": {:.6}, \"wall_s_pooled\": {:.6}, \"wall_s_rebuild\": {:.6},\n      \"jobs_per_sec_shared\": {jps_shared:.3}, \"jobs_per_sec_pooled\": {jps_pooled:.3}, \"jobs_per_sec_rebuild\": {jps_rebuild:.3},\n      \"ns_per_inst_batch\": {ns_per_inst_batch:.3},\n      \"per_job_setup_ns\": {per_job_setup_ns:.0}, \"per_job_setup_ns_pooled\": {per_job_setup_ns_pooled:.0},\n      \"symbol_amortization\": {symbol_amortization:.3},\n      \"symbol_amortization_pooled\": {symbol_amortization_pooled:.3},\n      \"ber_wall_s_shared\": {:.6}, \"ber_wall_s_pooled\": {:.6}, \"ber_wall_s_rebuild\": {:.6},\n      \"batch_amortization\": {batch_amortization:.3},\n      \"ber_amortization_pooled\": {ber_amortization_pooled:.3},\n      \"stats_identical\": true\n    }}",
        precision.paper_name(),
        shared_best.as_secs_f64(),
        pooled_best.as_secs_f64(),
        rebuild_best.as_secs_f64(),
        ber_shared_best.as_secs_f64(),
        ber_pooled_best.as_secs_f64(),
        ber_rebuild_best.as_secs_f64(),
    );

    // --- Serving daemon: sustained mixed open-loop traffic through the
    // persistent tier (artifact cache + warm pools + bounded admission
    // queue). Saturating mode keeps the queue full, so jobs/sec is the
    // daemon's sustained capacity and the percentiles include queueing.
    // One worker + a seeded request sequence make the cache-hit pattern
    // deterministic; the absolute rates are machine-dependent and gated
    // with the coarse cross-machine factor. ---
    let serve_json = if std::env::args().any(|a| a == "--serve") {
        use terasim::daemon::{open_loop, standard_mix, Daemon, DaemonConfig};
        let serve_requests = if smoke { 60 } else { 240 };
        let (serve_depth, serve_cache) = (16usize, 4usize);
        println!("\n=== Serving daemon — mixed open-loop traffic (saturating) ===");
        println!(
            "workload: {serve_requests} mixed requests (symbol/fast/cycle/BER), 1 worker, depth {serve_depth}, cache {serve_cache}\n"
        );
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            queue_depth: serve_depth,
            cache_capacity: serve_cache,
            ..DaemonConfig::default()
        });
        let report = open_loop(&daemon, &standard_mix(), 0.0, serve_requests, 7);
        let stats = daemon.shutdown();
        assert_eq!(report.failed, 0, "serving daemon failed requests under synthetic load");
        assert!(report.cache_hits > 0, "mixed traffic must hit the artifact cache across requests");
        println!(
            " completed {:>4} | {:>8.1} jobs/s | p50 {:>7.3} ms | p99 {:>7.3} ms | cache hit rate {:.1}% | arenas recycled {}",
            report.completed,
            report.jobs_per_sec,
            report.p50_ns as f64 / 1e6,
            report.p99_ns as f64 / 1e6,
            report.hit_rate() * 100.0,
            stats.pools.recycled
        );
        format!(
            ",\n    {{\n      \"kind\": \"serve_daemon\",\n      \"serve_requests\": {serve_requests}, \"serve_workers\": 1, \"serve_depth\": {serve_depth}, \"serve_cache_capacity\": {serve_cache},\n      \"serve_jobs_per_sec\": {:.3}, \"serve_p50_ns\": {}, \"serve_p99_ns\": {},\n      \"serve_cache_hit_rate\": {:.4}, \"serve_cache_hits\": {}, \"serve_failed\": {},\n      \"serve_pool_fresh\": {}, \"serve_pool_recycled\": {}\n    }}",
            report.jobs_per_sec,
            report.p50_ns,
            report.p99_ns,
            report.hit_rate(),
            report.cache_hits,
            report.failed,
            stats.pools.fresh,
            stats.pools.recycled,
        )
    } else {
        String::new()
    };

    // --- The block engine vs the per-instruction reference loop on the
    // same workloads, results asserted bit-identical. ---
    let fusion_json = if std::env::args().any(|a| a == "--fusion-report") {
        println!("\n=== Fast engine — basic-block dispatch + lane-major SPMD vs per-instruction loop ===");
        println!(
            "workloads: parallel MMSE ({cores} cores) and OFDM symbol (NSC {nsc}), {n}x{n} {}, 1 host thread, best of {reps}\n",
            precision.paper_name()
        );
        let fconfig = ParallelConfig { cores, n, precision, seed: 50, unroll: 2 };
        let fused_scn = ParallelScenario::prepare_with_fusion(&fconfig, FusionMode::On)?;
        let unfused_scn = ParallelScenario::prepare_with_fusion(&fconfig, FusionMode::Off)?;
        let sconfig = BatchConfig { n, precision, nsc, seed: 1, unroll: 2 };
        let sym_fused = SymbolScenario::prepare_with_fusion(&sconfig, FusionMode::On)?;
        let sym_unfused = SymbolScenario::prepare_with_fusion(&sconfig, FusionMode::Off)?;
        let mut walls = [Duration::MAX; 4]; // [mmse on, mmse off, sym on, sym off]
        let mut mmse_insts = 0u64;
        let mut sym_insts = 0u64;
        for _ in 0..reps {
            let on = fused_scn.run_fast(1)?;
            let off = unfused_scn.run_fast(1)?;
            assert!(on.verified && off.verified, "block-engine A/B runs diverged from the native model");
            assert_eq!(
                (on.instructions, on.cluster_cycles),
                (off.instructions, off.cluster_cycles),
                "the block engine must be bit-identical to the per-instruction loop"
            );
            let son = sym_fused.run_symbol(sconfig.seed)?;
            let soff = sym_unfused.run_symbol(sconfig.seed)?;
            assert!(son.verified && soff.verified, "symbol A/B runs diverged from the native model");
            assert_eq!(
                (son.instructions, son.cycles),
                (soff.instructions, soff.cycles),
                "the block-engine symbol run must be bit-identical to the per-instruction loop"
            );
            mmse_insts = on.instructions;
            sym_insts = son.instructions;
            for (slot, wall) in walls.iter_mut().zip([on.wall, off.wall, son.wall, soff.wall]) {
                *slot = (*slot).min(wall);
            }
        }
        let ns = |wall: Duration, insts: u64| wall.as_secs_f64() * 1e9 / (insts as f64).max(1.0);
        let fast_speedup_fused = walls[1].as_secs_f64() / walls[0].as_secs_f64().max(1e-9);
        let symbol_speedup_fused = walls[3].as_secs_f64() / walls[2].as_secs_f64().max(1e-9);
        let ns_per_inst_fused = ns(walls[0], mmse_insts);

        for (label, wall, insts) in [
            ("mmse_fused", walls[0], mmse_insts),
            ("mmse_unfused", walls[1], mmse_insts),
            ("symbol_fused", walls[2], sym_insts),
            ("symbol_unfused", walls[3], sym_insts),
        ] {
            println!(
                " {label:<14} | wall {:>9} | {insts:>12} insts | {:>8.2} MIPS | {:>6.1} ns/inst",
                min_sec(wall),
                insts as f64 / wall.as_secs_f64().max(1e-9) / 1e6,
                ns(wall, insts)
            );
        }
        println!(
            "\nblock-engine speedup: {fast_speedup_fused:.2}x MMSE ({cores} cores, SPMD), \
             {symbol_speedup_fused:.2}x symbol (1 core) — identical results"
        );
        format!(
            ",\n    {{\n      \"kind\": \"fusion\",\n      \"cores\": {cores}, \"nsc\": {nsc}, \"mimo\": {n}, \"precision\": \"{}\", \"reps\": {reps},\n      \"runs\": [\n        {{\"engine\": \"mmse_fused\", \"wall_s\": {:.6}, \"instructions\": {mmse_insts}, \"ns_per_inst\": {:.3}}},\n        {{\"engine\": \"mmse_unfused\", \"wall_s\": {:.6}, \"instructions\": {mmse_insts}, \"ns_per_inst\": {:.3}}},\n        {{\"engine\": \"symbol_fused\", \"wall_s\": {:.6}, \"instructions\": {sym_insts}, \"ns_per_inst\": {:.3}}},\n        {{\"engine\": \"symbol_unfused\", \"wall_s\": {:.6}, \"instructions\": {sym_insts}, \"ns_per_inst\": {:.3}}}\n      ],\n      \"ns_per_inst_fused\": {ns_per_inst_fused:.3},\n      \"fast_speedup_fused\": {fast_speedup_fused:.3},\n      \"symbol_speedup_fused\": {symbol_speedup_fused:.3},\n      \"stats_identical\": true\n    }}",
            precision.paper_name(),
            walls[0].as_secs_f64(),
            ns(walls[0], mmse_insts),
            walls[1].as_secs_f64(),
            ns(walls[1], mmse_insts),
            walls[2].as_secs_f64(),
            ns(walls[2], sym_insts),
            walls[3].as_secs_f64(),
            ns(walls[3], sym_insts),
        )
    } else {
        String::new()
    };

    let json = format!(
        "{{\n  \"bench\": \"cycle_engine\",\n  \"scale\": \"{}\",\n  \"workloads\": [\n    {{\n      \"kind\": \"parallel_mmse\",\n      \"cores\": {cores}, \"mimo\": {n}, \"precision\": \"{}\", \"reps\": {reps},\n      \"runs\": [\n    {},\n    {}\n      ],\n      \"speedup_event_vs_naive\": {speedup:.3},\n      \"ns_per_inst_event\": {:.3},\n      \"stats_identical\": true\n    }},\n    {{\n      \"kind\": \"barrier_skew\",\n      \"cores\": {cores}, \"straggler_spin\": {spin}, \"reps\": {reps},\n      \"runs\": [\n        {{\"engine\": \"event_driven\", \"wall_s\": {:.6}, \"simulated_cycles\": {skew_cycles}}},\n        {{\"engine\": \"naive_scan\", \"wall_s\": {:.6}, \"simulated_cycles\": {skew_cycles}}}\n      ],\n      \"speedup_event_vs_naive\": {skew_speedup:.3},\n      \"stats_identical\": true\n    }},\n{scaling_json},\n{batch_json}{serve_json}{fusion_json}{epoch_json}\n  ]\n}}\n",
        // `--smoke` wins the label: it overrides the workload parameters
        // even when `--full` is also passed.
        if smoke {
            "smoke"
        } else if scale == Scale::Full {
            "full"
        } else {
            "reduced"
        },
        precision.paper_name(),
        json_run(&event),
        json_run(&naive),
        event.ns_per_inst(),
        skew_event.as_secs_f64(),
        skew_naive.as_secs_f64(),
    );
    std::fs::write(&out_path, &json)?;
    println!("wrote {out_path}");
    Ok(())
}

/// Assembles the barrier-skew guest: hart 0 spins `spin` loop iterations
/// while every other hart parks in `wfi`, then wakes them all.
fn skew_image(spin: i32) -> terasim_riscv::Image {
    use terasim_riscv::{Assembler, Image, Reg, Segment};
    use terasim_terapool::Topology;

    let mut a = Assembler::new(Topology::L2_BASE);
    a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
    let waker = a.new_label();
    a.beqz(Reg::T0, waker);
    a.wfi();
    let done = a.new_label();
    a.j(done);
    a.bind(waker);
    a.li(Reg::T1, spin);
    let top = a.new_label();
    a.bind(top);
    a.addi(Reg::T1, Reg::T1, -1);
    a.bnez(Reg::T1, top);
    a.li(Reg::T2, Topology::CTRL_WAKE_ALL as i32);
    a.li(Reg::T3, 1);
    a.sw(Reg::T3, 0, Reg::T2);
    a.bind(done);
    a.ecall();
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().expect("skew guest assembles")));
    image
}

/// Builds and times the barrier-skew guest (see [`skew_image`]).
/// Returns (event wall, naive wall, simulated cycles), best of `reps`,
/// after asserting both engines report identical stats.
fn measure_skew(cores: u32, spin: i32, reps: u32) -> (Duration, Duration, u64) {
    use terasim_terapool::{CycleSim, Topology};

    let topo = Topology::scaled(cores);
    let image = skew_image(spin);

    let mut best = (Duration::MAX, Duration::MAX, 0u64);
    let mut reference: Option<Vec<terasim_terapool::CycleStats>> = None;
    for _ in 0..reps {
        for naive in [false, true] {
            let mut sim = CycleSim::new(topo, &image).expect("skew guest translates");
            let start = std::time::Instant::now();
            let result =
                if naive { sim.run_naive(cores).expect("runs") } else { sim.run(cores).expect("runs") };
            let wall = start.elapsed();
            assert!(!result.deadlocked, "skew guest must finish");
            match &reference {
                Some(stats) => assert_eq!(*stats, result.per_core, "engines diverged on skew guest"),
                None => reference = Some(result.per_core.clone()),
            }
            best.2 = result.cycles;
            if naive {
                best.1 = best.1.min(wall);
            } else {
                best.0 = best.0.min(wall);
            }
        }
    }
    best
}

/// Times the sharded serial engine on the barrier-skew guest with
/// adaptive vs fixed epochs at `cores` (multi-domain, so the sole-active
/// grant actually applies). Returns (adaptive wall, fixed wall, adaptive
/// epoch telemetry, simulated cycles), best of `reps`, after asserting
/// bit-identical per-core stats across both cadences.
fn measure_skew_epochs(
    cores: u32,
    spin: i32,
    reps: u32,
) -> (Duration, Duration, terasim_terapool::EpochReport, u64) {
    use terasim_terapool::{CycleSim, EpochReport, SimArtifacts, Topology};

    let topo = Topology::scaled(cores);
    let image = skew_image(spin);

    let mut best = (Duration::MAX, Duration::MAX);
    let mut report = EpochReport::default();
    let mut cycles = 0u64;
    let mut reference: Option<Vec<terasim_terapool::CycleStats>> = None;
    for _ in 0..reps {
        for mode in [EpochMode::Adaptive, EpochMode::Fixed] {
            let rc = RunConfig { epochs: mode, ..RunConfig::default() };
            let arts = SimArtifacts::build_with(topo, &image, rc).expect("skew guest translates");
            let mut sim = CycleSim::from_artifacts(arts);
            let start = Instant::now();
            let result = sim.run(cores).expect("runs");
            let wall = start.elapsed();
            assert!(!result.deadlocked, "skew guest must finish");
            match &reference {
                Some(stats) => assert_eq!(*stats, result.per_core, "epoch cadences diverged on skew guest"),
                None => reference = Some(result.per_core.clone()),
            }
            cycles = result.cycles;
            if mode == EpochMode::Adaptive {
                if wall < best.0 {
                    best.0 = wall;
                    report = sim.epoch_report();
                }
            } else {
                best.1 = best.1.min(wall);
            }
        }
    }
    (best.0, best.1, report, cycles)
}
