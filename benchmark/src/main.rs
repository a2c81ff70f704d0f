//! The repo benchmark. `run.sh` builds this and passes its arguments on.
//!
//! With `--workload NAME` it runs that workload in this process: an
//! untraced pass for the end-to-end metrics (`--trace 0`), a traced pass
//! for the per-layer metrics (`--trace 1`), or both when `--trace` is
//! absent. Without `--workload` it runs every workload in turn, each in a
//! child process of its own so that `VmHWM` is per workload, `--repeat N`
//! times, and compares the repeats.
//!
//! See `README.md` for the metric glossary.

mod engine;
mod host;
mod job;
mod json;
mod metrics;
mod mmse;
mod serve;
mod skew;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use terasim::experiments::{BatchConfig, CycleEngine, ParallelConfig};
use terasim_kernels::Precision;

use engine::{EngineKind, EngineSpec};
use job::Pass;
use json::Value;
use metrics::{END_TO_END, WORKLOADS};
use mmse::MmseConfig;
use serve::ServeSpec;
use trace::Tracer;

#[derive(Debug, Clone)]
enum Spec {
    Engine(EngineSpec),
    Serve(ServeSpec),
}

/// The five workloads at paper scale. Job sizes are fixed; the rates are
/// what the 2-CPU reference host sustains when its neighbours are quiet,
/// so `--seconds` fixes the job count and a measured region lasts about
/// that long there (up to twice as long when the host is busy).
fn spec(workload: &str) -> Option<Spec> {
    let cluster = ParallelConfig { cores: 1024, n: 8, precision: Precision::CDotp16, seed: 0, unroll: 2 };
    let engine =
        |kind, workers, jobs_per_second| Some(Spec::Engine(EngineSpec { kind, workers, jobs_per_second }));
    match workload {
        "symbol-fast" => {
            let symbol = BatchConfig { n: 16, precision: Precision::CDotp16, nsc: 1638, seed: 0, unroll: 2 };
            engine(EngineKind::Mmse(MmseConfig::Symbol(symbol)), 2, 3.7)
        }
        "cluster-fast" => engine(EngineKind::Mmse(MmseConfig::Fast(cluster, 1)), 1, 13.5),
        "cluster-cycle" => {
            engine(EngineKind::Mmse(MmseConfig::Cycle(cluster, CycleEngine::Parallel(2))), 1, 4.6)
        }
        "cycle-skew" => engine(EngineKind::Skew { cores: 1024, spin: 3_000_000 }, 1, 4.7),
        "serve-mix" => Some(Spec::Serve(ServeSpec {
            workers: 2,
            clients: 2,
            cache_capacity: 4,
            warmup_requests: 500,
            requests_per_second: 1350.0,
            mix: serve::mix(),
        })),
        _ => None,
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: untraced pass only; `Some(true)`: traced pass only;
    /// `None`: both.
    trace: Option<bool>,
    repeat: usize,
    strict: bool,
}

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--strict]
  --workload NAME  run one workload in this process (default: all five, one child process each)
  --seed N         every operand and request seed derives from it (default 1)
  --seconds S      length of a measured region on the reference host; fixes the job count (default 10)
  --trace 0|1      0: end-to-end metrics only; 1: per-layer metrics only (default: both passes)
  --repeat N       run the whole set N times, report medians, quartiles and spread (default 1)
  --strict         exit non-zero on a degraded host (fewer than 2 CPUs)";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: None, seed: 1, seconds: 10.0, trace: None, repeat: 1, strict: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--strict" {
            out.strict = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds =
                    value.parse().ok().filter(|s: &f64| *s > 0.0 && s.is_finite()).ok_or_else(bad)?
            }
            "--trace" => out.trace = Some(value.parse::<u8>().ok().filter(|t| *t <= 1).ok_or_else(bad)? == 1),
            "--repeat" => out.repeat = value.parse().ok().filter(|n| *n >= 1).ok_or_else(bad)?,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if let Some(name) = &out.workload {
        if spec(name).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload `{name}`; choose one of {}", names.join(", ")));
        }
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Runs the passes of one workload, prints its report, and returns its
/// record (whose first four keys are the contract's result line) and the
/// spans of the traced pass.
fn run_workload(name: &str, spec: &Spec, args: &Args) -> (Value, Option<Vec<trace::Span>>) {
    let mut passes: Vec<(&str, Pass)> = Vec::new();
    let mut spans = None;
    if args.trace != Some(true) {
        let pass = match spec {
            Spec::Engine(s) => engine::untraced(s, args.seed, args.seconds),
            Spec::Serve(s) => serve::untraced(s, args.seed, args.seconds),
        };
        passes.push(("end_to_end", pass));
    }
    if args.trace != Some(false) {
        let tracer = Tracer::new();
        let mut pass = match spec {
            Spec::Engine(s) => engine::traced(s, args.seed, args.seconds, &tracer),
            Spec::Serve(s) => serve::traced(s, args.seed, args.seconds, &tracer),
        };
        pass.check_closure();
        passes.push(("per_layer", pass));
        spans = Some(tracer.spans());
    }

    let attempted: u64 = passes.iter().map(|(_, p)| p.attempted).sum();
    let failed: u64 = passes.iter().map(|(_, p)| p.failed).sum();
    let mut errors: Vec<String> = passes.iter().flat_map(|(_, p)| p.errors.clone()).collect();
    if let Some((_, pass)) = passes.iter().find(|(_, p)| !p.metrics.all_finite()) {
        let missing: Vec<&str> =
            pass.metrics.iter().filter(|(_, v)| !v.is_finite()).map(|(d, _)| d.name).collect();
        errors.push(format!("metrics without a finite value: {}", missing.join(", ")));
    }
    let correct = failed == 0 && errors.is_empty();

    println!("== {name} (seed {}, {} s) ==", args.seed, args.seconds);
    if let Some(workload) = WORKLOADS.iter().find(|w| w.name == name) {
        println!("why    {}", workload.why);
    }
    let mut all_metrics = Vec::new();
    let mut record = Vec::new();
    for (kind, pass) in &passes {
        for (def, value) in pass.metrics.iter() {
            println!("metric {:<34} {value:>16.6} {}", def.name, def.unit);
        }
        for (note, value) in &pass.notes {
            println!("note   {kind}.{note} {value}");
        }
        println!("digest {kind} {:#018x}", pass.digest);
        if let Value::Obj(fields) = pass.metrics.to_json() {
            all_metrics.extend(fields);
        }
        record.push((format!("{kind}_digest"), Value::Str(format!("{:#018x}", pass.digest))));
        record.push((
            format!("{kind}_notes"),
            Value::Obj(pass.notes.iter().map(|(n, v)| (n.to_string(), Value::Num(*v))).collect()),
        ));
    }
    if let Spec::Serve(_) = spec {
        // The serving names for the same numbers.
        for (_, pass) in &passes {
            for (alias, name, scale, unit) in [
                ("req_per_s", "jobs_per_s", 1.0, "1/s"),
                ("latency_p50_ms", "job_p50_s", 1e3, "ms"),
                ("latency_p99_ms", "job_tail_s", 1e3, "ms"),
            ] {
                if let Some(value) = pass.metrics.get(name) {
                    println!("alias  {alias:<34} {:>16.6} {unit}", value * scale);
                }
            }
        }
    }
    println!("failed_frac {} ({failed} of {attempted})", failed as f64 / attempted as f64);
    if passes.iter().any(|(_, p)| p.metrics.get("est_cycle_err_pct").is_some_and(|v| v > 0.0)) {
        println!("note   est_cycle_err_pct compares two models of this repo; no RTL reference exists, so both are unvalidated");
    }
    for e in &errors {
        println!("ERROR  {e}");
    }

    let degraded = host::nproc() < 2;
    let mut fields = vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Num(attempted as f64)),
        ("failed".to_string(), Value::Num(failed as f64)),
        ("metrics".to_string(), Value::Obj(all_metrics)),
        ("workload".to_string(), Value::str(name)),
        ("seed".to_string(), Value::Num(args.seed as f64)),
        ("seconds".to_string(), Value::Num(args.seconds)),
        ("failed_frac".to_string(), Value::Num(failed as f64 / attempted as f64)),
        ("degraded".to_string(), Value::Bool(degraded)),
        ("host".to_string(), host::to_json()),
        ("errors".to_string(), Value::Arr(errors.into_iter().map(Value::Str).collect())),
    ];
    fields.extend(record);

    (Value::Obj(fields), spans)
}

fn write_out(file: String, text: String) {
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(&file), text)) {
        eprintln!("warning: could not write {}: {e}", dir.join(&file).display());
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(record: &Value) -> String {
    let Value::Obj(fields) = record else { unreachable!("records are objects") };
    Value::Obj(fields[..4].to_vec()).to_json()
}

fn run_child(name: &str, args: &Args) -> ExitCode {
    let spec = spec(name).expect("workload name was checked");
    let (record, spans) = run_workload(name, &spec, args);
    write_out(format!("result-{name}.json"), record.to_json() + "\n");
    if let Some(spans) = spans {
        write_out(format!("trace-{name}.json"), trace::to_json(&spans).to_json() + "\n");
    }
    let correct = record.get("correct") == Some(&Value::Bool(true));
    let degraded = record.get("degraded") == Some(&Value::Bool(true));
    if degraded {
        eprintln!("warning: fewer than 2 CPUs; three workloads use 2 threads, so this run is degraded");
    }
    println!("{}", result_line(&record));
    if correct && !(degraded && args.strict) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload `repeat` times, one child process per workload
/// run, and compares the repeats.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut ok = true;
    let mut runs: Vec<Vec<Value>> = vec![Vec::new(); WORKLOADS.len()];
    for rep in 0..args.repeat {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            if args.repeat > 1 {
                println!("-- repeat {} of {} --", rep + 1, args.repeat);
            }
            let mut child = Command::new(&exe);
            child.args(["--workload", workload.name]);
            child.args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()]);
            if let Some(trace) = args.trace {
                child.args(["--trace", if trace { "1" } else { "0" }]);
            }
            if args.strict {
                child.arg("--strict");
            }
            // A record left by an earlier run must not stand in for this one.
            let path = out_dir().join(format!("result-{}.json", workload.name));
            let _ = std::fs::remove_file(&path);
            // `status` waits for the child to end.
            ok &= child.status().is_ok_and(|s| s.success());
            match std::fs::read_to_string(&path).map_err(|e| e.to_string()).and_then(|t| json::parse(&t)) {
                Ok(record) => runs[w].push(record),
                Err(e) => {
                    eprintln!("error: no record from {}: {e}", workload.name);
                    ok = false;
                }
            }
        }
    }

    let mut summary = Vec::new();
    if args.repeat > 1 {
        println!("== {} repeats: median [q1, q3] (better) spread (bound) ==", args.repeat);
        for (w, workload) in WORKLOADS.iter().enumerate() {
            for def in &END_TO_END {
                let values: Vec<f64> = runs[w]
                    .iter()
                    .filter_map(|r| r.get("metrics")?.get(def.name)?.get("value")?.as_f64())
                    .collect();
                if values.len() < 2 {
                    continue;
                }
                let (q1, median, q3) = stats::quartiles(&values);
                let spread = stats::spread(&values);
                let bound = def.bound.expect("end-to-end metrics have bounds");
                // The set-up time's spread is reported, not gated.
                let within = spread <= bound || def.name == "setup_s";
                ok &= within;
                println!(
                    "{:<14} {:<12} {median:>14.6} [{q1:.6}, {q3:.6}] ({} is better) {:>7.3} % ({} %){}",
                    workload.name,
                    def.name,
                    def.better,
                    100.0 * spread,
                    100.0 * bound,
                    if within { "" } else { "  EXCEEDS ITS BOUND" }
                );
                summary.push(Value::obj([
                    ("workload", Value::str(workload.name)),
                    ("metric", Value::str(def.name)),
                    ("median", Value::Num(median)),
                    ("q1", Value::Num(q1)),
                    ("q3", Value::Num(q3)),
                    ("spread", Value::Num(spread)),
                ]));
            }
            // Simulated statistics must repeat exactly.
            for key in ["end_to_end_digest", "per_layer_digest"] {
                let digests: Vec<&str> = runs[w].iter().filter_map(|r| r.get(key)?.as_str()).collect();
                if digests.windows(2).any(|d| d[0] != d[1]) {
                    println!("{:<14} {key} DIFFERS BETWEEN REPEATS: {digests:?}", workload.name);
                    ok = false;
                }
            }
        }
    }

    let result = Value::obj([
        ("host", host::to_json()),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("repeat", Value::Num(args.repeat as f64)),
        ("degraded", Value::Bool(host::nproc() < 2)),
        ("ok", Value::Bool(ok)),
        ("summary", Value::Arr(summary)),
        ("runs", Value::Arr(runs.into_iter().flatten().collect())),
    ]);
    write_out("result.json".into(), result.to_json() + "\n");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: this is a debug build; the benchmark measures release builds only (use run.sh)");
        return ExitCode::from(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_child(name, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests;
