//! Self-tests of the benchmark as a whole: the contract file, the build
//! profile, and smoke-scale runs of all five workloads.

use super::*;
use crate::metrics::{MetricDef, PER_LAYER};

fn manifest_file(relative: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The workloads with the same shape at a fraction of the size: small
/// clusters, few subcarriers, a short spin.
fn smoke(workload: &str) -> Spec {
    let cluster = ParallelConfig { cores: 16, n: 4, precision: Precision::CDotp16, seed: 0, unroll: 2 };
    let engine = |kind, workers| Spec::Engine(EngineSpec { kind, workers, jobs_per_second: 10.0 });
    match workload {
        "symbol-fast" => {
            let symbol = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 64, seed: 0, unroll: 2 };
            engine(EngineKind::Mmse(MmseConfig::Symbol(symbol)), 2)
        }
        "cluster-fast" => engine(EngineKind::Mmse(MmseConfig::Fast(cluster, 1)), 1),
        "cluster-cycle" => engine(EngineKind::Mmse(MmseConfig::Cycle(cluster, CycleEngine::Parallel(2))), 1),
        "cycle-skew" => engine(EngineKind::Skew { cores: 16, spin: 20_000 }, 1),
        "serve-mix" => {
            let Some(Spec::Serve(full)) = spec(workload) else { unreachable!() };
            Spec::Serve(ServeSpec { warmup_requests: 24, requests_per_second: 60.0, ..full })
        }
        other => panic!("no smoke spec for {other}"),
    }
}

fn run(workload: &str, seed: u64, trace: Option<bool>) -> Value {
    let args = Args { workload: Some(workload.into()), seed, seconds: 1.0, trace, repeat: 1, strict: false };
    run_workload(workload, &smoke(workload), &args).0
}

fn defs_json(defs: &[MetricDef]) -> Vec<Value> {
    defs.iter()
        .map(|d| {
            let mut fields = vec![
                ("name", Value::str(d.name)),
                ("unit", Value::str(d.unit)),
                ("better", Value::str(d.better)),
            ];
            if let Some(bound) = d.bound {
                fields.push(("bound", Value::Num(bound)));
            }
            Value::obj(fields)
        })
        .collect()
}

#[test]
fn benchmark_json_states_exactly_these_tables() {
    let file = json::parse(&manifest_file("../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let Value::Obj(fields) = &file else { panic!("BENCHMARK.json is an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    assert_eq!(file.get("paths"), Some(&Value::Arr(vec![Value::str("benchmark")])));
    assert_eq!(
        file.get("command"),
        Some(&Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]))
    );
    let seconds = file.get("run_seconds").and_then(Value::as_f64).expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
        .collect();
    assert_eq!(file.get("workloads").and_then(Value::as_arr), Some(&workloads[..]));
    assert!(WORKLOADS.iter().all(|w| w.why.chars().count() <= 200 && !w.why.contains('\n')));
    assert!(WORKLOADS.iter().all(|w| spec(w.name).is_some()));

    assert_eq!(file.get("end_to_end").and_then(Value::as_arr), Some(&defs_json(&END_TO_END)[..]));
    assert_eq!(file.get("per_layer").and_then(Value::as_arr), Some(&defs_json(&PER_LAYER)[..]));
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
        assert!(matches!(def.better, "lower" | "higher"), "{}", def.name);
        assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", def.name);
    }
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
}

/// The `[profile.release]` table of a manifest, comments and blank lines
/// dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_is_the_root_manifests() {
    let root = release_profile(&manifest_file("../Cargo.toml"));
    assert!(root.contains(&"lto = \"thin\"".to_string()) && root.contains(&"codegen-units = 1".to_string()));
    assert_eq!(
        release_profile(&manifest_file("Cargo.toml")),
        root,
        "benchmark must measure the code users ship"
    );
}

#[test]
fn arguments_parse_and_reject() {
    let parse = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let args = parse("--workload serve-mix --seed 9 --seconds 3 --trace 1 --repeat 2 --strict").unwrap();
    assert_eq!(
        args,
        Args {
            workload: Some("serve-mix".into()),
            seed: 9,
            seconds: 3.0,
            trace: Some(true),
            repeat: 2,
            strict: true
        }
    );
    assert_eq!(parse("").unwrap().trace, None);
    for bad in ["--workload nope", "--trace 2", "--seconds 0", "--repeat 0", "--seed", "--frobnicate 1"] {
        assert!(parse(bad).is_err(), "{bad}");
    }
}

/// Every workload, smoke scale: both passes run clean, every metric the
/// contract names is there, finite and unit-tagged, and the simulated
/// statistics follow the seed and nothing else.
#[test]
fn smoke_runs_report_every_metric_and_repeat_their_digest() {
    for workload in WORKLOADS {
        let both = run(workload.name, 5, None);
        assert_eq!(both.get("errors"), Some(&Value::Arr(vec![])), "{}", workload.name);
        assert_eq!(both.get("correct"), Some(&Value::Bool(true)), "{}", workload.name);
        assert_eq!(both.get("failed_frac").and_then(Value::as_f64), Some(0.0), "{}", workload.name);
        assert!(both.get("attempted").and_then(Value::as_f64).is_some_and(|n| n >= 1.0));
        let metrics = both.get("metrics").expect("metrics");
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            let metric =
                metrics.get(def.name).unwrap_or_else(|| panic!("{}: no {}", workload.name, def.name));
            assert!(metric.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite), "{}", def.name);
            assert_eq!(metric.get("unit").and_then(Value::as_str), Some(def.unit), "{}", def.name);
        }
        for def in &END_TO_END {
            let value = metrics.get(def.name).and_then(|m| m.get("value")).and_then(Value::as_f64);
            assert!(value.is_some_and(|v| v > 0.0), "{}: {} must never be 0", workload.name, def.name);
        }

        let again = run(workload.name, 5, Some(false));
        let other = run(workload.name, 6, Some(false));
        let digest =
            |record: &Value| record.get("end_to_end_digest").and_then(Value::as_str).map(String::from);
        assert!(digest(&both).is_some());
        assert_eq!(digest(&both), digest(&again), "{}: same seed, same statistics", workload.name);
        assert_ne!(digest(&both), digest(&other), "{}: the seed must reach the inputs", workload.name);
        // One pass alone reports exactly its own metrics.
        let Some(Value::Obj(only)) = again.get("metrics") else { panic!("metrics") };
        assert_eq!(only.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), END_TO_END.map(|d| d.name));
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let record = run("cycle-skew", 1, Some(true));
    let line = json::parse(&result_line(&record)).expect("result line parses");
    let Value::Obj(fields) = &line else { panic!("object") };
    assert_eq!(
        fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        ["correct", "attempted", "failed", "metrics"]
    );
    let Some(Value::Obj(metrics)) = line.get("metrics") else { panic!("metrics") };
    assert_eq!(metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), PER_LAYER.map(|d| d.name));
}
