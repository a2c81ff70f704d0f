//! What the record says about the host it was measured on.

use crate::json::Value;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `run.sh` exports the toolchain and commit it built from; a binary
/// started by hand says "unknown".
fn from_env(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unknown".into())
}

pub fn to_json() -> Value {
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::str(cpu_model())),
        ("rustc", Value::str(from_env("TERASIM_BENCH_RUSTC"))),
        ("git_commit", Value::str(from_env("TERASIM_BENCH_COMMIT"))),
    ])
}
