//! The benchmark's vocabulary: workloads and metrics, by name. A
//! self-test holds `BENCHMARK.json` to these tables.

use crate::json::Value;

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "symbol-fast",
        why: "The paper's headline job: one 1638-subcarrier 16x16 OFDM symbol per Snitch, batched over 2 host threads; fast engine ~3/4 of a job, phy generation + native verify the rest",
    },
    WorkloadDef {
        name: "cluster-fast",
        why: "Same interpreter used differently: 1024 short harts of the 8x8 parallel MMSE on one host thread, barrier parking and the SPMD path; lane-batching shows here, not on symbol-fast",
    },
    WorkloadDef {
        name: "cluster-cycle",
        why: "Dense full-occupancy traffic on the sharded cycle engine over 2 host threads: issue path, bank/port arbitration, epoch coordination; where adaptive epochs cost",
    },
    WorkloadDef {
        name: "cycle-skew",
        why: "Same cycle engine, opposite use: one hart spins while 1023 park in wfi, so quiescent stretches and window extension dominate; no phy, no kernels, no softfloat",
    },
    WorkloadDef {
        name: "serve-mix",
        why: "Closed loop of 2 clients on a 2-worker daemon, six 0.3-1.4 ms request kinds over 4 cache slots: half the latency is the guest, a third queue, cache rebuild and pool reset; serving PRs move only this",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// What a user of the stack sees, on every workload (host time). Every
/// bound is the widest the driver's contract allows: on the shared
/// reference host the same binary runs up to 1.8x slower for minutes at
/// a time, and a tighter bound would reject commits for the host's mood
/// (README, "Where this departs from the issue").
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("sim_mips", "Minst/s", "higher", 0.25),
    e2e("jobs_per_s", "1/s", "higher", 0.25),
    e2e("job_p50_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

/// Retired-instruction classes, in `terasim_iss::InstClass::ALL` order.
pub const CLASS_METRICS: [&str; 13] = [
    "iss.retired.alu",
    "iss.retired.mul",
    "iss.retired.div",
    "iss.retired.load",
    "iss.retired.store",
    "iss.retired.amo",
    "iss.retired.branch",
    "iss.retired.jump",
    "iss.retired.fp",
    "iss.retired.fpdivsqrt",
    "iss.retired.simd",
    "iss.retired.dotp",
    "iss.retired.system",
];

/// Stall classes, in the order `JobStats::stalls` holds them.
pub const STALL_METRICS: [&str; 5] = [
    "terapool.stall_raw_cycles",
    "terapool.stall_lsu_cycles",
    "terapool.stall_ins_cycles",
    "terapool.stall_acc_cycles",
    "terapool.stall_wfi_cycles",
];

/// Single layers, from the traced pass (layer = crate name). A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 54] = [
    layer("job_tail_s", "s", "lower"),
    layer("kernels.emit_s", "s", "lower"),
    layer("terapool.artifacts_s", "s", "lower"),
    layer("phy.generate_s", "s", "lower"),
    layer("kernels.write_s", "s", "lower"),
    layer("kernels.verify_s", "s", "lower"),
    layer("terapool.pool_s", "s", "lower"),
    layer("terapool.fast_exec_s", "s", "lower"),
    layer("terapool.fast_ns_per_inst", "ns/inst", "lower"),
    layer("terapool.cycle_exec_s", "s", "lower"),
    layer("terapool.cycle_ns_per_inst", "ns/inst", "lower"),
    layer("terapool.cycle_ns_per_simcycle", "ns/cycle", "lower"),
    layer("terapool.epoch_windows", "count", "lower"),
    layer("terapool.epoch_extended_frac", "frac", "higher"),
    layer("terapool.epoch_avg_len", "cycles", "higher"),
    layer("terapool.ipc", "inst/cycle", "higher"),
    layer(STALL_METRICS[0], "cycles", "lower"),
    layer(STALL_METRICS[1], "cycles", "lower"),
    layer(STALL_METRICS[2], "cycles", "lower"),
    layer(STALL_METRICS[3], "cycles", "lower"),
    layer(STALL_METRICS[4], "cycles", "lower"),
    layer(CLASS_METRICS[0], "inst", "lower"),
    layer(CLASS_METRICS[1], "inst", "lower"),
    layer(CLASS_METRICS[2], "inst", "lower"),
    layer(CLASS_METRICS[3], "inst", "lower"),
    layer(CLASS_METRICS[4], "inst", "lower"),
    layer(CLASS_METRICS[5], "inst", "lower"),
    layer(CLASS_METRICS[6], "inst", "lower"),
    layer(CLASS_METRICS[7], "inst", "lower"),
    layer(CLASS_METRICS[8], "inst", "lower"),
    layer(CLASS_METRICS[9], "inst", "lower"),
    layer(CLASS_METRICS[10], "inst", "lower"),
    layer(CLASS_METRICS[11], "inst", "lower"),
    layer(CLASS_METRICS[12], "inst", "lower"),
    layer("core.batch_self_s", "s", "lower"),
    layer("core.batch_efficiency", "frac", "higher"),
    layer("core.daemon_queue_ms_p50", "ms", "lower"),
    layer("core.daemon_queue_ms_p99", "ms", "lower"),
    layer("core.daemon_exec_ms_p50", "ms", "lower"),
    layer("core.daemon_exec_ms_p99", "ms", "lower"),
    layer("core.daemon_overhead_ms_p50", "ms", "lower"),
    layer("core.daemon_overhead_ms_p99", "ms", "lower"),
    layer("core.cache_hit_frac", "frac", "higher"),
    layer("core.cache_evictions", "count", "lower"),
    layer("core.pool_recycled_frac", "frac", "higher"),
    layer("core.rejected", "count", "lower"),
    layer("est_cycle_err_pct", "%", "lower"),
    layer("trace_overhead_pct", "%", "lower"),
    layer("trace_closure_gap_pct", "%", "lower"),
    layer("traced_job_p50_s", "s", "lower"),
    layer("traced_jobs", "count", "higher"),
    layer("share.exec_pct", "%", "lower"),
    layer("share.operands_pct", "%", "lower"),
    layer("share.serving_pct", "%", "lower"),
];

/// Named values of one pass, in definition order.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self { defs, values: vec![None; defs.len()] }
    }

    /// Per-layer metrics start at 0: "this workload does not exercise
    /// the layer" is a reading, not a gap.
    pub fn zeroed(defs: &'static [MetricDef]) -> Self {
        Self { defs, values: vec![Some(0.0); defs.len()] }
    }

    /// # Panics
    ///
    /// Panics on a name the table does not define: a typo must not
    /// silently drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("undefined metric {name}"));
        // `+ 0.0`: an empty sum is -0.0, which would print as "-0".
        self.values[i] = Some(value + 0.0);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.defs.iter().position(|d| d.name == name).and_then(|i| self.values[i])
    }

    /// `(definition, value)` pairs; a value never set reads NaN, which
    /// the run then reports as incorrect.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(&self.values).map(|(d, v)| (d, v.unwrap_or(f64::NAN)))
    }

    pub fn all_finite(&self) -> bool {
        self.iter().all(|(_, v)| v.is_finite())
    }

    /// The contract's shape: `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(d, v)| {
                    (d.name.to_string(), Value::obj([("value", Value::Num(v)), ("unit", Value::str(d.unit))]))
                })
                .collect(),
        )
    }
}
