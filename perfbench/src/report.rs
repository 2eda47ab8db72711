//! Metric names, the result line, and the small statistics the
//! workloads share.
//!
//! Every metric the benchmark can print is declared once here, in
//! [`END_TO_END`] and [`per_layer`]; `BENCHMARK.json` lists the same
//! names in the same order. A run prints every end-to-end metric
//! (`--trace 0`) or every per-layer metric (`--trace 1`). A per-layer
//! metric whose layer a workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end metrics: `(name, unit)`. Host-time metrics (H) are
/// measured with no timers inside the window; simulated metrics (S) are
/// exact and repeat bit for bit for the same seed.
pub const END_TO_END: &[(&str, &str)] = &[
    ("runs_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("sim_mops", "Mops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("detect_latency_cycles_p50", "cycles"),
    ("hypernel_overhead_pct", "%"),
    ("kvm_overhead_pct", "%"),
    ("table1_err_pp", "pp"),
];

/// Engine phases of one campaign run, in `run_one_full`'s call order
/// (boot first: the sweep boots one template per scenario).
pub const CAMPAIGN_PHASES: &[&str] = &[
    "core.boot",
    "core.fork",
    "kernel.background",
    "kernel.attack",
    "core.irq_service",
    "hypersec.audit",
    "audit.static",
    "campaign.oracle",
    "campaign.coverage",
    "telemetry.metrics",
    "campaign.record",
    "campaign.unattributed",
];

/// Layer counters read from a `System` on every workload.
pub const COUNTERS: &[(&str, &str)] = &[
    ("machine.accesses", "count"),
    ("machine.uncached_accesses", "count"),
    ("machine.hypercalls", "count"),
    ("machine.sysreg_traps", "count"),
    ("machine.stage2_faults", "count"),
    ("tlb.hit_rate", "ratio"),
    ("tlb.l0_hit_rate", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("compiled.replayed_word_share", "ratio"),
    ("compiled.invalidations", "count"),
    ("mbm.bus_writes_seen", "count"),
    ("mbm.bitmap_lookups", "count"),
    ("mbm.events_matched", "count"),
    ("mbm.page_filter_skip_share", "ratio"),
    ("mbm.fifo_dropped", "count"),
    ("hypersec.events_dispatched", "count"),
    ("hypersec.pt_writes", "count"),
    ("hypersec.pt_denials", "count"),
    ("kvm.stage2_faults", "count"),
    ("kvm.wfi_exits", "count"),
];

/// The fast-path layers the ablation switches off one at a time.
pub const ABLATIONS: &[&str] = &["l0", "block_ops", "compiled", "mbm_filter", "fork"];

/// Protection modes in Table 1 column order, as metric-name slugs.
pub const MODE_SLUGS: &[&str] = &["native", "kvm", "hypernel"];

/// The per-layer metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for phase in CAMPAIGN_PHASES {
        out.push((format!("{phase}_ms"), "ms"));
    }
    for phase in CAMPAIGN_PHASES {
        out.push((format!("{phase}_pct"), "%"));
    }
    for (name, unit) in [
        ("audit.tables_walked", "count"),
        ("audit.leaves_checked", "count"),
        ("campaign.traced_run_ms", "ms"),
        ("campaign.untraced_run_ms", "ms"),
        ("campaign.tracing_overhead_pct", "%"),
        ("workloads.untar_ms", "ms"),
    ] {
        out.push((name.to_string(), unit));
    }
    for (name, unit) in COUNTERS {
        out.push((name.to_string(), unit));
    }
    for mode in MODE_SLUGS {
        out.push((format!("tlb.hit_rate.{mode}"), "ratio"));
    }
    for mode in MODE_SLUGS {
        out.push((format!("table1.{mode}_ms"), "ms"));
    }
    for op in hypernel::workloads::LmbenchOp::ALL {
        for mode in MODE_SLUGS {
            out.push((format!("table1.{}.{mode}_us", op_slug(*op)), "us"));
        }
    }
    for layer in ABLATIONS {
        out.push((format!("ablation.{layer}"), "ratio"));
    }
    out
}

/// `"fork+exit"` → `"fork_exit"`: letters, digits and `_` only.
pub fn op_slug(op: hypernel::workloads::LmbenchOp) -> String {
    let mut slug = String::new();
    for c in op.label().chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
        } else if !slug.ends_with('_') {
            slug.push('_');
        }
    }
    slug.trim_matches('_').to_string()
}

/// What a workload measured: named values plus the correctness tally.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<String, f64>,
    /// Operations attempted (runs, untar runs, `run_op` calls).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Correctness checks that did not hold, one line each.
    problems: Vec<String>,
}

impl Outcome {
    /// Records a metric value (last write wins).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records a failed check without aborting the run.
    pub fn problem(&mut self, detail: impl Into<String>) {
        let detail = detail.into();
        eprintln!("CHECK FAILED: {detail}");
        self.problems.push(detail);
    }

    /// Records a failed set-up: one attempt, failed, and nothing measured.
    pub fn setup_failed(mut self, detail: impl Into<String>) -> Self {
        self.attempted = 1;
        self.failed = 1;
        self.problem(detail);
        self
    }

    /// Asserts `cond`, counting a failure against the attempts if not.
    pub fn check(&mut self, cond: bool, detail: impl FnOnce() -> String) {
        if !cond {
            self.failed += 1;
            self.problem(detail());
        }
    }

    /// The result line: every metric of the selected set, in declared
    /// order. An end-to-end metric the workload did not set is a bug in
    /// the benchmark and is reported as a problem.
    pub fn result_line(&mut self, traced: bool) -> String {
        let names: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let undeclared: Vec<String> = self
            .values
            .keys()
            .filter(|k| {
                !per_layer().iter().any(|(n, _)| n == *k) && !END_TO_END.iter().any(|(n, _)| n == k)
            })
            .cloned()
            .collect();
        for name in undeclared {
            self.problem(format!("metric {name} is set but not declared"));
        }
        let mut metrics = Vec::new();
        for (name, unit) in names {
            let value = match self.values.get(&name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    self.problem(format!("metric {name} is not a finite number"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.problem(format!("end-to-end metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample of exact integers (lower middle when
/// even, so the result is itself a sample and repeats exactly).
pub fn median_u64(values: &[u64]) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted
        .get(sorted.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0)
}

/// Runs `setup` `times` times and returns the median host seconds plus
/// the result of the last call.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let start = Instant::now();
        let value = setup();
        seconds.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median(&seconds), last.expect("at least one setup ran"))
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host wall time of `f` in milliseconds, plus its result.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64() * 1e3, value)
}
