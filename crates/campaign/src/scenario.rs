//! Declarative attack/fault scenarios.
//!
//! A [`Scenario`] composes an attacker program from the kernel crate's
//! attack primitives ([`AttackStep`]) with seeded background workload,
//! a protection mode, optional MBM configuration pressure, and a
//! [`FaultPlan`] injected at the machine/MBM boundary. Scenarios are
//! built either in Rust (builder methods) or loaded from the TOML
//! subset in `corpus/*.toml` (see `docs/CAMPAIGN.md` for the schema).

use std::fmt;
use std::path::{Path, PathBuf};

use hypernel::Mode;
use hypernel_compose::ComposeDoc;
use hypernel_kernel::kernel::MonitorMode;
use hypernel_kernel::{AttackStep, ParamValue, StepKind};
use hypernel_machine::{FaultKind, FaultPlan, FaultSpec};
use hypernel_telemetry::metrics::{MetricsConfig, DEFAULT_WINDOW_CYCLES};

use crate::toml::{self, TomlTable, TomlValue};

/// Every protection mode with its scenario-file key, in sweep order.
pub const MODES: [(Mode, &str); 3] = [
    (Mode::Hypernel, "hypernel"),
    (Mode::KvmGuest, "kvm"),
    (Mode::Native, "native"),
];

/// The lowercase scenario-file key for a mode (`Mode`'s `Display` is
/// the human form — `KVM-guest` — which makes poor keys).
pub fn mode_key(mode: Mode) -> &'static str {
    MODES
        .iter()
        .find(|(m, _)| *m == mode)
        .map(|(_, key)| *key)
        .expect("MODES lists every mode")
}

/// Inverse of [`mode_key`].
pub fn parse_mode(key: &str) -> Option<Mode> {
    MODES.iter().find(|(_, k)| *k == key).map(|(mode, _)| *mode)
}

/// The accepted mode keys, for error messages (`hypernel | kvm | native`).
pub fn mode_choices() -> String {
    MODES.map(|(_, key)| key).join(" | ")
}

/// What a step's outcome should look like under this scenario's mode —
/// the ground truth the `outcomes` and `detection` oracles check
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepExpect {
    /// The protection must refuse the operation.
    Blocked,
    /// The write completes and the MBM pipeline must flag it.
    Detected,
    /// The write completes and nothing watches it (baseline modes).
    Undetected,
    /// The write completes but a *declared fault* masks detection: the
    /// detection oracle still flags the gap, marked expected, so the
    /// run passes while the record shows exactly what was missed.
    Masked,
    /// No expectation (exploratory steps).
    Any,
}

impl StepExpect {
    /// Stable name used in scenario files and run records.
    pub fn name(self) -> &'static str {
        match self {
            Self::Blocked => "blocked",
            Self::Detected => "detected",
            Self::Undetected => "undetected",
            Self::Masked => "masked",
            Self::Any => "any",
        }
    }

    /// Inverse of [`StepExpect::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "blocked" => Self::Blocked,
            "detected" => Self::Detected,
            "undetected" => Self::Undetected,
            "masked" => Self::Masked,
            "any" => Self::Any,
            _ => return None,
        })
    }
}

/// Windowed-metrics recording configuration (the optional `[metrics]`
/// scenario section). The engine records the full standard catalog at
/// the default window width when the section is absent; this spec only
/// *tunes* recording, it never changes simulated results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSpec {
    /// Window width in simulated cycles (`window-cycles`, > 0).
    pub window_cycles: u64,
    /// Series subset to record (`series`), or `None` for the full
    /// standard catalog.
    pub series: Option<Vec<String>>,
}

impl Default for MetricsSpec {
    fn default() -> Self {
        Self {
            window_cycles: DEFAULT_WINDOW_CYCLES,
            series: None,
        }
    }
}

impl MetricsSpec {
    /// The recorder configuration this spec describes.
    pub fn to_config(&self) -> MetricsConfig {
        MetricsConfig {
            window_cycles: self.window_cycles,
            enabled: self.series.clone(),
        }
    }
}

/// One attacker action plus its expected outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSpec {
    /// The attack primitive to run.
    pub step: AttackStep,
    /// Expected outcome under this scenario's mode.
    pub expect: StepExpect,
}

/// A complete adversarial scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique scenario name (record key; corpus file stem by convention).
    pub name: String,
    /// One-line description for reports.
    pub description: String,
    /// Protection configuration the attack runs against.
    pub mode: Mode,
    /// Monitoring granularity (Hypernel mode).
    pub monitor: MonitorMode,
    /// Background workload operations interleaved before each attack
    /// step (seed-driven choice of operation).
    pub background_ops: u64,
    /// Upper bound, in cycles, on write→detection latency (checked by
    /// the `latency` oracle when a step is detected).
    pub latency_bound: Option<u64>,
    /// Override for the MBM snoop-FIFO capacity (overflow-pressure
    /// scenarios).
    pub fifo_capacity: Option<usize>,
    /// Override for the MBM translator drain budget per transaction.
    pub drain_budget: Option<usize>,
    /// The attacker program.
    pub steps: Vec<StepSpec>,
    /// Faults injected at the machine/MBM boundary.
    pub faults: FaultPlan,
    /// Windowed-metrics recording tuning (`[metrics]`), if the
    /// scenario overrides the defaults.
    pub metrics: Option<MetricsSpec>,
    /// Composed multi-domain system description (`[compose]` /
    /// `[[domain]]` / `[[channel]]` / `[[region]]`), lowered onto the
    /// kernel right after boot.
    pub compose: Option<ComposeDoc>,
}

impl Scenario {
    /// Starts a scenario running under `mode`.
    pub fn new(name: impl Into<String>, mode: Mode) -> Self {
        Self {
            name: name.into(),
            description: String::new(),
            mode,
            monitor: MonitorMode::SensitiveFields,
            background_ops: 0,
            latency_bound: None,
            fifo_capacity: None,
            drain_budget: None,
            steps: Vec::new(),
            faults: FaultPlan::new(),
            metrics: None,
            compose: None,
        }
    }

    /// Sets the one-line description.
    pub fn describe(mut self, text: impl Into<String>) -> Self {
        self.description = text.into();
        self
    }

    /// Appends an attack step with its expected outcome.
    pub fn step(mut self, step: AttackStep, expect: StepExpect) -> Self {
        self.steps.push(StepSpec { step, expect });
        self
    }

    /// Interleaves `n` seeded background operations before each step.
    pub fn background(mut self, n: u64) -> Self {
        self.background_ops = n;
        self
    }

    /// Bounds write→detection latency (cycles).
    pub fn latency_bound(mut self, cycles: u64) -> Self {
        self.latency_bound = Some(cycles);
        self
    }

    /// Shrinks the MBM snoop FIFO (overflow pressure).
    pub fn fifo_capacity(mut self, entries: usize) -> Self {
        self.fifo_capacity = Some(entries);
        self
    }

    /// Caps MBM translations per bus transaction (translator pressure).
    pub fn drain_budget(mut self, per_txn: usize) -> Self {
        self.drain_budget = Some(per_txn);
        self
    }

    /// Adds a fault to the injection schedule.
    pub fn fault(mut self, spec: FaultSpec) -> Self {
        self.faults = self.faults.with(spec);
        self
    }

    /// Tunes windowed-metrics recording (window width, series subset).
    pub fn metrics(mut self, spec: MetricsSpec) -> Self {
        self.metrics = Some(spec);
        self
    }

    /// Attaches a composed multi-domain system description, lowered
    /// right after boot.
    pub fn compose(mut self, doc: ComposeDoc) -> Self {
        self.compose = Some(doc);
        self
    }

    /// Loads a scenario from its TOML form.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] for syntax errors, unknown kinds or
    /// missing required fields.
    pub fn from_toml(input: &str) -> Result<Self, ScenarioError> {
        let doc = toml::parse(input).map_err(|e| ScenarioError::new(e.to_string()))?;
        Self::from_doc(&doc)
    }

    /// Loads a scenario from a parsed document. Keys and sections it
    /// does not know are skipped; afterwards `doc.unread()` lists them.
    ///
    /// # Errors
    ///
    /// As [`Scenario::from_toml`], minus syntax errors.
    pub fn from_doc(doc: &TomlTable) -> Result<Self, ScenarioError> {
        let mut scenario = parse_top_level(doc).map_err(|e| e.context("top level"))?;
        if doc.array("step").is_empty() {
            return Err(ScenarioError::new("a scenario needs at least one [[step]]"));
        }
        for (i, t) in doc.array("step").iter().enumerate() {
            let spec = parse_step(t).map_err(|e| e.context(format!("step {}", i + 1)))?;
            scenario.steps.push(spec);
        }
        for (i, t) in doc.array("fault").iter().enumerate() {
            let spec = parse_fault(t).map_err(|e| e.context(format!("fault {}", i + 1)))?;
            scenario.faults = scenario.faults.with(spec);
        }
        if let Some(t) = doc.table("metrics") {
            scenario.metrics = Some(parse_metrics(t).map_err(|e| e.context("[metrics]"))?);
        }
        scenario.compose =
            ComposeDoc::from_doc(doc).map_err(|e| ScenarioError::new(e.to_string()))?;
        Ok(scenario)
    }

    /// The top-level keys this scenario sets that only Hypernel mode
    /// reads (the baseline modes accept and ignore them).
    pub fn hypernel_only_keys(&self) -> Vec<&'static str> {
        [
            ("monitor", self.monitor != MonitorMode::SensitiveFields),
            ("latency-bound", self.latency_bound.is_some()),
            ("fifo-capacity", self.fifo_capacity.is_some()),
            ("drain-budget", self.drain_budget.is_some()),
        ]
        .into_iter()
        .filter(|(_, set)| *set)
        .map(|(key, _)| key)
        .collect()
    }

    /// Serializes the scenario back into its TOML form, emitting only
    /// keys the loader reads, so `explore` mutants land on disk
    /// ready-to-lint. Inverse of [`Scenario::from_toml`]:
    /// `from_toml(&s.to_toml())` reproduces `s` (round-trip tested).
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "name = {}", toml_str(&self.name));
        if !self.description.is_empty() {
            let _ = writeln!(out, "description = {}", toml_str(&self.description));
        }
        let _ = writeln!(out, "mode = \"{}\"", mode_key(self.mode));
        if self.monitor == MonitorMode::WholeObject {
            let _ = writeln!(out, "monitor = \"whole-object\"");
        }
        if self.background_ops > 0 {
            let _ = writeln!(out, "background-ops = {}", self.background_ops);
        }
        if let Some(bound) = self.latency_bound {
            let _ = writeln!(out, "latency-bound = {bound}");
        }
        if let Some(capacity) = self.fifo_capacity {
            let _ = writeln!(out, "fifo-capacity = {capacity}");
        }
        if let Some(budget) = self.drain_budget {
            let _ = writeln!(out, "drain-budget = {budget}");
        }
        if let Some(metrics) = &self.metrics {
            let _ = writeln!(out, "\n[metrics]");
            let _ = writeln!(out, "window-cycles = {}", metrics.window_cycles);
            if let Some(series) = &metrics.series {
                let items: Vec<String> = series.iter().map(|s| toml_str(s)).collect();
                let _ = writeln!(out, "series = [{}]", items.join(", "));
            }
        }
        if let Some(compose) = &self.compose {
            let _ = write!(out, "\n{}", compose.to_toml());
        }
        for spec in &self.steps {
            let _ = writeln!(out, "\n[[step]]");
            let (kind, values) = spec.step.describe();
            let _ = writeln!(out, "kind = \"{}\"", kind.name);
            for (param, value) in kind.params.iter().zip(values) {
                let _ = match value {
                    ParamValue::U64(v) => writeln!(out, "{} = {v}", param.key),
                    ParamValue::Str(s) => writeln!(out, "{} = {}", param.key, toml_str(s)),
                };
            }
            let _ = writeln!(out, "expect = \"{}\"", spec.expect.name());
        }
        for fault in &self.faults.specs {
            let _ = writeln!(out, "\n[[fault]]");
            let _ = writeln!(out, "kind = \"{}\"", fault.kind.name());
            let _ = writeln!(out, "at = {}", fault.at);
            if fault.count == u64::MAX {
                let _ = writeln!(out, "count = -1");
            } else {
                let _ = writeln!(out, "count = {}", fault.count);
            }
            // The subset's integers are `i64`: a larger parameter has no
            // literal spelling. Only `call` takes one (`u64::MAX`, "any"),
            // and it is that key's default, so omitting it reads back
            // the same.
            if let Some(param) = &fault.kind.row().param {
                if i64::try_from(fault.param).is_ok() {
                    let _ = writeln!(out, "{} = {}", param.key, fault.param);
                }
            }
        }
        out
    }
}

/// Quotes a TOML basic string. The crate's TOML subset has no escape
/// sequences (the parser rejects embedded quotes outright), so any
/// scenario that *parsed* serializes cleanly; an embedded `"` from a
/// Rust-built scenario is replaced to keep the output parseable.
fn toml_str(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "'"))
}

fn parse_top_level(doc: &TomlTable) -> Result<Scenario, ScenarioError> {
    let name = doc
        .read_str("name")?
        .ok_or_else(|| ScenarioError::new("missing `name`"))?;
    let mode = match doc.read_str("mode")? {
        None => Mode::Hypernel,
        Some(text) => parse_mode(text).ok_or_else(|| {
            ScenarioError::new(format!("unknown mode `{text}` ({})", mode_choices()))
        })?,
    };
    let mut scenario = Scenario::new(name, mode);
    scenario.description = doc.read_str("description")?.unwrap_or("").to_string();
    scenario.monitor = match doc.read_str("monitor")?.unwrap_or("sensitive-fields") {
        "sensitive-fields" => MonitorMode::SensitiveFields,
        "whole-object" => MonitorMode::WholeObject,
        other => {
            return Err(ScenarioError::new(format!(
                "unknown monitor mode `{other}` (sensitive-fields | whole-object)"
            )))
        }
    };
    scenario.background_ops = doc.read_u64("background-ops")?.unwrap_or(0);
    scenario.latency_bound = doc.read_u64("latency-bound")?;
    scenario.fifo_capacity = doc.read_u64("fifo-capacity")?.map(|v| v as usize);
    scenario.drain_budget = doc.read_u64("drain-budget")?.map(|v| v as usize);
    Ok(scenario)
}

fn parse_metrics(t: &TomlTable) -> Result<MetricsSpec, ScenarioError> {
    let mut spec = MetricsSpec::default();
    if let Some(w) = t.get("window-cycles") {
        spec.window_cycles = w
            .as_u64()
            .filter(|w| *w > 0)
            .ok_or_else(|| ScenarioError::new("`window-cycles` must be a positive integer"))?;
    }
    if let Some(v) = t.get("series") {
        let TomlValue::Array(items) = v else {
            return Err(ScenarioError::new("`series` must be an array of strings"));
        };
        let series = items
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ScenarioError::new("`series` must be an array of strings"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        spec.series = Some(series);
    }
    Ok(spec)
}

fn parse_step(t: &TomlTable) -> Result<StepSpec, ScenarioError> {
    let name = t
        .read_str("kind")?
        .ok_or_else(|| ScenarioError::new("missing `kind`"))?;
    let kind = StepKind::by_name(name)
        .ok_or_else(|| ScenarioError::new(format!("unknown step kind `{name}`")))?;
    let values = kind
        .params
        .iter()
        .map(|param| {
            Ok(match param.default {
                ParamValue::U64(default) => {
                    ParamValue::U64(t.read_u64(param.key)?.unwrap_or(default))
                }
                ParamValue::Str(default) => {
                    ParamValue::Str(t.read_str(param.key)?.unwrap_or(default))
                }
            })
        })
        .collect::<Result<Vec<_>, ScenarioError>>()?;
    let expect = match t.read_str("expect")? {
        Some(text) => StepExpect::parse(text)
            .ok_or_else(|| ScenarioError::new(format!("unknown expect `{text}`")))?,
        None => StepExpect::Any,
    };
    Ok(StepSpec {
        step: (kind.build)(&values),
        expect,
    })
}

fn parse_fault(t: &TomlTable) -> Result<FaultSpec, ScenarioError> {
    let kind_name = t
        .read_str("kind")?
        .ok_or_else(|| ScenarioError::new("missing `kind`"))?;
    let kind = FaultKind::parse(kind_name)
        .ok_or_else(|| ScenarioError::new(format!("unknown fault kind `{kind_name}`")))?;
    let at = t.read_u64("at")?.unwrap_or(1);
    // `count = -1` reads as "every occurrence from `at` on".
    let count = if t.get("count") == Some(&TomlValue::Int(-1)) {
        u64::MAX
    } else {
        t.read_u64("count")?.unwrap_or(1)
    };
    let mut spec = FaultSpec::of_kind(kind, at, count);
    if let Some(param) = &kind.row().param {
        spec.param = t.read_u64(param.key)?.unwrap_or(param.default);
    }
    Ok(spec)
}

/// Loads every `*.toml` scenario under `dir`, sorted by file name so
/// every sweep and artifact derived from the corpus is stable.
///
/// # Errors
///
/// Returns a message when the directory is unreadable, holds no
/// scenarios, or any file fails to load.
pub fn load_corpus(dir: &Path) -> Result<Vec<Scenario>, String> {
    let paths = toml_files(dir)?;
    if paths.is_empty() {
        return Err(format!("no `*.toml` scenarios in `{}`", dir.display()));
    }
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
            Scenario::from_toml(&text).map_err(|e| format!("`{}`: {e}", path.display()))
        })
        .collect()
}

/// The `*.toml` files directly under `dir`, sorted by name.
pub(crate) fn toml_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// A scenario parsing/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Human-readable cause, innermost first.
    pub message: String,
}

impl From<String> for ScenarioError {
    fn from(message: String) -> Self {
        Self::new(message)
    }
}

impl ScenarioError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    fn context(self, outer: impl fmt::Display) -> Self {
        Self {
            message: format!("{outer}: {}", self.message),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_toml_agree() {
        let toml = r#"
            name = "demo"
            description = "escalate then patch"
            mode = "hypernel"
            background-ops = 3
            latency-bound = 250000

            [[step]]
            kind = "cred-escalation"
            pid = 1
            expect = "detected"

            [[step]]
            kind = "text-patch"
            expect = "blocked"

            [[fault]]
            kind = "drop-irq"
            at = 1
            count = 1
        "#;
        let parsed = Scenario::from_toml(toml).expect("parses");
        let built = Scenario::new("demo", Mode::Hypernel)
            .describe("escalate then patch")
            .background(3)
            .latency_bound(250_000)
            .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected)
            .step(AttackStep::TextPatch, StepExpect::Blocked)
            .fault(FaultSpec::drop_irq(1, 1));
        assert_eq!(parsed, built);
    }

    #[test]
    fn fault_params_map_per_kind() {
        let toml = r#"
            name = "faults"
            [[step]]
            kind = "ttbr-redirect"
            [[fault]]
            kind = "delay-irq"
            at = 2
            count = -1
            steps = 7
            [[fault]]
            kind = "flip-snoop-addr"
            bit = 5
            [[fault]]
            kind = "lose-hypercall"
            call = 0x130
        "#;
        let s = Scenario::from_toml(toml).expect("parses");
        assert_eq!(s.faults.specs.len(), 3);
        assert_eq!(s.faults.specs[0], FaultSpec::delay_irq(2, u64::MAX, 7));
        assert_eq!(s.faults.specs[1], FaultSpec::flip_snoop_addr(1, 1, 5));
        assert_eq!(s.faults.specs[2], FaultSpec::lose_hypercall(1, 1, 0x130));
    }

    #[test]
    fn metrics_section_parses_and_rejects_bad_shapes() {
        let toml = r#"
            name = "m"
            [[step]]
            kind = "ttbr-redirect"
            [metrics]
            window-cycles = 20000
            series = ["hypercalls", "mbm-fifo-depth"]
        "#;
        let s = Scenario::from_toml(toml).expect("parses");
        let spec = s.metrics.expect("metrics spec");
        assert_eq!(spec.window_cycles, 20_000);
        assert_eq!(
            spec.series.as_deref(),
            Some(&["hypercalls".to_string(), "mbm-fifo-depth".to_string()][..])
        );
        assert_eq!(spec.to_config().window_cycles, 20_000);

        // Absent section → None; engine falls back to defaults.
        let bare = Scenario::from_toml("name = \"x\"\n[[step]]\nkind = \"text-patch\"").unwrap();
        assert_eq!(bare.metrics, None);

        for bad in [
            "[metrics]\nwindow-cycles = 0",
            "[metrics]\nwindow-cycles = \"wide\"",
            "[metrics]\nseries = 7",
            "[metrics]\nseries = [1, 2]",
        ] {
            let text = format!("name = \"x\"\n[[step]]\nkind = \"text-patch\"\n{bad}");
            let e = Scenario::from_toml(&text).unwrap_err();
            assert!(e.message.contains("[metrics]"), "{e}");
        }
    }

    #[test]
    fn to_toml_round_trips() {
        let full = Scenario::new("round-trip", Mode::Hypernel)
            .describe("every knob at once")
            .background(5)
            .latency_bound(250_000)
            .fifo_capacity(4)
            .drain_budget(1)
            .step(AttackStep::CredEscalation { pid: 1 }, StepExpect::Detected)
            .step(
                AttackStep::DentryHijack {
                    path: "/bin/sh".to_string(),
                    rogue_inode: 0xBAD,
                },
                StepExpect::Masked,
            )
            .step(AttackStep::TtbrRedirect, StepExpect::Blocked)
            .fault(FaultSpec::delay_irq(2, u64::MAX, 7))
            .fault(FaultSpec::lose_hypercall(1, 1, u64::MAX))
            .metrics(MetricsSpec {
                window_cycles: 20_000,
                series: Some(vec!["hypercalls".to_string()]),
            });
        let reparsed = Scenario::from_toml(&full.to_toml()).expect("round-trips");
        assert_eq!(reparsed, full);

        // Every shipped corpus scenario must survive the round trip too.
        for entry in std::fs::read_dir("../../corpus").expect("corpus dir") {
            let path = entry.expect("entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("toml") {
                continue;
            }
            let source = std::fs::read_to_string(&path).expect("readable");
            let loaded = Scenario::from_toml(&source).expect("corpus parses");
            let again = Scenario::from_toml(&loaded.to_toml())
                .unwrap_or_else(|e| panic!("{} re-parses: {e}", path.display()));
            assert_eq!(again, loaded, "{} round-trips", path.display());
        }
    }

    #[test]
    fn rejects_unknowns_with_context() {
        assert!(Scenario::from_toml("name = \"x\"").is_err(), "no steps");
        let e =
            Scenario::from_toml("name = \"x\"\n[[step]]\nkind = \"warp-core-breach\"").unwrap_err();
        assert!(e.message.contains("step 1"), "{e}");
        assert!(e.message.contains("warp-core-breach"));
        let e =
            Scenario::from_toml("name = \"x\"\nmode = \"xen\"\n[[step]]\nkind = \"text-patch\"")
                .unwrap_err();
        assert!(e.message.contains("xen"));
    }
}
