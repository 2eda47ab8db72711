//! Lint/loader round-trip: the scenario TOML loader is deliberately
//! lenient (unknown keys are ignored so old corpora keep loading), and
//! `hypernel-campaign lint` exists to close that gap. These tests pin
//! the contract from both sides:
//!
//! * every key the loader silently ignores — at the top level, in
//!   `[metrics]`, in a `[[step]]`, in a `[[fault]]` — is flagged by
//!   `lint_source`, so a typo can never ship silently;
//! * every parameter in the step and fault tables is actually honored
//!   by the loader (a fully-keyed scenario loads, lints clean, and
//!   `to_toml` round-trips it);
//! * a known key holding the wrong type is a load error, not its
//!   default.

use hypernel_campaign::{lint_source, Scenario};
use hypernel_kernel::{ParamValue, STEP_KINDS};
use hypernel_machine::{FaultSpec, FAULT_KINDS};

/// A scenario body exercising every whitelisted key for one step kind
/// and one fault kind, with `{top}`, `{metrics}`, `{step}` and
/// `{fault}` injection points for bogus keys.
fn source(top: &str, metrics: &str, step: &str, fault: &str) -> String {
    format!(
        r#"
name = "demo"
description = "round-trip probe"
mode = "hypernel"
monitor = "whole-object"
background-ops = 2
latency-bound = 60000
fifo-capacity = 8
drain-budget = 2
{top}

[metrics]
window-cycles = 50000
{metrics}

[[step]]
kind = "dentry-hijack"
path = "/bin/login"
rogue-inode = 4919
expect = "detected"
{step}

[[fault]]
kind = "delay-irq"
at = 1
count = 2
steps = 3
{fault}
"#
    )
}

/// The loader accepts the source (leniency) while the linter flags
/// exactly the injected key.
fn assert_ignored_but_flagged(source: &str, key: &str) {
    let scenario = Scenario::from_toml(source).expect("lenient loader still loads");
    // Ignored means ignored: the parsed scenario is identical to the
    // clean one.
    let clean = Scenario::from_toml(&self::source("", "", "", "")).expect("clean loads");
    assert_eq!(scenario, clean, "`{key}` leaked into the parsed scenario");
    let issues = lint_source(Some("demo"), source);
    assert!(
        issues.iter().any(|m| m.contains(key)),
        "lint missed ignored key `{key}`; issues: {issues:?}"
    );
}

#[test]
fn every_loader_ignored_key_is_flagged_by_lint() {
    assert_ignored_but_flagged(&source("latency_bound = 1", "", "", ""), "latency_bound");
    assert_ignored_but_flagged(&source("", "window_cycles = 9", "", ""), "window_cycles");
    assert_ignored_but_flagged(&source("", "", "pidd = 7", ""), "pidd");
    assert_ignored_but_flagged(&source("", "", "", "stepss = 9"), "stepss");
    // Keys that belong to a *different* kind are just as ignored: a
    // dentry-hijack step has no `pid`, a delay-irq fault has no `bit`.
    assert_ignored_but_flagged(&source("", "", "pid = 7", ""), "pid");
    assert_ignored_but_flagged(&source("", "", "", "bit = 3"), "bit");
}

#[test]
fn unknown_sections_are_flagged_too() {
    let with_table = format!("{}\n[telemetry]\nring = 4096\n", source("", "", "", ""));
    Scenario::from_toml(&with_table).expect("lenient loader still loads");
    let issues = lint_source(Some("demo"), &with_table);
    assert!(
        issues.iter().any(|m| m.contains("telemetry")),
        "lint missed unknown section: {issues:?}"
    );
    let with_array = format!("{}\n[[probe]]\nkind = \"x\"\n", source("", "", "", ""));
    Scenario::from_toml(&with_array).expect("lenient loader still loads");
    let issues = lint_source(Some("demo"), &with_array);
    assert!(
        issues.iter().any(|m| m.contains("probe")),
        "lint missed unknown section: {issues:?}"
    );
}

/// Compose sections obey the same contract: bogus keys load leniently
/// but lint dirty, and a fully-keyed description lints clean and
/// round-trips exactly.
#[test]
fn compose_sections_are_pinned_both_ways() {
    fn compose_source(compose: &str, domain: &str, channel: &str, region: &str) -> String {
        format!(
            r#"
name = "demo"
mode = "hypernel"

[compose]
watch = true
{compose}

[[domain]]
name = "server"
role = "server"
priority = 3
tasks = 2
{domain}

[[domain]]
name = "client"

[[channel]]
name = "req"
from = "client"
to = "server"
capacity = 8
{channel}

[[region]]
name = "shared"
owner = "server"
share = ["client"]
pages = 2
protect = true
va = 0x60100000
{region}

[[step]]
kind = "shared-region-toctou"
region = "shared"
expect = "detected"
"#
        )
    }

    let clean = compose_source("", "", "", "");
    assert_eq!(lint_source(Some("demo"), &clean), Vec::<String>::new());
    let scenario = Scenario::from_toml(&clean).expect("loads");
    let reparsed = Scenario::from_toml(&scenario.to_toml()).expect("round-trip loads");
    assert_eq!(scenario, reparsed);

    for (src, key) in [
        (compose_source("watchdog = 1", "", "", ""), "watchdog"),
        (compose_source("", "prio = 3", "", ""), "prio"),
        (compose_source("", "", "depth = 4", ""), "depth"),
        (compose_source("", "", "", "frames = 2"), "frames"),
    ] {
        let dirty = Scenario::from_toml(&src).expect("lenient loader still loads");
        let baseline = Scenario::from_toml(&clean).expect("clean loads");
        assert_eq!(dirty, baseline, "`{key}` leaked into the parsed scenario");
        let issues = lint_source(Some("demo"), &src);
        assert!(
            issues.iter().any(|m| m.contains(key)),
            "lint missed ignored compose key `{key}`; issues: {issues:?}"
        );
    }
}

/// The complementary direction: every parameter in the step and fault
/// tables is a key the loader honors, for every step kind × every
/// fault kind — each parameter set to a non-default value, so a key the
/// loader dropped would show up as its default.
#[test]
fn every_whitelisted_key_is_honored_by_the_loader() {
    let clean = source("", "", "", "");
    assert_eq!(lint_source(Some("demo"), &clean), Vec::<String>::new());
    let scenario = Scenario::from_toml(&clean).expect("loads");
    // Honored means present after a serialize/parse round-trip.
    let reparsed = Scenario::from_toml(&scenario.to_toml()).expect("round-trip loads");
    assert_eq!(scenario, reparsed);

    // One name declared as every kind of composed entity, so steps
    // that reference one pass the linter's reference check.
    const COMPOSE: &str = "[[domain]]\nname = \"x\"\n[[region]]\nname = \"x\"\nowner = \"x\"\n\
                           [[channel]]\nname = \"x\"\nfrom = \"x\"\nto = \"x\"\n";
    for kind in STEP_KINDS {
        // Every parameter off its default: integers bumped, strings `x`.
        let values: Vec<ParamValue<'_>> = kind
            .params
            .iter()
            .map(|param| match param.default {
                ParamValue::U64(default) => ParamValue::U64(default + 1),
                ParamValue::Str(_) => ParamValue::Str("x"),
            })
            .collect();
        let step_params: String = kind
            .params
            .iter()
            .zip(&values)
            .map(|(param, value)| match value {
                ParamValue::U64(v) => format!("{} = {v}\n", param.key),
                ParamValue::Str(v) => format!("{} = \"{v}\"\n", param.key),
            })
            .collect();
        let sections = if kind.composed() { COMPOSE } else { "" };
        let step = (kind.build)(&values);

        for fault_kind in FAULT_KINDS {
            let mut fault = FaultSpec::of_kind(fault_kind.kind, 2, 3);
            let mut fault_params = String::new();
            if let Some(param) = &fault_kind.param {
                fault.param = param.default.wrapping_add(1);
                fault_params = format!("{} = {}", param.key, fault.param);
            }
            let (step_kind, fault_name) = (kind.name, fault_kind.name);
            let src = format!(
                r#"
name = "demo"
mode = "hypernel"
{sections}
[[step]]
kind = "{step_kind}"
{step_params}expect = "any"

[[fault]]
kind = "{fault_name}"
at = 2
count = 3
{fault_params}
"#
            );
            let issues = lint_source(Some("demo"), &src);
            assert_eq!(
                issues,
                Vec::<String>::new(),
                "{step_kind}/{fault_name} should lint clean"
            );
            let scenario = Scenario::from_toml(&src)
                .unwrap_or_else(|e| panic!("{step_kind}/{fault_name} should load: {e}"));
            assert_eq!(
                scenario.steps[0].step, step,
                "{step_kind}: a parameter was dropped"
            );
            assert_eq!(
                scenario.faults.specs,
                vec![fault],
                "{fault_name}: the parameter was dropped"
            );
            let reparsed = Scenario::from_toml(&scenario.to_toml())
                .unwrap_or_else(|e| panic!("{step_kind}/{fault_name} round-trip: {e}"));
            assert_eq!(scenario, reparsed, "{step_kind}/{fault_name}");
        }
    }
}

/// A known key holding the wrong type or range is a load error naming
/// the section and key — never silently its default.
#[test]
fn mistyped_known_values_fail_to_load() {
    let base = |top: &str, step: &str, fault: &str| {
        format!(
            "name = \"demo\"\n{top}\n[[step]]\nkind = \"cred-escalation\"\n{step}\n\
             [[fault]]\nkind = \"delay-irq\"\n{fault}\n"
        )
    };
    Scenario::from_toml(&base(
        "fifo-capacity = 8",
        "pid = 2",
        "steps = 3\ncount = -1",
    ))
    .expect("well-typed values load");
    for (src, section, key) in [
        (base("", "pid = \"2\"", ""), "step 1", "pid"),
        (base("", "", "steps = \"3\""), "fault 1", "steps"),
        (base("", "", "count = -2"), "fault 1", "count"),
        (
            base("fifo-capacity = \"8\"", "", ""),
            "top level",
            "fifo-capacity",
        ),
    ] {
        let e = Scenario::from_toml(&src).expect_err(key);
        assert!(
            e.message.contains(section) && e.message.contains(&format!("`{key}`")),
            "{key}: {e}"
        );
        assert!(
            !lint_source(Some("demo"), &src).is_empty(),
            "{key}: lint passed"
        );
    }
}
