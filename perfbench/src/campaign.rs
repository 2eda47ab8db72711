//! `campaign-corpus`: the scenario corpus × `SEEDS` seeds through the
//! public `sweep::run_sweep_with`, one worker, as `hypernel-campaign run
//! --jobs 1` runs it.
//!
//! The benchmark seed is folded into every scenario name (`<name>~<seed>`);
//! the engine hashes the name into each run's RNG, so the seed changes
//! every background interleaving while the sweep itself still runs
//! seeds `0..SEEDS`. One pass of the sweep is the unit of simulated
//! work; the window repeats passes, and every pass must produce the
//! same record bytes.
//!
//! The traced run replays each pass through [`traced_run`], which calls
//! the engine's public functions in `engine::run_one_full`'s order with a
//! timer around each call, and proves its records equal the sweep's.

use std::time::Instant;

use hypernel::metrics::metric_samples;
use hypernel::workloads::lmbench::{run_op, LmbenchOp};
use hypernel::System;
use hypernel_campaign::engine::{self, SplitMix64};
use hypernel_campaign::record::{AuditRecord, RunRecord, StepRecord};
use hypernel_campaign::sweep::{run_sweep_with, SweepConfig};
use hypernel_campaign::{blackbox, coverage_of_run, oracle, Scenario};
use hypernel_telemetry::MetricsRecorder;

use crate::layers::{Ablation, Counters};
use crate::report::{self, Outcome, CAMPAIGN_PHASES};
use crate::table1;

/// Seeds per scenario in one pass.
const SEEDS: u64 = 8;

/// Directory of the scenario corpus, relative to the repository root.
const CORPUS_DIR: &str = "corpus";

/// Loads every `*.toml` scenario of `dir`, sorted by path, with `seed`
/// folded into each name.
fn load_corpus(dir: &str, seed: u64) -> Result<Vec<Scenario>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir `{dir}`: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no `*.toml` scenarios in `{dir}`"));
    }
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
            let mut scenario =
                Scenario::from_toml(&text).map_err(|e| format!("`{}`: {e}", path.display()))?;
            scenario.name = format!("{}~{seed}", scenario.name);
            Ok(scenario)
        })
        .collect()
}

/// One untraced pass: the sweep's records as JSON, and the host time
/// between successive progress arrivals (one per run).
struct Pass {
    records: Vec<RunRecord>,
    json: Vec<String>,
    run_ms: Vec<f64>,
}

fn sweep_pass(scenarios: &[Scenario], out: &mut Outcome) -> Pass {
    let config = SweepConfig {
        seeds: SEEDS,
        jobs: 1,
    };
    let mut run_ms = Vec::new();
    let mut last = Instant::now();
    let outcome = run_sweep_with(scenarios, config, |_| {
        let now = Instant::now();
        run_ms.push((now - last).as_secs_f64() * 1e3);
        last = now;
    });
    out.attempted += (outcome.records.len() + outcome.failures.len()) as u64;
    for failure in &outcome.failures {
        out.failed += 1;
        out.problem(format!(
            "{} seed {}: engine error: {}",
            failure.scenario, failure.seed, failure.error
        ));
    }
    for record in &outcome.records {
        out.check(record.passed, || {
            let why: Vec<String> = record
                .unexpected_violations()
                .map(|v| format!("{}: {}", v.oracle, v.detail))
                .collect();
            format!(
                "{} seed {} failed its oracles: {}",
                record.scenario,
                record.seed,
                why.join("; ")
            )
        });
    }
    let json = outcome
        .records
        .iter()
        .map(|r| r.to_json().to_string())
        .collect();
    Pass {
        records: outcome.records,
        json,
        run_ms,
    }
}

/// Runs the workload and reports its metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, scenarios) = report::timed_setup(25, || load_corpus(CORPUS_DIR, seed));
    let scenarios = match scenarios {
        Ok(v) => v,
        Err(e) => return out.setup_failed(e),
    };
    out.set("setup_s", setup_s);

    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        if passes.len() == 1 {
            // Set-up plus one pass: later passes reuse the same memory.
            out.set("peak_rss_mb", report::peak_rss_mb());
        }
        let pass = sweep_pass(&scenarios, &mut out);
        if let Some(first) = passes.first() {
            for (a, b) in first.json.iter().zip(&pass.json) {
                out.check(a == b, || {
                    "a (scenario, seed) record changed between passes of one invocation".to_string()
                });
            }
        }
        passes.push(pass);
    }
    let window_s = start.elapsed().as_secs_f64();
    let reference = &passes[0];
    let run_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.run_ms.iter().copied())
        .collect();
    out.set("runs_per_s", run_ms.len() as f64 / window_s);
    out.set("run_ms_p50", report::median(&run_ms));
    out.set("run_ms_p90", report::quantile(&run_ms, 0.9));
    let cycles: u64 = reference.records.iter().map(|r| r.cycles).sum();
    out.set("sim_cycles", cycles as f64);
    let latencies: Vec<u64> = reference
        .records
        .iter()
        .flat_map(|r| r.steps.iter())
        .filter(|s| s.detections > 0)
        .filter_map(|s| s.latency)
        .collect();
    match latencies.is_empty() {
        true => out.problem("no detected step in the corpus pass"),
        false => out.set(
            "detect_latency_cycles_p50",
            report::median_u64(&latencies) as f64,
        ),
    }
    println!(
        "campaign-corpus: {} scenarios x {SEEDS} seeds, {} passes ({} runs, {} samples) in {window_s:.2} s; {} detected steps",
        scenarios.len(),
        passes.len(),
        passes.len() * reference.records.len(),
        run_ms.len(),
        latencies.len()
    );

    // Outside the window: simulated accesses of one pass (for sim_mops),
    // from the same runs driven through `run_one_full`, whose records
    // must equal the sweep's.
    match accesses_per_pass(&scenarios, reference, &mut out) {
        Some(accesses) => out.set(
            "sim_mops",
            (accesses * passes.len() as u64) as f64 / window_s / 1e6,
        ),
        None => out.problem("could not count simulated accesses"),
    }
    table1::accuracy_metrics(seed, &mut out);

    if traced {
        // The untraced reference for the tracing overhead is the same
        // fork-and-run loop without timers: the ablation's all-on pass.
        if let Some(untraced_ms) = ablation(&scenarios, reference, &mut out) {
            traced_pass(&scenarios, reference, untraced_ms, &mut out);
        }
    }
    out
}

/// Simulated memory accesses of one pass, counted from the finished
/// systems `run_one_full` hands back.
fn accesses_per_pass(scenarios: &[Scenario], reference: &Pass, out: &mut Outcome) -> Option<u64> {
    let mut accesses = 0;
    let mut i = 0;
    for scenario in scenarios {
        let template = engine::boot_system(scenario).ok()?;
        for seed in 0..SEEDS {
            let sys = template.fork();
            let before = Counters::of(&sys);
            let (record, _, sys) = engine::run_one_full(sys, scenario, seed).ok()?;
            accesses += Counters::of(&sys).since(&before).accesses();
            out.check(record.to_json().to_string() == reference.json[i], || {
                format!(
                    "{} seed {seed}: run_one_full record differs from the sweep's",
                    scenario.name
                )
            });
            i += 1;
        }
    }
    Some(accesses)
}

/// Background operations the engine's interleaver picks from (a copy of
/// `engine::BACKGROUND_OPS`; a drift shows up as a record mismatch).
const BACKGROUND_OPS: &[LmbenchOp] = &[
    LmbenchOp::SyscallStat,
    LmbenchOp::SignalInstall,
    LmbenchOp::SignalOverhead,
    LmbenchOp::Mmap,
    LmbenchOp::PageFault,
    LmbenchOp::ForkExit,
];

/// FNV-1a, as the engine folds the scenario name into the run's seed.
fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in text.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Accumulated self time per phase, indexed like `CAMPAIGN_PHASES`.
#[derive(Debug, Default)]
struct Phases {
    ms: [f64; 12],
}

impl Phases {
    /// Times `f` and charges it to `phase`.
    fn time<T>(&mut self, phase: &str, f: impl FnOnce() -> T) -> T {
        let (ms, value) = report::time_ms(f);
        let idx = CAMPAIGN_PHASES
            .iter()
            .position(|p| *p == phase)
            .expect("phase is declared");
        self.ms[idx] += ms;
        value
    }
}

type EngineResult<T> = Result<T, engine::EngineError>;

/// `engine::run_one_full` for one forked run, with every call into a
/// layer timed. Fork and boot are charged by the caller.
fn traced_run(
    mut sys: System,
    scenario: &Scenario,
    seed: u64,
    t: &mut Phases,
) -> EngineResult<(RunRecord, System)> {
    let mut rng = SplitMix64::new(seed ^ fnv1a(&scenario.name));
    sys.enable_telemetry(hypernel_campaign::FLIGHT_RING_CAPACITY);
    let metrics_config = scenario.metrics.clone().unwrap_or_default().to_config();
    let mut recorder = MetricsRecorder::new(&metrics_config);
    t.time("telemetry.metrics", || {
        recorder.sample(sys.cycles(), &metric_samples(&sys));
    });

    let mut background = |sys: &mut System, t: &mut Phases| -> EngineResult<()> {
        for _ in 0..scenario.background_ops {
            let op = BACKGROUND_OPS[(rng.next_u64() % BACKGROUND_OPS.len() as u64) as usize];
            let (kernel, machine, hyp) = sys.parts();
            t.time("kernel.background", || run_op(kernel, machine, hyp, op, 1))?;
        }
        Ok(())
    };

    let mut timings: Vec<(u64, u64)> = Vec::new();
    let mut outcomes = Vec::new();
    for spec in &scenario.steps {
        background(&mut sys, t)?;
        t.time("telemetry.metrics", || {
            recorder.sample(sys.cycles(), &metric_samples(&sys));
        });
        let started = sys.cycles();
        let result = {
            let (kernel, machine, hyp) = sys.parts();
            t.time("kernel.attack", || {
                kernel.run_attack_step(machine, hyp, &spec.step)
            })?
        };
        t.time("core.irq_service", || sys.service_interrupts())?;
        timings.push((started, sys.cycles()));
        outcomes.push(result);
        t.time("telemetry.metrics", || {
            recorder.sample(sys.cycles(), &metric_samples(&sys));
        });
    }
    background(&mut sys, t)?;
    t.time("core.irq_service", || sys.service_interrupts())?;
    t.time("telemetry.metrics", || {
        recorder.sample(sys.cycles(), &metric_samples(&sys));
    });

    let detections: Vec<(u64, u64)> = sys
        .hypersec()
        .map(|hs| {
            hs.detections()
                .iter()
                .map(|d| (d.event.pa.raw(), d.event.value))
                .collect()
        })
        .unwrap_or_default();
    let steps: Vec<StepRecord> = scenario
        .steps
        .iter()
        .zip(outcomes.iter())
        .zip(timings.iter())
        .map(|((spec, result), (started, serviced))| {
            let monitored = result.monitored.map(|(base, len)| (base.raw(), len));
            let matched = monitored.map_or(0, |(base, len)| {
                detections
                    .iter()
                    .filter(|(pa, _)| *pa >= base && *pa < base + len)
                    .count() as u64
            });
            StepRecord {
                name: spec.step.name().to_string(),
                outcome: result.outcome.to_string(),
                blocked: !result.outcome.succeeded(),
                monitored,
                detections: matched,
                latency: Some(serviced - started),
            }
        })
        .collect();

    let audit = t.time("hypersec.audit", || sys.audit_hypersec());
    let static_audit = t.time("audit.static", || sys.audit_static());
    let mbm = sys.mbm_stats();
    let faults = sys.fault_stats();
    let fault_log = sys.fault_log().unwrap_or_default();
    let violations = t.time("campaign.oracle", || {
        oracle::evaluate(&oracle::OracleInput {
            scenario,
            steps: &steps,
            audit: audit.as_ref(),
            static_audit: Some(&static_audit),
            mbm,
            faults,
        })
    });
    let passed = violations.iter().all(|v| v.expected);
    let metrics_doc = t.time("telemetry.metrics", || {
        for (step, (_, serviced)) in steps.iter().zip(timings.iter()) {
            if step.detections > 0 {
                if let Some(latency) = step.latency {
                    recorder.observe("detection-latency-max", *serviced, latency);
                }
            }
        }
        recorder.finish(
            Some(&scenario.name),
            Some(seed),
            Some(&scenario.mode.to_string()),
        )
    });
    let coverage = t.time("campaign.coverage", || {
        coverage_of_run(&sys, scenario, &steps, &violations, &fault_log)
    });
    let blackbox = (!passed).then(|| {
        let reason = violations
            .iter()
            .find(|v| !v.expected)
            .map(|v| format!("unexpected `{}` violation: {}", v.oracle, v.detail))
            .unwrap_or_else(|| "run failed".to_string());
        blackbox::capture(
            &sys,
            scenario,
            seed,
            &reason,
            &violations,
            &fault_log,
            Some(&metrics_doc),
        )
        .to_string()
    });
    let record = RunRecord {
        scenario: scenario.name.clone(),
        mode: scenario.mode.to_string(),
        seed,
        cycles: sys.cycles(),
        steps,
        detections_total: detections.len() as u64,
        mbm,
        faults,
        audit: Some(AuditRecord {
            roots: static_audit.roots_walked,
            tables: static_audit.tables_walked,
            leaves: static_audit.leaves_checked,
            findings: static_audit.findings.len() as u64,
            differential_agrees: static_audit
                .differential
                .as_ref()
                .map(hypernel::audit::DifferentialReport::agrees),
        }),
        violations,
        passed,
        metrics: Some(metrics_doc),
        blackbox,
        coverage: Some(coverage),
    };
    Ok((record, sys))
}

/// One traced pass: per-phase self time, layer counters and the proof
/// that every traced record equals the sweep's.
fn traced_pass(scenarios: &[Scenario], reference: &Pass, untraced_ms: f64, out: &mut Outcome) {
    let mut t = Phases::default();
    let mut total = Counters::default();
    let mut by_mode = [Counters::default(); 3];
    let (mut tables, mut leaves, mut runs) = (0u64, 0u64, 0u64);
    let mut i = 0;
    let start = Instant::now();
    for scenario in scenarios {
        let template = match t.time("core.boot", || engine::boot_system(scenario)) {
            Ok(sys) => sys,
            Err(e) => {
                out.problem(format!("traced boot of {}: {e}", scenario.name));
                return;
            }
        };
        let mode = match scenario.mode {
            hypernel::Mode::Native => 0,
            hypernel::Mode::KvmGuest => 1,
            hypernel::Mode::Hypernel => 2,
        };
        for seed in 0..SEEDS {
            let sys = t.time("core.fork", || template.fork());
            let before = Counters::of(&sys);
            match traced_run(sys, scenario, seed, &mut t) {
                Ok((record, sys)) => {
                    let delta = Counters::of(&sys).since(&before);
                    total = total.plus(&delta);
                    by_mode[mode] = by_mode[mode].plus(&delta);
                    let json = t.time("campaign.record", || record.to_json().to_string());
                    let untraced = &reference.records[i];
                    out.check(
                        record.cycles == untraced.cycles
                            && record.audit == untraced.audit
                            && record.violations == untraced.violations
                            && json == reference.json[i],
                        || {
                            format!(
                                "{} seed {seed}: traced record differs from run_one_on's",
                                scenario.name
                            )
                        },
                    );
                    if let Some(audit) = &record.audit {
                        tables += audit.tables;
                        leaves += audit.leaves;
                    }
                }
                Err(e) => out.problem(format!("traced {} seed {seed}: {e}", scenario.name)),
            }
            runs += 1;
            i += 1;
        }
    }
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    let attributed: f64 = t.ms[..CAMPAIGN_PHASES.len() - 1].iter().sum();
    t.ms[CAMPAIGN_PHASES.len() - 1] = total_ms - attributed;
    let per_run = |ms: f64| ms / runs as f64;
    println!("traced campaign pass: {runs} runs, {total_ms:.1} ms (self time per run, share)");
    for (phase, ms) in CAMPAIGN_PHASES.iter().zip(t.ms) {
        println!(
            "  {phase:<24} {:>9.3} ms {:>6.2}%",
            per_run(ms),
            ms / total_ms * 100.0
        );
        out.set(format!("{phase}_ms"), per_run(ms));
        out.set(format!("{phase}_pct"), ms / total_ms * 100.0);
    }
    out.set("audit.tables_walked", tables as f64 / runs as f64);
    out.set("audit.leaves_checked", leaves as f64 / runs as f64);
    let traced_ms = per_run(total_ms);
    out.set("campaign.traced_run_ms", traced_ms);
    out.set("campaign.untraced_run_ms", untraced_ms);
    out.set(
        "campaign.tracing_overhead_pct",
        (traced_ms / untraced_ms - 1.0) * 100.0,
    );
    total.report(runs, out);
    Counters::report_by_mode(&by_mode, out);
}

/// Per-layer ablation: one pass through `run_one_on` per configuration,
/// `runs_per_s` on/off; every record must equal the sweep's. Returns the
/// all-on pass's host ms per run.
fn ablation(scenarios: &[Scenario], reference: &Pass, out: &mut Outcome) -> Option<f64> {
    let measure = |ablation: Ablation, out: &mut Outcome| -> Option<f64> {
        let mut i = 0;
        let start = Instant::now();
        for scenario in scenarios {
            let template = match ablation {
                Ablation::Fork => None,
                _ => Some(engine::boot_system(scenario).ok()?),
            };
            for seed in 0..SEEDS {
                let mut sys = match &template {
                    Some(template) => template.fork(),
                    None => engine::boot_system(scenario).ok()?,
                };
                ablation.apply(&mut sys);
                let (record, _) = engine::run_one_on(sys, scenario, seed).ok()?;
                out.check(record.to_json().to_string() == reference.json[i], || {
                    format!(
                        "ablation {}: {} seed {seed} changed its record",
                        ablation.slug(),
                        scenario.name
                    )
                });
                i += 1;
            }
        }
        Some(i as f64 / start.elapsed().as_secs_f64())
    };
    let Some(base) = measure(Ablation::None, out) else {
        out.problem("ablation baseline pass failed");
        return None;
    };
    for &layer in Ablation::LAYERS {
        match measure(layer, out) {
            Some(rps) => {
                println!(
                    "ablation: campaign {} on/off = {:.3}",
                    layer.slug(),
                    base / rps
                );
                out.set(format!("ablation.{}", layer.slug()), base / rps);
            }
            None => out.problem(format!("ablation {} pass failed", layer.slug())),
        }
    }
    Some(1e3 / base)
}
