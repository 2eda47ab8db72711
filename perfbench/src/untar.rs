//! `untar-monitored`: steady-state Figure 6 `untar` under Hypernel with
//! word-granularity (`SensitiveFields`) monitoring armed.
//!
//! Set-up boots one Hypernel system, creates the archive
//! (`apps::prepare`), arms the monitor hooks and pre-faults the frame
//! pool. That system is the template. Each unit of work forks it and
//! runs one `apps::run(Untar, 1, seed)` — Table 2's untar run, whose
//! ~9.6k word events all reach Hypersec — followed by an
//! interrupt-service pass. Every unit starts from the same state and
//! retires exactly the same simulated work; the benchmark checks that it
//! does. (A second extraction into the same tree creates no new objects
//! and raises only a handful of events, so the template is not warmed.)

use std::time::Instant;

use hypernel::kernel::layout::FRAME_POOL_BASE;
use hypernel::kernel::{MonitorHooks, MonitorMode};
use hypernel::machine::addr::PhysAddr;
use hypernel::workloads::{apps, AppBenchmark};
use hypernel::{Mode, System};

use crate::layers::{detection_probe, Ablation, Counters};
use crate::report::{self, Outcome};
use crate::table1;

/// Bytes of frame pool pre-faulted before the window (the same prefix
/// the throughput bench pre-faults).
const PREALLOC_BYTES: u64 = 64 << 20;

/// Untar runs per ablation configuration in the traced run.
const ABLATION_RUNS: usize = 10;

/// Builds the template: boot, prepare, arm, pre-fault.
fn setup() -> Result<System, String> {
    let mut sys = System::boot(Mode::Hypernel).map_err(|e| format!("boot: {e}"))?;
    let (kernel, machine, hyp) = sys.parts();
    apps::prepare(kernel, machine, hyp, AppBenchmark::Untar)
        .map_err(|e| format!("prepare: {e}"))?;
    let hooks = MonitorHooks {
        mode: MonitorMode::SensitiveFields,
    };
    kernel
        .arm_monitor_hooks(machine, hyp, hooks)
        .map_err(|e| format!("arm hooks: {e}"))?;
    machine.preallocate(PhysAddr::new(FRAME_POOL_BASE), PREALLOC_BYTES);
    sys.service_interrupts()
        .map_err(|e| format!("drain after arming: {e}"))?;
    Ok(sys)
}

/// What one untar run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Unit {
    cycles: u64,
    counters: Counters,
}

/// Host times of one run's two calls, in ms.
#[derive(Debug, Clone, Copy, Default)]
struct Times {
    untar_ms: f64,
    irq_ms: f64,
}

/// Runs one unit on `sys` (already forked and configured).
fn run_unit(sys: &mut System, seed: u64) -> Result<(Unit, Times), String> {
    let before = Counters::of(sys);
    let cycles = sys.cycles();
    let (untar_ms, run) = report::time_ms(|| {
        let (kernel, machine, hyp) = sys.parts();
        apps::run(kernel, machine, hyp, AppBenchmark::Untar, 1, seed)
    });
    run.map_err(|e| format!("apps::run: {e}"))?;
    let (irq_ms, serviced) = report::time_ms(|| sys.service_interrupts());
    serviced.map_err(|e| format!("service_interrupts: {e}"))?;
    let unit = Unit {
        cycles: sys.cycles() - cycles,
        counters: Counters::of(sys).since(&before),
    };
    Ok((unit, Times { untar_ms, irq_ms }))
}

/// A fresh system for one unit under `ablation`.
fn unit_system(template: &System, ablation: Ablation) -> Result<System, String> {
    let mut sys = if ablation == Ablation::Fork {
        setup()?
    } else {
        template.fork()
    };
    ablation.apply(&mut sys);
    Ok(sys)
}

/// Runs the workload and reports its metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, template) = report::timed_setup(3, setup);
    let template = match template {
        Ok(v) => v,
        Err(e) => return out.setup_failed(format!("untar set-up failed: {e}")),
    };
    out.set("setup_s", setup_s);

    // The window: fork + untar + service, repeated. Only the two calls
    // are timed per run; runs_per_s uses the whole window.
    let mut reference: Option<Unit> = None;
    let mut run_ms = Vec::new();
    let mut times = Times::default();
    let mut total = Counters::default();
    let start = Instant::now();
    while run_ms.len() < 10 || start.elapsed().as_secs_f64() < seconds {
        if out.attempted == 1 {
            // Set-up plus one run: later runs reuse the same memory.
            out.set("peak_rss_mb", report::peak_rss_mb());
        }
        out.attempted += 1;
        let mut sys = template.fork();
        match run_unit(&mut sys, seed) {
            Ok((unit, t)) => {
                run_ms.push(t.untar_ms + t.irq_ms);
                times.untar_ms += t.untar_ms;
                times.irq_ms += t.irq_ms;
                total = total.plus(&unit.counters);
                let first = *reference.get_or_insert(unit);
                out.check(first == unit, || {
                    format!(
                        "untar run {} retired different simulated work: {} vs {} cycles",
                        run_ms.len(),
                        unit.cycles,
                        first.cycles
                    )
                });
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("untar run failed: {e}"));
            }
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let Some(unit) = reference else {
        return out;
    };
    let runs = run_ms.len() as u64;
    let p50 = report::median(&run_ms);
    out.set("runs_per_s", runs as f64 / window_s);
    out.set("run_ms_p50", p50);
    out.set("run_ms_p90", report::quantile(&run_ms, 0.9));
    // Every run retires the same accesses, so the median run time gives
    // the typical rate without the window's stragglers.
    out.set("sim_mops", unit.counters.accesses() as f64 / p50 / 1e3);
    out.set("sim_cycles", unit.cycles as f64);
    println!(
        "untar-monitored: {runs} runs in {window_s:.2} s, {} accesses and {} cycles per run",
        unit.counters.accesses(),
        unit.cycles
    );

    // Outside the window: a freshly set-up system must retire the same
    // simulated work as the forks, and its end state gives the
    // detection latency. Then the Table 1 accuracy block for this seed.
    let fresh = setup().and_then(|mut sys| {
        let (again, _) = run_unit(&mut sys, seed)?;
        Ok((again, detection_probe(&mut sys, true)?))
    });
    match fresh {
        Ok((again, latency)) => {
            out.check(
                again.cycles == unit.cycles
                    && again.counters.accesses() == unit.counters.accesses(),
                || {
                    format!(
                        "a freshly set-up untar run retired {} cycles, the forks {}",
                        again.cycles, unit.cycles
                    )
                },
            );
            out.set("detect_latency_cycles_p50", latency as f64);
        }
        Err(e) => out.problem(format!("untar fresh run and detection probe: {e}")),
    }
    accuracy_block(&unit.counters, &mut out);
    table1::accuracy_metrics(seed, &mut out);

    if traced {
        let units = runs.max(1) as f64;
        out.set("workloads.untar_ms", times.untar_ms / units);
        out.set("core.irq_service_ms", times.irq_ms / units);
        total.report(runs, &mut out);
        ablation(&template, seed, &unit, &mut out);
    }
    out
}

/// Prints one run's word events against the paper's Table 2 count,
/// scaled to this workload's size.
fn accuracy_block(unit: &Counters, out: &mut Outcome) {
    let events = unit.events_matched;
    let scale = AppBenchmark::Untar.paper_scale_factor();
    let paper_full = AppBenchmark::Untar.paper_word_granularity_events();
    let paper = paper_full as f64 / scale;
    println!(
        "accuracy: untar word events {events} vs paper {paper:.0} ({paper_full} / scale {scale}) = {:+.1}%",
        (events as f64 / paper - 1.0) * 100.0
    );
    out.check(events > 0, || {
        "untar produced no MBM word events".to_string()
    });
}

/// Per-layer ablation: each fast path off in turn, `sim_mops` on/off.
fn ablation(template: &System, seed: u64, reference: &Unit, out: &mut Outcome) {
    let measure = |ablation: Ablation, out: &mut Outcome| -> Option<(f64, f64)> {
        let mut accesses = 0u64;
        let mut busy_s = 0.0;
        let start = Instant::now();
        for _ in 0..ABLATION_RUNS {
            let mut sys = match unit_system(template, ablation) {
                Ok(s) => s,
                Err(e) => {
                    out.problem(format!("ablation {}: {e}", ablation.slug()));
                    return None;
                }
            };
            match run_unit(&mut sys, seed) {
                Ok((unit, t)) => {
                    out.check(unit.cycles == reference.cycles, || {
                        format!(
                            "ablation {} changed simulated cycles: {} vs {}",
                            ablation.slug(),
                            unit.cycles,
                            reference.cycles
                        )
                    });
                    accesses += unit.counters.accesses();
                    busy_s += (t.untar_ms + t.irq_ms) / 1e3;
                }
                Err(e) => {
                    out.problem(format!("ablation {}: {e}", ablation.slug()));
                    return None;
                }
            }
        }
        let runs_per_s = ABLATION_RUNS as f64 / start.elapsed().as_secs_f64();
        Some((accesses as f64 / busy_s / 1e6, runs_per_s))
    };
    let Some((base_mops, base_rps)) = measure(Ablation::None, out) else {
        return;
    };
    for &layer in Ablation::LAYERS {
        if let Some((mops, rps)) = measure(layer, out) {
            // Forking changes set-up cost, not simulation speed, so its
            // ratio is in runs per second; the rest are in sim_mops.
            let ratio = if layer == Ablation::Fork {
                base_rps / rps
            } else {
                base_mops / mops
            };
            println!("ablation: untar {} on/off = {ratio:.3}", layer.slug());
            out.set(format!("ablation.{}", layer.slug()), ratio);
        }
    }
}
