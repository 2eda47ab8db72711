//! `table1-3mode`: the nine Table 1 LMbench operations, in passes, on
//! one booted system per protection mode.
//!
//! Set-up boots Native, KVM-guest and Hypernel once each. A pass runs
//! every `LmbenchOp` `ITERS` times in every mode, in an order drawn from
//! the seed, each call on a fresh fork of the mode's booted system: the
//! paper bench's "each op on a freshly booted system", so the simulated
//! figures are Table 1's. Every pass therefore retires the same
//! simulated work; the benchmark checks that it does.

use std::time::Instant;

use hypernel::workloads::lmbench::run_op;
use hypernel::workloads::{LmbenchOp, Measurement};
use hypernel::{Mode, System};
use hypernel_campaign::engine::SplitMix64;

use crate::layers::{detection_probe, Ablation, Counters};
use crate::report::{self, op_slug, Outcome, MODE_SLUGS};

/// Iterations of each op per pass.
const ITERS: u64 = 100;

/// Passes per ablation configuration in the traced run.
const ABLATION_PASSES: usize = 10;

/// Table 1 column order.
const MODES: [Mode; 3] = [Mode::Native, Mode::KvmGuest, Mode::Hypernel];

/// Boots one system per mode.
fn boot_all() -> Result<Vec<System>, String> {
    MODES
        .iter()
        .map(|&mode| System::boot(mode).map_err(|e| format!("{mode} boot: {e}")))
        .collect()
}

/// The nine ops in a seed-drawn order (Fisher–Yates over splitmix64).
fn op_order(seed: u64) -> Vec<LmbenchOp> {
    let mut ops = LmbenchOp::ALL.to_vec();
    let mut rng = SplitMix64::new(seed);
    for i in (1..ops.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        ops.swap(i, j);
    }
    ops
}

/// One `run_op` call of a pass.
#[derive(Debug, Clone, Copy)]
struct Call {
    op: LmbenchOp,
    mode: usize,
    meas: Measurement,
    host_ms: f64,
}

/// One pass over every op in every mode.
#[derive(Debug, Clone)]
struct Pass {
    calls: Vec<Call>,
    counters: [Counters; 3],
    cycles: u64,
}

impl Pass {
    /// The simulated part of the pass, which must repeat exactly: each
    /// call's cycles, and the pass's cycles and memory accesses.
    fn simulated(&self) -> (Vec<u64>, u64, u64) {
        let per_call = self.calls.iter().map(|c| c.meas.total_cycles).collect();
        (per_call, self.cycles, self.accesses())
    }

    fn host_s(&self) -> f64 {
        self.calls.iter().map(|c| c.host_ms).sum::<f64>() / 1e3
    }

    fn accesses(&self) -> u64 {
        self.counters.iter().map(Counters::accesses).sum()
    }

    fn measurement(&self, op: LmbenchOp, mode: usize) -> Measurement {
        self.calls
            .iter()
            .find(|c| c.op == op && c.mode == mode)
            .map(|c| c.meas)
            .expect("every op runs in every mode")
    }
}

/// Runs one pass: every op of `order` in every mode, each `run_op` call
/// on its own fork of the mode's booted system (or a cold boot, for the
/// fork ablation) with `ablation`'s layer off — Table 1's "one op on a
/// freshly booted system", without paying for the boot.
fn run_pass(templates: &[System], order: &[LmbenchOp], ablation: Ablation) -> Result<Pass, String> {
    let mut pass = Pass {
        calls: Vec::with_capacity(order.len() * MODES.len()),
        counters: [Counters::default(); 3],
        cycles: 0,
    };
    for (mode, template) in templates.iter().enumerate() {
        for &op in order {
            let mut sys = if ablation == Ablation::Fork {
                System::boot(MODES[mode]).map_err(|e| format!("{} boot: {e}", MODES[mode]))?
            } else {
                template.fork()
            };
            ablation.apply(&mut sys);
            let before = Counters::of(&sys);
            let cycles = sys.cycles();
            let (host_ms, result) = report::time_ms(|| {
                let (kernel, machine, hyp) = sys.parts();
                run_op(kernel, machine, hyp, op, ITERS)
            });
            let meas = result.map_err(|e| format!("{op} under {}: {e}", MODES[mode]))?;
            pass.calls.push(Call {
                op,
                mode,
                meas,
                host_ms,
            });
            pass.counters[mode] = pass.counters[mode].plus(&Counters::of(&sys).since(&before));
            pass.cycles += sys.cycles() - cycles;
        }
    }
    Ok(pass)
}

/// Simulated overheads of one pass against the paper: mean per-op KVM
/// and Hypernel overhead vs Native (%), and the mean absolute gap to the
/// paper's Hypernel overheads (percentage points). Prints the
/// accuracy block.
fn overheads(pass: &Pass) -> (f64, f64, f64) {
    println!(
        "accuracy: Table 1, simulated vs paper (us per iteration at 1.15 GHz; overhead vs native)"
    );
    println!(
        "  {:<15} {:>9} {:>9} {:>9} | {:>8} {:>8} | {:>8} {:>8}",
        "op", "native", "kvm", "hypernel", "kvm%", "p:kvm%", "hyp%", "p:hyp%"
    );
    let (mut kvm, mut hyp, mut err) = (0.0, 0.0, 0.0);
    let (mut p_kvm_sum, mut p_hyp_sum) = (0.0, 0.0);
    for &op in LmbenchOp::ALL {
        let native = pass.measurement(op, 0);
        let k = pass.measurement(op, 1).overhead_vs(&native) * 100.0;
        let h = pass.measurement(op, 2).overhead_vs(&native) * 100.0;
        let p_kvm = (op.paper_kvm_us() / op.paper_native_us() - 1.0) * 100.0;
        let p_hyp = (op.paper_hypernel_us() / op.paper_native_us() - 1.0) * 100.0;
        println!(
            "  {:<15} {:>9.3} {:>9.3} {:>9.3} | {:>+8.1} {:>+8.1} | {:>+8.1} {:>+8.1}",
            op.label(),
            native.micros_per_iter(),
            pass.measurement(op, 1).micros_per_iter(),
            pass.measurement(op, 2).micros_per_iter(),
            k,
            p_kvm,
            h,
            p_hyp
        );
        kvm += k;
        hyp += h;
        err += (h - p_hyp).abs();
        p_kvm_sum += p_kvm;
        p_hyp_sum += p_hyp;
    }
    let n = LmbenchOp::ALL.len() as f64;
    println!(
        "  {:<15} {:>29} | {:>+8.1} {:>+8.1} | {:>+8.1} {:>+8.1}   (paper text: kvm +15.5%, hypernel +8.8%)",
        "average",
        "",
        kvm / n,
        p_kvm_sum / n,
        hyp / n,
        p_hyp_sum / n
    );
    println!(
        "  mean |hypernel - paper| = {:.2} pp; the cost model was calibrated against these paper figures, so this is not a held-out validation",
        err / n
    );
    (kvm / n, hyp / n, err / n)
}

/// Sets the three Table 1 metrics from one pass.
fn set_overheads(pass: &Pass, out: &mut Outcome) {
    let (kvm, hyp, err) = overheads(pass);
    out.set("kvm_overhead_pct", kvm);
    out.set("hypernel_overhead_pct", hyp);
    out.set("table1_err_pp", err);
}

/// One pass on freshly booted systems.
fn fresh_pass(order: &[LmbenchOp]) -> Result<Pass, String> {
    boot_all().and_then(|templates| run_pass(&templates, order, Ablation::None))
}

/// The Table 1 accuracy metrics for `seed`, measured outside the window
/// of another workload: one pass on freshly booted systems.
pub fn accuracy_metrics(seed: u64, out: &mut Outcome) {
    match fresh_pass(&op_order(seed)) {
        Ok(pass) => set_overheads(&pass, out),
        Err(e) => out.problem(format!("Table 1 accuracy pass: {e}")),
    }
}

/// Runs the workload and reports its metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let order = op_order(seed);
    let (setup_s, templates) = report::timed_setup(3, boot_all);
    let templates = match templates {
        Ok(v) => v,
        Err(e) => return out.setup_failed(format!("table1 set-up failed: {e}")),
    };
    out.set("setup_s", setup_s);
    println!(
        "table1-3mode: op order {}",
        order
            .iter()
            .map(|op| op.label())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while passes.len() < 4 || start.elapsed().as_secs_f64() < seconds {
        out.attempted += (order.len() * MODES.len()) as u64;
        if passes.len() == 1 {
            // Set-up plus one pass: later passes reuse the same memory.
            out.set("peak_rss_mb", report::peak_rss_mb());
        }
        match run_pass(&templates, &order, Ablation::None) {
            Ok(pass) => {
                if let Some(first) = passes.first() {
                    out.check(first.simulated() == pass.simulated(), || {
                        format!(
                            "pass {} retired different simulated work: {} vs {} cycles",
                            passes.len(),
                            pass.cycles,
                            first.cycles
                        )
                    });
                }
                let denials: u64 = pass.counters.iter().map(|c| c.pt_denials).sum();
                out.check(denials == 0, || {
                    format!("Hypersec denied {denials} benign page-table writes in one pass")
                });
                passes.push(pass);
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("table1 pass failed: {e}"));
                if passes.is_empty() {
                    break;
                }
            }
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let Some(reference) = passes.first().cloned() else {
        return out;
    };
    let call_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.calls.iter().map(|c| c.host_ms))
        .collect();
    let pass_s: Vec<f64> = passes.iter().map(Pass::host_s).collect();
    out.set("runs_per_s", call_ms.len() as f64 / window_s);
    out.set("run_ms_p50", report::median(&call_ms));
    out.set("run_ms_p90", report::quantile(&call_ms, 0.9));
    // Every pass retires the same accesses, so the median pass time
    // gives the typical rate without the window's stragglers.
    out.set(
        "sim_mops",
        reference.accesses() as f64 / report::median(&pass_s) / 1e6,
    );
    out.set("sim_cycles", reference.cycles as f64);
    println!(
        "table1-3mode: {} passes ({} run_op calls) in {window_s:.2} s, {} accesses and {} cycles per pass",
        passes.len(),
        call_ms.len(),
        reference.accesses(),
        reference.cycles
    );
    set_overheads(&reference, &mut out);

    // Outside the window: freshly booted systems must retire the same
    // simulated work as the forks.
    match fresh_pass(&order) {
        Ok(pass) => out.check(pass.simulated() == reference.simulated(), || {
            format!(
                "a pass on freshly booted systems retired {} cycles, the forks {}",
                pass.cycles, reference.cycles
            )
        }),
        Err(e) => out.problem(format!("table1 fresh pass: {e}")),
    }

    // Outside the window: write→dispatch latency on the Hypernel
    // system after one pass of this seed's ops, with monitoring armed.
    let mut probe = templates[2].fork();
    let ran = order.iter().try_for_each(|&op| {
        let (kernel, machine, hyp) = probe.parts();
        run_op(kernel, machine, hyp, op, ITERS)
            .map(|_| ())
            .map_err(|e| format!("{op}: {e}"))
    });
    match ran.and_then(|()| detection_probe(&mut probe, false)) {
        Ok(latency) => out.set("detect_latency_cycles_p50", latency as f64),
        Err(e) => out.problem(format!("table1 detection probe: {e}")),
    }
    repeat_check(&templates, &order);

    if traced {
        per_layer(&passes, &mut out);
        ablation(&templates, &order, &reference, &mut out);
    }
    out
}

/// States which ops cannot run a second pass inside one booted system
/// (the window forks per pass, so it never needs to).
fn repeat_check(templates: &[System], order: &[LmbenchOp]) {
    for (mode, template) in templates.iter().enumerate() {
        let mut sys = template.fork();
        for round in 0..2 {
            for &op in order {
                let (kernel, machine, hyp) = sys.parts();
                if let Err(e) = run_op(kernel, machine, hyp, op, ITERS) {
                    println!(
                        "note: {op} under {} fails on pass {} of one booted system: {e}",
                        MODES[mode],
                        round + 1
                    );
                }
            }
        }
    }
}

/// Host time per mode and per (op, mode), plus the layer counters.
fn per_layer(passes: &[Pass], out: &mut Outcome) {
    let n = passes.len() as f64;
    let mut total = Counters::default();
    let mut by_mode = [Counters::default(); 3];
    for pass in passes {
        for (mode, c) in pass.counters.iter().enumerate() {
            total = total.plus(c);
            by_mode[mode] = by_mode[mode].plus(c);
        }
    }
    total.report(passes.len() as u64, out);
    Counters::report_by_mode(&by_mode, out);
    for (mode, slug) in MODE_SLUGS.iter().enumerate() {
        let mode_ms: f64 = passes
            .iter()
            .flat_map(|p| p.calls.iter().filter(|c| c.mode == mode))
            .map(|c| c.host_ms)
            .sum();
        out.set(format!("table1.{slug}_ms"), mode_ms / n);
        for &op in LmbenchOp::ALL {
            let op_ms: f64 = passes
                .iter()
                .flat_map(|p| p.calls.iter().filter(|c| c.mode == mode && c.op == op))
                .map(|c| c.host_ms)
                .sum();
            out.set(
                format!("table1.{}.{slug}_us", op_slug(op)),
                op_ms * 1e3 / (n * ITERS as f64),
            );
        }
    }
}

/// Per-layer ablation: each fast path off in turn, `sim_mops` on/off.
fn ablation(templates: &[System], order: &[LmbenchOp], reference: &Pass, out: &mut Outcome) {
    let measure = |ablation: Ablation, out: &mut Outcome| -> Option<(f64, f64)> {
        let (mut accesses, mut busy_s, mut calls) = (0u64, 0.0, 0usize);
        let start = Instant::now();
        for _ in 0..ABLATION_PASSES {
            match run_pass(templates, order, ablation) {
                Ok(pass) => {
                    out.check(pass.simulated() == reference.simulated(), || {
                        format!(
                            "ablation {} changed simulated work: {} vs {} cycles",
                            ablation.slug(),
                            pass.cycles,
                            reference.cycles
                        )
                    });
                    accesses += pass.accesses();
                    busy_s += pass.host_s();
                    calls += pass.calls.len();
                }
                Err(e) => {
                    out.problem(format!("ablation {}: {e}", ablation.slug()));
                    return None;
                }
            }
        }
        let calls_per_s = calls as f64 / start.elapsed().as_secs_f64();
        Some((accesses as f64 / busy_s / 1e6, calls_per_s))
    };
    let Some((base_mops, base_rps)) = measure(Ablation::None, out) else {
        return;
    };
    for &layer in Ablation::LAYERS {
        if let Some((mops, rps)) = measure(layer, out) {
            let ratio = if layer == Ablation::Fork {
                base_rps / rps
            } else {
                base_mops / mops
            };
            println!("ablation: table1 {} on/off = {ratio:.3}", layer.slug());
            out.set(format!("ablation.{}", layer.slug()), ratio);
        }
    }
}
