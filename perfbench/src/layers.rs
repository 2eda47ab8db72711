//! Per-layer counters read from a `System`, and the fast-path ablation
//! switches.
//!
//! The counters are the ones the crates already keep (`MachineStats`,
//! `TlbStats`, `CacheStats`, `PlanStats`, `MbmStats`, `HypersecStats`,
//! `KvmStats`); this module only reads them before and after a unit of
//! work and subtracts.

use hypernel::mbm::Mbm;
use hypernel::System;

use crate::report::{Outcome, MODE_SLUGS};

/// Raw counter values at one instant. All fields are cumulative, so a
/// unit's work is the difference of two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub reads: u64,
    pub writes: u64,
    pub uncached: u64,
    pub hypercalls: u64,
    pub sysreg_traps: u64,
    pub stage2_faults: u64,
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    pub l0_hits: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub replayed_words: u64,
    pub invalidations: u64,
    pub bus_writes_seen: u64,
    pub captured: u64,
    pub bitmap_lookups: u64,
    pub events_matched: u64,
    pub page_filter_skips: u64,
    pub fifo_dropped: u64,
    pub events_dispatched: u64,
    pub pt_writes: u64,
    pub pt_denials: u64,
    pub kvm_stage2_faults: u64,
    pub kvm_wfi_exits: u64,
}

/// `Counters { f: a.f <op> b.f, .. }` over every field.
macro_rules! fieldwise {
    ($a:expr, $b:expr, $op:tt) => {
        fieldwise!(@ $a, $b, $op; reads, writes, uncached, hypercalls, sysreg_traps,
            stage2_faults, tlb_hits, tlb_misses, l0_hits, cache_hits, cache_misses,
            replayed_words, invalidations, bus_writes_seen, captured, bitmap_lookups,
            events_matched, page_filter_skips, fifo_dropped, events_dispatched, pt_writes,
            pt_denials, kvm_stage2_faults, kvm_wfi_exits)
    };
    (@ $a:expr, $b:expr, $op:tt; $($f:ident),*) => {
        Counters { $($f: $a.$f $op $b.$f),* }
    };
}

impl Counters {
    /// Reads every counter of `sys`.
    pub fn of(sys: &System) -> Self {
        let machine = sys.machine();
        let stats = machine.stats();
        let tlb = machine.tlb().stats();
        let cache = machine.data_cache().stats();
        let plans = machine.plan_stats();
        let mbm = sys.mbm_stats().unwrap_or_default();
        let hs = sys.hypersec().map(|h| h.stats()).unwrap_or_default();
        let kvm = sys.kvm().map(|k| k.stats()).unwrap_or_default();
        Self {
            reads: stats.reads,
            writes: stats.writes,
            uncached: stats.uncached_accesses,
            hypercalls: stats.hypercalls,
            sysreg_traps: stats.sysreg_traps,
            stage2_faults: stats.stage2_faults,
            tlb_hits: tlb.hits,
            tlb_misses: tlb.misses,
            l0_hits: tlb.l0_hits,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            replayed_words: plans.replayed_words,
            invalidations: plans.total_invalidations(),
            bus_writes_seen: mbm.bus_writes_seen,
            captured: mbm.captured,
            bitmap_lookups: mbm.bitmap_lookups,
            events_matched: mbm.events_matched,
            page_filter_skips: mbm.page_filter_skips,
            fifo_dropped: mbm.fifo_dropped,
            events_dispatched: hs.events_dispatched,
            pt_writes: hs.pt_writes,
            pt_denials: hs.pt_denials,
            kvm_stage2_faults: kvm.stage2_faults,
            kvm_wfi_exits: kvm.wfi_exits,
        }
    }

    /// Simulated memory accesses (`MachineStats` reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Self) -> Self {
        fieldwise!(self, before, -)
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &Self) -> Self {
        fieldwise!(self, other, +)
    }

    /// Sets every `COUNTERS` metric from `total`, counted over `units`
    /// units of work: counts become per-unit means, ratios are taken
    /// over the totals.
    pub fn report(&self, units: u64, out: &mut Outcome) {
        let per = |v: u64| v as f64 / units.max(1) as f64;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let lookups = self.tlb_hits + self.tlb_misses;
        out.set("machine.accesses", per(self.accesses()));
        out.set("machine.uncached_accesses", per(self.uncached));
        out.set("machine.hypercalls", per(self.hypercalls));
        out.set("machine.sysreg_traps", per(self.sysreg_traps));
        out.set("machine.stage2_faults", per(self.stage2_faults));
        out.set("tlb.hit_rate", ratio(self.tlb_hits, lookups));
        out.set("tlb.l0_hit_rate", ratio(self.l0_hits, lookups));
        out.set(
            "cache.hit_rate",
            ratio(self.cache_hits, self.cache_hits + self.cache_misses),
        );
        out.set(
            "compiled.replayed_word_share",
            ratio(self.replayed_words, self.accesses()),
        );
        out.set("compiled.invalidations", per(self.invalidations));
        out.set("mbm.bus_writes_seen", per(self.bus_writes_seen));
        out.set("mbm.bitmap_lookups", per(self.bitmap_lookups));
        out.set("mbm.events_matched", per(self.events_matched));
        out.set(
            "mbm.page_filter_skip_share",
            ratio(self.page_filter_skips, self.captured),
        );
        out.set("mbm.fifo_dropped", per(self.fifo_dropped));
        out.set("hypersec.events_dispatched", per(self.events_dispatched));
        out.set("hypersec.pt_writes", per(self.pt_writes));
        out.set("hypersec.pt_denials", per(self.pt_denials));
        out.set("kvm.stage2_faults", per(self.kvm_stage2_faults));
        out.set("kvm.wfi_exits", per(self.kvm_wfi_exits));
    }
}

impl Counters {
    /// Sets `tlb.hit_rate.<mode>` from per-mode totals in `MODE_SLUGS`
    /// order.
    pub fn report_by_mode(by_mode: &[Counters; 3], out: &mut Outcome) {
        for (c, slug) in by_mode.iter().zip(MODE_SLUGS) {
            let lookups = c.tlb_hits + c.tlb_misses;
            let rate = if lookups == 0 {
                0.0
            } else {
                c.tlb_hits as f64 / lookups as f64
            };
            out.set(format!("tlb.hit_rate.{slug}"), rate);
        }
    }
}

/// One configuration of the machine-side fast paths. `Fork` is not a
/// machine switch: it replaces `System::fork` of a booted template with
/// a cold boot, and each workload applies it itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Everything on (the measured configuration).
    None,
    /// `Tlb::set_l0_enabled(false)`.
    L0,
    /// `Machine::set_block_fastpath(false)`.
    BlockOps,
    /// `Machine::set_compiled_enabled(false)`.
    Compiled,
    /// `Mbm::set_filter_enabled(false)`.
    MbmFilter,
    /// Cold boot per unit instead of forking a booted template.
    Fork,
}

impl Ablation {
    /// Every layer switched off on its own, in `ABLATIONS` order.
    pub const LAYERS: &'static [Ablation] = &[
        Self::L0,
        Self::BlockOps,
        Self::Compiled,
        Self::MbmFilter,
        Self::Fork,
    ];

    /// The `ablation.<layer>` slug.
    pub fn slug(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::L0 => "l0",
            Self::BlockOps => "block_ops",
            Self::Compiled => "compiled",
            Self::MbmFilter => "mbm_filter",
            Self::Fork => "fork",
        }
    }

    /// Switches this configuration's layer off on `sys` (a no-op for
    /// `None` and `Fork`).
    pub fn apply(self, sys: &mut System) {
        let machine = sys.machine_mut();
        match self {
            Self::L0 => machine.tlb_mut().set_l0_enabled(false),
            Self::BlockOps => machine.set_block_fastpath(false),
            Self::Compiled => machine.set_compiled_enabled(false),
            Self::MbmFilter => {
                if let Some(mbm) = machine.bus_mut().snooper_mut::<Mbm>() {
                    mbm.set_filter_enabled(false);
                }
            }
            Self::None | Self::Fork => {}
        }
    }
}

/// Simulated write→dispatch latency of one privilege-escalation write
/// against `sys` (Hypernel mode): the cycles from the attack step's
/// start to the end of the interrupt-service pass that dispatches its
/// MBM events, the same span the campaign engine records per step.
/// Arms word-granularity monitoring first unless `armed`.
///
/// # Errors
///
/// Returns a message when a kernel call fails or nothing is detected.
pub fn detection_probe(sys: &mut System, armed: bool) -> Result<u64, String> {
    use hypernel::kernel::{AttackStep, MonitorHooks, MonitorMode};
    if !armed {
        let (kernel, machine, hyp) = sys.parts();
        let hooks = MonitorHooks {
            mode: MonitorMode::SensitiveFields,
        };
        kernel
            .arm_monitor_hooks(machine, hyp, hooks)
            .map_err(|e| format!("arming monitor hooks: {e}"))?;
        sys.service_interrupts()
            .map_err(|e| format!("draining before the probe: {e}"))?;
    }
    let detections = |s: &System| s.hypersec().map_or(0, |h| h.detections().len());
    let before = detections(sys);
    let started = sys.cycles();
    {
        let (kernel, machine, hyp) = sys.parts();
        kernel
            .run_attack_step(machine, hyp, &AttackStep::CredEscalation { pid: 1 })
            .map_err(|e| format!("probe attack step: {e}"))?;
    }
    sys.service_interrupts()
        .map_err(|e| format!("probe interrupt service: {e}"))?;
    if detections(sys) == before {
        return Err("probe write was not detected".to_string());
    }
    Ok(sys.cycles() - started)
}
