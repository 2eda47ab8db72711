#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # hypernel-audit
//!
//! A static whole-system invariant auditor for the [Hypernel (DAC
//! 2018)][paper] reproduction, plus the seeding half of the
//! guest-memory ownership sanitizer.
//!
//! Hypersec verifies page-table updates *incrementally* — one
//! hypercall, one trapped register write at a time. A bug in that
//! verifier admits exactly the attacks Hypernel exists to stop, and no
//! amount of incremental checking can catch it. This crate is the
//! independent cross-check: from a **paused** machine it re-derives the
//! complete stage-1 mapping graph from first principles (every table
//! reachable from the live `TTBR0_EL1`/`TTBR1_EL1`, the kernel's own
//! bookkeeping, and Hypersec's verified root set), statically checks
//! every security invariant over the whole graph at once, and then
//! *differentially* compares its verdict against Hypersec's runtime
//! audit — any disagreement is a verifier bug (or an auditor gap) by
//! construction.
//!
//! Static invariants checked over the mapping graph:
//!
//! - **secure-reachable** — no stage-1 path maps the secure region;
//! - **wx-mapping** — no leaf is writable *and* executable;
//! - **linear-identity** — kernel-half leaves are identity mappings
//!   (double maps and ATRA-style aliases surface here);
//! - **text-writable** — kernel text is nowhere writable;
//! - **table-writable** — no live table page is writable (only while
//!   Hypersec is locked: an unprotected native kernel edits its own
//!   tables by design);
//! - **unverified-table** — every table reachable from Hypersec's roots
//!   is in its verified pool (locked only);
//! - **rogue-root** — the active `TTBR` roots are in the trusted root
//!   set;
//! - **watch-coverage** — every word of every registered monitored
//!   region has its MBM watch bit set and a non-cacheable kernel
//!   mapping.
//!
//! The ownership sanitizer ([`sanitizer::seed_shadow`] +
//! [`hypernel_machine::shadow`]) is the dynamic complement: a shadow
//! tag per physical page, maintained by the kernel at allocation sites
//! and checked against a writer/tag policy on every store.
//!
//! All reads go through `Machine::debug_read_table` and
//! `Machine::debug_read_phys` — cache coherent, zero simulated cycles,
//! no architectural side effects — so auditing never perturbs the
//! simulation it inspects. The audit is one walk over every reachable
//! table, and its cost grows with the number of tables, not leaves (see
//! [`graph`]).
//!
//! [paper]: https://doi.org/10.1145/3195970.3196061

pub mod graph;
pub mod report;
pub mod sanitizer;

pub use graph::{
    chain_display, ChainLink, LeafRecord, LeafRun, MappingGraph, RootOrigin, RootSpec, TableNode,
};
pub use report::{
    CheckKind, DifferentialReport, Finding, SanitizerReport, StaticAuditReport, AUDIT_SCHEMA,
    REPORT_KIND,
};
pub use sanitizer::seed_shadow;

use std::collections::HashSet;

use hypernel_hypersec::{AuditReport, Hypersec};
use hypernel_kernel::{layout, Kernel};
use hypernel_machine::addr::PhysAddr;
use hypernel_machine::machine::Machine;
use hypernel_machine::regs::SysReg;

/// Runs the complete static audit pass over a paused system.
///
/// `kernel` supplies the kernel-known ground truth (its root, the
/// per-task user roots); `hypersec`, when present **and locked**, adds
/// the verified root/table pools, enables the strict table checks, and
/// arms the differential comparison against [`Hypersec::audit`]. A
/// caller that already ran `Hypersec::audit` on this same state passes
/// its report as `incremental`, and the differential uses it instead of
/// auditing twice. The ownership-sanitizer section is filled in when
/// shadow tags are enabled on the machine.
pub fn audit_system(
    m: &mut Machine,
    kernel: &Kernel,
    hypersec: Option<&Hypersec>,
    incremental: Option<&AuditReport>,
) -> StaticAuditReport {
    let mut report = StaticAuditReport::default();
    let strict = hypersec.is_some_and(Hypersec::is_locked);

    let roots = collect_roots(m, kernel, hypersec);
    check_rogue_roots(&roots, kernel, hypersec, strict, &mut report);

    let graph = MappingGraph::walk(m, &roots);
    report.roots_walked = graph.roots.len() as u64;
    report.tables_walked = graph.tables.len() as u64;
    report.leaves_checked = graph.leaf_count();

    check_leaves(&graph, &mut report);
    if strict {
        let hyp = hypersec.expect("strict implies hypersec");
        check_tables_ro(&graph, hyp, &mut report);
        check_verified_pool(&graph, hyp, &mut report);
    }
    if let Some(hyp) = hypersec {
        check_watch_coverage(m, hyp, &graph, &mut report);
    }
    if strict {
        let hyp = hypersec.expect("strict implies hypersec");
        match incremental {
            Some(incremental) => run_differential(incremental, &mut report),
            None => run_differential(&hyp.audit(m), &mut report),
        }
    }
    if let Some(shadow) = m.shadow_tags() {
        report.sanitizer = Some(SanitizerReport {
            stats: shadow.stats(),
            violations: shadow.violations().to_vec(),
        });
    }
    report
}

/// Gathers every translation root the system knows about, deduplicated
/// with accumulated provenance. Order is deterministic: kernel-known
/// kernel root, active `TTBR1`, Hypersec's kernel root, kernel-known
/// user roots, active `TTBR0`, Hypersec's verified roots. A zero `TTBR`
/// is unset, not a root; a bookkept root at address 0 is still walked,
/// so every Hypersec root is in the graph for [`check_verified_pool`].
fn collect_roots(m: &Machine, kernel: &Kernel, hypersec: Option<&Hypersec>) -> Vec<RootSpec> {
    fn push(roots: &mut Vec<RootSpec>, pa: PhysAddr, kernel_space: bool, origin: RootOrigin) {
        match roots.iter_mut().find(|r| r.pa == pa) {
            Some(existing) => {
                if !existing.origins.contains(&origin) {
                    existing.origins.push(origin);
                }
            }
            None => roots.push(RootSpec {
                pa,
                kernel_space,
                origins: vec![origin],
            }),
        }
    }

    let mut roots = Vec::new();
    push(
        &mut roots,
        kernel.kernel_root(),
        true,
        RootOrigin::KernelKnown,
    );
    let active = |reg| {
        Some(graph::ttbr_base(m.regs().read(reg)))
            .filter(|pa| m.regs().stage1_enabled() && pa.raw() != 0)
    };
    if let Some(pa) = active(SysReg::TTBR1_EL1) {
        push(&mut roots, pa, true, RootOrigin::ActiveTtbr1);
    }
    if let Some(hyp) = hypersec {
        if let Some(root) = hyp.kernel_root() {
            push(&mut roots, root, true, RootOrigin::HypervisorVerified);
        }
    }
    for pa in kernel.user_roots() {
        push(&mut roots, pa, false, RootOrigin::KernelKnown);
    }
    if let Some(pa) = active(SysReg::TTBR0_EL1) {
        push(&mut roots, pa, false, RootOrigin::ActiveTtbr0);
    }
    for pa in hypersec.map(Hypersec::verified_roots).unwrap_or_default() {
        push(&mut roots, pa, false, RootOrigin::HypervisorVerified);
    }
    roots
}

/// The active `TTBR` roots must come from the trusted set: Hypersec's
/// verified roots once locked, otherwise the kernel's own bookkeeping.
/// (Kernel-known user roots are *not* checked against Hypersec's pool —
/// a freshly spawned task's root may legitimately await its first
/// verified switch.)
fn check_rogue_roots(
    roots: &[RootSpec],
    kernel: &Kernel,
    hypersec: Option<&Hypersec>,
    strict: bool,
    report: &mut StaticAuditReport,
) {
    let trusted: HashSet<u64> = if strict {
        let hyp = hypersec.expect("strict implies hypersec");
        hyp.kernel_root()
            .into_iter()
            .chain(hyp.verified_roots())
            .map(|r| r.raw())
            .collect()
    } else {
        std::iter::once(kernel.kernel_root())
            .chain(kernel.user_roots())
            .map(|r| r.raw())
            .collect()
    };
    for root in roots {
        let active = root
            .origins
            .iter()
            .any(|o| matches!(o, RootOrigin::ActiveTtbr0 | RootOrigin::ActiveTtbr1));
        if active && !trusted.contains(&root.pa.raw()) {
            let origins: Vec<&str> = root.origins.iter().map(|o| o.name()).collect();
            report.finding(
                CheckKind::RogueRoot,
                format!(
                    "active root {} ({}) is not in the trusted root set",
                    root.pa,
                    origins.join(", ")
                ),
                Vec::new(),
            );
        }
    }
}

/// The per-leaf invariants: secure unreachability, W^X, kernel linear
/// identity, kernel text never writable. Each is a constant or an
/// overlap test over a leaf's output range, so a run none of whose
/// checks fires on it as one wide leaf is skipped whole; any other run
/// is checked leaf by leaf, in walk order.
fn check_leaves(graph: &MappingGraph, report: &mut StaticAuditReport) {
    for run in &graph.runs {
        let wide = run.as_wide_leaf(graph.kernel_space(run));
        if leaf_findings(wide).next().is_none() {
            continue;
        }
        for leaf in graph.leaves(run) {
            for (check, detail) in leaf_findings(leaf) {
                report.finding(check, detail, graph.chain(leaf.node, leaf.index));
            }
        }
    }
}

/// The per-leaf invariants `leaf` violates, in report order.
fn leaf_findings(leaf: LeafRecord) -> impl Iterator<Item = (CheckKind, String)> {
    type Describe = fn(&LeafRecord) -> String;
    let image_end = layout::KERNEL_IMAGE_BASE + layout::KERNEL_IMAGE_SIZE;
    let end = leaf.out.raw() + leaf.span;
    let checks: [(bool, CheckKind, Describe); 4] = [
        (end > layout::SECURE_BASE, CheckKind::SecureReachable, |l| {
            format!("leaf at va {:#x} maps secure memory ({})", l.va, l.out)
        }),
        (
            leaf.perms.write && leaf.perms.exec,
            CheckKind::WxMapping,
            |l| format!("writable+executable leaf at va {:#x} -> {}", l.va, l.out),
        ),
        (
            leaf.kernel_space && leaf.va != leaf.out.raw(),
            CheckKind::LinearIdentity,
            |l| {
                format!(
                    "kernel linear leaf not identity: va {:#x} -> {}",
                    l.va, l.out
                )
            },
        ),
        (
            leaf.perms.write && leaf.out.raw() < image_end && end > layout::KERNEL_IMAGE_BASE,
            CheckKind::TextWritable,
            |l| format!("kernel text writable at va {:#x} -> {}", l.va, l.out),
        ),
    ];
    checks
        .into_iter()
        .filter(|&(fires, ..)| fires)
        .map(move |(_, check, describe)| (check, describe(&leaf)))
}

/// The sorted addresses of `tables` inside `[base, end)`.
fn tables_in(tables: &[u64], base: u64, end: u64) -> &[u64] {
    let start = tables.partition_point(|&t| t < base);
    let len = tables[start..].partition_point(|&t| t < end);
    &tables[start..start + len]
}

/// No writable leaf may cover a live table page (the union of the
/// graph's reachable tables and Hypersec's verified pool). Only
/// meaningful under a locked Hypersec — a native kernel writes its own
/// tables through its linear map by design.
fn check_tables_ro(graph: &MappingGraph, hyp: &Hypersec, report: &mut StaticAuditReport) {
    let mut tables: Vec<u64> = graph.tables.iter().map(|t| t.raw()).collect();
    tables.extend(hyp.verified_tables().iter().map(|t| t.raw()));
    tables.sort_unstable();
    tables.dedup();
    for run in graph.runs.iter().filter(|r| r.perms.write) {
        if tables_in(&tables, run.out.raw(), run.out_end()).is_empty() {
            continue;
        }
        for leaf in graph.leaves(run) {
            for &table in tables_in(&tables, leaf.out.raw(), leaf.out.raw() + leaf.span) {
                report.finding(
                    CheckKind::TableWritable,
                    format!(
                        "table page {} is writable via va {:#x}",
                        PhysAddr::new(table),
                        leaf.va + (table - leaf.out.raw())
                    ),
                    graph.chain(leaf.node, leaf.index),
                );
            }
        }
    }
}

/// Every table reachable from Hypersec's registered roots must be in
/// its verified pool — the exact invariant the incremental runtime
/// audit re-checks, so both sides flag the same tables. Every Hypersec
/// root is a root of the graph, walked with its own visited set, so
/// the tables its nodes reach are the set a walk of Hypersec's roots
/// alone would reach.
fn check_verified_pool(graph: &MappingGraph, hyp: &Hypersec, report: &mut StaticAuditReport) {
    let verified: HashSet<u64> = hyp.verified_tables().iter().map(|t| t.raw()).collect();
    for table in graph.tables_from(RootOrigin::HypervisorVerified) {
        if !verified.contains(&table.raw()) {
            report.finding(
                CheckKind::UnverifiedTable,
                format!("reachable table {table} is not in the verified pool"),
                Vec::new(),
            );
        }
    }
}

/// Every word of every registered monitored region must have its watch
/// bit set, and the region's kernel mapping must exist and be
/// non-cacheable (a cacheable mapping hides writes from the bus, and
/// therefore from the MBM).
fn check_watch_coverage(
    m: &mut Machine,
    hyp: &Hypersec,
    graph: &MappingGraph,
    report: &mut StaticAuditReport,
) {
    for region in hyp.regions() {
        report.regions_checked += 1;
        let (base, end) = (region.pa.raw(), region.pa.raw() + region.len);
        let overlaps = |out: u64, out_end: u64| out < end && out_end > base;
        let mut covering = graph
            .runs
            .iter()
            .filter(|r| graph.kernel_space(r) && overlaps(r.out.raw(), r.out_end()))
            .peekable();
        if covering.peek().is_none() {
            report.finding(
                CheckKind::WatchCoverage,
                format!(
                    "monitored region sid {} at {} has no kernel mapping",
                    region.sid, region.base_va
                ),
                Vec::new(),
            );
        }
        for run in covering.filter(|r| r.perms.cacheable) {
            for leaf in graph
                .leaves(run)
                .filter(|l| overlaps(l.out.raw(), l.out.raw() + l.span))
            {
                report.finding(
                    CheckKind::WatchCoverage,
                    format!(
                        "monitored region sid {} at {} is mapped cacheable (va {:#x})",
                        region.sid, region.base_va, leaf.va
                    ),
                    graph.chain(leaf.node, leaf.index),
                );
            }
        }
        let coverage = hyp
            .config()
            .bitmap
            .coverage(region.pa, region.len, |pa| m.debug_read_phys(pa));
        if !coverage.is_full() {
            let mut detail = format!(
                "monitored region sid {} at {}: {}/{} words watched",
                region.sid, region.base_va, coverage.watched, coverage.words
            );
            if let Some(first) = coverage.unwatched.first() {
                detail.push_str(&format!(", first unwatched {first}"));
            }
            if let Some(first) = coverage.outside_window.first() {
                detail.push_str(&format!(", first outside window {first}"));
            }
            report.finding(CheckKind::WatchCoverage, detail, Vec::new());
        }
    }
}

/// Compares the static verdict with Hypersec's incremental runtime
/// audit. The comparison is on the *verdict*, not the phrasing: both
/// analyses must agree on whether the system is dirty. A static-only
/// finding means the incremental verifier admitted something it should
/// not have (a verifier bug); an incremental-only violation means the
/// static pass has a gap.
fn run_differential(incremental: &AuditReport, report: &mut StaticAuditReport) {
    let mut diff = DifferentialReport {
        static_findings: report.findings.len() as u64,
        incremental_violations: incremental.violations.clone(),
        disagreements: Vec::new(),
    };
    let static_dirty = !report.findings.is_empty();
    let incremental_dirty = !incremental.violations.is_empty();
    if static_dirty && !incremental_dirty {
        for finding in &report.findings {
            diff.disagreements.push(format!("static-only: {finding}"));
        }
    } else if incremental_dirty && !static_dirty {
        for violation in &incremental.violations {
            diff.disagreements
                .push(format!("incremental-only: {violation}"));
        }
    }
    report.differential = Some(diff);
}
