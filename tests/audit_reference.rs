//! Differential test of the static auditor's run-based mapping graph
//! against a reference: the straightforward per-leaf walk that records
//! one leaf with a cloned descriptor chain per reachable mapping and
//! re-walks Hypersec's roots for the verified-pool check.
//!
//! Both must produce byte-identical `StaticAuditReport::to_json()` —
//! findings, their order, details and chains — over the scenario corpus
//! in every mode (sanitizer on and off) and over synthetic graphs built
//! to stress leaf runs: 2 MiB and 1 GiB blocks, a perms change in the
//! middle of a table, secure-region and table-page leaves inside
//! writable runs, diamond and self-referencing tables, and a table
//! pointer at level 3. A negative control flips one permission bit in
//! the middle of a run and shows that the comparison notices.

use std::path::Path;

use hypernel::{Mode, System};
use hypernel_campaign::engine::{boot_system, run_one_full};
use hypernel_campaign::scenario::load_corpus;
use hypernel_kernel::abi::call;
use hypernel_kernel::layout;
use hypernel_machine::addr::PhysAddr;
use hypernel_machine::machine::Machine;
use hypernel_machine::pagetable::{desc, Descriptor, PagePerms};
use hypernel_machine::regs::SysReg;
use hypernel_machine::shadow::TagPolicy;

/// The per-leaf reference auditor.
mod reference {
    use std::collections::HashSet;

    use hypernel::audit::{
        ChainLink, CheckKind, DifferentialReport, RootOrigin, RootSpec, SanitizerReport,
        StaticAuditReport,
    };
    use hypernel_hypersec::Hypersec;
    use hypernel_kernel::{layout, Kernel};
    use hypernel_machine::addr::{PhysAddr, PAGE_SIZE};
    use hypernel_machine::machine::Machine;
    use hypernel_machine::pagetable::{desc, Descriptor, PagePerms, ENTRIES_PER_TABLE};
    use hypernel_machine::regs::SysReg;
    use hypernel_machine::shadow::{PageTag, ShadowTags, TagPolicy};

    /// One reachable leaf with its full descriptor chain.
    pub struct Leaf {
        kernel_space: bool,
        va: u64,
        out: PhysAddr,
        span: u64,
        perms: PagePerms,
        chain: Vec<ChainLink>,
    }

    #[derive(Default)]
    pub struct Graph {
        tables: Vec<PhysAddr>,
        leaves: Vec<Leaf>,
    }

    fn level_shift(level: u32) -> u32 {
        12 + 9 * (3 - level)
    }

    pub fn walk(m: &mut Machine, roots: &[RootSpec]) -> Graph {
        let mut graph = Graph::default();
        let mut tables: HashSet<u64> = HashSet::new();
        for root in roots {
            let mut visited: HashSet<u64> = HashSet::new();
            walk_table(
                m,
                root,
                root.pa,
                0,
                0,
                &mut Vec::new(),
                &mut visited,
                &mut tables,
                &mut graph,
            );
        }
        let mut sorted: Vec<PhysAddr> = tables.into_iter().map(PhysAddr::new).collect();
        sorted.sort();
        graph.tables = sorted;
        graph
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_table(
        m: &mut Machine,
        root: &RootSpec,
        table: PhysAddr,
        level: u32,
        va_base: u64,
        chain: &mut Vec<ChainLink>,
        visited: &mut HashSet<u64>,
        tables: &mut HashSet<u64>,
        graph: &mut Graph,
    ) {
        if !visited.insert(table.raw()) {
            return;
        }
        tables.insert(table.raw());
        for i in 0..ENTRIES_PER_TABLE as u64 {
            let raw = m.debug_read_phys(table.add(i * 8));
            let va = va_base | i << level_shift(level);
            chain.push(ChainLink { table, index: i });
            match Descriptor::decode(raw, level) {
                Descriptor::Invalid => {}
                Descriptor::Table { next } => {
                    walk_table(m, root, next, level + 1, va, chain, visited, tables, graph);
                }
                Descriptor::Leaf { out, perms } => graph.leaves.push(Leaf {
                    kernel_space: root.kernel_space,
                    va,
                    out,
                    span: 1u64 << level_shift(level),
                    perms,
                    chain: chain.clone(),
                }),
            }
            chain.pop();
        }
    }

    fn ttbr_base(raw: u64) -> PhysAddr {
        PhysAddr::new(raw & desc::ADDR_MASK)
    }

    fn collect_roots(m: &Machine, kernel: &Kernel, hypersec: Option<&Hypersec>) -> Vec<RootSpec> {
        fn push(roots: &mut Vec<RootSpec>, pa: PhysAddr, kernel_space: bool, origin: RootOrigin) {
            if pa.raw() == 0 {
                return;
            }
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
        if m.regs().stage1_enabled() {
            push(
                &mut roots,
                ttbr_base(m.regs().read(SysReg::TTBR1_EL1)),
                true,
                RootOrigin::ActiveTtbr1,
            );
        }
        if let Some(hyp) = hypersec {
            if let Some(root) = hyp.kernel_root() {
                push(&mut roots, root, true, RootOrigin::HypervisorVerified);
            }
        }
        for pa in kernel.user_roots() {
            push(&mut roots, pa, false, RootOrigin::KernelKnown);
        }
        if m.regs().stage1_enabled() {
            push(
                &mut roots,
                ttbr_base(m.regs().read(SysReg::TTBR0_EL1)),
                false,
                RootOrigin::ActiveTtbr0,
            );
        }
        for pa in hypersec.map(Hypersec::verified_roots).unwrap_or_default() {
            push(&mut roots, pa, false, RootOrigin::HypervisorVerified);
        }
        roots
    }

    /// The whole static audit, one leaf record per mapping.
    pub fn audit_system(
        m: &mut Machine,
        kernel: &Kernel,
        hypersec: Option<&Hypersec>,
    ) -> StaticAuditReport {
        let mut report = StaticAuditReport::default();
        let strict = hypersec.is_some_and(Hypersec::is_locked);
        let roots = collect_roots(m, kernel, hypersec);
        check_rogue_roots(&roots, kernel, hypersec, strict, &mut report);
        let graph = walk(m, &roots);
        report.roots_walked = roots.len() as u64;
        report.tables_walked = graph.tables.len() as u64;
        report.leaves_checked = graph.leaves.len() as u64;
        check_leaves(&graph, &mut report);
        if strict {
            let hyp = hypersec.expect("strict");
            check_tables_ro(&graph, hyp, &mut report);
            check_verified_pool(m, hyp, &mut report);
        }
        if let Some(hyp) = hypersec {
            check_watch_coverage(m, hyp, &graph, &mut report);
        }
        if strict {
            run_differential(m, hypersec.expect("strict"), &mut report);
        }
        if let Some(shadow) = m.shadow_tags() {
            report.sanitizer = Some(SanitizerReport {
                stats: shadow.stats(),
                violations: shadow.violations().to_vec(),
            });
        }
        report
    }

    fn check_rogue_roots(
        roots: &[RootSpec],
        kernel: &Kernel,
        hypersec: Option<&Hypersec>,
        strict: bool,
        report: &mut StaticAuditReport,
    ) {
        let trusted: HashSet<u64> = if strict {
            let hyp = hypersec.expect("strict");
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

    fn check_leaves(graph: &Graph, report: &mut StaticAuditReport) {
        let image_end = layout::KERNEL_IMAGE_BASE + layout::KERNEL_IMAGE_SIZE;
        for leaf in &graph.leaves {
            if leaf.out.raw() + leaf.span > layout::SECURE_BASE {
                report.finding(
                    CheckKind::SecureReachable,
                    format!(
                        "leaf at va {:#x} maps secure memory ({})",
                        leaf.va, leaf.out
                    ),
                    leaf.chain.clone(),
                );
            }
            if leaf.perms.write && leaf.perms.exec {
                report.finding(
                    CheckKind::WxMapping,
                    format!(
                        "writable+executable leaf at va {:#x} -> {}",
                        leaf.va, leaf.out
                    ),
                    leaf.chain.clone(),
                );
            }
            if leaf.kernel_space && leaf.va != leaf.out.raw() {
                report.finding(
                    CheckKind::LinearIdentity,
                    format!(
                        "kernel linear leaf not identity: va {:#x} -> {}",
                        leaf.va, leaf.out
                    ),
                    leaf.chain.clone(),
                );
            }
            if leaf.perms.write
                && leaf.out.raw() < image_end
                && leaf.out.raw() + leaf.span > layout::KERNEL_IMAGE_BASE
            {
                report.finding(
                    CheckKind::TextWritable,
                    format!("kernel text writable at va {:#x} -> {}", leaf.va, leaf.out),
                    leaf.chain.clone(),
                );
            }
        }
    }

    fn check_tables_ro(graph: &Graph, hyp: &Hypersec, report: &mut StaticAuditReport) {
        let mut tables: Vec<u64> = graph.tables.iter().map(|t| t.raw()).collect();
        tables.extend(hyp.verified_tables().iter().map(|t| t.raw()));
        tables.sort_unstable();
        tables.dedup();
        for leaf in graph.leaves.iter().filter(|l| l.perms.write) {
            let start = tables.partition_point(|&t| t < leaf.out.raw());
            for &table in tables[start..]
                .iter()
                .take_while(|&&t| t < leaf.out.raw() + leaf.span)
            {
                report.finding(
                    CheckKind::TableWritable,
                    format!(
                        "table page {} is writable via va {:#x}",
                        PhysAddr::new(table),
                        leaf.va + (table - leaf.out.raw())
                    ),
                    leaf.chain.clone(),
                );
            }
        }
    }

    /// Walks Hypersec's roots a second time, on their own.
    fn check_verified_pool(m: &mut Machine, hyp: &Hypersec, report: &mut StaticAuditReport) {
        let mut roots = Vec::new();
        if let Some(root) = hyp.kernel_root() {
            roots.push(RootSpec {
                pa: root,
                kernel_space: true,
                origins: vec![RootOrigin::HypervisorVerified],
            });
        }
        for pa in hyp.verified_roots() {
            roots.push(RootSpec {
                pa,
                kernel_space: false,
                origins: vec![RootOrigin::HypervisorVerified],
            });
        }
        let reachable = walk(m, &roots);
        let verified: HashSet<u64> = hyp.verified_tables().iter().map(|t| t.raw()).collect();
        for table in &reachable.tables {
            if !verified.contains(&table.raw()) {
                report.finding(
                    CheckKind::UnverifiedTable,
                    format!("reachable table {table} is not in the verified pool"),
                    Vec::new(),
                );
            }
        }
    }

    fn check_watch_coverage(
        m: &mut Machine,
        hyp: &Hypersec,
        graph: &Graph,
        report: &mut StaticAuditReport,
    ) {
        for region in hyp.regions() {
            report.regions_checked += 1;
            let (base, len) = (region.pa.raw(), region.len);
            let covering: Vec<&Leaf> = graph
                .leaves
                .iter()
                .filter(|l| l.out.raw() < base + len && l.out.raw() + l.span > base)
                .filter(|l| l.kernel_space)
                .collect();
            if covering.is_empty() {
                report.finding(
                    CheckKind::WatchCoverage,
                    format!(
                        "monitored region sid {} at {} has no kernel mapping",
                        region.sid, region.base_va
                    ),
                    Vec::new(),
                );
            }
            for leaf in covering {
                if leaf.perms.cacheable {
                    report.finding(
                        CheckKind::WatchCoverage,
                        format!(
                            "monitored region sid {} at {} is mapped cacheable (va {:#x})",
                            region.sid, region.base_va, leaf.va
                        ),
                        leaf.chain.clone(),
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

    fn run_differential(m: &mut Machine, hyp: &Hypersec, report: &mut StaticAuditReport) {
        let incremental = hyp.audit(m);
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

    /// The shadow-tag seeding, tagging user frames leaf by leaf.
    pub fn seed_shadow(m: &mut Machine, kernel: &Kernel, policy: TagPolicy) -> Box<ShadowTags> {
        let dram = m.dram_size();
        let mut tags = Box::new(ShadowTags::new(dram, policy));
        tags.tag_range(
            PhysAddr::new(layout::KERNEL_IMAGE_BASE),
            layout::KERNEL_IMAGE_SIZE,
            PageTag::KernelText,
        );
        if dram > layout::SECURE_BASE {
            tags.tag_range(
                PhysAddr::new(layout::SECURE_BASE),
                dram - layout::SECURE_BASE,
                PageTag::SecureRegion,
            );
        }
        let mut roots = vec![RootSpec {
            pa: kernel.kernel_root(),
            kernel_space: true,
            origins: vec![RootOrigin::KernelKnown],
        }];
        for pa in kernel.user_roots() {
            roots.push(RootSpec {
                pa,
                kernel_space: false,
                origins: vec![RootOrigin::KernelKnown],
            });
        }
        let graph = walk(m, &roots);
        for table in &graph.tables {
            tags.tag_page(*table, PageTag::PageTable);
        }
        for leaf in graph.leaves.iter().filter(|l| !l.kernel_space) {
            tags.tag_range(leaf.out, leaf.span, PageTag::UserData);
        }
        let watermark = kernel.frames_watermark().raw().min(layout::FRAME_POOL_END);
        let mut pa = PhysAddr::new(layout::FRAME_POOL_BASE);
        while pa.raw() < watermark {
            if tags.tag_of(pa) == PageTag::Free {
                tags.tag_page(pa, PageTag::KernelData);
            }
            pa = pa.add(PAGE_SIZE);
        }
        for frame in kernel.free_frames() {
            tags.tag_page(*frame, PageTag::Free);
        }
        tags
    }
}

/// The static audit report of `sys` as JSON: `(reference, runs)`.
fn both_reports(sys: &mut System) -> (String, String) {
    let kernel = sys.kernel().clone();
    let hypersec = sys.hypersec().cloned();
    let reference = reference::audit_system(sys.machine_mut(), &kernel, hypersec.as_ref());
    let runs = sys.audit_static();
    (reference.to_json().to_string(), runs.to_json().to_string())
}

fn assert_same_reports(sys: &mut System, what: &str) -> String {
    let (reference, runs) = both_reports(sys);
    assert_eq!(reference, runs, "{what}: the run walk diverged");
    runs
}

#[test]
fn corpus_reports_equal_the_reference_walk() {
    let corpus = load_corpus(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus"))
        .expect("corpus loads");
    let mut cases = Vec::new();
    for scenario in &corpus {
        for mode in [Mode::Native, Mode::KvmGuest, Mode::Hypernel] {
            for sanitize in [false, true] {
                let mut scenario = scenario.clone();
                scenario.mode = mode;
                cases.push((scenario, sanitize));
            }
        }
    }
    // Two workers, each with its own systems (a `System` is not `Send`).
    let (audited, chained) = std::thread::scope(|scope| {
        let workers: Vec<_> = [0, 1]
            .map(|parity| {
                let cases = &cases;
                scope.spawn(move || {
                    let (mut audited, mut chained) = (0usize, 0usize);
                    for (scenario, sanitize) in cases.iter().skip(parity).step_by(2) {
                        let what = format!(
                            "{} as {:?}, sanitize {sanitize}",
                            scenario.name, scenario.mode
                        );
                        let Ok(mut sys) = boot_system(scenario) else {
                            continue;
                        };
                        if *sanitize {
                            sys.enable_sanitizer();
                        }
                        let Ok((_, _, mut sys)) = run_one_full(sys, scenario, 3) else {
                            continue; // e.g. a remode whose attack step faults
                        };
                        let report = assert_same_reports(&mut sys, &what);
                        audited += 1;
                        chained += report.matches("\"chain\"").count();
                    }
                    (audited, chained)
                })
            })
            .into_iter()
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .fold((0, 0), |(a, c), (wa, wc)| (a + wa, c + wc))
    });
    assert!(
        audited + 4 >= cases.len(),
        "only {audited} of {} cases ran",
        cases.len()
    );
    assert!(chained > 0, "the corpus must exercise findings with chains");
}

/// Spare frames at the top of the frame pool, far above anything a
/// short boot allocates: synthetic L1, L2 and L3 tables.
const L1: u64 = layout::FRAME_POOL_END - 0x10_0000;
const L2: u64 = L1 + 0x1000;
const L3: u64 = L1 + 0x2000;
/// Under Hypernel: a root only Hypersec knows, and its one child table.
const HYPERSEC_ONLY_ROOT: u64 = L1 + 0x8000;
const HYPERSEC_ONLY_L1: u64 = L1 + 0x9000;

fn put(m: &mut Machine, table: u64, index: u64, raw: u64) {
    m.debug_write_phys(PhysAddr::new(table + index * 8), raw);
}

fn leaf(out: u64, perms: PagePerms) -> u64 {
    Descriptor::Leaf {
        out: PhysAddr::new(out),
        perms,
    }
    .encode()
}

fn table(next: u64) -> u64 {
    Descriptor::Table {
        next: PhysAddr::new(next),
    }
    .encode()
}

/// Plants the synthetic subtree under L0 entry 1 of both the kernel
/// root and the active user root.
fn plant_synthetic_graph(sys: &mut System) {
    let kernel_root = sys.kernel().kernel_root().raw();
    let m = sys.machine_mut();
    let user_root = m.regs().read(SysReg::TTBR0_EL1) & desc::ADDR_MASK;
    assert_ne!(user_root, 0, "a booted system runs a user task");
    for t in [L1, L2, L3] {
        m.debug_zero_page(PhysAddr::new(t));
    }
    let wx = PagePerms {
        exec: true,
        ..PagePerms::KERNEL_DATA
    };
    // L1: two contiguous writable 1 GiB blocks — kernel text, every
    // table page and the secure region inside one run — then L2, and
    // an entry pointing back at L1 itself.
    put(m, L1, 0, leaf(0, PagePerms::KERNEL_DATA));
    put(m, L1, 1, leaf(1 << 30, PagePerms::KERNEL_DATA));
    put(m, L1, 2, table(L2));
    put(m, L1, 3, table(L1));
    // L2: contiguous 2 MiB user blocks, then L3 twice (a diamond).
    for i in 0..4 {
        put(
            m,
            L2,
            i,
            leaf(0x4000_0000 + i * (2 << 20), PagePerms::USER_DATA),
        );
    }
    put(m, L2, 5, table(L3));
    put(m, L2, 6, table(L3));
    // L3: a writable run with a W+X page in its middle; a writable run
    // of a free page then the three synthetic table pages; a user run
    // that crosses into the secure region; a secure page; a table
    // pointer at level 3. Each run's findings start after its first
    // leaf, so a walk that tests only first leaves misses them.
    for i in 0..64 {
        let perms = if i == 32 { wx } else { PagePerms::KERNEL_DATA };
        put(m, L3, i, leaf(0x3000_0000 + i * 0x1000, perms));
    }
    for (i, t) in (99..).zip([L1 - 0x1000, L1, L2, L3]) {
        put(m, L3, i, leaf(t, PagePerms::KERNEL_DATA));
    }
    for i in 0..8 {
        let out = layout::SECURE_BASE - 0x4000 + i * 0x1000;
        put(m, L3, 400 + i, leaf(out, PagePerms::USER_DATA));
    }
    put(
        m,
        L3,
        200,
        leaf(layout::SECURE_BASE + 0x5000, PagePerms::USER_DATA),
    );
    put(m, L3, 300, table(0x1234_5000));
    put(m, kernel_root, 1, table(L1));
    put(m, user_root, 1, table(L1));
}

/// Registers a root with Hypersec behind the kernel's back and hangs an
/// unregistered table under it: a table only the Hypersec roots reach.
fn plant_hypersec_only_root(sys: &mut System) {
    let (_, m, hyp) = sys.parts();
    for t in [HYPERSEC_ONLY_ROOT, HYPERSEC_ONLY_L1] {
        m.debug_zero_page(PhysAddr::new(t));
    }
    m.hvc(call::PT_REGISTER_TABLE, [HYPERSEC_ONLY_ROOT, 1, 0, 0], hyp)
        .expect("register the root");
    put(m, HYPERSEC_ONLY_ROOT, 0, table(HYPERSEC_ONLY_L1));
    put(
        m,
        HYPERSEC_ONLY_L1,
        0,
        leaf(0x3800_0000, PagePerms::USER_DATA),
    );
    let hypersec = sys.hypersec().expect("hypernel mode");
    assert!(hypersec
        .verified_roots()
        .contains(&PhysAddr::new(HYPERSEC_ONLY_ROOT)));
    assert!(!sys
        .kernel()
        .user_roots()
        .contains(&PhysAddr::new(HYPERSEC_ONLY_ROOT)));
}

#[test]
fn synthetic_graphs_report_equal_to_the_reference_walk() {
    for mode in [Mode::Native, Mode::Hypernel] {
        let mut sys = System::boot(mode).expect("boot");
        plant_synthetic_graph(&mut sys);
        if mode == Mode::Hypernel {
            plant_hypersec_only_root(&mut sys);
        }
        let report = assert_same_reports(&mut sys, &format!("synthetic graph under {mode:?}"));
        for check in [
            "secure-reachable",
            "wx-mapping",
            "linear-identity",
            "text-writable",
        ] {
            assert!(report.contains(check), "{mode:?}: no `{check}` finding");
        }
        if mode == Mode::Hypernel {
            assert!(report.contains("table-writable"));
            let unverified = format!("reachable table {}", PhysAddr::new(HYPERSEC_ONLY_L1));
            assert!(report.contains(&unverified), "{unverified} not flagged");
        }

        // Shadow seeding tags whole user runs; it must tag exactly the
        // pages the per-leaf seeding tags.
        let kernel = sys.kernel().clone();
        let m = sys.machine_mut();
        let runs = hypernel::audit::seed_shadow(m, &kernel, TagPolicy::native(), None);
        let leaves = reference::seed_shadow(m, &kernel, TagPolicy::native());
        assert_eq!(runs.stats(), leaves.stats());
        let mut pa = PhysAddr::new(0);
        while pa.raw() < m.dram_size() {
            assert_eq!(runs.tag_of(pa), leaves.tag_of(pa), "{mode:?}: tag of {pa}");
            pa = pa.add(0x1000);
        }
    }
}

/// Negative control: one flipped permission bit in the middle of a run
/// must change the report — the run walk does not skip over it — and
/// the changed report must still equal the reference on the new state.
#[test]
fn a_bit_flipped_inside_a_run_fails_the_comparison() {
    let mut sys = System::boot(Mode::Native).expect("boot");
    plant_synthetic_graph(&mut sys);
    let (before, _) = both_reports(&mut sys);
    // L3 entries 0..32 are one writable, execute-never run; make entry
    // 16 executable.
    let entry = PhysAddr::new(L3 + 16 * 8);
    let m = sys.machine_mut();
    let raw = m.debug_read_phys(entry);
    m.debug_write_phys(entry, raw ^ desc::XN);
    let (reference, after) = both_reports(&mut sys);
    assert_ne!(before, after, "the flipped bit went unnoticed");
    assert_eq!(reference, after);
    let needle = format!("{}[16]\"", PhysAddr::new(L3));
    assert!(
        after
            .split("\"check\"")
            .any(|f| f.contains("wx-mapping") && f.contains(&needle)),
        "no wx-mapping finding at the flipped entry"
    );
}
