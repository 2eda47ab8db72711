//! Differential test of `Hypersec::audit`, which reads each table whole
//! and checks runs of leaves, against a frozen reference: the per-entry
//! audit that reads every descriptor with `debug_read_phys` and checks
//! every leaf on its own.
//!
//! Both must return an equal `AuditReport` — the four counters and every
//! violation string, in order — over the end state of every Hypernel
//! corpus scenario (seeds 0 and 3, the W⊕X clause on and off) and over
//! synthetic states written into registered tables: a W+X page and a
//! non-identity run in the middle of the linear map, a run of 2 MiB
//! blocks whose last block crosses `SECURE_BASE`, a run that starts in
//! kernel text and leaves it, and an unregistered table hung off a
//! registered one.
//!
//! The reference checks invariant 5 in sorted table order, the audit in
//! its table map's order; the two agree while at most one registered
//! table page is writable or unmapped, as in every state compared here.

use std::path::Path;

use hypernel::{Mode, System};
use hypernel_campaign::engine::{boot_system, run_one_full};
use hypernel_campaign::scenario::load_corpus;
use hypernel_hypersec::{AuditReport, Hypersec};
use hypernel_kernel::layout;
use hypernel_machine::addr::PhysAddr;
use hypernel_machine::machine::Machine;
use hypernel_machine::pagetable::{self, desc, Descriptor, PagePerms};
use hypernel_machine::regs::SysReg;

/// The per-entry reference audit.
mod reference {
    use std::collections::HashSet;

    use hypernel_hypersec::{AuditReport, Hypersec};
    use hypernel_kernel::layout;
    use hypernel_machine::addr::PhysAddr;
    use hypernel_machine::machine::Machine;
    use hypernel_machine::pagetable::{self, Descriptor};

    fn level_shift(level: u32) -> u32 {
        12 + 9 * (3 - level)
    }

    /// `Hypersec::audit` as one `debug_read_phys` and one leaf check per
    /// entry; `wx_check` is false when the W⊕X clause is disabled.
    pub fn audit(hyp: &Hypersec, m: &mut Machine, wx_check: bool) -> AuditReport {
        let kernel_root = hyp.kernel_root().expect("audit requires the locked state");
        let registered: HashSet<u64> = hyp.verified_tables().iter().map(|t| t.raw()).collect();
        let mut report = AuditReport::default();
        let mut roots = hyp.verified_roots();
        roots.insert(0, kernel_root);
        for (i, root) in roots.iter().enumerate() {
            let tree = Tree {
                registered: &registered,
                wx_check,
                kernel_space: i == 0,
            };
            tree.audit(m, *root, 0, 0, &mut report);
        }
        for table in hyp.verified_tables() {
            let walked = {
                let mut view = m.pt_view();
                pagetable::walk(&mut view, kernel_root, layout::kva(table).raw())
            };
            match walked {
                Ok(res) if res.perms.write => report
                    .violations
                    .push(format!("table page {table} is writable in the kernel view")),
                Ok(_) => {}
                Err(_) => report
                    .violations
                    .push(format!("table page {table} has no kernel mapping")),
            }
        }
        for region in hyp.regions() {
            let walked = {
                let mut view = m.pt_view();
                pagetable::walk(&mut view, kernel_root, region.base_va.raw())
            };
            match walked {
                Ok(res) if res.perms.cacheable => report.violations.push(format!(
                    "monitored region at {} is cacheable - writes can hide from the MBM",
                    region.base_va
                )),
                Ok(_) => {}
                Err(_) => report.violations.push(format!(
                    "monitored region at {} is unmapped",
                    region.base_va
                )),
            }
            let mut addr = region.pa;
            let end = region.pa.add(region.len);
            while addr < end {
                if let Some((word, mask)) = hyp.config().bitmap.locate(addr) {
                    if m.debug_read_phys(word) & mask == 0 {
                        report
                            .violations
                            .push(format!("watch bit missing for {addr}"));
                    }
                }
                addr = addr.add(8);
            }
            report.regions_checked += 1;
        }
        report
    }

    struct Tree<'a> {
        registered: &'a HashSet<u64>,
        wx_check: bool,
        kernel_space: bool,
    }

    impl Tree<'_> {
        fn audit(
            &self,
            m: &mut Machine,
            table: PhysAddr,
            level: u32,
            va_base: u64,
            report: &mut AuditReport,
        ) {
            report.tables_checked += 1;
            if !self.registered.contains(&table.raw()) {
                report
                    .violations
                    .push(format!("reachable table {table} is not registered"));
            }
            for i in 0..pagetable::ENTRIES_PER_TABLE as u64 {
                let raw = m.debug_read_phys(table.add(i * 8));
                let va = va_base | i << level_shift(level);
                match Descriptor::decode(raw, level) {
                    Descriptor::Invalid => {}
                    Descriptor::Table { next } => self.audit(m, next, level + 1, va, report),
                    Descriptor::Leaf { out, perms } => {
                        report.leaves_checked += 1;
                        let span = 1u64 << level_shift(level);
                        let violations = &mut report.violations;
                        if out.raw() + span > layout::SECURE_BASE {
                            violations
                                .push(format!("leaf at va {va:#x} maps secure memory ({out})"));
                        }
                        if perms.write && perms.exec && self.wx_check {
                            violations.push(format!("W^X violation at va {va:#x}"));
                        }
                        if self.kernel_space && va != out.raw() {
                            violations.push(format!(
                                "kernel linear leaf not identity: va {va:#x} -> {out}"
                            ));
                        }
                        let image_end = layout::KERNEL_IMAGE_BASE + layout::KERNEL_IMAGE_SIZE;
                        if self.kernel_space
                            && out.raw() < image_end
                            && out.raw() + span > layout::KERNEL_IMAGE_BASE
                            && perms.write
                        {
                            violations.push(format!("kernel text writable at va {va:#x}"));
                        }
                    }
                }
            }
        }
    }
}

/// Audits `sys` both ways and asserts equal reports; returns the audit's.
/// Unless `blind` (the W⊕X clause already disabled), also compares the
/// two with the clause disabled on a copy of Hypersec.
fn assert_same_audit(sys: &mut System, blind: bool, what: &str) -> AuditReport {
    let mut hyp: Hypersec = sys.hypersec().expect("hypernel mode").clone();
    let m = sys.machine_mut();
    let runs = hyp.audit(m);
    assert_eq!(runs, reference::audit(&hyp, m, !blind), "{what}");
    if !blind {
        hyp.testonly_disable_wx_check();
        let blinded = hyp.audit(m);
        assert_eq!(blinded, reference::audit(&hyp, m, false), "{what}, W^X off");
    }
    runs
}

#[test]
fn corpus_end_states_audit_equal_to_the_reference() {
    let corpus = load_corpus(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus"))
        .expect("corpus loads");
    let cases: Vec<_> = corpus
        .iter()
        .filter(|s| s.mode == Mode::Hypernel)
        .flat_map(|s| [0, 3].map(|seed| (s, seed)))
        .collect();
    assert!(cases.len() >= 20, "only {} Hypernel cases", cases.len());
    // Two workers, each with its own systems (a `System` is not `Send`).
    let (audited, leaves) = std::thread::scope(|scope| {
        let workers: Vec<_> = [0, 1]
            .map(|parity| {
                let cases = &cases;
                scope.spawn(move || {
                    let (mut audited, mut leaves) = (0usize, 0u64);
                    for (scenario, seed) in cases.iter().skip(parity).step_by(2) {
                        for blind in [false, true] {
                            let what = format!("{} seed {seed}, W^X blind {blind}", scenario.name);
                            let mut sys = boot_system(scenario).expect("boot");
                            if blind {
                                sys.hypersec_mut()
                                    .expect("hypernel mode")
                                    .testonly_disable_wx_check();
                            }
                            let (_, _, mut sys) = run_one_full(sys, scenario, *seed).expect("run");
                            leaves += assert_same_audit(&mut sys, blind, &what).leaves_checked;
                            audited += 1;
                        }
                    }
                    (audited, leaves)
                })
            })
            .into_iter()
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .fold((0, 0), |(a, l), (wa, wl)| (a + wa, l + wl))
    });
    assert_eq!(audited, 2 * cases.len());
    assert!(
        leaves > 100_000 * audited as u64,
        "the linear map went unaudited"
    );
}

/// Base of a 2 MiB stretch of the linear map far above anything a
/// short boot allocates: its level-3 table gets the W+X page, the
/// non-identity run and the run that leaves kernel text.
const DATA: u64 = layout::SECURE_BASE - (64 << 20);
/// A spare frame for the unregistered table.
const SPARE_TABLE: u64 = layout::SECURE_BASE - (32 << 20);

fn leaf(out: u64, perms: PagePerms) -> u64 {
    Descriptor::Leaf {
        out: PhysAddr::new(out),
        perms,
    }
    .encode()
}

/// The descriptor addresses the walk of `va` from `root` reads.
fn path(m: &mut Machine, root: PhysAddr, va: u64) -> Vec<PhysAddr> {
    let mut view = m.pt_view();
    pagetable::walk(&mut view, root, va)
        .expect("mapped")
        .accesses
}

/// Writes the synthetic state into registered tables of a locked system.
fn plant_synthetic_state(sys: &mut System) {
    let kernel_root = sys
        .hypersec()
        .expect("hypernel")
        .kernel_root()
        .expect("locked");
    let m = sys.machine_mut();
    let user_root = PhysAddr::new(m.regs().read(SysReg::TTBR0_EL1) & desc::ADDR_MASK);
    let l3 = path(m, kernel_root, layout::kva(PhysAddr::new(DATA)).raw())[3];
    assert_eq!(l3.page_offset(), 0, "DATA starts an L3 table");
    let put = |m: &mut Machine, table: PhysAddr, index: u64, raw: u64| {
        m.debug_write_phys(table.add(index * 8), raw);
    };
    // A W+X page in the middle of the identity run.
    let wx = PagePerms {
        exec: true,
        ..PagePerms::KERNEL_DATA
    };
    put(m, l3, 100, leaf(DATA + 100 * 0x1000, wx));
    // Eight contiguous leaves aliasing pages further up the table.
    for k in 0..8 {
        put(
            m,
            l3,
            200 + k,
            leaf(DATA + (400 + k) * 0x1000, PagePerms::KERNEL_DATA),
        );
    }
    // A writable run whose first three leaves are the last pages of
    // kernel text (the image starts at 0, so a rising run can only
    // start inside text, never enter it after its first leaf).
    let image_end = layout::KERNEL_IMAGE_BASE + layout::KERNEL_IMAGE_SIZE;
    for k in 0..8 {
        put(
            m,
            l3,
            300 + k,
            leaf(image_end - 0x3000 + k * 0x1000, PagePerms::KERNEL_DATA),
        );
    }
    // User half: four contiguous 2 MiB blocks, only the last of which
    // crosses into the secure region, then a table pointer to a page
    // Hypersec never registered.
    let user_l2 = path(m, user_root, layout::USER_IMAGE_BASE)[2].page_base();
    for k in 0..4 {
        let out = layout::SECURE_BASE - (7 << 20) + k * (2 << 20);
        assert_eq!(m.debug_read_phys(user_l2.add((100 + k) * 8)), 0);
        put(m, user_l2, 100 + k, leaf(out, PagePerms::USER_DATA));
    }
    m.debug_zero_page(PhysAddr::new(SPARE_TABLE));
    put(
        m,
        PhysAddr::new(SPARE_TABLE),
        5,
        leaf(DATA, PagePerms::USER_DATA),
    );
    let spare = Descriptor::Table {
        next: PhysAddr::new(SPARE_TABLE),
    };
    put(m, user_l2, 120, spare.encode());
}

#[test]
fn synthetic_states_audit_equal_to_the_reference() {
    let mut sys = System::boot(Mode::Hypernel).expect("boot");
    let clean = assert_same_audit(&mut sys, false, "booted system");
    assert!(clean.is_clean(), "{:?}", clean.violations);
    plant_synthetic_state(&mut sys);
    let report = assert_same_audit(&mut sys, false, "synthetic state");
    let data_va = DATA & ((1 << 48) - 1);
    let block_va = 100u64 << 21;
    for needle in [
        format!("W^X violation at va {:#x}", data_va + 100 * 0x1000),
        format!(
            "kernel linear leaf not identity: va {:#x} -> {}",
            data_va + 207 * 0x1000,
            PhysAddr::new(DATA + 407 * 0x1000)
        ),
        format!("kernel text writable at va {:#x}", data_va + 302 * 0x1000),
        format!(
            "leaf at va {:#x} maps secure memory",
            block_va + 3 * (2 << 20)
        ),
        format!(
            "reachable table {} is not registered",
            PhysAddr::new(SPARE_TABLE)
        ),
    ] {
        assert!(
            report.violations.iter().any(|v| v.starts_with(&needle)),
            "no `{needle}` in {:#?}",
            report.violations
        );
    }
    let text = report
        .violations
        .iter()
        .filter(|v| v.starts_with("kernel text writable"))
        .count();
    let secure = report
        .violations
        .iter()
        .filter(|v| v.contains("maps secure memory"))
        .count();
    assert_eq!((text, secure), (3, 1), "{:#?}", report.violations);
}
