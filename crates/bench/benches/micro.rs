//! Microbenchmarks for the simulator's hot paths: translation (TLB hit,
//! stage-1 miss, nested miss), the MBM pipeline, and the bitmap/ring
//! primitives. These measure *host* wall-clock performance of the
//! simulation itself, complementing the modeled-cycle harnesses. Each
//! case runs a short warm-up, then a fixed number of timed iterations,
//! and reports the mean nanoseconds per iteration (also written as the
//! `micro` bench summary when `HYPERNEL_BENCH_DIR` is set).
//!
//! Run with `cargo bench -p hypernel-bench --bench micro`.

use std::time::Instant;

use hypernel::machine::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use hypernel::machine::machine::{Machine, MachineConfig, NullHyp};
use hypernel::machine::pagetable::{apply_entry_write, plan_map, walk, PagePerms};
use hypernel::machine::regs::{hcr, sctlr, ExceptionLevel, SysReg};
use hypernel::mbm::{BitmapLayout, RingLayout, WriteEvent};
use hypernel_bench::summary::BenchSummary;
use std::hint::black_box;

const WARMUP_ITERS: u32 = 100;
const MEASURE_ITERS: u32 = 2_000;

/// Times `body`, prints the mean per-iteration wall-clock time and
/// records it as `<name> ns`.
fn time<R>(summary: &mut BenchSummary, name: &str, mut body: impl FnMut() -> R) {
    for _ in 0..WARMUP_ITERS {
        black_box(body());
    }
    let start = Instant::now();
    for _ in 0..MEASURE_ITERS {
        black_box(body());
    }
    let per_iter = start.elapsed().as_nanos() as f64 / f64::from(MEASURE_ITERS);
    println!("  {name}: {per_iter:.0} ns/iter ({MEASURE_ITERS} iters)");
    summary.metric(&format!("{name} ns"), per_iter);
}

/// Builds a machine with an identity stage-1 map of the low 32 MiB.
fn stage1_machine() -> Machine {
    let mut m = Machine::new(MachineConfig {
        dram_size: 128 << 20,
        ..MachineConfig::default()
    });
    let root = PhysAddr::new(0x100_0000);
    let mut next = 0x110_0000u64;
    for page in (0..(32u64 << 20)).step_by(PAGE_SIZE as usize) {
        let plan = plan_map(
            m.mem_mut(),
            root,
            page,
            PhysAddr::new(page),
            PagePerms::KERNEL_DATA,
            3,
            &mut || {
                let t = next;
                next += PAGE_SIZE;
                Some(PhysAddr::new(t))
            },
        )
        .expect("plan");
        for w in &plan.writes {
            apply_entry_write(m.mem_mut(), *w);
        }
    }
    m.el2_write_sysreg(SysReg::TTBR0_EL1, root.raw());
    m.el2_write_sysreg(SysReg::TTBR1_EL1, root.raw());
    m.el2_write_sysreg(SysReg::SCTLR_EL1, sctlr::M);
    m.set_el(ExceptionLevel::El1);
    m
}

fn bench_translation(summary: &mut BenchSummary) {
    println!("translation");
    {
        let mut m = stage1_machine();
        let mut hyp = NullHyp;
        m.read_u64(VirtAddr::new(0x20_0000), &mut hyp)
            .expect("warm");
        time(summary, "tlb_hit_read", || {
            m.read_u64(black_box(VirtAddr::new(0x20_0000)), &mut hyp)
                .expect("read")
        });
    }
    {
        let mut m = stage1_machine();
        let mut hyp = NullHyp;
        time(summary, "stage1_miss_walk", || {
            m.tlbi_all();
            m.read_u64(black_box(VirtAddr::new(0x20_0000)), &mut hyp)
                .expect("read")
        });
    }
    {
        let mut m = stage1_machine();
        // Stage-2 identity blocks over low memory.
        let s2_root = PhysAddr::new(0x400_0000);
        let mut next = 0x410_0000u64;
        for section in (0..(64u64 << 20)).step_by(2 << 20) {
            let plan = plan_map(
                m.mem_mut(),
                s2_root,
                section,
                PhysAddr::new(section),
                PagePerms::KERNEL_DATA,
                2,
                &mut || {
                    let t = next;
                    next += PAGE_SIZE;
                    Some(PhysAddr::new(t))
                },
            )
            .expect("plan");
            for w in &plan.writes {
                apply_entry_write(m.mem_mut(), *w);
            }
        }
        m.set_el(ExceptionLevel::El2);
        m.el2_write_sysreg(SysReg::VTTBR_EL2, s2_root.raw());
        m.el2_write_sysreg(SysReg::HCR_EL2, hcr::VM);
        m.set_el(ExceptionLevel::El1);
        let mut hyp = NullHyp;
        time(summary, "nested_miss_walk", || {
            m.tlbi_all();
            m.read_u64(black_box(VirtAddr::new(0x20_0000)), &mut hyp)
                .expect("read")
        });
    }
    {
        let mut m = stage1_machine();
        let root = PhysAddr::new(0x100_0000);
        time(summary, "raw_walk_4_levels", || {
            let mut view = m.pt_view();
            walk(&mut view, root, black_box(0x20_0000)).expect("walk")
        });
    }
}

fn bench_mbm(summary: &mut BenchSummary) {
    use hypernel::machine::bus::{BusContext, BusSnooper, BusTransaction};
    use hypernel::machine::irq::IrqController;
    use hypernel::machine::mem::PhysMemory;
    use hypernel::mbm::{Mbm, MbmConfig};

    println!("mbm");
    let config = MbmConfig::standard(
        PhysAddr::new(0),
        1 << 20,
        PhysAddr::new(0x40_0000),
        PhysAddr::new(0x50_0000),
        1024,
    );
    {
        let mut mbm = Mbm::new(config);
        let mut mem = PhysMemory::new(0x60_0000);
        let mut irq = IrqController::new();
        let mut extra = 0u64;
        let txn = BusTransaction::WriteWord {
            addr: PhysAddr::new(0x1000),
            value: 7,
        };
        time(summary, "snoop_unwatched_write", || {
            let mut ctx = BusContext {
                mem: &mut mem,
                irq: &mut irq,
                extra_mem_accesses: &mut extra,
                cycles: 0,
            };
            mbm.on_transaction(black_box(&txn), &mut ctx);
        });
    }
    {
        let mut mbm = Mbm::new(config);
        let mut mem = PhysMemory::new(0x60_0000);
        let mut irq = IrqController::new();
        let mut extra = 0u64;
        for u in config.bitmap.plan_update(PhysAddr::new(0x1000), 8, true) {
            let cur = mem.read_u64(u.word);
            mem.write_u64(u.word, u.apply_to(cur));
        }
        let txn = BusTransaction::WriteWord {
            addr: PhysAddr::new(0x1000),
            value: 7,
        };
        time(summary, "snoop_watched_write", || {
            let mut ctx = BusContext {
                mem: &mut mem,
                irq: &mut irq,
                extra_mem_accesses: &mut extra,
                cycles: 0,
            };
            mbm.on_transaction(black_box(&txn), &mut ctx);
            // Drain the ring so it never fills.
            config.ring.pop(ctx.mem);
            irq.ack_next();
        });
    }
}

fn bench_primitives(summary: &mut BenchSummary) {
    use hypernel::machine::mem::PhysMemory;

    println!("primitives");
    let layout = BitmapLayout::new(PhysAddr::new(0), 1 << 30, PhysAddr::new(0x4000_0000));
    time(summary, "bitmap_plan_update_4k", || {
        layout.plan_update(black_box(PhysAddr::new(0x12_3000)), 4096, true)
    });
    {
        let ring = RingLayout::new(PhysAddr::new(0x1000), 1024);
        let mut mem = PhysMemory::new(1 << 20);
        let ev = WriteEvent {
            addr: PhysAddr::new(0x8),
            value: 42,
        };
        time(summary, "ring_push_pop", || {
            ring.push(&mut mem, black_box(ev));
            ring.pop(&mut mem)
        });
    }
}

fn main() {
    let mut summary = BenchSummary::new("micro");
    bench_translation(&mut summary);
    bench_mbm(&mut summary);
    bench_primitives(&mut summary);
    summary.write_if_requested();
}
