//! Page-table descriptor format, walker and edit planning.
//!
//! The simulated translation regime mirrors AArch64 with a 4 KiB granule:
//! four levels (L0–L3) of 512-entry tables, with block (large-page)
//! descriptors allowed at L1 (1 GiB) and L2 (2 MiB — the "section" size the
//! paper's kernel instrumentation eliminates from the linear map, §6.2).
//!
//! The same format is used for the stage-1 (EL1), stage-2 (IPA→PA) and EL2
//! tables; only the meaning of the input address differs.
//!
//! Software never writes descriptors behind the simulator's back: edits are
//! *planned* here ([`MapPlan`]) and then applied as individual entry writes
//! by the kernel (directly) or by Hypersec (after hypercall verification) —
//! reproducing the paper's design where every kernel page-table write is
//! replaced by a hypercall (§5.2.1).

use crate::addr::{PhysAddr, PAGE_SHIFT};
use crate::mem::PhysMemory;

/// Memory as seen by the page-table walker and edit planners.
///
/// Hardware table walkers are coherent with the data cache, so the walker
/// must not read stale DRAM behind dirty cache lines. [`PhysMemory`]
/// implements this trait with raw reads (correct when no cache sits in
/// front, e.g. in unit tests); [`crate::machine::Machine`] exposes a
/// cache-coherent view via [`crate::machine::Machine::pt_view`].
pub trait PtMemory {
    /// Reads one descriptor-sized word, coherently.
    fn read_pt(&mut self, pa: PhysAddr) -> u64;
    /// Writes one descriptor-sized word, coherently.
    fn write_pt(&mut self, pa: PhysAddr, value: u64);
}

impl PtMemory for PhysMemory {
    fn read_pt(&mut self, pa: PhysAddr) -> u64 {
        self.read_u64(pa)
    }
    fn write_pt(&mut self, pa: PhysAddr, value: u64) {
        self.write_u64(pa, value);
    }
}

/// Number of descriptor entries per table.
pub const ENTRIES_PER_TABLE: usize = 512;
/// Number of translation levels.
pub const LEVELS: u32 = 4;

/// Descriptor flag bits (simulator-defined layout, ARM-like in spirit).
pub mod desc {
    /// Descriptor is valid.
    pub const VALID: u64 = 1 << 0;
    /// Descriptor points to a next-level table (levels 0–2 only).
    pub const TABLE: u64 = 1 << 1;
    /// Leaf is read-only.
    pub const RO: u64 = 1 << 2;
    /// Leaf is accessible from EL0 (user).
    pub const USER: u64 = 1 << 3;
    /// Leaf is execute-never.
    pub const XN: u64 = 1 << 4;
    /// Leaf is non-cacheable (device / MBM-monitored memory).
    pub const NON_CACHEABLE: u64 = 1 << 5;
    /// Mask selecting the output address bits.
    pub const ADDR_MASK: u64 = 0x0000_FFFF_FFFF_F000;
}

/// Effective permissions and attributes of a completed translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PagePerms {
    /// Writes allowed.
    pub write: bool,
    /// Instruction fetch allowed.
    pub exec: bool,
    /// EL0 (user) access allowed.
    pub user: bool,
    /// Accesses may be cached; `false` forces every access onto the bus.
    pub cacheable: bool,
}

impl PagePerms {
    /// Kernel read/write data, cacheable, no execute.
    pub const KERNEL_DATA: PagePerms = PagePerms {
        write: true,
        exec: false,
        user: false,
        cacheable: true,
    };
    /// Kernel read-only + execute (text), cacheable.
    pub const KERNEL_TEXT: PagePerms = PagePerms {
        write: false,
        exec: true,
        user: false,
        cacheable: true,
    };
    /// Kernel read-only data, cacheable.
    pub const KERNEL_RO: PagePerms = PagePerms {
        write: false,
        exec: false,
        user: false,
        cacheable: true,
    };
    /// User read/write data, cacheable, no execute.
    pub const USER_DATA: PagePerms = PagePerms {
        write: true,
        exec: false,
        user: true,
        cacheable: true,
    };
    /// Kernel read/write, non-cacheable (monitored or device memory).
    pub const KERNEL_DATA_NC: PagePerms = PagePerms {
        write: true,
        exec: false,
        user: false,
        cacheable: false,
    };

    /// Encodes the permissions into descriptor flag bits.
    pub fn to_bits(self) -> u64 {
        let mut bits = 0;
        if !self.write {
            bits |= desc::RO;
        }
        if !self.exec {
            bits |= desc::XN;
        }
        if self.user {
            bits |= desc::USER;
        }
        if !self.cacheable {
            bits |= desc::NON_CACHEABLE;
        }
        bits
    }

    /// Decodes permissions from descriptor flag bits.
    pub fn from_bits(bits: u64) -> Self {
        Self {
            write: bits & desc::RO == 0,
            exec: bits & desc::XN == 0,
            user: bits & desc::USER != 0,
            cacheable: bits & desc::NON_CACHEABLE == 0,
        }
    }
}

/// A decoded descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Descriptor {
    /// Unmapped.
    Invalid,
    /// Pointer to a next-level table.
    Table {
        /// Physical address of the next-level table page.
        next: PhysAddr,
    },
    /// Leaf mapping (page at L3, block at L1/L2).
    Leaf {
        /// Output physical (or intermediate-physical) address.
        out: PhysAddr,
        /// Leaf permissions.
        perms: PagePerms,
    },
}

impl Descriptor {
    /// Decodes a raw descriptor at translation `level`.
    pub fn decode(raw: u64, level: u32) -> Self {
        if raw & desc::VALID == 0 {
            return Self::Invalid;
        }
        if level < LEVELS - 1 && raw & desc::TABLE != 0 {
            Self::Table {
                next: PhysAddr::new(raw & desc::ADDR_MASK),
            }
        } else {
            Self::Leaf {
                out: PhysAddr::new(raw & desc::ADDR_MASK),
                perms: PagePerms::from_bits(raw),
            }
        }
    }

    /// Encodes this descriptor to its raw form.
    ///
    /// # Panics
    ///
    /// Panics if a table or leaf address is not page-aligned.
    pub fn encode(self) -> u64 {
        match self {
            Self::Invalid => 0,
            Self::Table { next } => {
                assert!(next.is_page_aligned(), "table address must be page-aligned");
                next.raw() | desc::VALID | desc::TABLE
            }
            Self::Leaf { out, perms } => {
                assert!(out.is_page_aligned(), "leaf address must be page-aligned");
                out.raw() | desc::VALID | perms.to_bits()
            }
        }
    }
}

/// One maximal run of a table's entries, as split by [`split_table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableRun {
    /// Entries `first..first + count` are invalid.
    Invalid {
        /// Index of the first entry.
        first: u64,
        /// Number of entries (at least 1).
        count: u64,
    },
    /// Entry `index` points to a next-level table.
    Table {
        /// Entry index.
        index: u64,
        /// Physical address of the next-level table page.
        next: PhysAddr,
    },
    /// Entries `first..first + count` are leaves with equal decoded
    /// permissions and contiguous outputs: leaf `k` maps
    /// `out + k * leaf_span(level)`.
    Leaves {
        /// Index of the first leaf.
        first: u64,
        /// Number of leaves (at least 1).
        count: u64,
        /// Output address of the first leaf.
        out: PhysAddr,
        /// Permissions shared by every leaf of the run.
        perms: PagePerms,
    },
}

/// Splits a table read whole at translation `level` into maximal runs,
/// in index order: the runs partition the table's 512 entries, and two
/// neighbouring leaves share a run exactly when [`Descriptor::decode`]
/// gives them equal permissions and contiguous outputs.
///
/// Most neighbours in a run differ only by one span in the address
/// field, so the splitter first compares raw words and decodes only
/// where that test fails.
pub fn split_table(
    entries: &[u64; ENTRIES_PER_TABLE],
    level: u32,
) -> impl Iterator<Item = TableRun> + '_ {
    let span = leaf_span(level);
    let mut start = 0;
    std::iter::from_fn(move || {
        let (&raw, rest) = entries.get(start..)?.split_first()?;
        let first = start as u64;
        let (run, count) = match Descriptor::decode(raw, level) {
            Descriptor::Invalid => {
                let count = 1 + rest.iter().take_while(|&&w| w & desc::VALID == 0).count() as u64;
                (TableRun::Invalid { first, count }, count)
            }
            Descriptor::Table { next } => (TableRun::Table { index: first, next }, 1),
            Descriptor::Leaf { out, perms } => {
                let mut count = 1;
                let mut prev = raw;
                for &w in rest {
                    // Same attribute and ignored bits, output one span
                    // on; the XOR rejects an add that carried out of
                    // the address field.
                    let fast = w == prev.wrapping_add(span) && (w ^ prev) & !desc::ADDR_MASK == 0;
                    let next = Descriptor::Leaf {
                        out: PhysAddr::new(out.raw() + count * span),
                        perms,
                    };
                    if !fast && Descriptor::decode(w, level) != next {
                        break;
                    }
                    prev = w;
                    count += 1;
                }
                let run = TableRun::Leaves {
                    first,
                    count,
                    out,
                    perms,
                };
                (run, count)
            }
        };
        start += count as usize;
        Some(run)
    })
}

/// Why a walk failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalkFault {
    /// A descriptor on the path was invalid.
    Translation {
        /// Level of the invalid descriptor.
        level: u32,
    },
}

impl std::fmt::Display for WalkFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Translation { level } => {
                write!(f, "translation fault at level {level}")
            }
        }
    }
}

impl std::error::Error for WalkFault {}

/// The result of a successful walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkResult {
    /// Output address of the leaf, with the input offset folded in.
    pub out: PhysAddr,
    /// Leaf permissions.
    pub perms: PagePerms,
    /// Level at which the leaf was found (3 for a 4 KiB page).
    pub level: u32,
    /// Physical addresses of every descriptor read during the walk — the
    /// MMU charges one memory access per element, and under nested paging
    /// each of these itself requires a stage-2 translation.
    pub accesses: Vec<PhysAddr>,
}

fn table_index(input: u64, level: u32) -> usize {
    ((input >> (PAGE_SHIFT + 9 * (LEVELS - 1 - level))) & 0x1FF) as usize
}

/// Bytes one leaf maps at `level`: a 4 KiB page at L3, a 2 MiB block
/// at L2, a 1 GiB block at L1.
pub fn leaf_span(level: u32) -> u64 {
    1u64 << (PAGE_SHIFT + 9 * (LEVELS - 1 - level))
}

fn block_offset_mask(level: u32) -> u64 {
    leaf_span(level) - 1
}

/// Physical address of the descriptor for `input` at `level` within
/// `table`.
pub fn entry_addr(table: PhysAddr, input: u64, level: u32) -> PhysAddr {
    table.add(table_index(input, level) as u64 * 8)
}

/// Walks the table rooted at `root` for the 48-bit `input` address.
///
/// The input is a raw 48-bit value: a [`crate::addr::VirtAddr`] for stage-1
/// and EL2 walks, an [`crate::addr::IntermAddr`] for stage-2 walks. The
/// caller is responsible for masking off any upper tag bits (TTBR1
/// addresses keep only their low 48 bits).
///
/// # Errors
///
/// Returns [`WalkFault::Translation`] if any descriptor on the path is
/// invalid. The accesses performed before the fault are lost to the caller;
/// fault cost is charged separately by the MMU.
pub fn walk<M: PtMemory + ?Sized>(
    mem: &mut M,
    root: PhysAddr,
    input: u64,
) -> Result<WalkResult, WalkFault> {
    let input = input & ((1u64 << 48) - 1);
    let mut table = root;
    let mut accesses = Vec::with_capacity(LEVELS as usize);
    for level in 0..LEVELS {
        let eaddr = entry_addr(table, input, level);
        accesses.push(eaddr);
        let raw = mem.read_pt(eaddr);
        match Descriptor::decode(raw, level) {
            Descriptor::Invalid => return Err(WalkFault::Translation { level }),
            Descriptor::Table { next } => table = next,
            Descriptor::Leaf { out, perms } => {
                let off = input & block_offset_mask(level);
                return Ok(WalkResult {
                    out: out.add(off),
                    perms,
                    level,
                    accesses,
                });
            }
        }
    }
    unreachable!("level-3 descriptors always decode to Leaf or Invalid")
}

/// One planned descriptor write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryWrite {
    /// Page-aligned physical address of the table containing the entry.
    pub table: PhysAddr,
    /// Entry index within the table.
    pub index: usize,
    /// Raw descriptor value to store.
    pub value: u64,
}

impl EntryWrite {
    /// Physical address of the descriptor itself.
    pub fn addr(&self) -> PhysAddr {
        self.table.add(self.index as u64 * 8)
    }
}

/// A planned mapping operation: the table pages that must be freshly
/// allocated (and zeroed) plus the descriptor writes to perform, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapPlan {
    /// Fresh table pages consumed from the allocator (already linked into
    /// the plan's writes).
    pub new_tables: Vec<PhysAddr>,
    /// Descriptor writes to perform, in order.
    pub writes: Vec<EntryWrite>,
}

/// Error returned when a mapping plan cannot be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The walk hit a block mapping above the requested level, which would
    /// need splitting (not supported by the planner).
    BlockInTheWay {
        /// Level of the offending block descriptor.
        level: u32,
    },
    /// The allocator ran out of pages for intermediate tables.
    OutOfTablePages,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BlockInTheWay { level } => {
                write!(
                    f,
                    "existing block mapping at level {level} blocks the request"
                )
            }
            Self::OutOfTablePages => write!(f, "no free pages for intermediate tables"),
        }
    }
}

impl std::error::Error for MapError {}

/// Plans the descriptor writes needed to map `input` → `out` with `perms`
/// as a leaf at `leaf_level` (3 = 4 KiB page, 2 = 2 MiB section, 1 = 1 GiB
/// block). Intermediate tables are taken from `alloc_table`; the planner
/// assumes those pages are zero-filled.
///
/// The plan only *describes* the writes — nothing is modified. This lets
/// the kernel route the writes through hypercalls under Hypernel.
///
/// # Errors
///
/// * [`MapError::BlockInTheWay`] if a larger mapping already covers the
///   range.
/// * [`MapError::OutOfTablePages`] if `alloc_table` returns `None`.
pub fn plan_map<M: PtMemory + ?Sized>(
    mem: &mut M,
    root: PhysAddr,
    input: u64,
    out: PhysAddr,
    perms: PagePerms,
    leaf_level: u32,
    alloc_table: &mut dyn FnMut() -> Option<PhysAddr>,
) -> Result<MapPlan, MapError> {
    assert!(
        (1..LEVELS).contains(&leaf_level),
        "leaf level must be 1..=3"
    );
    let input = input & ((1u64 << 48) - 1);
    let mut plan = MapPlan::default();
    let mut table = root;
    for level in 0..leaf_level {
        let eaddr = entry_addr(table, input, level);
        let raw = mem.read_pt(eaddr);
        match Descriptor::decode(raw, level) {
            Descriptor::Table { next } => table = next,
            Descriptor::Invalid => {
                let fresh = alloc_table().ok_or(MapError::OutOfTablePages)?;
                plan.new_tables.push(fresh);
                plan.writes.push(EntryWrite {
                    table,
                    index: table_index(input, level),
                    value: Descriptor::Table { next: fresh }.encode(),
                });
                table = fresh;
            }
            Descriptor::Leaf { .. } => return Err(MapError::BlockInTheWay { level }),
        }
    }
    plan.writes.push(EntryWrite {
        table,
        index: table_index(input, leaf_level),
        value: Descriptor::Leaf { out, perms }.encode(),
    });
    Ok(plan)
}

/// Plans the single descriptor write that unmaps the leaf covering
/// `input`, or `None` if the address is not mapped.
pub fn plan_unmap<M: PtMemory + ?Sized>(
    mem: &mut M,
    root: PhysAddr,
    input: u64,
) -> Option<EntryWrite> {
    let input = input & ((1u64 << 48) - 1);
    let mut table = root;
    for level in 0..LEVELS {
        let eaddr = entry_addr(table, input, level);
        let raw = mem.read_pt(eaddr);
        match Descriptor::decode(raw, level) {
            Descriptor::Invalid => return None,
            Descriptor::Table { next } => table = next,
            Descriptor::Leaf { .. } => {
                return Some(EntryWrite {
                    table,
                    index: table_index(input, level),
                    value: 0,
                })
            }
        }
    }
    None
}

/// Plans a permissions change on the existing leaf covering `input`,
/// preserving the output address. Returns `None` if unmapped.
pub fn plan_protect<M: PtMemory + ?Sized>(
    mem: &mut M,
    root: PhysAddr,
    input: u64,
    perms: PagePerms,
) -> Option<EntryWrite> {
    let input = input & ((1u64 << 48) - 1);
    let mut table = root;
    for level in 0..LEVELS {
        let eaddr = entry_addr(table, input, level);
        let raw = mem.read_pt(eaddr);
        match Descriptor::decode(raw, level) {
            Descriptor::Invalid => return None,
            Descriptor::Table { next } => table = next,
            Descriptor::Leaf { out, .. } => {
                return Some(EntryWrite {
                    table,
                    index: table_index(input, level),
                    value: Descriptor::Leaf { out, perms }.encode(),
                })
            }
        }
    }
    None
}

/// Applies an entry write directly to physical memory. Used by trusted
/// contexts (boot code, Hypersec after verification); the untrusted kernel
/// under Hypernel must go through hypercalls instead.
pub fn apply_entry_write<M: PtMemory + ?Sized>(mem: &mut M, write: EntryWrite) {
    mem.write_pt(write.addr(), write.value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    struct TableAlloc {
        next: u64,
        limit: u64,
    }

    impl TableAlloc {
        fn new(base: u64, pages: u64) -> Self {
            Self {
                next: base,
                limit: base + pages * PAGE_SIZE,
            }
        }
        fn take(&mut self) -> Option<PhysAddr> {
            if self.next >= self.limit {
                return None;
            }
            let pa = PhysAddr::new(self.next);
            self.next += PAGE_SIZE;
            Some(pa)
        }
    }

    fn map(
        mem: &mut PhysMemory,
        root: PhysAddr,
        alloc: &mut TableAlloc,
        va: u64,
        pa: PhysAddr,
        perms: PagePerms,
        level: u32,
    ) -> MapPlan {
        let plan = plan_map(mem, root, va, pa, perms, level, &mut || alloc.take())
            .expect("planning must succeed");
        for w in &plan.writes {
            apply_entry_write(mem, *w);
        }
        plan
    }

    #[test]
    fn map_then_walk_page() {
        let mut mem = PhysMemory::new(1 << 24);
        let root = PhysAddr::new(0x10_0000);
        let mut alloc = TableAlloc::new(0x20_0000, 16);
        let va = 0x0000_1234_5000u64;
        map(
            &mut mem,
            root,
            &mut alloc,
            va,
            PhysAddr::new(0x4_2000),
            PagePerms::KERNEL_DATA,
            3,
        );
        let res = walk(&mut mem, root, va + 0x123).expect("mapped");
        assert_eq!(res.out, PhysAddr::new(0x4_2123));
        assert_eq!(res.level, 3);
        assert_eq!(res.accesses.len(), 4);
        assert!(res.perms.write);
        assert!(!res.perms.user);
    }

    #[test]
    fn walk_unmapped_faults_at_root() {
        let mut mem = PhysMemory::new(1 << 20);
        let root = PhysAddr::new(0x1000);
        let err = walk(&mut mem, root, 0xABCDE000).unwrap_err();
        assert_eq!(err, WalkFault::Translation { level: 0 });
        assert_eq!(err.to_string(), "translation fault at level 0");
    }

    #[test]
    fn section_mapping_walks_in_three_accesses() {
        let mut mem = PhysMemory::new(1 << 24);
        let root = PhysAddr::new(0x10_0000);
        let mut alloc = TableAlloc::new(0x20_0000, 16);
        let va = 0x0000_4000_0000u64; // 2 MiB aligned
        map(
            &mut mem,
            root,
            &mut alloc,
            va,
            PhysAddr::new(0x80_0000),
            PagePerms::KERNEL_DATA,
            2,
        );
        let res = walk(&mut mem, root, va + 0x12_3456).expect("mapped");
        assert_eq!(res.out, PhysAddr::new(0x92_3456));
        assert_eq!(res.level, 2);
        assert_eq!(res.accesses.len(), 3);
    }

    #[test]
    fn second_map_in_same_table_allocates_nothing() {
        let mut mem = PhysMemory::new(1 << 24);
        let root = PhysAddr::new(0x10_0000);
        let mut alloc = TableAlloc::new(0x20_0000, 16);
        let p1 = map(
            &mut mem,
            root,
            &mut alloc,
            0x1000,
            PhysAddr::new(0x5000),
            PagePerms::USER_DATA,
            3,
        );
        assert_eq!(p1.new_tables.len(), 3); // L1, L2, L3 tables
        let p2 = map(
            &mut mem,
            root,
            &mut alloc,
            0x2000,
            PhysAddr::new(0x6000),
            PagePerms::USER_DATA,
            3,
        );
        assert!(p2.new_tables.is_empty());
        assert_eq!(p2.writes.len(), 1);
    }

    #[test]
    fn unmap_then_fault() {
        let mut mem = PhysMemory::new(1 << 24);
        let root = PhysAddr::new(0x10_0000);
        let mut alloc = TableAlloc::new(0x20_0000, 16);
        map(
            &mut mem,
            root,
            &mut alloc,
            0x3000,
            PhysAddr::new(0x7000),
            PagePerms::KERNEL_DATA,
            3,
        );
        let w = plan_unmap(&mut mem, root, 0x3000).expect("mapped");
        apply_entry_write(&mut mem, w);
        assert!(walk(&mut mem, root, 0x3000).is_err());
        assert!(plan_unmap(&mut mem, root, 0x3000).is_none());
    }

    #[test]
    fn protect_changes_perms_only() {
        let mut mem = PhysMemory::new(1 << 24);
        let root = PhysAddr::new(0x10_0000);
        let mut alloc = TableAlloc::new(0x20_0000, 16);
        map(
            &mut mem,
            root,
            &mut alloc,
            0x3000,
            PhysAddr::new(0x7000),
            PagePerms::KERNEL_DATA,
            3,
        );
        let w = plan_protect(&mut mem, root, 0x3000, PagePerms::KERNEL_RO).expect("mapped");
        apply_entry_write(&mut mem, w);
        let res = walk(&mut mem, root, 0x3000).expect("still mapped");
        assert_eq!(res.out, PhysAddr::new(0x7000));
        assert!(!res.perms.write);
    }

    #[test]
    fn block_in_the_way() {
        let mut mem = PhysMemory::new(1 << 24);
        let root = PhysAddr::new(0x10_0000);
        let mut alloc = TableAlloc::new(0x20_0000, 16);
        map(
            &mut mem,
            root,
            &mut alloc,
            0x4000_0000,
            PhysAddr::new(0x80_0000),
            PagePerms::KERNEL_DATA,
            2,
        );
        let err = plan_map(
            &mut mem,
            root,
            0x4000_0000,
            PhysAddr::new(0x9000),
            PagePerms::KERNEL_DATA,
            3,
            &mut || alloc.take(),
        )
        .unwrap_err();
        assert_eq!(err, MapError::BlockInTheWay { level: 2 });
    }

    #[test]
    fn allocator_exhaustion() {
        let mut mem = PhysMemory::new(1 << 24);
        let root = PhysAddr::new(0x10_0000);
        let mut alloc = TableAlloc::new(0x20_0000, 1);
        let err = plan_map(
            &mut mem,
            root,
            0x1000,
            PhysAddr::new(0x5000),
            PagePerms::KERNEL_DATA,
            3,
            &mut || alloc.take(),
        )
        .unwrap_err();
        assert_eq!(err, MapError::OutOfTablePages);
    }

    #[test]
    fn descriptor_roundtrip() {
        for d in [
            Descriptor::Invalid,
            Descriptor::Table {
                next: PhysAddr::new(0xABC000),
            },
            Descriptor::Leaf {
                out: PhysAddr::new(0xDEF000),
                perms: PagePerms {
                    write: false,
                    exec: true,
                    user: true,
                    cacheable: false,
                },
            },
        ] {
            let level = 1;
            assert_eq!(Descriptor::decode(d.encode(), level), d);
        }
    }

    #[test]
    fn decode_never_yields_a_table_at_level_3() {
        let table = Descriptor::Table {
            next: PhysAddr::new(0xABC000),
        }
        .encode();
        assert!(matches!(
            Descriptor::decode(table, 2),
            Descriptor::Table { .. }
        ));
        assert_eq!(
            Descriptor::decode(table, 3),
            Descriptor::Leaf {
                out: PhysAddr::new(0xABC000),
                perms: PagePerms::from_bits(0),
            }
        );
        let mut rng = SplitMix(3);
        for _ in 0..10_000 {
            let raw = rng.next() | desc::VALID | desc::TABLE;
            assert!(matches!(
                Descriptor::decode(raw, 3),
                Descriptor::Leaf { .. }
            ));
        }
    }

    /// A splitmix64 stream for seeded-random tables.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Bits [`Descriptor::decode`] ignores: 6–11 and 48–63.
    const IGNORED: u64 = 0xFFFF_0000_0000_0FC0;

    /// The split by per-entry decode: each entry joins the previous
    /// run when it decodes to the same kind and, for leaves, to equal
    /// permissions and the next output address.
    fn split_by_decode(entries: &[u64; ENTRIES_PER_TABLE], level: u32) -> Vec<TableRun> {
        let span = leaf_span(level);
        let mut runs: Vec<TableRun> = Vec::new();
        for (i, &raw) in (0u64..).zip(entries) {
            match (runs.last_mut(), Descriptor::decode(raw, level)) {
                (Some(TableRun::Invalid { count, .. }), Descriptor::Invalid) => *count += 1,
                (
                    Some(TableRun::Leaves {
                        count, out, perms, ..
                    }),
                    Descriptor::Leaf { out: o, perms: p },
                ) if *perms == p && out.raw() + *count * span == o.raw() => *count += 1,
                (_, Descriptor::Invalid) => runs.push(TableRun::Invalid { first: i, count: 1 }),
                (_, Descriptor::Table { next }) => runs.push(TableRun::Table { index: i, next }),
                (_, Descriptor::Leaf { out, perms }) => runs.push(TableRun::Leaves {
                    first: i,
                    count: 1,
                    out,
                    perms,
                }),
            }
        }
        runs
    }

    /// A table of random stretches: invalid words with stray bits,
    /// table pointers, and leaf runs whose ignored bits, TABLE bit and
    /// contiguity are perturbed at random, some starting near the top
    /// of the address field.
    fn random_table(rng: &mut SplitMix, level: u32) -> [u64; ENTRIES_PER_TABLE] {
        let span = leaf_span(level);
        let mut entries = [0u64; ENTRIES_PER_TABLE];
        let mut i = 0;
        while i < ENTRIES_PER_TABLE {
            let len = (1 + rng.below(80) as usize).min(ENTRIES_PER_TABLE - i);
            match rng.below(4) {
                0 => {
                    for e in &mut entries[i..i + len] {
                        *e = rng.next() & !desc::VALID;
                    }
                }
                1 => entries[i] = rng.next() | desc::VALID | desc::TABLE,
                _ => {
                    let top = rng.below(4) == 0;
                    let mut out = if top {
                        desc::ADDR_MASK - rng.below(4) * span
                    } else {
                        rng.next()
                    } & desc::ADDR_MASK;
                    let attrs = rng.next() & 0x3C | desc::VALID;
                    let ignored = rng.next() & IGNORED;
                    for e in &mut entries[i..i + len] {
                        let mut raw = out | attrs | ignored;
                        if rng.below(8) == 0 {
                            raw ^= rng.next() & IGNORED;
                        }
                        if rng.below(8) == 0 {
                            raw |= desc::TABLE;
                        }
                        if rng.below(32) == 0 {
                            raw ^= 1 << (2 + rng.below(4));
                        }
                        *e = raw;
                        out = (out + span) & desc::ADDR_MASK;
                        if rng.below(32) == 0 {
                            out = (out + span) & desc::ADDR_MASK;
                        }
                    }
                }
            }
            i += len;
        }
        entries
    }

    #[test]
    fn split_table_equals_the_per_entry_decode_on_random_tables() {
        let mut rng = SplitMix(11);
        for level in 0..LEVELS {
            for _ in 0..200 {
                let entries = random_table(&mut rng, level);
                let runs: Vec<TableRun> = split_table(&entries, level).collect();
                assert_eq!(runs, split_by_decode(&entries, level), "level {level}");
            }
        }
    }

    fn leaf_word(out: u64, perms: PagePerms) -> u64 {
        Descriptor::Leaf {
            out: PhysAddr::new(out),
            perms,
        }
        .encode()
    }

    #[test]
    fn ignored_bits_inside_a_run_do_not_split_it() {
        let mut entries = [0u64; ENTRIES_PER_TABLE];
        for (k, e) in (0u64..).zip(&mut entries[10..20]) {
            *e = leaf_word(0x40_0000 + k * 0x1000, PagePerms::KERNEL_DATA) | (k << 6) | (k << 50);
        }
        let runs: Vec<TableRun> = split_table(&entries, 3).collect();
        assert_eq!(runs, split_by_decode(&entries, 3));
        assert_eq!(
            runs[1],
            TableRun::Leaves {
                first: 10,
                count: 10,
                out: PhysAddr::new(0x40_0000),
                perms: PagePerms::KERNEL_DATA,
            }
        );
    }

    #[test]
    fn an_add_that_carries_out_of_the_address_field_splits_the_run() {
        for level in 0..LEVELS {
            let span = leaf_span(level);
            let last = desc::ADDR_MASK & !(span - 1);
            for high in [0, IGNORED & !0xFC0] {
                let mut entries = [0u64; ENTRIES_PER_TABLE];
                entries[0] = leaf_word(last, PagePerms::KERNEL_RO) | high;
                // The raw successor: the address field wraps to 0 and
                // the carry lands in the ignored bits (or wraps the
                // whole word when they are all set).
                entries[1] = entries[0].wrapping_add(span);
                let runs: Vec<TableRun> = split_table(&entries, level).collect();
                assert_eq!(runs, split_by_decode(&entries, level), "level {level}");
                if entries[1] & desc::VALID != 0 {
                    assert!(matches!(runs[1], TableRun::Leaves { first: 1, .. }));
                }
            }
        }
    }

    #[test]
    fn the_table_bit_at_level_3_is_a_leaf_bit() {
        let mut entries = [0u64; ENTRIES_PER_TABLE];
        for (k, e) in (0u64..).zip(&mut entries[..4]) {
            *e = leaf_word(0x8000 + k * 0x1000, PagePerms::from_bits(0)) | ((k % 2) * desc::TABLE);
        }
        let leaves: Vec<TableRun> = split_table(&entries, 3).collect();
        assert_eq!(
            leaves[0],
            TableRun::Leaves {
                first: 0,
                count: 4,
                out: PhysAddr::new(0x8000),
                perms: PagePerms::from_bits(0),
            }
        );
        let tables: Vec<TableRun> = split_table(&entries, 2).collect();
        assert_eq!(tables, split_by_decode(&entries, 2));
        assert_eq!(
            tables[1],
            TableRun::Table {
                index: 1,
                next: PhysAddr::new(0x9000),
            }
        );
    }

    #[test]
    fn full_and_empty_tables_are_one_run() {
        for level in 0..LEVELS {
            let span = leaf_span(level);
            let mut entries = [0u64; ENTRIES_PER_TABLE];
            for (k, e) in (0u64..).zip(&mut entries) {
                *e = leaf_word(k * span, PagePerms::USER_DATA);
            }
            let full: Vec<TableRun> = split_table(&entries, level).collect();
            assert_eq!(
                full,
                [TableRun::Leaves {
                    first: 0,
                    count: 512,
                    out: PhysAddr::new(0),
                    perms: PagePerms::USER_DATA,
                }]
            );
            let empty: Vec<TableRun> = split_table(&[0; ENTRIES_PER_TABLE], level).collect();
            assert_eq!(
                empty,
                [TableRun::Invalid {
                    first: 0,
                    count: 512
                }]
            );
        }
    }

    #[test]
    fn perms_bits_roundtrip() {
        for &p in &[
            PagePerms::KERNEL_DATA,
            PagePerms::KERNEL_TEXT,
            PagePerms::KERNEL_RO,
            PagePerms::USER_DATA,
            PagePerms::KERNEL_DATA_NC,
        ] {
            assert_eq!(PagePerms::from_bits(p.to_bits()), p);
        }
    }

    #[test]
    fn kernel_va_upper_bits_are_masked() {
        let mut mem = PhysMemory::new(1 << 24);
        let root = PhysAddr::new(0x10_0000);
        let mut alloc = TableAlloc::new(0x20_0000, 16);
        let kva = crate::addr::KERNEL_VA_BASE + 0x5000;
        map(
            &mut mem,
            root,
            &mut alloc,
            kva,
            PhysAddr::new(0x9000),
            PagePerms::KERNEL_DATA,
            3,
        );
        let res = walk(&mut mem, root, kva).expect("mapped");
        assert_eq!(res.out, PhysAddr::new(0x9000));
    }
}
