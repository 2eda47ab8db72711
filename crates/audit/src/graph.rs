//! The snapshot walker: from a paused machine, rebuild the full
//! stage-1 mapping graph reachable from a set of translation roots.
//!
//! The walker reads each table page once with
//! `Machine::debug_read_table` (cache coherent, zero simulated cycles,
//! no architectural effect) and is cycle-safe: a table revisited along
//! one root's walk is not descended into again, so a maliciously
//! self-referencing table terminates instead of recursing forever.
//!
//! The graph is O(tables), not O(leaves). Every table visit becomes a
//! [`TableNode`] that links to its parent, so the *descriptor chain* —
//! `(table, index)` links from the root down — of any entry is rebuilt
//! on demand by [`MappingGraph::chain`], only for the few entries a
//! finding names. Consecutive leaves of one table with contiguous
//! outputs and equal permissions collapse into one [`LeafRun`], as
//! `pagetable::split_table` splits the table; the kernel linear map is
//! about one run per level-3 table instead of half a million leaves.

use std::collections::HashSet;

use hypernel_machine::addr::PhysAddr;
use hypernel_machine::machine::Machine;
use hypernel_machine::pagetable::{self, desc, PagePerms, TableRun};

/// How a root entered the walk — provenance shown in findings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RootOrigin {
    /// The live `TTBR1_EL1` value (kernel half).
    ActiveTtbr1,
    /// The live `TTBR0_EL1` value (user half, ASID stripped).
    ActiveTtbr0,
    /// A root the kernel's own bookkeeping knows about.
    KernelKnown,
    /// A root in Hypersec's verified set.
    HypervisorVerified,
}

impl RootOrigin {
    /// Stable lower-case name for diagnostics and JSON.
    pub fn name(self) -> &'static str {
        match self {
            RootOrigin::ActiveTtbr1 => "active-ttbr1",
            RootOrigin::ActiveTtbr0 => "active-ttbr0",
            RootOrigin::KernelKnown => "kernel-known",
            RootOrigin::HypervisorVerified => "hypervisor-verified",
        }
    }
}

/// One translation root fed to the walker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootSpec {
    /// Physical address of the level-0 table.
    pub pa: PhysAddr,
    /// `true` for the kernel half (linear-identity rules apply).
    pub kernel_space: bool,
    /// Every provenance this root was seen with (deduplicated).
    pub origins: Vec<RootOrigin>,
}

/// One `(table, index)` step of a descriptor chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainLink {
    /// Physical address of the table page holding the descriptor.
    pub table: PhysAddr,
    /// Entry index within the table (0..512).
    pub index: u64,
}

impl std::fmt::Display for ChainLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.table, self.index)
    }
}

/// Renders a descriptor chain as `root[i] -> table[j] -> ...`.
pub fn chain_display(chain: &[ChainLink]) -> String {
    chain
        .iter()
        .map(ChainLink::to_string)
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// One visit of a table page: the first time a root's walk reaches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableNode {
    /// Physical address of the table page.
    pub table: PhysAddr,
    /// Index into [`MappingGraph::roots`] of the root whose walk
    /// reached this table.
    pub root: usize,
    /// The parent node and the entry in it that points here; `None`
    /// for the root table itself.
    pub parent: Option<(usize, u64)>,
}

/// Consecutive leaves of one table whose output addresses are
/// contiguous and whose permissions and span are equal. Leaf `k` of
/// the run is entry `first + k`, maps `va + k * span` to
/// `out + k * span`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafRun {
    /// The table visit holding the run (index into
    /// [`MappingGraph::nodes`]).
    pub node: usize,
    /// Entry index of the first leaf.
    pub first: u64,
    /// Number of leaves (at least 1).
    pub count: u64,
    /// Virtual address of the first leaf.
    pub va: u64,
    /// Output physical address of the first leaf.
    pub out: PhysAddr,
    /// Bytes covered by each leaf (4 KiB page or a 2 MiB / 1 GiB block).
    pub span: u64,
    /// Decoded permissions, shared by every leaf of the run.
    pub perms: PagePerms,
}

impl LeafRun {
    /// End (exclusive) of the physical range the run maps.
    pub fn out_end(&self) -> u64 {
        self.out.raw() + self.count * self.span
    }

    /// The `k`-th leaf of the run.
    pub(crate) fn leaf(&self, k: u64, kernel_space: bool) -> LeafRecord {
        LeafRecord {
            node: self.node,
            index: self.first + k,
            kernel_space,
            va: self.va + k * self.span,
            out: self.out.add(k * self.span),
            span: self.span,
            perms: self.perms,
        }
    }

    /// The whole run as one wide leaf: every per-leaf check is a
    /// constant or an overlap test on `[out, out + span)`, so it fires
    /// on the wide leaf exactly when it fires on some leaf of the run.
    pub(crate) fn as_wide_leaf(&self, kernel_space: bool) -> LeafRecord {
        LeafRecord {
            span: self.count * self.span,
            ..self.leaf(0, kernel_space)
        }
    }
}

/// One reachable leaf mapping; its chain is
/// [`MappingGraph::chain`]`(node, index)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafRecord {
    /// The table visit holding the leaf.
    pub node: usize,
    /// Entry index of the leaf within its table.
    pub index: u64,
    /// Whether the leaf was reached from a kernel-half root.
    pub kernel_space: bool,
    /// Virtual address the leaf maps.
    pub va: u64,
    /// Output physical address.
    pub out: PhysAddr,
    /// Bytes covered (4 KiB page or a 2 MiB / 1 GiB block).
    pub span: u64,
    /// Decoded permissions.
    pub perms: PagePerms,
}

/// The reconstructed mapping graph of a paused machine.
#[derive(Clone, Debug, Default)]
pub struct MappingGraph {
    /// The roots that were walked, in walk order.
    pub roots: Vec<RootSpec>,
    /// Every table visit, in walk order (one per table per root).
    pub nodes: Vec<TableNode>,
    /// Every table page visited, sorted and deduplicated.
    pub tables: Vec<PhysAddr>,
    /// Every reachable leaf, as runs in deterministic walk order.
    pub runs: Vec<LeafRun>,
}

impl MappingGraph {
    /// Walks every root and returns the graph. Deterministic: roots are
    /// walked in the order given, entries in index order.
    pub fn walk(m: &mut Machine, roots: &[RootSpec]) -> Self {
        let mut graph = MappingGraph {
            roots: roots.to_vec(),
            ..MappingGraph::default()
        };
        for (root, spec) in roots.iter().enumerate() {
            let mut visited: HashSet<u64> = HashSet::new();
            graph.walk_table(m, root, spec.pa, None, 0, 0, &mut visited);
        }
        graph.tables = graph.nodes.iter().map(|n| n.table).collect();
        graph.tables.sort_unstable();
        graph.tables.dedup();
        graph
    }

    #[allow(clippy::too_many_arguments)] // internal recursion carries the whole walk state
    fn walk_table(
        &mut self,
        m: &mut Machine,
        root: usize,
        table: PhysAddr,
        parent: Option<(usize, u64)>,
        level: u32,
        va_base: u64,
        visited: &mut HashSet<u64>,
    ) {
        if !visited.insert(table.raw()) {
            return; // cycle (or diamond) — already walked under this root
        }
        let node = self.nodes.len();
        self.nodes.push(TableNode {
            table,
            root,
            parent,
        });
        let span = pagetable::leaf_span(level);
        let entries = m.debug_read_table(table);
        for run in pagetable::split_table(&entries, level) {
            match run {
                TableRun::Invalid { .. } => {}
                TableRun::Table { index, next } => {
                    let va = va_base | (index * span);
                    self.walk_table(m, root, next, Some((node, index)), level + 1, va, visited);
                }
                TableRun::Leaves {
                    first,
                    count,
                    out,
                    perms,
                } => self.runs.push(LeafRun {
                    node,
                    first,
                    count,
                    va: va_base | (first * span),
                    out,
                    span,
                    perms,
                }),
            }
        }
    }

    /// The descriptor chain from the root down to entry `index` of
    /// table visit `node`.
    pub fn chain(&self, node: usize, index: u64) -> Vec<ChainLink> {
        let mut chain = vec![ChainLink {
            table: self.nodes[node].table,
            index,
        }];
        let mut at = node;
        while let Some((parent, index)) = self.nodes[at].parent {
            chain.push(ChainLink {
                table: self.nodes[parent].table,
                index,
            });
            at = parent;
        }
        chain.reverse();
        chain
    }

    /// Whether `run` was reached from a kernel-half root.
    pub fn kernel_space(&self, run: &LeafRun) -> bool {
        self.roots[self.nodes[run.node].root].kernel_space
    }

    /// The leaves of `run`, in walk order.
    pub fn leaves(&self, run: &LeafRun) -> impl Iterator<Item = LeafRecord> {
        let (run, kernel_space) = (*run, self.kernel_space(run));
        (0..run.count).map(move |k| run.leaf(k, kernel_space))
    }

    /// Number of reachable leaves (each run counts all of its leaves).
    pub fn leaf_count(&self) -> u64 {
        self.runs.iter().map(|r| r.count).sum()
    }

    /// Every table page reached from a root seen with `origin`, sorted
    /// and deduplicated.
    pub fn tables_from(&self, origin: RootOrigin) -> Vec<PhysAddr> {
        let mut tables: Vec<PhysAddr> = self
            .nodes
            .iter()
            .filter(|n| self.roots[n.root].origins.contains(&origin))
            .map(|n| n.table)
            .collect();
        tables.sort_unstable();
        tables.dedup();
        tables
    }
}

/// Strips the ASID field from a raw `TTBRn_EL1` value, leaving the
/// table base.
pub fn ttbr_base(raw: u64) -> PhysAddr {
    PhysAddr::new(raw & desc::ADDR_MASK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypernel_machine::machine::MachineConfig;
    use hypernel_machine::pagetable::{desc as d, Descriptor};

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            dram_size: 8 << 20,
            ..MachineConfig::default()
        })
    }

    fn table_desc(next: u64) -> u64 {
        next | d::VALID | d::TABLE
    }

    fn leaf_desc(out: u64, perms: PagePerms) -> u64 {
        Descriptor::Leaf {
            out: PhysAddr::new(out),
            perms,
        }
        .encode()
    }

    fn root(pa: u64) -> [RootSpec; 1] {
        [RootSpec {
            pa: PhysAddr::new(pa),
            kernel_space: true,
            origins: vec![RootOrigin::ActiveTtbr1],
        }]
    }

    /// root(0x1000) -> l1(0x2000) -> l2(0x3000) -> l3(0x4000).
    fn four_levels(m: &mut Machine) {
        for t in [0x1000u64, 0x2000, 0x3000, 0x4000] {
            m.debug_zero_page(PhysAddr::new(t));
        }
        m.debug_write_phys(PhysAddr::new(0x1000), table_desc(0x2000));
        m.debug_write_phys(PhysAddr::new(0x2000), table_desc(0x3000));
        m.debug_write_phys(PhysAddr::new(0x3000), table_desc(0x4000));
    }

    #[test]
    fn walks_chain_and_records_leaf() {
        let mut m = machine();
        four_levels(&mut m);
        m.debug_write_phys(
            PhysAddr::new(0x4000 + 7 * 8),
            leaf_desc(0x5000, PagePerms::KERNEL_DATA),
        );
        let g = MappingGraph::walk(&mut m, &root(0x1000));
        assert_eq!(g.tables.len(), 4);
        assert_eq!(g.leaf_count(), 1);
        let l = g.leaves(&g.runs[0]).next().expect("one leaf");
        assert_eq!(l.out, PhysAddr::new(0x5000));
        assert_eq!(l.va, 7 << 12);
        assert_eq!(l.span, 4096);
        let chain = g.chain(l.node, l.index);
        assert_eq!(chain.len(), 4);
        assert_eq!(chain[0].table, PhysAddr::new(0x1000));
        assert_eq!(chain[3].index, 7);
        assert!(chain_display(&chain).contains("[7]"));
    }

    #[test]
    fn contiguous_equal_leaves_merge_and_breaks_split_runs() {
        let mut m = machine();
        four_levels(&mut m);
        // Entries 0..4 contiguous KERNEL_DATA; 4 changes perms; 5 is
        // contiguous again but follows the perms break; 7 skips a hole.
        let l3 = 0x4000u64;
        for i in 0..4u64 {
            m.debug_write_phys(
                PhysAddr::new(l3 + i * 8),
                leaf_desc(0x10_0000 + i * 0x1000, PagePerms::KERNEL_DATA),
            );
        }
        m.debug_write_phys(
            PhysAddr::new(l3 + 4 * 8),
            leaf_desc(0x10_4000, PagePerms::KERNEL_RO),
        );
        m.debug_write_phys(
            PhysAddr::new(l3 + 5 * 8),
            leaf_desc(0x10_5000, PagePerms::KERNEL_DATA),
        );
        m.debug_write_phys(
            PhysAddr::new(l3 + 7 * 8),
            leaf_desc(0x10_6000, PagePerms::KERNEL_DATA),
        );
        let g = MappingGraph::walk(&mut m, &root(0x1000));
        let shape: Vec<(u64, u64)> = g.runs.iter().map(|r| (r.first, r.count)).collect();
        assert_eq!(shape, [(0, 4), (4, 1), (5, 1), (7, 1)]);
        assert_eq!(g.leaf_count(), 7);
        let third = g.leaves(&g.runs[0]).nth(2).expect("leaf 2");
        assert_eq!((third.va, third.out.raw()), (2 << 12, 0x10_2000));
        assert_eq!(g.runs[0].out_end(), 0x10_4000);
    }

    #[test]
    fn self_referencing_table_terminates() {
        let mut m = machine();
        m.debug_zero_page(PhysAddr::new(0x1000));
        // Entry 0 points back at the table itself.
        m.debug_write_phys(PhysAddr::new(0x1000), table_desc(0x1000));
        let roots = [RootSpec {
            pa: PhysAddr::new(0x1000),
            kernel_space: false,
            origins: vec![RootOrigin::ActiveTtbr0],
        }];
        let g = MappingGraph::walk(&mut m, &roots);
        assert_eq!(g.tables.len(), 1);
        assert!(g.runs.is_empty());
    }

    #[test]
    fn tables_from_unions_the_roots_of_one_origin() {
        let mut m = machine();
        four_levels(&mut m);
        m.debug_zero_page(PhysAddr::new(0x6000));
        m.debug_write_phys(PhysAddr::new(0x6000), table_desc(0x3000));
        let roots = [
            RootSpec {
                pa: PhysAddr::new(0x1000),
                kernel_space: true,
                origins: vec![RootOrigin::KernelKnown],
            },
            RootSpec {
                pa: PhysAddr::new(0x6000),
                kernel_space: false,
                origins: vec![RootOrigin::HypervisorVerified],
            },
        ];
        let g = MappingGraph::walk(&mut m, &roots);
        // Each root has its own visited set: 0x3000/0x4000 are visited
        // again under the second root.
        assert_eq!(g.nodes.len(), 7);
        assert_eq!(g.tables.len(), 5);
        let verified: Vec<u64> = g
            .tables_from(RootOrigin::HypervisorVerified)
            .iter()
            .map(|t| t.raw())
            .collect();
        assert_eq!(verified, [0x3000, 0x4000, 0x6000]);
    }

    #[test]
    fn ttbr_base_strips_asid() {
        assert_eq!(ttbr_base(0x0005_0000_0000_3000), PhysAddr::new(0x3000),);
    }
}
