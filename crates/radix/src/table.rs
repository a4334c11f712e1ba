use core::fmt;
use core::ops::Deref;

use mehpt_mem::{AllocError, AllocTag, Chunk, PhysMem};
use mehpt_types::{PageSize, Ppn, VirtAddr, Vpn};

/// Entries per radix node (512 × 8B = one 4KB frame).
pub(crate) const FANOUT: usize = 512;

const TAG_NODE: u64 = 1 << 63;
const TAG_LEAF: u64 = 1 << 62;
const PAYLOAD_MASK: u64 = (1 << 62) - 1;

/// The most levels a tree has, so the most entries one walk reads.
const MAX_LEVELS: usize = 5;

/// One step of a page walk, as seen by the hardware walker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// The entry points at a next-level node.
    Node,
    /// The entry is a leaf translation.
    Leaf(Ppn, PageSize),
    /// The entry is empty: page fault.
    Empty,
}

/// The entries one page walk reads, root first: what the walker finds at
/// each. At most [`MAX_LEVELS`] steps, held inline so a walk allocates
/// nothing.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WalkPath {
    steps: [Step; MAX_LEVELS],
    len: usize,
}

impl WalkPath {
    fn push(&mut self, step: Step) {
        self.steps[self.len] = step;
        self.len += 1;
    }
}

impl Deref for WalkPath {
    type Target = [Step];

    fn deref(&self) -> &[Step] {
        &self.steps[..self.len]
    }
}

/// An x86-64 radix page table: 4 levels (PGD → PUD → PMD → PTE, 48-bit VA)
/// or 5 levels (la57-style, as in Intel Sunny Cove — the scalability trend
/// the paper's introduction warns about: each extra level is another
/// dependent memory access on a cold walk).
///
/// Functionally complete: maps and unmaps 4KB, 2MB and 1GB pages (huge
/// pages terminate the tree early at the PMD or PUD level), allocates nodes
/// one 4KB frame at a time, and frees nodes that become empty. On the
/// host a node keeps only its present entries, so a sparse tree costs
/// memory in proportion to its mappings, not to its modeled frames. The timed
/// walk — with page-walk caches — lives in
/// [`RadixWalker`](crate::RadixWalker).
#[derive(Debug)]
pub struct RadixPageTable {
    /// Slot-allocated nodes; `None` marks freed slots for reuse.
    nodes: Vec<Option<Node>>,
    free_ids: Vec<usize>,
    root: usize,
    mapped_pages: u64,
    levels: usize,
}

/// One node. The model allocates it a whole 4KB frame (`chunk`); on the
/// host it holds only its nonzero entries, packed in index order, with a
/// bit per index telling which are present. An entry's place in `entries`
/// is the number of present indices below it.
#[derive(Debug)]
struct Node {
    present: [u64; FANOUT / 64],
    entries: Vec<u64>,
    chunk: Chunk,
}

impl Node {
    fn new(chunk: Chunk) -> Node {
        Node {
            present: [0; FANOUT / 64],
            entries: Vec::new(),
            chunk,
        }
    }

    /// The position entry `idx` has, or would have, in `entries`, and
    /// whether it is present.
    #[inline]
    fn rank(&self, idx: usize) -> (usize, bool) {
        let (word, bit) = (idx / 64, idx % 64);
        let below: u32 = self.present[..word].iter().map(|w| w.count_ones()).sum();
        let low = self.present[word] & ((1 << bit) - 1);
        let pos = (below + low.count_ones()) as usize;
        (pos, self.present[word] >> bit & 1 != 0)
    }

    /// Entry `idx`; 0 when empty.
    #[inline]
    fn get(&self, idx: usize) -> u64 {
        match self.rank(idx) {
            (pos, true) => self.entries[pos],
            (_, false) => 0,
        }
    }

    /// Sets entry `idx` to the nonzero `entry`.
    fn set(&mut self, idx: usize, entry: u64) {
        debug_assert_ne!(entry, 0);
        match self.rank(idx) {
            (pos, true) => self.entries[pos] = entry,
            (pos, false) => {
                self.entries.insert(pos, entry);
                self.present[idx / 64] |= 1 << (idx % 64);
            }
        }
    }

    /// Empties entry `idx`, which is present.
    fn clear(&mut self, idx: usize) {
        let (pos, present) = self.rank(idx);
        debug_assert!(present, "clearing an empty entry");
        self.entries.remove(pos);
        self.present[idx / 64] &= !(1 << (idx % 64));
    }

    /// Whether no entry is present.
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Failure to map a page.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MapError {
    /// A page-table node could not be allocated.
    Alloc(AllocError),
    /// The mapping collides with an existing one (e.g. a 4KB page inside an
    /// established 1GB mapping, or an already-mapped VPN).
    Conflict {
        /// The VPN that could not be mapped.
        vpn: Vpn,
        /// The page size of the attempted mapping.
        page_size: PageSize,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MapError::Alloc(e) => write!(f, "page-table node allocation failed: {e}"),
            MapError::Conflict { vpn, page_size } => {
                write!(f, "mapping conflict at vpn {vpn} ({page_size})")
            }
        }
    }
}

impl std::error::Error for MapError {}

impl From<AllocError> for MapError {
    fn from(e: AllocError) -> MapError {
        MapError::Alloc(e)
    }
}

impl RadixPageTable {
    /// Creates an empty 4-level table, allocating the root (PGD) node.
    ///
    /// # Errors
    ///
    /// Returns the allocation error if no 4KB frame is available.
    pub fn new(mem: &mut PhysMem) -> Result<RadixPageTable, AllocError> {
        RadixPageTable::with_levels(4, mem)
    }

    /// Creates an empty table with 4 or 5 levels. Five levels models
    /// la57-style extended paging: one more dependent access per cold walk.
    ///
    /// # Errors
    ///
    /// Returns the allocation error if no 4KB frame is available.
    ///
    /// # Panics
    ///
    /// Panics unless `levels` is 4 or 5.
    pub fn with_levels(levels: usize, mem: &mut PhysMem) -> Result<RadixPageTable, AllocError> {
        assert!(levels == 4 || levels == 5, "radix trees have 4 or 5 levels");
        let mut table = RadixPageTable {
            nodes: Vec::new(),
            free_ids: Vec::new(),
            root: 0,
            mapped_pages: 0,
            levels,
        };
        table.root = table.alloc_node(mem)?;
        Ok(table)
    }

    /// The number of tree levels (4 or 5).
    pub fn levels(&self) -> usize {
        self.levels
    }

    fn alloc_node(&mut self, mem: &mut PhysMem) -> Result<usize, AllocError> {
        let node = Node::new(mem.alloc(4096, AllocTag::PageTable)?);
        match self.free_ids.pop() {
            Some(id) => {
                self.nodes[id] = Some(node);
                Ok(id)
            }
            None => {
                self.nodes.push(Some(node));
                Ok(self.nodes.len() - 1)
            }
        }
    }

    fn free_node(&mut self, id: usize, mem: &mut PhysMem) {
        let node = self.nodes[id].take().expect("freeing a live node");
        debug_assert!(node.is_empty(), "freeing a non-empty node");
        mem.free(node.chunk);
        self.free_ids.push(id);
    }

    fn node(&self, id: usize) -> &Node {
        self.nodes[id].as_ref().expect("dangling node id")
    }

    fn node_mut(&mut self, id: usize) -> &mut Node {
        self.nodes[id].as_mut().expect("dangling node id")
    }

    /// The tree level a leaf of the given page size sits at (counted from
    /// the root: the PTE level is the deepest).
    fn leaf_level(&self, ps: PageSize) -> usize {
        self.levels
            - match ps {
                PageSize::Base4K => 1,
                PageSize::Huge2M => 2,
                PageSize::Giant1G => 3,
            }
    }

    /// The node index selected by `va` at tree `level`.
    fn index(&self, va: VirtAddr, level: usize) -> usize {
        let shift = 12 + 9 * (self.levels - 1 - level);
        ((va.0 >> shift) & 0x1ff) as usize
    }

    /// Maps `vpn` (of size `ps`) to `ppn`, allocating intermediate nodes on
    /// demand.
    ///
    /// # Errors
    ///
    /// [`MapError::Conflict`] if the slot is occupied (already mapped, or
    /// covered by a larger page, or an intermediate node sits where a huge
    /// leaf must go); [`MapError::Alloc`] if a node allocation fails.
    pub fn map(
        &mut self,
        vpn: Vpn,
        ps: PageSize,
        ppn: Ppn,
        mem: &mut PhysMem,
    ) -> Result<(), MapError> {
        let va = vpn.base_addr(ps);
        let leaf_level = self.leaf_level(ps);
        let mut node_id = self.root;
        for level in 0..leaf_level {
            let idx = self.index(va, level);
            let entry = self.node(node_id).get(idx);
            node_id = if entry == 0 {
                let child = self.alloc_node(mem)?;
                self.node_mut(node_id).set(idx, TAG_NODE | child as u64);
                child
            } else if entry & TAG_NODE != 0 {
                (entry & PAYLOAD_MASK) as usize
            } else {
                // A (huge) leaf already covers this range.
                return Err(MapError::Conflict { vpn, page_size: ps });
            };
        }
        let idx = self.index(va, leaf_level);
        let node = self.node_mut(node_id);
        if node.get(idx) != 0 {
            return Err(MapError::Conflict { vpn, page_size: ps });
        }
        node.set(idx, TAG_LEAF | ppn.0);
        self.mapped_pages += 1;
        Ok(())
    }

    /// Unmaps `vpn` (of size `ps`); returns the previous translation, if
    /// any. Nodes that become empty are freed back to physical memory.
    pub fn unmap(&mut self, vpn: Vpn, ps: PageSize, mem: &mut PhysMem) -> Option<Ppn> {
        let va = vpn.base_addr(ps);
        let leaf_level = self.leaf_level(ps);
        // Record the path for post-removal pruning.
        let mut path = Vec::with_capacity(4);
        let mut node_id = self.root;
        for level in 0..leaf_level {
            let idx = self.index(va, level);
            let entry = self.node(node_id).get(idx);
            if entry & TAG_NODE == 0 {
                return None;
            }
            path.push((node_id, idx));
            node_id = (entry & PAYLOAD_MASK) as usize;
        }
        let idx = self.index(va, leaf_level);
        let node = self.node_mut(node_id);
        let entry = node.get(idx);
        if entry & TAG_LEAF == 0 {
            return None;
        }
        node.clear(idx);
        self.mapped_pages -= 1;
        let ppn = Ppn(entry & PAYLOAD_MASK);
        // Prune now-empty nodes bottom-up (never the root).
        let mut child = node_id;
        for &(parent, pidx) in path.iter().rev() {
            if !self.node(child).is_empty() || child == self.root {
                break;
            }
            self.free_node(child, mem);
            self.node_mut(parent).clear(pidx);
            child = parent;
        }
        Some(ppn)
    }

    /// Rewrites the physical page of an existing mapping (page migration
    /// during compaction). Returns `false` if `vpn` is not mapped at `ps`.
    pub fn remap(&mut self, vpn: Vpn, ps: PageSize, ppn: Ppn) -> bool {
        let va = vpn.base_addr(ps);
        let leaf_level = self.leaf_level(ps);
        let mut node_id = self.root;
        for level in 0..leaf_level {
            let idx = self.index(va, level);
            let entry = self.node(node_id).get(idx);
            if entry & TAG_NODE == 0 {
                return false;
            }
            node_id = (entry & PAYLOAD_MASK) as usize;
        }
        let idx = self.index(va, leaf_level);
        let node = self.node_mut(node_id);
        if node.get(idx) & TAG_LEAF == 0 {
            return false;
        }
        node.set(idx, TAG_LEAF | ppn.0);
        true
    }

    /// Translates a virtual address functionally (no timing).
    pub fn translate(&self, va: VirtAddr) -> Option<(Ppn, PageSize)> {
        let mut node_id = self.root;
        for level in 0..self.levels {
            let idx = self.index(va, level);
            let entry = self.node(node_id).get(idx);
            if entry == 0 {
                return None;
            }
            if entry & TAG_LEAF != 0 {
                let ps = match self.levels - level {
                    3 => PageSize::Giant1G,
                    2 => PageSize::Huge2M,
                    1 => PageSize::Base4K,
                    _ => return None, // no leaves above the 1GB level
                };
                return Some((Ppn(entry & PAYLOAD_MASK), ps));
            }
            node_id = (entry & PAYLOAD_MASK) as usize;
        }
        None
    }

    /// The page-walk path for `va`: what the walker finds at each level.
    /// Used by [`RadixWalker`](crate::RadixWalker) to charge memory-access
    /// latency.
    pub(crate) fn walk_path(&self, va: VirtAddr) -> WalkPath {
        let mut steps = WalkPath {
            steps: [Step::Empty; MAX_LEVELS],
            len: 0,
        };
        let mut node_id = self.root;
        for level in 0..self.levels {
            let entry = self.node(node_id).get(self.index(va, level));
            if entry == 0 {
                steps.push(Step::Empty);
                return steps;
            }
            if entry & TAG_LEAF != 0 {
                let ps = match self.levels - level {
                    3 => PageSize::Giant1G,
                    2 => PageSize::Huge2M,
                    _ => PageSize::Base4K,
                };
                steps.push(Step::Leaf(Ppn(entry & PAYLOAD_MASK), ps));
                return steps;
            }
            steps.push(Step::Node);
            node_id = (entry & PAYLOAD_MASK) as usize;
        }
        steps
    }

    /// The number of mapped pages (all sizes).
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// The number of live page-table nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Total page-table memory in bytes (4KB per node) — Table I's
    /// "Page Table Total Memory, Tree" column.
    pub fn memory_bytes(&self) -> u64 {
        self.node_count() as u64 * 4096
    }

    /// Releases every node back to physical memory.
    pub fn destroy(mut self, mem: &mut PhysMem) {
        for node in self.nodes.iter_mut() {
            if let Some(n) = node.take() {
                mem.free(n.chunk);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mehpt_mem::AllocCostModel;
    use mehpt_types::{GIB, MIB};

    fn mem() -> PhysMem {
        PhysMem::with_cost_model(GIB, AllocCostModel::zero_cost())
    }

    #[test]
    fn sparse_node_matches_a_dense_array() {
        let mut m = mem();
        let mut node = Node::new(m.alloc(4096, AllocTag::PageTable).unwrap());
        let mut dense = [0u64; FANOUT];
        let mut rng = mehpt_types::rng::Xoshiro256::seed_from_u64(5);
        for step in 1..=20_000u64 {
            let idx = rng.next_index(FANOUT);
            if dense[idx] != 0 && rng.next_below(3) == 0 {
                node.clear(idx);
                dense[idx] = 0;
            } else {
                node.set(idx, step);
                dense[idx] = step;
            }
            let probe = rng.next_index(FANOUT);
            assert_eq!(node.get(probe), dense[probe]);
        }
        assert!((0..FANOUT).all(|i| node.get(i) == dense[i]));
        let live = dense.iter().filter(|&&e| e != 0).count();
        assert_eq!(node.entries.len(), live);
    }

    #[test]
    fn map_translate_4k() {
        let mut m = mem();
        let mut pt = RadixPageTable::new(&mut m).unwrap();
        let va = VirtAddr::new(0x7fff_1234_5678);
        pt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(7), &mut m)
            .unwrap();
        assert_eq!(pt.translate(va), Some((Ppn(7), PageSize::Base4K)));
        assert_eq!(pt.translate(VirtAddr::new(0x1000)), None);
        // Root + PUD + PMD + PTE nodes.
        assert_eq!(pt.node_count(), 4);
    }

    #[test]
    fn huge_pages_terminate_early() {
        let mut m = mem();
        let mut pt = RadixPageTable::new(&mut m).unwrap();
        let va2m = VirtAddr::new(2 * MIB * 9);
        pt.map(va2m.vpn(PageSize::Huge2M), PageSize::Huge2M, Ppn(3), &mut m)
            .unwrap();
        assert_eq!(pt.translate(va2m + 4096), Some((Ppn(3), PageSize::Huge2M)));
        // Root + PUD + PMD: no PTE level for a 2MB leaf.
        assert_eq!(pt.node_count(), 3);
        let va1g = VirtAddr::new(5 * GIB);
        pt.map(
            va1g.vpn(PageSize::Giant1G),
            PageSize::Giant1G,
            Ppn(8),
            &mut m,
        )
        .unwrap();
        assert_eq!(
            pt.translate(va1g + 123 * MIB),
            Some((Ppn(8), PageSize::Giant1G))
        );
    }

    #[test]
    fn conflicts_are_rejected() {
        let mut m = mem();
        let mut pt = RadixPageTable::new(&mut m).unwrap();
        let va = VirtAddr::new(0x4000_0000);
        pt.map(va.vpn(PageSize::Huge2M), PageSize::Huge2M, Ppn(1), &mut m)
            .unwrap();
        // Same VPN again.
        let err = pt
            .map(va.vpn(PageSize::Huge2M), PageSize::Huge2M, Ppn(2), &mut m)
            .unwrap_err();
        assert!(matches!(err, MapError::Conflict { .. }));
        // A 4KB page underneath the 2MB leaf.
        let err = pt
            .map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(3), &mut m)
            .unwrap_err();
        assert!(matches!(err, MapError::Conflict { .. }));
    }

    #[test]
    fn unmap_restores_and_prunes() {
        let mut m = mem();
        let used0 = m.stats().tag(AllocTag::PageTable).current_bytes;
        let mut pt = RadixPageTable::new(&mut m).unwrap();
        let va = VirtAddr::new(0x1234_5000);
        pt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(9), &mut m)
            .unwrap();
        assert_eq!(
            pt.unmap(va.vpn(PageSize::Base4K), PageSize::Base4K, &mut m),
            Some(Ppn(9))
        );
        assert_eq!(pt.translate(va), None);
        assert_eq!(pt.node_count(), 1, "interior nodes must be pruned");
        assert_eq!(pt.mapped_pages(), 0);
        // Unmapping again is a no-op.
        assert_eq!(
            pt.unmap(va.vpn(PageSize::Base4K), PageSize::Base4K, &mut m),
            None
        );
        pt.destroy(&mut m);
        assert_eq!(m.stats().tag(AllocTag::PageTable).current_bytes, used0);
    }

    #[test]
    fn contiguous_allocation_is_one_frame() {
        let mut m = mem();
        let mut pt = RadixPageTable::new(&mut m).unwrap();
        for i in 0..10_000u64 {
            let va = VirtAddr::new(i * 4096 * 513); // scatter across PMDs
            pt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(i), &mut m)
                .unwrap();
        }
        assert_eq!(
            m.stats().tag(AllocTag::PageTable).max_contiguous_bytes,
            4096
        );
        assert!(pt.memory_bytes() > 10_000 * 8);
    }

    #[test]
    fn dense_mappings_share_nodes() {
        let mut m = mem();
        let mut pt = RadixPageTable::new(&mut m).unwrap();
        for i in 0..512u64 {
            pt.map(Vpn(i), PageSize::Base4K, Ppn(i), &mut m).unwrap();
        }
        // 512 dense pages fit one PTE node: root + PUD + PMD + 1 PTE.
        assert_eq!(pt.node_count(), 4);
        assert_eq!(pt.mapped_pages(), 512);
    }

    #[test]
    fn remap_updates_existing_leaves_only() {
        let mut m = mem();
        let mut pt = RadixPageTable::new(&mut m).unwrap();
        let va = VirtAddr::new(0x7000);
        let vpn = va.vpn(PageSize::Base4K);
        assert!(!pt.remap(vpn, PageSize::Base4K, Ppn(5)));
        pt.map(vpn, PageSize::Base4K, Ppn(5), &mut m).unwrap();
        assert!(pt.remap(vpn, PageSize::Base4K, Ppn(6)));
        assert_eq!(pt.translate(va), Some((Ppn(6), PageSize::Base4K)));
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn walk_path_depth_matches_page_size() {
        let mut m = mem();
        let mut pt = RadixPageTable::new(&mut m).unwrap();
        let va4k = VirtAddr::new(0x1000);
        let va2m = VirtAddr::new(0x4000_0000);
        pt.map(va4k.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(1), &mut m)
            .unwrap();
        pt.map(va2m.vpn(PageSize::Huge2M), PageSize::Huge2M, Ppn(2), &mut m)
            .unwrap();
        assert_eq!(pt.walk_path(va4k).len(), 4);
        assert_eq!(pt.walk_path(va2m).len(), 3);
        let missing = pt.walk_path(VirtAddr::new(0x8000_0000_0000 - 4096));
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0], Step::Empty);
    }
}
