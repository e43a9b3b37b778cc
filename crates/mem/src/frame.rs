//! Physical frame allocator.
//!
//! A per-NUMA-node allocator with per-frame reference counts. Reference
//! counting is what enforces the paper's key invariant for free
//! operations: "since the physical page reference count is non-zero, Latr
//! ensures that the physical pages are not reused" (§4.2). A frame returns
//! to its node's free stack only when its last reference is dropped.
//!
//! Frames are numbered node-major: node `n` owns
//! `[n * frames_per_node, (n+1) * frames_per_node)`, so a frame's home node
//! is recoverable from its number — which the AutoNUMA model relies on.
//!
//! Nothing is sized by the machine's memory: a node hands out frames it
//! has never allocated from a bump cursor (ascending), reuses freed frames
//! LIFO before advancing it, and keeps a dense per-frame slot (refcount and
//! parked mark) only for frames below the cursor. Every lookup is an index,
//! never a hash probe.
//!
//! # Memory pressure
//!
//! Lazy reclamation parks freed frames for up to an epoch before they
//! return to the free lists, so under allocation storms the pool can drain
//! while perfectly-freed memory sits gated in reclamation queues. The
//! allocator therefore tracks, per node:
//!
//! - **watermarks** (`low` / `min`, à la Linux's zone watermarks): free-count
//!   thresholds the kernel polices to trigger expedited reclamation and, at
//!   the floor, synchronous fallback;
//! - **reclamation debt**: frames that have been fully freed by the VM but
//!   are still parked in a lazy-reclamation queue (refcount still held).
//!   [`FrameAllocator::park`] marks such a frame in its slot and counts it;
//!   [`FrameAllocator::unpark`] settles it. `free + allocated == total` and
//!   `debt <= allocated` hold at all times.
//!
//! Misuse is a typed, recoverable error — [`AllocError`] for exhaustion and
//! [`FreeError`] for refcount underflow / references on free frames —
//! rather than a silent `None` or a panic deep in a sim run.

use crate::addr::Pfn;
use latr_arch::NodeId;
use std::fmt;

/// Why a frame allocation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// Every node's free list is empty (the `alloc` fallback path ran the
    /// whole machine dry). `node` is the node originally requested.
    OutOfMemory {
        /// The node the caller asked for.
        node: NodeId,
    },
    /// The requested node is exhausted and the caller demanded exactness
    /// (`alloc_exact`, the migration path).
    NodeExhausted {
        /// The exhausted node.
        node: NodeId,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { node } => {
                write!(
                    f,
                    "out of memory: no free frames on any node (requested {node:?})"
                )
            }
            AllocError::NodeExhausted { node } => {
                write!(f, "node {node:?} exhausted (exact allocation, no fallback)")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// A refcount operation on a frame that is not allocated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FreeError {
    /// `dec_ref` on a frame whose refcount is already zero — a double free.
    DoubleFree {
        /// The frame freed twice.
        pfn: Pfn,
    },
    /// `inc_ref` on a free frame — taking a reference on memory nobody
    /// owns is always a bug.
    RefOnFree {
        /// The free frame.
        pfn: Pfn,
    },
}

impl fmt::Display for FreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreeError::DoubleFree { pfn } => write!(f, "double free of frame {pfn:?}"),
            FreeError::RefOnFree { pfn } => write!(f, "inc_ref on free frame {pfn:?}"),
        }
    }
}

impl std::error::Error for FreeError {}

/// How far below its watermarks a node's free pool has sunk.
///
/// Ordered: `Normal < Low < Min`, so `max()` across nodes gives the
/// machine's worst pressure.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Pressure {
    /// Free frames above the low watermark; no action needed.
    Normal,
    /// Below the low watermark: expedite reclamation before the pool
    /// drains.
    Low,
    /// Below the min watermark: the reserve is being eaten; forward
    /// progress must not depend on lazy timing any more.
    Min,
}

/// One handed-out frame's bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
struct FrameSlot {
    /// Reference count; 0 while the frame sits on its node's free stack.
    refs: u32,
    /// The frame's only reference is parked in a lazy-reclamation queue
    /// and counted as reclamation debt.
    parked: bool,
}

/// One NUMA node's frames.
#[derive(Debug, Clone)]
struct NodeFrames {
    /// The node's first frame number.
    base: u64,
    /// One slot per frame handed out at least once: slot `i` is frame
    /// `base + i`. `slots.len()` is the bump cursor — every frame at or
    /// beyond it has never been allocated and is free.
    slots: Vec<FrameSlot>,
    /// Freed frames, reused LIFO before the cursor advances.
    freed: Vec<Pfn>,
    /// Frames currently allocated (`free + allocated == total`).
    allocated: u64,
    /// Allocated frames currently parked (reclamation debt).
    debt: u64,
    /// Low-water mark of the free count over the allocator's life.
    min_free: u64,
}

impl NodeFrames {
    fn free(&self, frames_per_node: u64) -> u64 {
        self.freed.len() as u64 + frames_per_node - self.slots.len() as u64
    }

    /// Takes the next free frame: the most recently freed one, else the
    /// lowest never-allocated one.
    fn take_free(&mut self, frames_per_node: u64) -> Option<Pfn> {
        if let Some(pfn) = self.freed.pop() {
            return Some(pfn);
        }
        let next = self.slots.len() as u64;
        if next == frames_per_node {
            return None;
        }
        self.slots.push(FrameSlot::default());
        Some(Pfn(self.base + next))
    }
}

/// The per-node, refcounting physical frame allocator.
///
/// Construction is O(nodes) and memory follows the frames a run touches
/// (see the module documentation for the layout).
///
/// ```
/// use latr_mem::FrameAllocator;
/// use latr_arch::NodeId;
/// let mut fa = FrameAllocator::new(2, 1024);
/// let f = fa.alloc(NodeId(1)).unwrap();
/// assert_eq!(fa.node_of(f), NodeId(1));
/// assert_eq!(fa.refcount(f), 1);
/// fa.inc_ref(f).unwrap();
/// assert_eq!(fa.dec_ref(f).unwrap(), 1); // still referenced
/// assert_eq!(fa.dec_ref(f).unwrap(), 0); // now free again
/// assert!(!fa.is_allocated(f));
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    frames_per_node: u64,
    nodes: Vec<NodeFrames>,
    low_watermark: u64,
    min_watermark: u64,
    allocations: u64,
    frees: u64,
}

impl FrameAllocator {
    /// Creates an allocator with `nodes` NUMA nodes of `frames_per_node`
    /// frames each. Watermarks default to zero (pressure never reported);
    /// see [`FrameAllocator::set_watermarks`].
    ///
    /// # Panics
    ///
    /// Panics if there are no nodes or no frames.
    pub fn new(nodes: usize, frames_per_node: u64) -> Self {
        assert!(
            nodes > 0 && frames_per_node > 0,
            "allocator must own memory"
        );
        FrameAllocator {
            frames_per_node,
            nodes: (0..nodes)
                .map(|n| NodeFrames {
                    base: n as u64 * frames_per_node,
                    slots: Vec::new(),
                    freed: Vec::new(),
                    allocated: 0,
                    debt: 0,
                    min_free: frames_per_node,
                })
                .collect(),
            low_watermark: 0,
            min_watermark: 0,
            allocations: 0,
            frees: 0,
        }
    }

    /// Number of NUMA nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Frames each node owns.
    pub fn frames_per_node(&self) -> u64 {
        self.frames_per_node
    }

    /// Sets the per-node low/min free-frame watermarks.
    ///
    /// # Panics
    ///
    /// Panics if `low < min` — the low watermark is the early-warning line
    /// and must sit at or above the floor.
    pub fn set_watermarks(&mut self, low: u64, min: u64) {
        assert!(low >= min, "low watermark {low} below min watermark {min}");
        self.low_watermark = low;
        self.min_watermark = min;
    }

    /// The low (early-warning) watermark.
    pub fn low_watermark(&self) -> u64 {
        self.low_watermark
    }

    /// The min (reserve floor) watermark.
    pub fn min_watermark(&self) -> u64 {
        self.min_watermark
    }

    /// Pressure on `node` with the watermarks raised by `boost` frames
    /// (fault injection flaps watermarks this way; pass 0 normally).
    pub fn pressure_boosted(&self, node: NodeId, boost: u64) -> Pressure {
        let free = self.free_on_node(node) as u64;
        if free < self.min_watermark.saturating_add(boost) {
            Pressure::Min
        } else if free < self.low_watermark.saturating_add(boost) {
            Pressure::Low
        } else {
            Pressure::Normal
        }
    }

    /// Pressure on `node` against the configured watermarks.
    pub fn pressure(&self, node: NodeId) -> Pressure {
        self.pressure_boosted(node, 0)
    }

    /// The home node of a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is outside the machine.
    pub fn node_of(&self, pfn: Pfn) -> NodeId {
        let node = pfn.0 / self.frames_per_node;
        assert!(
            (node as usize) < self.nodes.len(),
            "frame {pfn:?} outside machine"
        );
        NodeId(node as u8)
    }

    /// The slot of a frame that has been handed out at least once.
    fn slot(&self, pfn: Pfn) -> Option<&FrameSlot> {
        let node = self.nodes.get((pfn.0 / self.frames_per_node) as usize)?;
        node.slots.get((pfn.0 % self.frames_per_node) as usize)
    }

    fn slot_mut(&mut self, pfn: Pfn) -> Option<&mut FrameSlot> {
        let node = self
            .nodes
            .get_mut((pfn.0 / self.frames_per_node) as usize)?;
        node.slots.get_mut((pfn.0 % self.frames_per_node) as usize)
    }

    /// Allocates a frame on `node` with reference count 1, falling back to
    /// the other nodes in order if it is exhausted. Fails with
    /// [`AllocError::OutOfMemory`] when the whole machine is out of frames.
    pub fn alloc(&mut self, node: NodeId) -> Result<Pfn, AllocError> {
        let n = node.0 as usize;
        assert!(n < self.nodes.len(), "no such node {node:?}");
        let order = std::iter::once(n).chain((0..self.nodes.len()).filter(|&i| i != n));
        for candidate in order {
            if let Some(pfn) = self.alloc_on(candidate) {
                return Ok(pfn);
            }
        }
        Err(AllocError::OutOfMemory { node })
    }

    /// Allocates a frame strictly on `node`; [`AllocError::NodeExhausted`]
    /// if that node is out (used by the migration path, which aborts rather
    /// than migrating to a different node).
    pub fn alloc_exact(&mut self, node: NodeId) -> Result<Pfn, AllocError> {
        let n = node.0 as usize;
        assert!(n < self.nodes.len(), "no such node {node:?}");
        self.alloc_on(n).ok_or(AllocError::NodeExhausted { node })
    }

    fn alloc_on(&mut self, n: usize) -> Option<Pfn> {
        let fpn = self.frames_per_node;
        let node = &mut self.nodes[n];
        let pfn = node.take_free(fpn)?;
        node.slots[(pfn.0 - node.base) as usize].refs = 1;
        node.allocated += 1;
        node.min_free = node.min_free.min(node.free(fpn));
        self.allocations += 1;
        Some(pfn)
    }

    /// Current reference count of a frame (0 when free).
    pub fn refcount(&self, pfn: Pfn) -> u32 {
        self.slot(pfn).map_or(0, |s| s.refs)
    }

    /// Whether a frame is currently allocated.
    pub fn is_allocated(&self, pfn: Pfn) -> bool {
        self.refcount(pfn) > 0
    }

    /// Adds a reference (page shared by another mapping). Referencing a
    /// free frame is a hard [`FreeError::RefOnFree`]. Returns the new count.
    pub fn inc_ref(&mut self, pfn: Pfn) -> Result<u32, FreeError> {
        match self.slot_mut(pfn) {
            Some(slot) if slot.refs > 0 => {
                slot.refs += 1;
                Ok(slot.refs)
            }
            _ => Err(FreeError::RefOnFree { pfn }),
        }
    }

    /// Drops a reference; when the count reaches zero the frame returns to
    /// its home node's free stack. Returns the new count. Dropping a
    /// reference on a free frame is a hard [`FreeError::DoubleFree`].
    pub fn dec_ref(&mut self, pfn: Pfn) -> Result<u32, FreeError> {
        let slot = match self.slot_mut(pfn) {
            Some(slot) if slot.refs > 0 => slot,
            _ => return Err(FreeError::DoubleFree { pfn }),
        };
        slot.refs -= 1;
        if slot.refs > 0 {
            return Ok(slot.refs);
        }
        debug_assert!(!slot.parked, "frame {pfn:?} freed while parked");
        let node = &mut self.nodes[(pfn.0 / self.frames_per_node) as usize];
        node.freed.push(pfn);
        node.allocated -= 1;
        self.frees += 1;
        Ok(0)
    }

    /// Parks a frame whose only reference is about to sit in a lazy
    /// reclamation queue: freed by the VM, final reference deferred. The
    /// frame counts as reclamation debt on its home node until
    /// [`unpark`](Self::unpark). Returns whether the frame was parked
    /// now — a frame with other references, or one already parked, is
    /// left alone.
    pub fn park(&mut self, pfn: Pfn) -> bool {
        let Some(slot) = self.slot_mut(pfn) else {
            return false;
        };
        if slot.refs != 1 || slot.parked {
            return false;
        }
        slot.parked = true;
        self.nodes[(pfn.0 / self.frames_per_node) as usize].debt += 1;
        true
    }

    /// Settles a parked frame's reclamation debt (its parked reference is
    /// about to be dropped or re-owned). Returns whether it was parked.
    pub fn unpark(&mut self, pfn: Pfn) -> bool {
        let Some(slot) = self.slot_mut(pfn).filter(|s| s.parked) else {
            return false;
        };
        slot.parked = false;
        self.nodes[(pfn.0 / self.frames_per_node) as usize].debt -= 1;
        true
    }

    /// Frames on `node` currently parked in lazy reclamation.
    pub fn reclaim_debt(&self, node: NodeId) -> u64 {
        self.nodes[node.0 as usize].debt
    }

    /// Machine-wide reclamation debt.
    pub fn reclaim_debt_total(&self) -> u64 {
        self.nodes.iter().map(|n| n.debt).sum()
    }

    /// Frames currently free on `node`.
    pub fn free_on_node(&self, node: NodeId) -> usize {
        self.nodes[node.0 as usize].free(self.frames_per_node) as usize
    }

    /// Frames currently allocated on `node` (including reclamation debt).
    pub fn allocated_on_node(&self, node: NodeId) -> u64 {
        self.nodes[node.0 as usize].allocated
    }

    /// The fewest free frames `node` has ever had.
    pub fn min_free_on_node(&self, node: NodeId) -> u64 {
        self.nodes[node.0 as usize].min_free
    }

    /// The fewest free frames any node has ever had.
    pub fn min_free(&self) -> u64 {
        self.nodes.iter().map(|n| n.min_free).min().unwrap_or(0)
    }

    /// Checks per-node conservation: `free + allocated == total` and
    /// `debt <= allocated` on every node. The proptest suite leans on this.
    pub fn conservation_holds(&self) -> bool {
        self.nodes.iter().all(|n| {
            n.free(self.frames_per_node) + n.allocated == self.frames_per_node
                && n.debt <= n.allocated
        })
    }

    /// Total allocations performed.
    pub fn total_allocations(&self) -> u64 {
        self.allocations
    }

    /// Total frames fully freed.
    pub fn total_frees(&self) -> u64 {
        self.frees
    }

    /// Number of currently allocated frames.
    pub fn allocated_count(&self) -> usize {
        self.nodes.iter().map(|n| n.allocated as usize).sum()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_prefers_requested_node() {
        let mut fa = FrameAllocator::new(2, 8);
        let f = fa.alloc(NodeId(1)).unwrap();
        assert_eq!(fa.node_of(f), NodeId(1));
        assert_eq!(fa.free_on_node(NodeId(1)), 7);
        assert_eq!(fa.free_on_node(NodeId(0)), 8);
    }

    #[test]
    fn alloc_falls_back_when_node_full() {
        let mut fa = FrameAllocator::new(2, 2);
        let _a = fa.alloc(NodeId(0)).unwrap();
        let _b = fa.alloc(NodeId(0)).unwrap();
        let c = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fa.node_of(c), NodeId(1));
    }

    #[test]
    fn alloc_exact_refuses_fallback() {
        let mut fa = FrameAllocator::new(2, 1);
        let _a = fa.alloc_exact(NodeId(0)).unwrap();
        assert_eq!(
            fa.alloc_exact(NodeId(0)),
            Err(AllocError::NodeExhausted { node: NodeId(0) })
        );
        assert!(fa.alloc_exact(NodeId(1)).is_ok());
    }

    #[test]
    fn machine_exhaustion_is_typed() {
        let mut fa = FrameAllocator::new(2, 1);
        assert!(fa.alloc(NodeId(0)).is_ok());
        assert!(fa.alloc(NodeId(0)).is_ok());
        assert_eq!(
            fa.alloc(NodeId(0)),
            Err(AllocError::OutOfMemory { node: NodeId(0) })
        );
    }

    #[test]
    fn refcount_lifecycle() {
        let mut fa = FrameAllocator::new(1, 4);
        let f = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fa.refcount(f), 1);
        assert_eq!(fa.inc_ref(f).unwrap(), 2);
        assert_eq!(fa.inc_ref(f).unwrap(), 3);
        assert_eq!(fa.refcount(f), 3);
        assert_eq!(fa.dec_ref(f).unwrap(), 2);
        assert_eq!(fa.dec_ref(f).unwrap(), 1);
        assert!(fa.is_allocated(f));
        assert_eq!(fa.dec_ref(f).unwrap(), 0);
        assert!(!fa.is_allocated(f));
        assert_eq!(fa.free_on_node(NodeId(0)), 4);
    }

    #[test]
    fn freed_frame_is_reusable() {
        let mut fa = FrameAllocator::new(1, 1);
        let f = fa.alloc(NodeId(0)).unwrap();
        fa.dec_ref(f).unwrap();
        let g = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(f, g);
        assert_eq!(fa.total_allocations(), 2);
        assert_eq!(fa.total_frees(), 1);
    }

    #[test]
    fn double_free_is_a_typed_error() {
        let mut fa = FrameAllocator::new(1, 1);
        let f = fa.alloc(NodeId(0)).unwrap();
        fa.dec_ref(f).unwrap();
        assert_eq!(fa.dec_ref(f), Err(FreeError::DoubleFree { pfn: f }));
        // The failed free must not have corrupted the free list.
        assert_eq!(fa.free_on_node(NodeId(0)), 1);
        assert!(fa.conservation_holds());
    }

    #[test]
    fn inc_ref_on_free_is_a_typed_error() {
        let mut fa = FrameAllocator::new(1, 1);
        assert_eq!(
            fa.inc_ref(Pfn(0)),
            Err(FreeError::RefOnFree { pfn: Pfn(0) })
        );
    }

    #[test]
    fn node_of_is_node_major() {
        let fa = FrameAllocator::new(4, 100);
        assert_eq!(fa.node_of(Pfn(0)), NodeId(0));
        assert_eq!(fa.node_of(Pfn(99)), NodeId(0));
        assert_eq!(fa.node_of(Pfn(100)), NodeId(1));
        assert_eq!(fa.node_of(Pfn(399)), NodeId(3));
    }

    #[test]
    fn allocated_count_tracks_live_frames() {
        let mut fa = FrameAllocator::new(1, 8);
        let a = fa.alloc(NodeId(0)).unwrap();
        let _b = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fa.allocated_count(), 2);
        fa.dec_ref(a).unwrap();
        assert_eq!(fa.allocated_count(), 1);
    }

    #[test]
    fn watermarks_classify_pressure() {
        let mut fa = FrameAllocator::new(1, 10);
        fa.set_watermarks(4, 2);
        assert_eq!(fa.pressure(NodeId(0)), Pressure::Normal);
        for _ in 0..6 {
            fa.alloc(NodeId(0)).unwrap();
        }
        // 4 free == low watermark: not yet below it.
        assert_eq!(fa.pressure(NodeId(0)), Pressure::Normal);
        fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fa.pressure(NodeId(0)), Pressure::Low);
        fa.alloc(NodeId(0)).unwrap();
        fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fa.pressure(NodeId(0)), Pressure::Min);
        // A boost (watermark flap) raises the bar.
        assert_eq!(fa.pressure_boosted(NodeId(0), 0), Pressure::Min);
        fa.set_watermarks(0, 0);
        assert_eq!(fa.pressure(NodeId(0)), Pressure::Normal);
        assert_eq!(fa.pressure_boosted(NodeId(0), 5), Pressure::Min);
    }

    #[test]
    #[should_panic(expected = "low watermark")]
    fn inverted_watermarks_rejected() {
        let mut fa = FrameAllocator::new(1, 10);
        fa.set_watermarks(1, 2);
    }

    #[test]
    fn debt_and_conservation() {
        let mut fa = FrameAllocator::new(2, 4);
        let a = fa.alloc(NodeId(0)).unwrap();
        let b = fa.alloc(NodeId(0)).unwrap();
        assert!(fa.conservation_holds());
        // Both frames freed by the VM but parked in lazy reclamation: the
        // queue holds the final reference, the allocator holds the debt.
        assert!(fa.park(a));
        assert!(fa.park(b));
        assert!(!fa.park(a), "a frame is parked once");
        assert_eq!(fa.reclaim_debt(NodeId(0)), 2);
        assert_eq!(fa.reclaim_debt(NodeId(1)), 0);
        assert_eq!(fa.reclaim_debt_total(), 2);
        assert!(fa.conservation_holds());
        // Reclamation releases them: debt settles, refs drop, frames free.
        assert!(fa.unpark(a));
        assert!(fa.unpark(b));
        assert!(!fa.unpark(b), "settling twice is refused");
        fa.dec_ref(a).unwrap();
        fa.dec_ref(b).unwrap();
        assert_eq!(fa.reclaim_debt_total(), 0);
        assert_eq!(fa.free_on_node(NodeId(0)), 4);
        assert!(fa.conservation_holds());
    }

    #[test]
    fn only_sole_references_park() {
        let mut fa = FrameAllocator::new(1, 4);
        let shared = fa.alloc(NodeId(0)).unwrap();
        fa.inc_ref(shared).unwrap();
        assert!(!fa.park(shared), "another mapping still holds it");
        let freed = fa.alloc(NodeId(0)).unwrap();
        fa.dec_ref(freed).unwrap();
        assert!(!fa.park(freed), "free frames carry no debt");
        assert!(!fa.park(Pfn(3)), "never-allocated frames carry no debt");
        assert!(
            !fa.park(Pfn(99)),
            "frames outside the machine carry no debt"
        );
        assert_eq!(fa.reclaim_debt_total(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "freed while parked")]
    fn freeing_a_parked_frame_panics() {
        let mut fa = FrameAllocator::new(1, 4);
        let a = fa.alloc(NodeId(0)).unwrap();
        fa.park(a);
        let _ = fa.dec_ref(a);
    }

    #[test]
    fn freed_frames_are_reused_lifo_before_fresh_ones() {
        let mut fa = FrameAllocator::new(2, 8);
        let fresh: Vec<Pfn> = (0..4).map(|_| fa.alloc(NodeId(1)).unwrap()).collect();
        assert_eq!(fresh, vec![Pfn(8), Pfn(9), Pfn(10), Pfn(11)]);
        fa.dec_ref(fresh[1]).unwrap();
        fa.dec_ref(fresh[3]).unwrap();
        assert_eq!(fa.alloc(NodeId(1)), Ok(Pfn(11)));
        assert_eq!(fa.alloc(NodeId(1)), Ok(Pfn(9)));
        assert_eq!(fa.alloc(NodeId(1)), Ok(Pfn(12)));
        assert_eq!(fa.free_on_node(NodeId(1)), 3);
        assert!(fa.conservation_holds());
    }

    #[test]
    fn min_free_tracks_low_water() {
        let mut fa = FrameAllocator::new(1, 4);
        assert_eq!(fa.min_free(), 4);
        let a = fa.alloc(NodeId(0)).unwrap();
        let b = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fa.min_free_on_node(NodeId(0)), 2);
        fa.dec_ref(a).unwrap();
        fa.dec_ref(b).unwrap();
        // Frees do not erase the low-water mark.
        assert_eq!(fa.min_free(), 2);
    }
}
