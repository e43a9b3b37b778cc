//! Steady-state allocation discipline on the fast engine (ISSUE 10).
//!
//! The hot-path optimisations only hold their speedups if the per-event
//! work is genuinely allocation-free once every pool and scratch buffer
//! has grown to its working size: the calendar slab reuses freed event
//! slots, the VMA trees and page-table nodes come from pools, sweep
//! relevance and reclaim batches reuse scratch vectors, and freed frames
//! round-trip through the frame-vec pool. This test pins that property
//! with a counting global allocator: two sweep-storm runs that differ
//! only in simulated duration must perform **exactly** the same number
//! of heap allocations — every allocation belongs to setup or warmup,
//! and the extra hundreds of thousands of delivered events add zero.
//!
//! Tracing and the oracle are off (both are diagnostic layers with their
//! own buffers), matching the `BENCH_hotpath.json` configuration.
//!
//! A second case pins the same property for Latr's blocked-VA list on its
//! own: mapping, unmapping, blocking and unblocking on one address space
//! with about a hundred ranges blocked shifts the sorted list in place
//! and never allocates.
//!
//! A third pins it for the coherence oracle driven directly: once its
//! history ring and shadow maps have grown, recording fills, hits,
//! invalidations, capacity evictions and frame churn allocates nothing.
//!
//! A fourth pins it for the frame allocator and the page cache: frame
//! allocation and release, page-cache faults and evictions, and parking
//! frames as reclamation debt reuse the per-frame slots of frames already
//! handed out.
//!
//! The allocator also counts bytes, which bounds construction: building
//! the 120-core, 8-node machine with its default 4 GiB of frames per node
//! must not allocate memory in proportion to those frames.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

/// Counts every allocation (`alloc`, `alloc_zeroed`, and growth via
/// `realloc`) routed through the global allocator, and the bytes each one
/// requests (a `realloc` counts its whole new size), per thread, so the
/// cases can run in parallel without counting each other.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation(bytes: usize) {
    // `try_with` because the allocator also serves thread teardown, after
    // the counters themselves are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocations the calling thread has performed so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes the calling thread has requested so far.
fn bytes_allocated() -> u64 {
    BYTES.with(Cell::get)
}

// SAFETY: delegates every operation to `System` unchanged; the counters
// are const-initialised thread-local `Cell`s with no destructor, which
// never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use latr_arch::NodeId;
use latr_arch::{CpuId, MachinePreset, TlbEntry, Topology};
use latr_core::LatrConfig;
use latr_kernel::{EngineBackend, Machine, MachineConfig};
use latr_mem::{FileId, FrameAllocator, MmId, MmStruct, PageCache, Pfn, Prot, VaRange, Vma, Vpn};
use latr_sim::{Nanos, Time, MILLISECOND};
use latr_verify::{CoherenceOracle, Ctx};
use latr_workloads::{PolicyKind, SweepStorm};

/// Runs the bench-shaped sweep storm for `duration` and returns the
/// number of heap allocations performed *during the run* (setup —
/// `Machine::new` and the workload constructor — is excluded; warmup is
/// not, which is exactly why the short run is subtracted).
fn allocations_during(duration: Nanos) -> (u64, u64) {
    let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
    config.seed = 0x000a_110c;
    config.trace_capacity = 0;
    config.oracle = false;
    config.engine = EngineBackend::Fast;
    let mut machine = Machine::new(config);
    // Enough rounds that the storm is still publishing when the long
    // run ends: the extra window must contain real per-event work, not
    // idle ticks.
    let workload = Box::new(SweepStorm::new(16, 1_000_000));
    let policy = PolicyKind::Latr(LatrConfig::default()).build();
    let before = allocations();
    machine.run(workload, policy, duration);
    let after = allocations();
    (after - before, machine.events_delivered())
}

#[test]
fn sweep_storm_steady_state_allocates_nothing_per_event() {
    let short = 50 * MILLISECOND;
    let long = 250 * MILLISECOND;
    let (short_allocs, short_events) = allocations_during(short);
    let (long_allocs, long_events) = allocations_during(long);
    assert!(
        long_events > short_events + 10_000,
        "the long run must actually deliver more events \
         ({long_events} vs {short_events}) or the delta proves nothing"
    );
    assert_eq!(
        long_allocs - short_allocs,
        0,
        "steady state must be allocation-free on the fast engine: \
         {short_allocs} allocations in {short_events} events (warmup \
         included) vs {long_allocs} in {long_events} — the extra \
         {} events allocated {} times",
        long_events - short_events,
        long_allocs - short_allocs,
    );
}

/// One lazy-unmap cycle on `mm`: map `pages`, unmap them, block the range
/// and release the oldest blocked range, keeping `blocked` ranges held.
fn blocked_va_cycle(
    mm: &mut MmStruct,
    held: &mut VecDeque<VaRange>,
    scratch: &mut Vec<Vma>,
    pages: u64,
    blocked: usize,
) {
    let range = mm.mmap_anon(pages, Prot::READ_WRITE);
    scratch.clear();
    mm.munmap_vmas_into(&range, scratch);
    mm.block_va(range);
    held.push_back(range);
    if held.len() > blocked {
        let oldest = held.pop_front().expect("held is non-empty");
        assert!(mm.unblock_va(&oldest));
    }
}

#[test]
fn blocked_va_churn_allocates_nothing() {
    const BLOCKED: usize = 100;
    let mut mm = MmStruct::new(MmId(1));
    // A few live mappings the gap search has to step around.
    for pages in [3, 17, 5] {
        mm.mmap_anon(pages, Prot::READ_WRITE);
    }
    let mut held = VecDeque::with_capacity(BLOCKED + 1);
    let mut scratch = Vec::with_capacity(4);
    let pages = |i: u64| 1 + (i * 37) % 64;
    // Warm-up: grow the blocked list and the VMA tree to their working
    // sizes.
    for i in 0..2_000 {
        blocked_va_cycle(&mut mm, &mut held, &mut scratch, pages(i), BLOCKED);
    }
    assert_eq!(mm.blocked_ranges().len(), BLOCKED);
    let before = allocations();
    for i in 0..10_000 {
        blocked_va_cycle(&mut mm, &mut held, &mut scratch, pages(i), BLOCKED);
    }
    let allocated = allocations() - before;
    assert_eq!(mm.blocked_ranges().len(), BLOCKED);
    assert_eq!(
        allocated, 0,
        "10,000 map/unmap/block/unblock cycles with {BLOCKED} ranges \
         blocked allocated {allocated} times"
    );
}

/// Cores the oracle case shadows.
const ORACLE_CPUS: u64 = 16;
/// Pages each core's shadow TLB cycles through.
const ORACLE_PAGES: u64 = 64;

/// One oracle cycle on core `i % ORACLE_CPUS`: the TLB evicts the page
/// filled half a working set ago, fills and hits the next page and
/// invalidates the one after it; a frame no TLB caches is allocated and
/// freed.
fn oracle_cycle(o: &mut CoherenceOracle, i: u64) {
    let cpu = CpuId((i % ORACLE_CPUS) as u16);
    let page = (i / ORACLE_CPUS) % ORACLE_PAGES;
    let victim = (page + ORACLE_PAGES / 2) % ORACLE_PAGES;
    let at = Time::from_ns(i * 100);
    let evicted = TlbEntry {
        pcid: 1,
        vpn: victim,
        pfn: victim,
        writable: true,
    };
    o.note_evictions(cpu, &[evicted], at);
    o.note_fill(cpu, 1, Vpn(page), Pfn(page), true, at);
    o.note_hit(cpu, 1, Vpn(page), Pfn(page), true, at);
    o.note_invalidate(cpu, 1, Vpn((page + 1) % ORACLE_PAGES), at);
    let uncached = Pfn(0x1000 + i % 32);
    o.note_alloc(Ctx::Cpu(cpu), uncached, at);
    o.note_free(Ctx::Kthread, uncached, at);
}

#[test]
fn coherence_oracle_steady_state_allocates_nothing() {
    let mut o = CoherenceOracle::new(ORACLE_CPUS as usize);
    // Warm-up: wrap the history ring several times and grow every shadow
    // map and the frame index to their working sizes.
    for i in 0..5_000 {
        oracle_cycle(&mut o, i);
    }
    let before = allocations();
    for i in 5_000..15_000 {
        oracle_cycle(&mut o, i);
    }
    let allocated = allocations() - before;
    assert!(o.violation().is_none(), "{:?}", o.violation());
    assert_eq!(o.events_observed(), 15_000 * 6);
    assert_eq!(
        allocated, 0,
        "10,000 oracle cycles over a fixed working set allocated {allocated} times"
    );
}

/// Frames each frame-churn cycle keeps parked.
const PARKED: usize = 48;
/// Pages of the file the frame-churn cycles fault in.
const FILE_PAGES: u64 = 40;

/// One frame cycle: allocate a frame, park it as reclamation debt and
/// release the oldest parked frame; fault one page of `file` through the
/// page cache, take and drop a mapping reference on it, and every third
/// cycle evict the next page so it has to be read in again.
fn frame_cycle(
    fa: &mut FrameAllocator,
    pc: &mut PageCache,
    file: FileId,
    parked: &mut VecDeque<Pfn>,
    i: u64,
) {
    let node = NodeId((i % 2) as u8);
    let pfn = fa.alloc(node).expect("machine has room");
    assert!(fa.park(pfn));
    parked.push_back(pfn);
    if parked.len() > PARKED {
        let oldest = parked.pop_front().expect("parked is non-empty");
        assert!(fa.unpark(oldest));
        assert_eq!(fa.dec_ref(oldest), Ok(0));
    }
    let page = i % FILE_PAGES;
    let cached = pc
        .frame_for(file, page, node, fa)
        .expect("machine has room");
    assert_eq!(fa.inc_ref(cached), Ok(2));
    assert_eq!(fa.dec_ref(cached), Ok(1));
    if i.is_multiple_of(3) {
        pc.evict(file, (page + 1) % FILE_PAGES, fa);
    }
}

#[test]
fn frame_and_page_cache_churn_allocates_nothing() {
    let mut fa = FrameAllocator::new(2, 1 << 20);
    let mut pc = PageCache::new();
    let file = pc.register_file(FILE_PAGES);
    let mut parked = VecDeque::with_capacity(PARKED + 1);
    // Warm-up: hand out every frame the cycle's working set needs and
    // grow the free stacks to their working depth.
    for i in 0..2_000 {
        frame_cycle(&mut fa, &mut pc, file, &mut parked, i);
    }
    let before = allocations();
    for i in 2_000..12_000 {
        frame_cycle(&mut fa, &mut pc, file, &mut parked, i);
    }
    let allocated = allocations() - before;
    assert_eq!(fa.reclaim_debt_total(), PARKED as u64);
    assert!(fa.conservation_holds());
    assert_eq!(
        allocated, 0,
        "10,000 frame alloc/park/free and page-cache fault cycles allocated {allocated} times"
    );
}

#[test]
fn large_machine_construction_is_not_sized_by_its_frames() {
    const BOUND: u64 = 16 << 20;
    let config = MachineConfig::new(Topology::preset(MachinePreset::LargeNuma8S120C));
    let frames = config.frames_per_node * config.topology.num_nodes() as u64;
    let before = bytes_allocated();
    let machine = Machine::new(config);
    let bytes = bytes_allocated() - before;
    assert_eq!(machine.frames.free_on_node(NodeId(7)) as u64, frames / 8);
    assert!(
        bytes < BOUND,
        "Machine::new over {frames} frames allocated {bytes} bytes (bound {BOUND})"
    );
}
