//! The eager free-stack allocator that the bump cursor replaced, kept as
//! the executable spec for [`FrameAllocator`]: every node's free stack is
//! filled with all of its frames up front (high numbers at the bottom, so
//! low numbers pop first), refcounts live in a `HashMap`, and the parked
//! mark is a `HashSet` ledger beside per-node debt counters — the shape
//! the kernel's reclamation-debt bookkeeping had before it moved into the
//! allocator's slots. A seeded churn drives both and demands the same
//! frames, errors and counters at every step.

use super::*;
use latr_sim::SimRng;
use std::collections::{HashMap, HashSet};

struct EagerFrameAllocator {
    frames_per_node: u64,
    free: Vec<Vec<Pfn>>,
    refcounts: HashMap<Pfn, u32>,
    allocated: Vec<u64>,
    debt: Vec<u64>,
    parked: HashSet<Pfn>,
    min_free: Vec<u64>,
    allocations: u64,
    frees: u64,
}

impl EagerFrameAllocator {
    fn new(nodes: usize, frames_per_node: u64) -> Self {
        EagerFrameAllocator {
            frames_per_node,
            free: (0..nodes)
                .map(|n| {
                    let base = n as u64 * frames_per_node;
                    (0..frames_per_node).rev().map(|i| Pfn(base + i)).collect()
                })
                .collect(),
            refcounts: HashMap::new(),
            allocated: vec![0; nodes],
            debt: vec![0; nodes],
            parked: HashSet::new(),
            min_free: vec![frames_per_node; nodes],
            allocations: 0,
            frees: 0,
        }
    }

    fn node_of(&self, pfn: Pfn) -> usize {
        (pfn.0 / self.frames_per_node) as usize
    }

    fn alloc(&mut self, node: NodeId) -> Result<Pfn, AllocError> {
        let n = node.0 as usize;
        let order = std::iter::once(n).chain((0..self.free.len()).filter(|&i| i != n));
        for candidate in order {
            if let Some(pfn) = self.free[candidate].pop() {
                self.note_alloc(candidate, pfn);
                return Ok(pfn);
            }
        }
        Err(AllocError::OutOfMemory { node })
    }

    fn alloc_exact(&mut self, node: NodeId) -> Result<Pfn, AllocError> {
        let n = node.0 as usize;
        match self.free[n].pop() {
            Some(pfn) => {
                self.note_alloc(n, pfn);
                Ok(pfn)
            }
            None => Err(AllocError::NodeExhausted { node }),
        }
    }

    fn note_alloc(&mut self, node: usize, pfn: Pfn) {
        self.refcounts.insert(pfn, 1);
        self.allocated[node] += 1;
        self.allocations += 1;
        let free = self.free[node].len() as u64;
        if free < self.min_free[node] {
            self.min_free[node] = free;
        }
    }

    fn refcount(&self, pfn: Pfn) -> u32 {
        self.refcounts.get(&pfn).copied().unwrap_or(0)
    }

    fn inc_ref(&mut self, pfn: Pfn) -> Result<u32, FreeError> {
        match self.refcounts.get_mut(&pfn) {
            Some(rc) => {
                *rc += 1;
                Ok(*rc)
            }
            None => Err(FreeError::RefOnFree { pfn }),
        }
    }

    fn dec_ref(&mut self, pfn: Pfn) -> Result<u32, FreeError> {
        let rc = self
            .refcounts
            .get_mut(&pfn)
            .ok_or(FreeError::DoubleFree { pfn })?;
        *rc -= 1;
        if *rc > 0 {
            return Ok(*rc);
        }
        self.refcounts.remove(&pfn);
        let node = self.node_of(pfn);
        self.free[node].push(pfn);
        self.allocated[node] -= 1;
        self.frees += 1;
        Ok(0)
    }

    fn park(&mut self, pfn: Pfn) -> bool {
        if self.refcount(pfn) == 1 && self.parked.insert(pfn) {
            let node = self.node_of(pfn);
            self.debt[node] += 1;
            assert!(self.debt[node] <= self.allocated[node]);
            true
        } else {
            false
        }
    }

    fn unpark(&mut self, pfn: Pfn) -> bool {
        if self.parked.remove(&pfn) {
            let node = self.node_of(pfn);
            self.debt[node] -= 1;
            true
        } else {
            false
        }
    }

    fn conservation_holds(&self) -> bool {
        (0..self.free.len()).all(|n| {
            self.free[n].len() as u64 + self.allocated[n] == self.frames_per_node
                && self.debt[n] <= self.allocated[n]
        })
    }
}

/// Every observable counter of both allocators agrees.
fn assert_same_state(fa: &FrameAllocator, eager: &EagerFrameAllocator, step: usize) {
    let nodes = eager.free.len();
    for n in 0..nodes {
        let node = NodeId(n as u8);
        assert_eq!(fa.free_on_node(node), eager.free[n].len(), "step {step}");
        assert_eq!(
            fa.allocated_on_node(node),
            eager.allocated[n],
            "step {step}"
        );
        assert_eq!(fa.min_free_on_node(node), eager.min_free[n], "step {step}");
        assert_eq!(fa.reclaim_debt(node), eager.debt[n], "step {step}");
    }
    assert_eq!(fa.min_free(), eager.min_free.iter().copied().min().unwrap());
    assert_eq!(fa.reclaim_debt_total(), eager.debt.iter().sum::<u64>());
    assert_eq!(fa.allocated_count(), eager.refcounts.len(), "step {step}");
    assert_eq!(fa.total_allocations(), eager.allocations);
    assert_eq!(fa.total_frees(), eager.frees);
    assert!(fa.conservation_holds(), "step {step}");
    assert!(eager.conservation_holds(), "step {step}");
}

#[test]
fn bump_allocator_matches_the_eager_free_stacks() {
    const NODES: usize = 3;
    const PER_NODE: u64 = 24;
    let total = NODES as u64 * PER_NODE;
    for seed in 0..32u64 {
        let mut rng = SimRng::new(0xF4A3E + seed);
        let mut fa = FrameAllocator::new(NODES, PER_NODE);
        let mut eager = EagerFrameAllocator::new(NODES, PER_NODE);
        // One entry per reference the churn holds.
        let mut refs: Vec<Pfn> = Vec::new();
        let (mut oom, mut exhausted, mut misuse, mut parks) = (0, 0, 0, 0);
        for step in 0..3_000 {
            // Mostly a held frame; sometimes any frame number, free,
            // never allocated or just outside the machine.
            let pick = |rng: &mut SimRng, refs: &[Pfn]| {
                if !refs.is_empty() && rng.chance(0.8) {
                    refs[rng.index(refs.len())]
                } else {
                    Pfn(rng.below(total + 4))
                }
            };
            // Phases of allocation-heavy and free-heavy churn drive the
            // machine to exhaustion and back.
            let alloc_weight = if (step / 500) % 2 == 0 { 6 } else { 2 };
            let node = NodeId(rng.below(NODES as u64) as u8);
            match rng.below(alloc_weight + 9) {
                w if w < alloc_weight => {
                    let exact = rng.chance(0.3);
                    let (got, want) = if exact {
                        (fa.alloc_exact(node), eager.alloc_exact(node))
                    } else {
                        (fa.alloc(node), eager.alloc(node))
                    };
                    assert_eq!(got, want, "seed {seed} step {step}");
                    match got {
                        Ok(p) => refs.push(p),
                        Err(AllocError::OutOfMemory { .. }) => oom += 1,
                        Err(AllocError::NodeExhausted { .. }) => exhausted += 1,
                    }
                }
                w if w < alloc_weight + 2 => {
                    let p = pick(&mut rng, &refs);
                    let got = fa.inc_ref(p);
                    assert_eq!(got, eager.inc_ref(p), "seed {seed} step {step}");
                    match got {
                        Ok(_) => refs.push(p),
                        Err(_) => misuse += 1,
                    }
                }
                w if w < alloc_weight + 6 => {
                    let p = pick(&mut rng, &refs);
                    // The kernel settles a parked frame's debt before its
                    // last reference drops.
                    if fa.refcount(p) == 1 && eager.parked.contains(&p) {
                        assert!(fa.unpark(p) && eager.unpark(p));
                    }
                    let got = fa.dec_ref(p);
                    assert_eq!(got, eager.dec_ref(p), "seed {seed} step {step}");
                    match got {
                        Ok(_) => {
                            let i = refs.iter().position(|&r| r == p).expect("held");
                            refs.swap_remove(i);
                        }
                        Err(_) => misuse += 1,
                    }
                }
                w if w < alloc_weight + 8 => {
                    let p = pick(&mut rng, &refs);
                    let got = fa.park(p);
                    assert_eq!(got, eager.park(p), "seed {seed} step {step}");
                    parks += u32::from(got);
                }
                _ => {
                    let p = pick(&mut rng, &refs);
                    assert_eq!(fa.unpark(p), eager.unpark(p), "seed {seed} step {step}");
                }
            }
            assert_same_state(&fa, &eager, step);
            for p in 0..total + 4 {
                assert_eq!(fa.refcount(Pfn(p)), eager.refcount(Pfn(p)));
            }
        }
        assert!(
            oom > 0 && exhausted > 0 && misuse > 0 && parks > 0,
            "seed {seed}: churn must reach every path \
             (oom {oom}, exhausted {exhausted}, misuse {misuse}, parks {parks})"
        );
    }
}
