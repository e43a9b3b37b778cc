//! The translation-coherence oracle.
//!
//! A shadow state machine threaded through the simulated machine's event
//! loop. It mirrors every core's TLB contents (including capacity
//! evictions, which the TLB model reports when tracking is enabled),
//! tracks published Latr states, and carries vector clocks across the
//! ordering edges the kernel actually creates (publish→sweep, IPI
//! send→deliver, ACK). On every frame free/alloc, TLB fill, access hit
//! and migration-fault proceed it checks the paper's §3 invariant and
//! reports the *first* violation as a TSan-style trace: the offending
//! event, the history establishing the race, and whether the conflicting
//! pair was ordered by any happens-before edge at all.
//!
//! The oracle is a pure observer — it never mutates the machine and never
//! panics on a violation, so enabling it cannot perturb a run's
//! determinism. Tests read the verdict via `violation()`.
//!
//! Its data layout keeps the per-event cost flat: tracked states are
//! indexed by the `(mm, range)` a sweep names, the history ring holds
//! `Copy` slots beside one preallocated clock buffer that only joining
//! events write, and the frame index counts cachers instead of listing
//! them. Full [`EventRecord`]s and cacher lists are built only when a
//! violation is reported.

use crate::clock::VClock;
use crate::event::{Ctx, EventKind, EventRecord};
use latr_arch::{CpuId, CpuMask, TlbEntry};
use latr_mem::{MmId, Pfn, VaRange, Vpn};
use latr_sim::Time;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// How many event records the history ring keeps.
const HISTORY_CAPACITY: usize = 4096;
/// How many prior events a violation trace shows.
const TRACE_EVENTS: usize = 12;

/// What kind of coherence violation was detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A frame's last reference was dropped while some TLB still cached a
    /// translation to it — the frame is eligible for reuse inside the
    /// staleness window (§3's reclamation invariant).
    FreedWhileCached,
    /// A frame was handed out again while some TLB still cached a
    /// translation to it — actual reuse inside the window.
    ReusedWhileCached,
    /// An access was served from a cached translation whose frame is on
    /// the free list.
    AccessThroughFreedFrame,
    /// A translation to an unallocated frame was installed.
    FillOfFreedFrame,
    /// A NUMA migration fault proceeded while some core named in the
    /// migration state's bitmask had not yet invalidated (§4.4).
    MigrationBeforeSweepComplete,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::FreedWhileCached => "frame freed while cached",
            ViolationKind::ReusedWhileCached => "frame reused while cached",
            ViolationKind::AccessThroughFreedFrame => "access through freed frame",
            ViolationKind::FillOfFreedFrame => "fill of freed frame",
            ViolationKind::MigrationBeforeSweepComplete => "migration before sweep complete",
        };
        f.write_str(s)
    }
}

/// A detected coherence violation: the first one freezes the oracle.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Classification.
    pub kind: ViolationKind,
    /// One-line statement of what went wrong, naming the racing parties.
    pub headline: String,
    /// The event that completed the race.
    pub offending: EventRecord,
    /// Prior events involving the same frame/page, newest first.
    pub history: Vec<EventRecord>,
    /// The happens-before verdict for the racing pair.
    pub race: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== latr-verify: {} ==", self.kind)?;
        writeln!(f, "{}", self.headline)?;
        writeln!(f, "  offending: {}", self.offending)?;
        for (i, e) in self.history.iter().enumerate() {
            writeln!(f, "  #{i} {e}")?;
        }
        write!(f, "race: {}", self.race)
    }
}

/// The multiply-rotate hash (rustc's Fx hash) of the oracle's maps. Their
/// keys are the simulator's own page, frame, PCID and address-space
/// numbers, never outside input, so SipHash's defence against crafted
/// collisions buys nothing here, while it costs about a quarter of the
/// oracle's time on the serving workloads. The hash is also the same on
/// every run.
#[derive(Clone, Copy, Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are the well-mixed ones; the table
        // indexes buckets with the low bits.
        self.0.rotate_left(26)
    }
}

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A shadow copy of one cached translation.
#[derive(Clone, Copy, Debug)]
struct ShadowEntry {
    pfn: u64,
    /// The caching core's own clock component when the fill happened —
    /// the fill's position in that core's local order.
    filled_component: u64,
}

/// A published Latr state the oracle still tracks.
#[derive(Clone, Debug)]
struct TrackedState {
    /// Publish order: the migration check names the earliest match.
    seq: u64,
    pending: CpuMask,
    migration: bool,
    /// Publisher's clock at publish time, as [`VClock::sparse`]; sweepers
    /// join it.
    publish_clock: Vec<(usize, u64)>,
}

/// Published states still carrying pending CPU bits, keyed by the
/// `(mm, range)` a sweep names, so a sweep touches only its own states.
/// One key holds several states when a range is republished before its
/// earlier state retired.
#[derive(Debug, Default)]
struct StateIndex {
    by_key: FxHashMap<(MmId, VaRange), Vec<TrackedState>>,
    published: u64,
}

impl StateIndex {
    /// Tracks a state published with `clock` as the publisher's clock. A
    /// state with no targets is already retired and is not kept.
    fn publish(
        &mut self,
        mm: MmId,
        range: VaRange,
        targets: CpuMask,
        migration: bool,
        clock: &VClock,
    ) {
        self.published += 1;
        if targets.is_empty() {
            return;
        }
        self.by_key
            .entry((mm, range))
            .or_default()
            .push(TrackedState {
                seq: self.published,
                pending: targets,
                migration,
                publish_clock: clock.sparse(),
            });
    }

    /// `cpu` swept `(mm, range)`: clears its bit in every state of that
    /// key naming it, joins each such publish clock into `clock`, and
    /// drops the states left with no pending bit.
    fn sweep(&mut self, cpu: CpuId, mm: MmId, range: VaRange, clock: &mut VClock) {
        let Some(states) = self.by_key.get_mut(&(mm, range)) else {
            return;
        };
        states.retain_mut(|s| {
            if s.pending.test(cpu) {
                s.pending.clear(cpu);
                clock.join_sparse(&s.publish_clock);
            }
            !s.pending.is_empty()
        });
        if states.is_empty() {
            self.by_key.remove(&(mm, range));
        }
    }

    /// The pending mask of the earliest-published migration state of `mm`
    /// covering `vpn`, if any.
    fn migration_blocker(&self, mm: MmId, vpn: Vpn) -> Option<CpuMask> {
        self.by_key
            .iter()
            .filter(|((m, r), _)| *m == mm && r.contains(vpn))
            .flat_map(|(_, states)| states)
            .filter(|s| s.migration)
            .min_by_key(|s| s.seq)
            .map(|s| s.pending)
    }
}

/// The headline and race verdict of a migration fault that proceeded
/// while `pending` cores had not swept.
fn migration_report(mm: MmId, vpn: Vpn, pending: CpuMask) -> (String, String) {
    let cores: Vec<String> = pending.iter().map(|c| format!("{c}")).collect();
    let headline = format!(
        "migration fault on mm{} vpn {:#x} proceeded while {} had not swept \
         the migration state",
        mm.0,
        vpn.0,
        cores.join(", ")
    );
    let race = format!(
        "§4.4 requires every bit of the migration state's bitmask to clear \
         before the fault may proceed; pending mask still has {} bit(s)",
        pending.count()
    );
    (headline, race)
}

/// One history-ring slot: an event and its context's own clock component
/// after it. The rest of the clock is kept only for joining events.
#[derive(Clone, Copy, Debug)]
struct HistorySlot {
    at: Time,
    ctx: Ctx,
    own: u64,
    kind: EventKind,
}

/// Whether the oracle joins another clock into the context's right after
/// recording `kind`. Ticks of a context's own component and these joins
/// are the only changes to its clock, so the clock after any event is
/// that of the context's next joining event (recorded before its join),
/// or its current clock, with the event's own component.
fn joins_after(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::Sweep { .. } | EventKind::IpiDeliver { .. } | EventKind::Ack { .. }
    )
}

/// Joins context `src`'s clock into context `dst`'s.
fn join_ctx(clocks: &mut [VClock], dst: usize, src: usize) {
    if dst == src {
        return;
    }
    let (lo, hi) = clocks.split_at_mut(dst.max(src));
    if dst < src {
        lo[dst].join(&hi[0]);
    } else {
        hi[0].join(&lo[src]);
    }
}

/// The coherence oracle. One per [`Machine`]; see the module docs.
///
/// [`Machine`]: ../latr_kernel/struct.Machine.html
#[derive(Debug)]
pub struct CoherenceOracle {
    ncpus: usize,
    seq: u64,
    /// Per-context clocks: one per core plus [`Ctx::Kthread`] last.
    clocks: Vec<VClock>,
    /// Per-core shadow TLB: (pcid, vpn) → entry.
    shadow: Vec<FxHashMap<(u16, u64), ShadowEntry>>,
    /// Reverse index: pfn → how many shadow entries cache it. Who they
    /// are is read off `shadow` when a violation is reported.
    by_pfn: FxHashMap<u64, u32>,
    /// Published states still carrying pending CPU bits.
    states: StateIndex,
    /// Initiator clock snapshots ([`VClock::sparse`]) of in-flight
    /// shootdown transactions.
    txn_clocks: FxHashMap<u64, Vec<(usize, u64)>>,
    /// The last `HISTORY_CAPACITY` events; event `seq` sits in slot
    /// `(seq - 1) % HISTORY_CAPACITY`.
    history: Vec<HistorySlot>,
    /// The clock of a joining event's context after its event, before the
    /// join: `ncpus + 1` components per history slot, written only for
    /// slots holding a joining event (see [`joins_after`]).
    history_clocks: Vec<u64>,
    violation: Option<Violation>,
    /// Checks that fired after the first violation froze the oracle.
    suppressed: u64,
    /// Set at shutdown: events still record, checks no longer fire.
    closed: bool,
}

impl CoherenceOracle {
    /// An oracle over `ncpus` cores.
    pub fn new(ncpus: usize) -> Self {
        let nctx = ncpus + 1;
        CoherenceOracle {
            ncpus,
            seq: 0,
            clocks: vec![VClock::new(nctx); nctx],
            shadow: vec![FxHashMap::default(); ncpus],
            by_pfn: FxHashMap::default(),
            states: StateIndex::default(),
            txn_clocks: FxHashMap::default(),
            history: Vec::with_capacity(HISTORY_CAPACITY),
            history_clocks: vec![0; HISTORY_CAPACITY * nctx],
            violation: None,
            suppressed: 0,
            closed: false,
        }
    }

    /// Stops checking (events still record). The machine calls this right
    /// before the policy's shutdown drain: that drain runs after the final
    /// event, so the frames it frees can no longer be reached through any
    /// TLB — flagging them would be noise, not a race.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// The first violation detected, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }

    /// How many further checks fired after the first violation.
    pub fn suppressed_count(&self) -> u64 {
        self.suppressed
    }

    /// Total events observed.
    pub fn events_observed(&self) -> u64 {
        self.seq
    }

    fn ctx_index(&self, ctx: Ctx) -> usize {
        match ctx {
            Ctx::Cpu(c) => c.index(),
            Ctx::Kthread => self.ncpus,
        }
    }

    /// Advances `ctx`'s clock and appends the event to the ring. Returns
    /// the event's sequence number and `ctx`'s own new clock component.
    /// Allocates nothing.
    fn record(&mut self, ctx: Ctx, at: Time, kind: EventKind) -> (u64, u64) {
        let i = self.ctx_index(ctx);
        let own = self.clocks[i].tick(i);
        self.seq += 1;
        let slot = Self::slot_of(self.seq);
        let entry = HistorySlot { at, ctx, own, kind };
        if slot == self.history.len() {
            self.history.push(entry);
        } else {
            self.history[slot] = entry;
        }
        if joins_after(&kind) {
            let nctx = self.ncpus + 1;
            self.history_clocks[slot * nctx..(slot + 1) * nctx].copy_from_slice(&self.clocks[i].0);
        }
        (self.seq, own)
    }

    /// The ring slot of event `seq`, which must still be in the ring.
    fn slot_of(seq: u64) -> usize {
        ((seq - 1) % HISTORY_CAPACITY as u64) as usize
    }

    /// Event `seq` as a full record, its clock rebuilt from the next
    /// joining event of its context (see [`joins_after`]).
    fn event_record(&self, seq: u64) -> EventRecord {
        let h = self.history[Self::slot_of(seq)];
        let i = self.ctx_index(h.ctx);
        let nctx = self.ncpus + 1;
        let base = (seq..=self.seq)
            .map(Self::slot_of)
            .find(|&s| self.history[s].ctx == h.ctx && joins_after(&self.history[s].kind))
            .map_or(&self.clocks[i].0[..], |s| {
                &self.history_clocks[s * nctx..(s + 1) * nctx]
            });
        let mut clock = base.to_vec();
        clock[i] = h.own;
        EventRecord {
            seq,
            at: h.at,
            ctx: h.ctx,
            clock: VClock(clock),
            kind: h.kind,
        }
    }

    /// Whether a failed check should build a report. Not once the oracle
    /// is closed; and once a violation froze it, the check only counts as
    /// suppressed.
    fn reporting(&mut self) -> bool {
        if self.closed {
            return false;
        }
        if self.violation.is_some() {
            self.suppressed += 1;
            return false;
        }
        true
    }

    /// Freezes the oracle on a violation completed by event `seq`. Callers
    /// ask [`reporting`](Self::reporting) first.
    ///
    /// `pfn`/`vpn` are the relevance keys used to pick trace events out of
    /// the history ring (a `Free` record alone carries no vpn, so callers
    /// supply the cached page explicitly).
    fn flag(
        &mut self,
        kind: ViolationKind,
        headline: String,
        seq: u64,
        race: String,
        pfn: Option<u64>,
        vpn: Option<u64>,
    ) {
        let oldest = self.seq - self.history.len() as u64;
        let history: Vec<EventRecord> = (oldest + 1..=self.seq)
            .rev()
            .filter(|&s| s != seq && self.history[Self::slot_of(s)].kind.touches(pfn, vpn))
            .take(TRACE_EVENTS)
            .map(|s| self.event_record(s))
            .collect();
        self.violation = Some(Violation {
            kind,
            headline,
            offending: self.event_record(seq),
            history,
            race,
        });
    }

    /// For a conflict between an event just recorded for `ctx` and a fill
    /// on `core` at local component `filled_component`: did any
    /// happens-before edge order the fill before the conflicting action?
    fn race_verdict(&self, ctx: Ctx, core: usize, filled_component: u64) -> String {
        let i = self.ctx_index(ctx);
        if self.clocks[i].get(core) >= filled_component {
            format!(
                "ordered: {ctx} had a happens-before path from cpu{core}'s fill \
                 (clock component {filled_component}) yet no invalidation intervened \
                 — the protocol retired the entry's cover without clearing it"
            )
        } else {
            format!(
                "data race: no publish/sweep/IPI edge orders cpu{core}'s fill \
                 (clock component {filled_component}) before this action — {ctx} \
                 acted without waiting for cpu{core} to invalidate"
            )
        }
    }

    /// Flags event `seq` (an alloc or free of `pfn` by `ctx`) for racing
    /// the shadow entries still caching `pfn`. The race verdict is taken
    /// against the lowest `(core, pcid, vpn)` cacher, so the report is the
    /// same on every run.
    fn flag_cached_frame(&mut self, kind: ViolationKind, ctx: Ctx, pfn: u64, seq: u64) {
        let mut cachers: Vec<(usize, u16, u64, u64)> = self
            .shadow
            .iter()
            .enumerate()
            .flat_map(|(core, tlb)| {
                tlb.iter()
                    .filter(|(_, e)| e.pfn == pfn)
                    .map(move |(&(pcid, vpn), e)| (core, pcid, vpn, e.filled_component))
            })
            .collect();
        cachers.sort_unstable();
        let Some(&(core, _, vpn, filled_component)) = cachers.first() else {
            return;
        };
        let mut parts: Vec<String> = cachers
            .iter()
            .map(|&(core, pcid, vpn, _)| format!("cpu{core} vpn {vpn:#x} (pcid {pcid})"))
            .collect();
        parts.sort();
        let what = match kind {
            ViolationKind::ReusedWhileCached => "handed out again",
            _ => "freed",
        };
        let headline = format!(
            "frame {pfn:#x} {what} while still cached: {}",
            parts.join(", ")
        );
        let race = self.race_verdict(ctx, core, filled_component);
        self.flag(kind, headline, seq, race, Some(pfn), Some(vpn));
    }

    fn shadow_insert(&mut self, core: usize, pcid: u16, vpn: u64, entry: ShadowEntry) {
        self.shadow[core].insert((pcid, vpn), entry);
        *self.by_pfn.entry(entry.pfn).or_insert(0) += 1;
    }

    fn shadow_remove(&mut self, core: usize, pcid: u16, vpn: u64) {
        if let Some(e) = self.shadow[core].remove(&(pcid, vpn)) {
            uncache(&mut self.by_pfn, e.pfn);
        }
    }

    // ---- TLB mirror -----------------------------------------------------

    /// A translation was installed into `cpu`'s TLB. `allocated` is the
    /// allocator's verdict on the frame at this instant.
    pub fn note_fill(
        &mut self,
        cpu: CpuId,
        pcid: u16,
        vpn: Vpn,
        pfn: Pfn,
        allocated: bool,
        at: Time,
    ) {
        let core = cpu.index();
        let (seq, filled_component) = self.record(
            Ctx::Cpu(cpu),
            at,
            EventKind::Fill {
                pcid,
                vpn: vpn.0,
                pfn: pfn.0,
            },
        );
        // Overwriting fill of the same page = invalidate + fill.
        self.shadow_remove(core, pcid, vpn.0);
        self.shadow_insert(
            core,
            pcid,
            vpn.0,
            ShadowEntry {
                pfn: pfn.0,
                filled_component,
            },
        );
        if !allocated && self.reporting() {
            let headline = format!(
                "{cpu} installed a translation vpn {:#x} -> pfn {:#x} but the frame \
                 is on the free list",
                vpn.0, pfn.0
            );
            self.flag(
                ViolationKind::FillOfFreedFrame,
                headline,
                seq,
                "the page table still maps a frame whose last reference was dropped".to_owned(),
                Some(pfn.0),
                Some(vpn.0),
            );
        }
    }

    /// An access was served from `cpu`'s TLB without a walk.
    pub fn note_hit(
        &mut self,
        cpu: CpuId,
        pcid: u16,
        vpn: Vpn,
        pfn: Pfn,
        allocated: bool,
        at: Time,
    ) {
        let core = cpu.index();
        let (seq, own) = self.record(
            Ctx::Cpu(cpu),
            at,
            EventKind::Hit {
                pcid,
                vpn: vpn.0,
                pfn: pfn.0,
            },
        );
        // Self-heal the mirror if the fill predated the oracle.
        let filled_component = match self.shadow[core].get(&(pcid, vpn.0)) {
            Some(e) => e.filled_component,
            None => {
                let entry = ShadowEntry {
                    pfn: pfn.0,
                    filled_component: own,
                };
                self.shadow_insert(core, pcid, vpn.0, entry);
                own
            }
        };
        if !allocated && self.reporting() {
            let headline = format!(
                "{cpu} accessed vpn {:#x} through a stale translation to pfn {:#x}, \
                 which was already reclaimed",
                vpn.0, pfn.0
            );
            let race = self.race_verdict(Ctx::Cpu(cpu), core, filled_component);
            self.flag(
                ViolationKind::AccessThroughFreedFrame,
                headline,
                seq,
                race,
                Some(pfn.0),
                Some(vpn.0),
            );
        }
    }

    /// `cpu` invalidated one page.
    pub fn note_invalidate(&mut self, cpu: CpuId, pcid: u16, vpn: Vpn, at: Time) {
        let core = cpu.index();
        self.record(
            Ctx::Cpu(cpu),
            at,
            EventKind::Invalidate { pcid, vpn: vpn.0 },
        );
        self.shadow_remove(core, pcid, vpn.0);
    }

    /// `cpu` flushed its whole TLB.
    pub fn note_flush_all(&mut self, cpu: CpuId, at: Time) {
        let core = cpu.index();
        self.record(Ctx::Cpu(cpu), at, EventKind::FlushAll);
        for (_, e) in self.shadow[core].drain() {
            uncache(&mut self.by_pfn, e.pfn);
        }
    }

    /// Capacity evictions the TLB model reported for `cpu`.
    pub fn note_evictions(&mut self, cpu: CpuId, evicted: &[TlbEntry], at: Time) {
        let core = cpu.index();
        for e in evicted {
            self.record(
                Ctx::Cpu(cpu),
                at,
                EventKind::Evict {
                    pcid: e.pcid,
                    vpn: e.vpn,
                    pfn: e.pfn,
                },
            );
            self.shadow_remove(core, e.pcid, e.vpn);
        }
    }

    // ---- allocator mirror -----------------------------------------------

    /// A frame left the free list.
    pub fn note_alloc(&mut self, ctx: Ctx, pfn: Pfn, at: Time) {
        let (seq, _) = self.record(ctx, at, EventKind::Alloc { pfn: pfn.0 });
        if self.by_pfn.contains_key(&pfn.0) && self.reporting() {
            self.flag_cached_frame(ViolationKind::ReusedWhileCached, ctx, pfn.0, seq);
        }
    }

    /// A frame's last reference was dropped (it is reusable from now on).
    pub fn note_free(&mut self, ctx: Ctx, pfn: Pfn, at: Time) {
        let (seq, _) = self.record(ctx, at, EventKind::Free { pfn: pfn.0 });
        if self.by_pfn.contains_key(&pfn.0) && self.reporting() {
            self.flag_cached_frame(ViolationKind::FreedWhileCached, ctx, pfn.0, seq);
        }
    }

    // ---- Latr protocol edges ---------------------------------------------

    /// A Latr state was published by `initiator`.
    pub fn note_publish(
        &mut self,
        initiator: CpuId,
        mm: MmId,
        range: VaRange,
        targets: CpuMask,
        migration: bool,
        at: Time,
    ) {
        self.record(
            Ctx::Cpu(initiator),
            at,
            EventKind::Publish {
                mm,
                range,
                targets,
                migration,
            },
        );
        let clock = &self.clocks[initiator.index()];
        self.states.publish(mm, range, targets, migration, clock);
    }

    /// `cpu` swept every active state naming it that covers `(mm, range)`:
    /// it invalidated locally and cleared its bit.
    pub fn note_sweep(&mut self, cpu: CpuId, mm: MmId, range: VaRange, at: Time) {
        self.record(Ctx::Cpu(cpu), at, EventKind::Sweep { mm, range });
        let clock = &mut self.clocks[cpu.index()];
        self.states.sweep(cpu, mm, range, clock);
    }

    /// A NUMA hint fault on `(mm, vpn)` was allowed to proceed.
    pub fn note_migration_proceed(&mut self, cpu: CpuId, mm: MmId, vpn: Vpn, at: Time) {
        let (seq, _) = self.record(Ctx::Cpu(cpu), at, EventKind::MigrationProceed { mm, vpn });
        if let Some(mask) = self.states.migration_blocker(mm, vpn) {
            if self.reporting() {
                let (headline, race) = migration_report(mm, vpn, mask);
                self.flag(
                    ViolationKind::MigrationBeforeSweepComplete,
                    headline,
                    seq,
                    race,
                    None,
                    Some(vpn.0),
                );
            }
        }
    }

    // ---- synchronous shootdown edges ------------------------------------

    /// A shootdown's IPIs were multicast by `initiator`.
    pub fn note_ipi_send(&mut self, initiator: CpuId, txn: u64, targets: CpuMask, at: Time) {
        self.record(Ctx::Cpu(initiator), at, EventKind::IpiSend { txn, targets });
        let clock = self.clocks[initiator.index()].sparse();
        self.txn_clocks.insert(txn, clock);
    }

    /// A shootdown IPI was handled on `target`.
    pub fn note_ipi_deliver(&mut self, target: CpuId, txn: u64, at: Time) {
        self.record(Ctx::Cpu(target), at, EventKind::IpiDeliver { txn });
        if let Some(c) = self.txn_clocks.get(&txn) {
            self.clocks[target.index()].join_sparse(c);
        }
    }

    /// The last ACK of `txn` arrived: `initiator` now happens-after every
    /// target's handler.
    pub fn note_ack(&mut self, initiator: CpuId, from: CpuId, txn: u64, done: bool, at: Time) {
        self.record(Ctx::Cpu(initiator), at, EventKind::Ack { txn, from });
        join_ctx(&mut self.clocks, initiator.index(), from.index());
        if done {
            self.txn_clocks.remove(&txn);
        }
    }
}

/// Drops one cacher of `pfn` from the reverse index.
fn uncache(by_pfn: &mut FxHashMap<u64, u32>, pfn: u64) {
    if let Some(n) = by_pfn.get_mut(&pfn) {
        *n -= 1;
        if *n == 0 {
            by_pfn.remove(&pfn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Time = Time::ZERO;

    fn vpn(v: u64) -> Vpn {
        Vpn(v)
    }

    #[test]
    fn free_while_cached_is_flagged_with_trace() {
        let mut o = CoherenceOracle::new(2);
        o.note_fill(CpuId(1), 0, vpn(0x10), Pfn(0x2a), true, T);
        o.note_publish(
            CpuId(0),
            MmId(0),
            VaRange::new(vpn(0x10), 1),
            CpuMask::from_cpus([CpuId(1)]),
            false,
            T,
        );
        o.note_free(Ctx::Kthread, Pfn(0x2a), T);
        let v = o.violation().expect("violation detected");
        assert_eq!(v.kind, ViolationKind::FreedWhileCached);
        assert!(v.headline.contains("cpu1"), "{}", v.headline);
        assert!(v.headline.contains("0x2a"), "{}", v.headline);
        // The trace must include the racing fill and the publish.
        let rendered = v.to_string();
        assert!(rendered.contains("TLB fill vpn 0x10"), "{rendered}");
        assert!(rendered.contains("publish free state"), "{rendered}");
        assert!(rendered.contains("data race"), "{rendered}");
    }

    #[test]
    fn sweep_before_free_is_clean_and_ordered() {
        let mut o = CoherenceOracle::new(2);
        let r = VaRange::new(vpn(0x10), 1);
        o.note_fill(CpuId(1), 0, vpn(0x10), Pfn(0x2a), true, T);
        o.note_publish(
            CpuId(0),
            MmId(0),
            r,
            CpuMask::from_cpus([CpuId(1)]),
            false,
            T,
        );
        o.note_invalidate(CpuId(1), 0, vpn(0x10), T);
        o.note_sweep(CpuId(1), MmId(0), r, T);
        o.note_free(Ctx::Kthread, Pfn(0x2a), T);
        assert!(o.violation().is_none());
    }

    #[test]
    fn reuse_while_cached_is_flagged() {
        let mut o = CoherenceOracle::new(1);
        o.note_fill(CpuId(0), 0, vpn(0x5), Pfn(9), true, T);
        o.note_alloc(Ctx::Cpu(CpuId(0)), Pfn(9), T);
        let v = o.violation().expect("violation");
        assert_eq!(v.kind, ViolationKind::ReusedWhileCached);
    }

    #[test]
    fn stale_hit_on_freed_frame_is_flagged() {
        let mut o = CoherenceOracle::new(1);
        o.note_fill(CpuId(0), 0, vpn(0x5), Pfn(9), true, T);
        o.note_hit(CpuId(0), 0, vpn(0x5), Pfn(9), false, T);
        let v = o.violation().expect("violation");
        assert_eq!(v.kind, ViolationKind::AccessThroughFreedFrame);
    }

    #[test]
    fn migration_proceed_with_pending_bits_is_flagged() {
        let mut o = CoherenceOracle::new(3);
        let r = VaRange::new(vpn(0x40), 1);
        o.note_publish(
            CpuId(0),
            MmId(1),
            r,
            CpuMask::from_cpus([CpuId(0), CpuId(1), CpuId(2)]),
            true,
            T,
        );
        o.note_sweep(CpuId(0), MmId(1), r, T);
        // cpu1 and cpu2 have not swept: the fault must not proceed.
        o.note_migration_proceed(CpuId(1), MmId(1), vpn(0x40), T);
        let v = o.violation().expect("violation");
        assert_eq!(v.kind, ViolationKind::MigrationBeforeSweepComplete);
        assert!(v.headline.contains("cpu2"), "{}", v.headline);
    }

    #[test]
    fn migration_proceed_after_all_sweeps_is_clean() {
        let mut o = CoherenceOracle::new(2);
        let r = VaRange::new(vpn(0x40), 1);
        o.note_publish(
            CpuId(0),
            MmId(1),
            r,
            CpuMask::from_cpus([CpuId(0), CpuId(1)]),
            true,
            T,
        );
        o.note_sweep(CpuId(0), MmId(1), r, T);
        o.note_sweep(CpuId(1), MmId(1), r, T);
        o.note_migration_proceed(CpuId(1), MmId(1), vpn(0x40), T);
        assert!(o.violation().is_none());
    }

    #[test]
    fn flush_and_eviction_clear_the_mirror() {
        let mut o = CoherenceOracle::new(2);
        o.note_fill(CpuId(0), 0, vpn(1), Pfn(7), true, T);
        o.note_fill(CpuId(1), 0, vpn(1), Pfn(7), true, T);
        o.note_flush_all(CpuId(0), T);
        o.note_evictions(
            CpuId(1),
            &[TlbEntry {
                pcid: 0,
                vpn: 1,
                pfn: 7,
                writable: false,
            }],
            T,
        );
        o.note_free(Ctx::Kthread, Pfn(7), T);
        assert!(o.violation().is_none(), "{:?}", o.violation());
    }

    #[test]
    fn first_violation_freezes_later_ones_suppressed() {
        let mut o = CoherenceOracle::new(1);
        o.note_fill(CpuId(0), 0, vpn(1), Pfn(7), true, T);
        o.note_free(Ctx::Kthread, Pfn(7), T);
        assert!(o.violation().is_some());
        o.note_free(Ctx::Kthread, Pfn(7), T);
        assert_eq!(o.suppressed_count(), 1);
        assert_eq!(o.violation().unwrap().kind, ViolationKind::FreedWhileCached);
    }

    #[test]
    fn ipi_edges_order_the_free() {
        // Linux-style: fill on cpu1, IPI invalidates it, ACK returns, then
        // the free — ordered, no violation; and the initiator's clock
        // dominates cpu1's handler clock.
        let mut o = CoherenceOracle::new(2);
        o.note_fill(CpuId(1), 0, vpn(0x10), Pfn(3), true, T);
        o.note_ipi_send(CpuId(0), 7, CpuMask::from_cpus([CpuId(1)]), T);
        o.note_ipi_deliver(CpuId(1), 7, T);
        o.note_invalidate(CpuId(1), 0, vpn(0x10), T);
        o.note_ack(CpuId(0), CpuId(1), 7, true, T);
        o.note_free(Ctx::Cpu(CpuId(0)), Pfn(3), T);
        assert!(o.violation().is_none());
        assert!(o.clocks[0].dominates(&o.clocks[1]));
    }
    /// More than a ring's worth of events, then a free racing one fill.
    /// The report must render exactly as before the history ring moved
    /// to flat slots: the events older than `HISTORY_CAPACITY` (including
    /// an earlier fill and invalidation of the same page and frame) have
    /// wrapped out, and every surviving record keeps its vector clock.
    fn wraparound_report() -> String {
        let mut o = CoherenceOracle::new(3);
        let at = |i: u64| Time::from_ns(i * 100);
        let racing = VaRange::new(vpn(0x10), 1);
        // Ancient history of the racing page and frame.
        o.note_fill(CpuId(2), 0, vpn(0x10), Pfn(0x2a), true, at(0));
        o.note_invalidate(CpuId(2), 0, vpn(0x10), at(0));
        for i in 0..HISTORY_CAPACITY as u64 + 500 {
            let cpu = CpuId((i % 3) as u16);
            let other = CpuId(((i + 1) % 3) as u16);
            let page = 0x100 + i % 16;
            match i % 6 {
                0 => o.note_fill(cpu, 1, vpn(page), Pfn(page), true, at(i)),
                1 => o.note_hit(cpu, 1, vpn(page), Pfn(page), true, at(i)),
                2 => o.note_invalidate(cpu, 1, vpn(page), at(i)),
                3 => {
                    let r = VaRange::new(vpn(page), 1);
                    let targets = CpuMask::from_cpus([other]);
                    o.note_publish(cpu, MmId(1), r, targets, i % 4 == 3, at(i));
                    o.note_sweep(other, MmId(1), r, at(i));
                }
                4 => {
                    o.note_ipi_send(cpu, i, CpuMask::from_cpus([other]), at(i));
                    o.note_ipi_deliver(other, i, at(i));
                    o.note_ack(cpu, other, i, true, at(i));
                }
                _ => {
                    o.note_alloc(Ctx::Cpu(cpu), Pfn(0x900 + i % 7), at(i));
                    o.note_free(Ctx::Kthread, Pfn(0x900 + i % 7), at(i));
                }
            }
            // Sparse touches of the racing page under another PCID.
            if i % 1000 == 999 {
                o.note_fill(cpu, 3, vpn(0x10), Pfn(0x50), true, at(i));
                o.note_invalidate(cpu, 3, vpn(0x10), at(i));
            }
        }
        let end = HISTORY_CAPACITY as u64 + 500;
        o.note_fill(CpuId(1), 0, vpn(0x10), Pfn(0x2a), true, at(end));
        o.note_hit(CpuId(1), 0, vpn(0x10), Pfn(0x2a), true, at(end + 1));
        o.note_publish(
            CpuId(0),
            MmId(0),
            racing,
            CpuMask::from_cpus([CpuId(1), CpuId(2)]),
            false,
            at(end + 2),
        );
        o.note_sweep(CpuId(2), MmId(0), racing, at(end + 3));
        o.note_free(Ctx::Kthread, Pfn(0x2a), at(end + 4));
        assert!(o.events_observed() > HISTORY_CAPACITY as u64 + 100);
        o.violation()
            .expect("the free races cpu1's fill")
            .to_string()
    }

    /// [`wraparound_report`] as the earlier layout (a `VecDeque` of cloned
    /// records) rendered it.
    const WRAPAROUND_GOLDEN: &str = concat!(
        "== latr-verify: frame freed while cached ==\n",
        "frame 0x2a freed while still cached: cpu1 vpn 0x10 (pcid 0)\n",
        "  offending: [seq 7675 @ 460.000us] kreclaimd: frame 0x2a freed (refcount 0) vclock [0 0 0 767]\n",
        "  #0 [seq 7674 @ 459.900us] cpu2: sweep state mm0 [0x10..0x11) vclock [1536 3065 2303 0]\n",
        "  #1 [seq 7673 @ 459.800us] cpu0: publish free state mm0 [0x10..0x11) targeting 2 core(s) vclock [1537 0 0 0]\n",
        "  #2 [seq 7672 @ 459.700us] cpu1: TLB hit vpn 0x10 -> pfn 0x2a (pcid 0) vclock [1536 3068 2301 0]\n",
        "  #3 [seq 7671 @ 459.600us] cpu1: TLB fill vpn 0x10 -> pfn 0x2a (pcid 0) vclock [1536 3067 2301 0]\n",
        "  #4 [seq 6675 @ 399.900us] cpu0: invalidate vpn 0x10 (pcid 3) vclock [1338 0 0 0]\n",
        "  #5 [seq 6674 @ 399.900us] cpu0: TLB fill vpn 0x10 -> pfn 0x50 (pcid 3) vclock [1337 0 0 0]\n",
        "  #6 [seq 5008 @ 299.900us] cpu2: invalidate vpn 0x10 (pcid 3) vclock [1002 2001 1504 0]\n",
        "  #7 [seq 5007 @ 299.900us] cpu2: TLB fill vpn 0x10 -> pfn 0x50 (pcid 3) vclock [1002 2001 1503 0]\n",
        "race: data race: no publish/sweep/IPI edge orders cpu1's fill (clock component 3067) before this action — kreclaimd acted without waiting for cpu1 to invalidate",
    );

    #[test]
    fn history_wraparound_report_matches_golden() {
        assert_eq!(wraparound_report(), WRAPAROUND_GOLDEN);
    }

    /// Every event still in the ring rebuilds to the clock its context
    /// held right after it, across random interleavings of every edge.
    #[test]
    fn ring_rebuilds_every_clock_it_holds() {
        let mut o = CoherenceOracle::new(4);
        let mut rng = latr_sim::SimRng::new(0xc10c);
        // want[seq - 1]: the clock event `seq` must render with.
        let mut want: Vec<VClock> = Vec::new();
        let mut txn = 0;
        for step in 0..3 * HISTORY_CAPACITY as u64 {
            let cpu = CpuId(rng.below(4) as u16);
            let other = CpuId(rng.below(4) as u16);
            let page = vpn(rng.below(8));
            let range = VaRange::new(page, 1);
            let kind = rng.below(8);
            let ctx = if kind == 7 {
                Ctx::Kthread
            } else {
                Ctx::Cpu(cpu)
            };
            let i = o.ctx_index(ctx);
            let mut clock = o.clocks[i].clone();
            clock.tick(i);
            want.push(clock);
            match kind {
                0 => o.note_fill(cpu, 0, page, Pfn(page.0), true, T),
                1 => o.note_invalidate(cpu, 0, page, T),
                2 => {
                    let targets = CpuMask::from_cpus([other]);
                    o.note_publish(cpu, MmId(0), range, targets, false, T);
                }
                3 => o.note_sweep(cpu, MmId(0), range, T),
                4 => {
                    txn = step;
                    o.note_ipi_send(cpu, txn, CpuMask::from_cpus([other]), T);
                }
                5 => o.note_ipi_deliver(cpu, txn, T),
                6 => o.note_ack(cpu, other, txn, rng.chance(0.2), T),
                _ => o.note_free(Ctx::Kthread, Pfn(0x100 + step), T),
            }
            assert_eq!(o.events_observed(), want.len() as u64);
        }
        assert!(o.violation().is_none());
        let oldest = o.seq - o.history.len() as u64;
        for seq in oldest + 1..=o.seq {
            let rec = o.event_record(seq);
            assert_eq!(rec.clock, want[seq as usize - 1], "seq {seq}: {rec}");
        }
    }

    #[test]
    fn racing_cacher_is_the_lowest_and_reports_repeat() {
        let report = || {
            let mut o = CoherenceOracle::new(3);
            o.note_fill(CpuId(2), 0, vpn(0x5), Pfn(7), true, T);
            o.note_fill(CpuId(0), 2, vpn(0x30), Pfn(7), true, T);
            o.note_fill(CpuId(0), 0, vpn(0x8), Pfn(1), true, T);
            o.note_fill(CpuId(0), 1, vpn(0x10), Pfn(7), true, T);
            o.note_free(Ctx::Kthread, Pfn(7), T);
            o.violation()
                .expect("two cachers of a freed frame")
                .to_string()
        };
        let first = report();
        assert!(
            first.contains(
                "frame 0x7 freed while still cached: cpu0 vpn 0x10 (pcid 1), \
                 cpu0 vpn 0x30 (pcid 2), cpu2 vpn 0x5 (pcid 0)"
            ),
            "{first}"
        );
        // cpu0's pcid-1 fill is its third event: the lowest (core, pcid,
        // vpn) cacher, not the first one filled.
        assert!(first.contains("cpu0's fill (clock component 3)"), "{first}");
        // Each oracle's hash maps are seeded afresh.
        for _ in 0..8 {
            assert_eq!(report(), first);
        }
    }

    /// The linear state list the keyed [`StateIndex`] replaced: every
    /// sweep scans every state. Kept as the executable spec.
    #[derive(Default)]
    struct LinearStates {
        states: Vec<LinearState>,
    }

    struct LinearState {
        mm: MmId,
        range: VaRange,
        pending: CpuMask,
        migration: bool,
        publish_clock: VClock,
    }

    impl LinearStates {
        fn publish(
            &mut self,
            mm: MmId,
            range: VaRange,
            targets: CpuMask,
            migration: bool,
            clock: &VClock,
        ) {
            self.states.push(LinearState {
                mm,
                range,
                pending: targets,
                migration,
                publish_clock: clock.clone(),
            });
        }

        fn sweep(&mut self, cpu: CpuId, mm: MmId, range: VaRange, clock: &mut VClock) {
            let mut joins: Vec<VClock> = Vec::new();
            self.states.retain_mut(|s| {
                if s.mm == mm && s.range == range && s.pending.test(cpu) {
                    s.pending.clear(cpu);
                    joins.push(s.publish_clock.clone());
                }
                !s.pending.is_empty()
            });
            for c in joins {
                clock.join(&c);
            }
        }

        fn migration_blocker(&self, mm: MmId, vpn: Vpn) -> Option<CpuMask> {
            self.states
                .iter()
                .find(|s| {
                    s.migration && s.mm == mm && s.range.contains(vpn) && !s.pending.is_empty()
                })
                .map(|s| s.pending)
        }

        /// `(mm, range, pending, migration)` of every state with a pending
        /// bit, in publish order.
        fn pending(&self) -> Vec<(MmId, VaRange, CpuMask, bool)> {
            self.states
                .iter()
                .filter(|s| !s.pending.is_empty())
                .map(|s| (s.mm, s.range, s.pending, s.migration))
                .collect()
        }
    }

    /// [`LinearStates::pending`] for the keyed index.
    fn keyed_pending(index: &StateIndex) -> Vec<(MmId, VaRange, CpuMask, bool)> {
        let mut states: Vec<(u64, MmId, VaRange, CpuMask, bool)> = index
            .by_key
            .iter()
            .flat_map(|(&(mm, range), states)| {
                states
                    .iter()
                    .map(move |s| (s.seq, mm, range, s.pending, s.migration))
            })
            .collect();
        states.sort_unstable_by_key(|s| s.0);
        states
            .into_iter()
            .map(|(_, mm, range, pending, migration)| (mm, range, pending, migration))
            .collect()
    }

    #[test]
    fn keyed_state_index_matches_the_linear_list() {
        const NCPUS: u64 = 8;
        let mut rng = latr_sim::SimRng::new(0x57a7e);
        let mut keyed = StateIndex::default();
        let mut linear = LinearStates::default();
        let mut keyed_clocks = vec![VClock::new(NCPUS as usize + 1); NCPUS as usize + 1];
        let mut linear_clocks = keyed_clocks.clone();
        // Three mms and eight ranges, some overlapping: keys repeat, and a
        // page can lie in states of several keys.
        let key = |rng: &mut latr_sim::SimRng| {
            let mm = MmId(rng.below(3) as u32);
            let range = VaRange::new(vpn(0x10 * rng.below(4)), 1 + 15 * rng.below(2));
            (mm, range)
        };
        let mut verdicts = 0;
        for step in 0..20_000 {
            let cpu = CpuId(rng.below(NCPUS) as u16);
            let c = cpu.index();
            match rng.below(10) {
                0..=2 => {
                    let (mm, range) = key(&mut rng);
                    let n = 1 + rng.below(NCPUS) as usize;
                    let mut targets = CpuMask::empty();
                    while targets.count() < n {
                        targets.set(CpuId(rng.below(NCPUS) as u16));
                    }
                    let migration = rng.chance(0.3);
                    keyed_clocks[c].tick(c);
                    linear_clocks[c].tick(c);
                    keyed.publish(mm, range, targets, migration, &keyed_clocks[c]);
                    linear.publish(mm, range, targets, migration, &linear_clocks[c]);
                }
                3..=8 => {
                    let (mm, range) = key(&mut rng);
                    keyed_clocks[c].tick(c);
                    linear_clocks[c].tick(c);
                    keyed.sweep(cpu, mm, range, &mut keyed_clocks[c]);
                    linear.sweep(cpu, mm, range, &mut linear_clocks[c]);
                }
                _ => {
                    let mm = MmId(rng.below(3) as u32);
                    let page = vpn(rng.below(0x40));
                    let got = keyed.migration_blocker(mm, page);
                    let want = linear.migration_blocker(mm, page);
                    assert_eq!(got, want, "step {step}: migration verdict");
                    if let (Some(got), Some(want)) = (got, want) {
                        verdicts += 1;
                        assert_eq!(
                            migration_report(mm, page, got),
                            migration_report(mm, page, want),
                            "step {step}"
                        );
                    }
                }
            }
            assert_eq!(keyed_pending(&keyed), linear.pending(), "step {step}");
            assert_eq!(keyed_clocks, linear_clocks, "step {step}");
        }
        assert!(verdicts > 100, "the churn must exercise blocked migrations");
        assert!(
            !keyed.by_key.is_empty(),
            "states must stay live across steps"
        );
    }
}
