//! The lane-sharded parallel simulation engine (ISSUE 9).
//!
//! [`LaneSet`] is a drop-in replacement for [`EventQueue`](crate::EventQueue)
//! that partitions pending events into per-worker **lanes**, each backed by
//! its own calendar queue and maintained by a real OS thread. Simulated time
//! is cut into **epochs** whose width derives from the scheduler-tick
//! quantum; the engine is a conservative-lookahead design in the classic
//! PDES sense:
//!
//! * **Coordinator** (the thread calling [`schedule`](LaneSet::schedule) /
//!   [`pop`](LaneSet::pop)) executes event handlers strictly in global
//!   `(time, id)` order — the *exact* order the sequential engines deliver,
//!   with the same schedule-order id as the same-instant tiebreaker. This
//!   is what keeps `Machine::fingerprint()` bit-identical regardless of
//!   worker count: the merge order is `(time, lane, seq)`-deterministic,
//!   never wall-clock arrival.
//! * **Workers** own the lane calendars. At each epoch barrier every worker
//!   drains its lane's inbox (events filed during the finished epoch that
//!   fall beyond it) into its calendar and extracts the next epoch's events
//!   into a sorted *ready run* handed to the coordinator. Within an epoch
//!   the coordinator never touches a calendar and a worker never sees an
//!   event inside the coordinator's window — the lookahead invariant.
//! * Events scheduled *inside* the current window (handler-to-handler
//!   causality, e.g. op completions) stay coordinator-local in per-lane
//!   **staging** heaps, so they are deliverable immediately without any
//!   cross-thread traffic.
//!
//! Like the sequential queue, lanes have no cancellation (the kernel's
//! machine loop never cancels).
//!
//! The epoch/handoff protocol itself is [`EpochBarrier`]; under
//! `--cfg loom` its lock comes from the vendored loom shim so the
//! `loom_lanes` test can exhaustively model the generation handshake.

use crate::event::{Calendar, EventId, ScheduledEvent};
use crate::time::Time;
use crate::Nanos;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Lock shim: `parking_lot` normally, **loom** under `--cfg loom` (same
/// two-world pattern as `crates/core/src/rt/sync.rs`).
mod sync {
    #[cfg(not(loom))]
    pub use parking_lot::Mutex;
    // The vendored `parking_lot` is a shim over `std::sync::Mutex` whose
    // guard *is* `std::sync::MutexGuard`, so std's `Condvar` pairs with it.
    #[cfg(not(loom))]
    pub use std::sync::Condvar;

    #[cfg(loom)]
    pub use loom::sync::{Condvar, Mutex};
}

/// State of the epoch handshake, all under one lock so the protocol is a
/// plain state machine (loom models the lock as a scheduling point).
#[derive(Debug)]
struct BarrierState {
    /// Epoch generation: bumped once per [`EpochBarrier::open`].
    gen: u64,
    /// Horizon (exclusive, ns) of the epoch `gen` opened.
    horizon_ns: u64,
    /// Workers that have acknowledged `gen`.
    acks: u64,
    /// Set once; workers exit their loops.
    shutdown: bool,
}

/// The epoch barrier: coordinator `open`s a generation with a horizon,
/// workers `wait_open` / `ack` it exactly once each, the coordinator
/// `wait_acked`s for all of them. Exposed (doc-hidden) so the loom test
/// can model-check the handshake.
#[doc(hidden)]
#[derive(Debug)]
pub struct EpochBarrier {
    workers: u64,
    state: sync::Mutex<BarrierState>,
    /// Coordinator → workers: a new generation opened (or shutdown).
    work_cv: sync::Condvar,
    /// Workers → coordinator: another ack landed.
    done_cv: sync::Condvar,
}

impl EpochBarrier {
    #[doc(hidden)]
    pub fn new(workers: usize) -> Self {
        EpochBarrier {
            workers: workers as u64,
            state: sync::Mutex::new(BarrierState {
                gen: 0,
                horizon_ns: 0,
                // Generation 0 never runs, so it starts fully acked.
                acks: workers as u64,
                shutdown: false,
            }),
            work_cv: sync::Condvar::new(),
            done_cv: sync::Condvar::new(),
        }
    }

    /// Coordinator: opens the next epoch with the given horizon. The
    /// horizon must be monotone — each epoch looks strictly further ahead.
    /// Returns the new generation.
    #[doc(hidden)]
    pub fn open(&self, horizon_ns: u64) -> u64 {
        let mut s = self.state.lock();
        debug_assert!(horizon_ns > s.horizon_ns || s.gen == 0);
        debug_assert_eq!(
            s.acks, self.workers,
            "opened before the last epoch was acked"
        );
        s.gen += 1;
        s.horizon_ns = horizon_ns;
        s.acks = 0;
        let gen = s.gen;
        drop(s);
        self.work_cv.notify_all();
        gen
    }

    /// Worker: blocks until a generation newer than `my_gen` opens (or
    /// shutdown). Returns the new `(generation, horizon_ns)`.
    #[doc(hidden)]
    pub fn wait_open(&self, my_gen: u64) -> Option<(u64, u64)> {
        let mut s = self.state.lock();
        loop {
            if s.shutdown {
                return None;
            }
            if s.gen > my_gen {
                return Some((s.gen, s.horizon_ns));
            }
            #[cfg(not(loom))]
            {
                s = self.work_cv.wait(s).expect("barrier lock poisoned");
            }
            #[cfg(loom)]
            {
                s = self.work_cv.wait(s);
            }
        }
    }

    /// Worker: acknowledges `gen` after finishing its barrier work.
    /// Exactly once per worker per generation — over-acking panics.
    #[doc(hidden)]
    pub fn ack(&self, gen: u64) {
        let mut s = self.state.lock();
        assert_eq!(s.gen, gen, "ack for a generation that is not current");
        s.acks += 1;
        assert!(
            s.acks <= self.workers,
            "epoch acked more times than there are workers"
        );
        drop(s);
        self.done_cv.notify_all();
    }

    /// Coordinator: blocks until all workers have acked `gen`.
    #[doc(hidden)]
    pub fn wait_acked(&self, gen: u64) {
        let mut s = self.state.lock();
        loop {
            debug_assert_eq!(s.gen, gen);
            if s.acks == self.workers {
                return;
            }
            #[cfg(not(loom))]
            {
                s = self.done_cv.wait(s).expect("barrier lock poisoned");
            }
            #[cfg(loom)]
            {
                s = self.done_cv.wait(s);
            }
        }
    }

    /// Coordinator: wakes every worker into its exit path.
    #[doc(hidden)]
    pub fn shutdown(&self) {
        let mut s = self.state.lock();
        s.shutdown = true;
        drop(s);
        self.work_cv.notify_all();
    }

    /// The horizon of the currently open generation (ns). For assertions.
    #[doc(hidden)]
    pub fn horizon_ns(&self) -> u64 {
        self.state.lock().horizon_ns
    }
}

/// Worker-owned side of one lane: the calendar plus the handoff slots.
struct LaneCore<E> {
    calendar: Calendar<E>,
    /// Events filed by the coordinator during the current epoch that fall
    /// at or beyond its horizon. Drained into the calendar at the next
    /// barrier. Never contains an event inside the coordinator's window —
    /// that is the lookahead invariant the loom test checks.
    inbox: Vec<ScheduledEvent<E>>,
    /// The extraction result the worker hands back: the next epoch's
    /// events, ascending by `(time, id)`.
    ready: Vec<ScheduledEvent<E>>,
    /// Min `(time, id)` left in the calendar after extraction.
    next_head: Option<(Time, EventId)>,
    /// Anchor for calendar inserts: the horizon of the last-acked epoch.
    anchor: Time,
    /// Scratch for `extract_until`'s far-heap merge.
    scratch: Vec<ScheduledEvent<E>>,
}

/// Shared between the coordinator and the workers.
struct Shared<E> {
    lanes: Vec<sync::Mutex<LaneCore<E>>>,
    barrier: EpochBarrier,
}

impl<E: Send> Shared<E> {
    /// One worker's barrier duty for its lane: drain the inbox into the
    /// calendar, extract everything below the new horizon into the ready
    /// run, republish the calendar head.
    fn barrier_work(&self, lane: usize, horizon: Time) {
        let mut core = self.lanes[lane].lock();
        let core = &mut *core;
        let anchor = core.anchor;
        for ev in core.inbox.drain(..) {
            debug_assert!(ev.time >= anchor, "inbox event inside an already-run epoch");
            core.calendar.insert(ev, anchor);
        }
        debug_assert!(
            core.ready.is_empty(),
            "ready run of the previous epoch not consumed"
        );
        core.calendar
            .extract_until(horizon, &mut core.ready, &mut core.scratch);
        // Descending, so the coordinator pops the minimum from the tail.
        core.ready.reverse();
        core.next_head = core.calendar.peek_min_key();
        core.anchor = horizon;
    }
}

fn worker_loop<E: Send>(shared: Arc<Shared<E>>, lane: usize) {
    let mut my_gen = 0u64;
    while let Some((gen, horizon_ns)) = shared.barrier.wait_open(my_gen) {
        my_gen = gen;
        shared.barrier_work(lane, Time::from_ns(horizon_ns));
        shared.barrier.ack(gen);
    }
}

/// Coordinator-side view of one lane.
struct LaneFront<E> {
    /// The current epoch's ready run, **descending** by `(time, id)` so
    /// the minimum pops from the tail.
    run: Vec<ScheduledEvent<E>>,
    /// Events scheduled during the current epoch that land inside it:
    /// poppable immediately, never cross a thread. `ScheduledEvent`'s
    /// `Ord` is reversed, so this `BinaryHeap` pops earliest-first.
    staging: BinaryHeap<ScheduledEvent<E>>,
    /// Min `(time, id)` this lane holds beyond the current window: the
    /// calendar head reported at the last barrier, folded with every inbox
    /// push since. Drives epoch skip-ahead.
    beyond: Option<(Time, EventId)>,
}

impl<E> LaneFront<E> {
    /// The lane's minimum poppable `(time, id)` in the current window.
    fn front_key(&self) -> Option<(Time, EventId)> {
        let run = self.run.last().map(|ev| (ev.time, ev.id));
        let staged = self.staging.peek().map(|ev| (ev.time, ev.id));
        match (run, staged) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// The lane-sharded engine. Mirrors the [`EventQueue`](crate::EventQueue)
/// surface the kernel's machine loop uses (`schedule`, `schedule_after`,
/// `pop`, `peek_time`, `now`, `delivered`); see the module docs for the
/// design.
pub struct LaneSet<E: Send + 'static> {
    shared: Arc<Shared<E>>,
    workers: Vec<JoinHandle<()>>,
    /// Maps a payload to its home lane (any deterministic map is sound —
    /// homing only balances load, the merge order fixes delivery).
    home: Box<dyn Fn(&E) -> usize>,
    fronts: Vec<LaneFront<E>>,
    /// Exclusive upper bound of the current window.
    horizon: Time,
    /// Epoch width in nanoseconds (derived from the tick quantum).
    width: Nanos,
    gen: u64,
    next_id: u64,
    now: Time,
    popped: u64,
    /// Undelivered events across runs, staging, inboxes and calendars.
    pending: usize,
    /// Test-only negative control: merge same-instant events by lane
    /// rotation (modelling wall-clock arrival) instead of the schedule-id
    /// tiebreak. See `set_unsound_merge`.
    unsound_merge: bool,
}

impl<E: Send + 'static> LaneSet<E> {
    /// Builds a lane set with `workers` lanes/threads and the given epoch
    /// width (ns). `home` assigns every payload to a lane; values are
    /// taken modulo the lane count.
    pub fn new(workers: usize, width: Nanos, home: Box<dyn Fn(&E) -> usize>) -> Self {
        let workers_n = workers.max(1);
        let width = width.max(1);
        let lanes = (0..workers_n)
            .map(|_| {
                sync::Mutex::new(LaneCore {
                    calendar: Calendar::new(),
                    inbox: Vec::new(),
                    ready: Vec::new(),
                    next_head: None,
                    anchor: Time::ZERO,
                    scratch: Vec::new(),
                })
            })
            .collect();
        let shared = Arc::new(Shared {
            lanes,
            barrier: EpochBarrier::new(workers_n),
        });
        let handles = (0..workers_n)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("latr-lane-{lane}"))
                    .spawn(move || worker_loop(shared, lane))
                    .expect("spawn lane worker")
            })
            .collect();
        let fronts = (0..workers_n)
            .map(|_| LaneFront {
                run: Vec::new(),
                staging: BinaryHeap::new(),
                beyond: None,
            })
            .collect();
        LaneSet {
            shared,
            workers: handles,
            home,
            fronts,
            horizon: Time::from_ns(width),
            width,
            gen: 0,
            next_id: 0,
            now: Time::ZERO,
            popped: 0,
            pending: 0,
            unsound_merge: false,
        }
    }

    /// Number of lanes (= worker threads).
    pub fn lanes(&self) -> usize {
        self.fronts.len()
    }

    /// Current simulated time (instant of the most recent pop).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Number of undelivered events.
    #[inline]
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Schedules `payload` at absolute instant `time`. Same contract as
    /// [`EventQueue::schedule`](crate::EventQueue::schedule): ids are
    /// minted in call order and tie-break same-instant events, and
    /// scheduling into the past panics.
    pub fn schedule(&mut self, time: Time, payload: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {:?} < {:?}",
            time,
            self.now
        );
        let id = EventId::from_raw(self.next_id);
        self.next_id += 1;
        self.pending += 1;
        let lane = (self.home)(&payload) % self.fronts.len();
        let ev = ScheduledEvent { time, id, payload };
        if time < self.horizon {
            // Inside the window: deliverable this epoch, coordinator-local.
            self.fronts[lane].staging.push(ev);
        } else {
            // Beyond the window: handed to the lane worker at the next
            // barrier. Never readable by the worker before then, and never
            // poppable before its epoch opens — the lookahead bound.
            let key = (time, id);
            let beyond = &mut self.fronts[lane].beyond;
            *beyond = Some(beyond.map_or(key, |b| b.min(key)));
            self.shared.lanes[lane].lock().inbox.push(ev);
        }
        id
    }

    /// Schedules `payload` `delta` nanoseconds after the current clock.
    pub fn schedule_after(&mut self, delta: Nanos, payload: E) -> EventId {
        self.schedule(self.now + delta, payload)
    }

    /// The lane holding the minimum poppable `(time, id)` in the current
    /// window, if any.
    fn min_lane(&self) -> Option<usize> {
        if self.unsound_merge {
            return self.min_lane_unsound();
        }
        let mut best: Option<((Time, EventId), usize)> = None;
        for (i, front) in self.fronts.iter().enumerate() {
            if let Some(key) = front.front_key() {
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }

    /// Negative-control merge: earliest time wins, but same-instant ties
    /// go to whichever lane the rotation visits first — the order a
    /// wall-clock (arrival-order) merge would produce. Deliberately NOT
    /// equivalent to the sequential engines' id tiebreak.
    fn min_lane_unsound(&self) -> Option<usize> {
        let n = self.fronts.len();
        let start = self.popped as usize % n;
        let mut best: Option<(Time, usize)> = None;
        for off in 0..n {
            let i = (start + off) % n;
            if let Some((t, _)) = self.fronts[i].front_key() {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }

    /// Pops the earliest pending event in global `(time, id)` order,
    /// advancing the clock (and, transparently, the epoch).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        loop {
            if let Some(lane) = self.min_lane() {
                let front = &mut self.fronts[lane];
                let run_key = front.run.last().map(|ev| (ev.time, ev.id));
                let staged_key = front.staging.peek().map(|ev| (ev.time, ev.id));
                let take_run = match (run_key, staged_key) {
                    (Some(r), Some(s)) => r < s,
                    (Some(_), None) => true,
                    _ => false,
                };
                let ev = if take_run {
                    front.run.pop().expect("run front")
                } else {
                    front.staging.pop().expect("staged front")
                };
                debug_assert!(ev.time >= self.now, "lane merge went backwards in time");
                debug_assert!(ev.time < self.horizon || self.unsound_merge);
                self.now = ev.time;
                self.popped += 1;
                self.pending -= 1;
                return Some((ev.time, ev.payload));
            }
            if self.pending == 0 {
                return None;
            }
            self.advance_epoch();
        }
    }

    /// The instant of the earliest pending event, advancing the epoch as
    /// needed (hence `&mut self`, unlike `EventQueue::peek_time`).
    pub fn peek_time(&mut self) -> Option<Time> {
        loop {
            let min = self
                .fronts
                .iter()
                .filter_map(LaneFront::front_key)
                .min()
                .map(|(t, _)| t);
            if let Some(t) = min {
                return Some(t);
            }
            if self.pending == 0 {
                return None;
            }
            self.advance_epoch();
        }
    }

    /// Runs one epoch barrier: picks the next horizon (skipping empty
    /// epochs straight to the one holding the global minimum), has every
    /// worker drain its inbox and extract its ready run in parallel, then
    /// adopts the runs and reported calendar heads.
    fn advance_epoch(&mut self) {
        debug_assert!(self.fronts.iter().all(|f| f.front_key().is_none()));
        let m = self
            .fronts
            .iter()
            .filter_map(|f| f.beyond)
            .min()
            .expect("pending events must be visible in some lane")
            .0
            .as_ns();
        // The epoch containing `m`, aligned to the width grid.
        let new_h = Time::from_ns(((m / self.width) + 1) * self.width);
        debug_assert!(new_h > self.horizon || self.gen == 0);
        self.gen = self.shared.barrier.open(new_h.as_ns());
        self.shared.barrier.wait_acked(self.gen);
        for (i, front) in self.fronts.iter_mut().enumerate() {
            let mut core = self.shared.lanes[i].lock();
            debug_assert!(core.inbox.is_empty());
            front.run.clear();
            std::mem::swap(&mut front.run, &mut core.ready);
            front.beyond = core.next_head;
        }
        self.horizon = new_h;
    }

    /// Test-only: switches the cross-lane merge to the unsound
    /// wall-clock-arrival order (see `min_lane_unsound`). The negative
    /// control for the determinism suite — runs stay reproducible but are
    /// NOT equivalent to the sequential engines whenever same-instant
    /// events straddle lanes.
    #[doc(hidden)]
    pub fn set_unsound_merge(&mut self, unsound: bool) {
        self.unsound_merge = unsound;
    }
}

impl<E: Send + 'static> Drop for LaneSet<E> {
    fn drop(&mut self) {
        self.shared.barrier.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::event::{EventQueue, QueueBackend};
    use crate::rng::SimRng;
    use crate::MILLISECOND;

    fn lane_set(workers: usize) -> LaneSet<u64> {
        // Home by payload low bits: arbitrary but deterministic.
        LaneSet::new(workers, MILLISECOND, Box::new(|e: &u64| *e as usize))
    }

    /// The lane engine must deliver the exact `(time, id, payload)`
    /// sequence of both sequential queues, for any worker count and any
    /// interleaving of schedules and pops.
    #[test]
    fn lane_set_matches_sequential_queues() {
        for workers in [1usize, 2, 3, 4, 8] {
            for seed in 0..6u64 {
                let mut rng = SimRng::new(0x1A4E5 + seed);
                let mut lanes = lane_set(workers);
                let mut fast = EventQueue::with_backend(QueueBackend::Fast);
                let mut refq = EventQueue::with_backend(QueueBackend::Reference);
                let mut payload = 0u64;
                for _ in 0..3_000 {
                    if rng.below(10) < 6 {
                        let delta = match rng.below(5) {
                            0 => 0,
                            1 => rng.below(64),
                            2 => rng.below(10_000),
                            3 => rng.below(2_000_000),
                            _ => rng.below(30_000_000),
                        };
                        let t = lanes.now() + delta;
                        let id = lanes.schedule(t, payload);
                        assert_eq!(id, fast.schedule(t, payload));
                        assert_eq!(id, refq.schedule(t, payload));
                        payload += 1;
                    } else {
                        assert_eq!(lanes.peek_time(), fast.peek_time());
                        let (a, b, c) = (lanes.pop(), fast.pop(), refq.pop());
                        assert_eq!(a, b);
                        assert_eq!(b, c);
                        assert_eq!(lanes.now(), fast.now());
                    }
                }
                loop {
                    let (a, b) = (lanes.pop(), fast.pop());
                    assert_eq!(a, b);
                    assert_eq!(refq.pop(), b);
                    if a.is_none() {
                        break;
                    }
                }
                assert_eq!(lanes.delivered(), fast.delivered());
            }
        }
    }

    /// Same-instant events scheduled from one handler must pop in schedule
    /// (id) order even when homed to different lanes.
    #[test]
    fn same_instant_cross_lane_ties_pop_in_schedule_order() {
        let mut lanes = lane_set(4);
        // All at t=5ms (beyond the first window), lanes 3,2,1,0.
        for p in [3u64, 2, 1, 0] {
            lanes.schedule(Time::from_ns(5_000_000), p);
        }
        let order: Vec<u64> = std::iter::from_fn(|| lanes.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 2, 1, 0], "schedule order, not lane order");
    }

    /// The unsound wall-clock merge must break exactly that guarantee —
    /// the negative control the determinism suite relies on.
    #[test]
    fn unsound_merge_breaks_same_instant_order() {
        let mut lanes = lane_set(4);
        lanes.set_unsound_merge(true);
        for p in [3u64, 2, 1, 0] {
            lanes.schedule(Time::from_ns(5_000_000), p);
        }
        let order: Vec<u64> = std::iter::from_fn(|| lanes.pop().map(|(_, e)| e)).collect();
        assert_ne!(
            order,
            vec![3, 2, 1, 0],
            "rotation order must differ from id order"
        );
    }

    /// Epochs skip straight across long silent stretches.
    #[test]
    fn empty_epochs_are_skipped() {
        let mut lanes = lane_set(2);
        lanes.schedule(Time::from_ns(10), 0);
        // 10 simulated seconds of nothing.
        lanes.schedule(Time::from_ns(10_000_000_000), 1);
        assert_eq!(lanes.pop().unwrap().0, Time::from_ns(10));
        assert_eq!(lanes.pop().unwrap().0, Time::from_ns(10_000_000_000));
        assert!(lanes.pop().is_none());
    }

    /// Dropping a lane set with pending events must not hang the workers.
    #[test]
    fn drop_with_pending_events_joins_workers() {
        let mut lanes = lane_set(4);
        for p in 0..64u64 {
            lanes.schedule(Time::from_ns(1_000 + p), p);
        }
        drop(lanes);
    }
}
