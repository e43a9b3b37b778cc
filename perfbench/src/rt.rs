//! The `rt-lazy` workload: the real-thread `latr_core::rt` runtime, no
//! simulator.
//!
//! Worker threads each run the munmap-heavy loop of the `rt_scale`
//! bench's `lazy-sharded` engine, with its keyspace, lookup count and key
//! sequences, as a closed loop of requests. A request looks up
//! [`LOOKUPS`] keys through the thread's [`SoftTlb`], sweeps at its tick,
//! lazily unmaps a key ([`SoftTlbTable::unmap_lazy`]), defers its
//! reclamation ([`Reclaimer::defer`]), maps it again and collects what
//! the frontier has released. Each thread starts its key sequences at a
//! round drawn from the seed. Threads keep within [`MAX_SKEW`] ticks of
//! the slowest one, so a descheduled thread holds the others back instead
//! of letting their state queues overflow (`rt_scale` instead lets the
//! publish fail and backs off).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use latr_core::rt::{ReclaimBackend, Reclaimer, RtRegistry, SoftTlb, SoftTlbTable, SweepMode};
use latr_sim::{Histogram, SimRng};

use crate::stats::median;
use crate::Outcome;

/// Worker threads.
pub const THREADS: usize = 2;
/// Keys in the table (as in `rt_scale`).
pub const KEYSPACE: u64 = 256;
/// Lookups per request (`rt_scale`'s lookups per round).
pub const LOOKUPS: u64 = 32;
/// State-queue slots per thread.
pub const QUEUE_SLOTS: usize = 512;
/// Ticks a thread may run ahead of the slowest thread.
pub const MAX_SKEW: u64 = 64;
/// Reclamation grace, in ticks.
pub const GRACE: u64 = 2;
/// Measurement windows a run splits `--seconds` into; each window sets
/// up a fresh registry and table.
pub const WINDOWS: usize = 10;
/// Every mapping is `key -> key + VALUE_OFFSET` (as in `rt_scale`).
const VALUE_OFFSET: u64 = 1000;

/// The runtime under test.
struct Rig {
    registry: Arc<RtRegistry>,
    table: Arc<SoftTlbTable>,
    reclaimer: Reclaimer<u64>,
}

fn set_up() -> Rig {
    let registry = Arc::new(RtRegistry::new(THREADS, QUEUE_SLOTS));
    let table = Arc::new(SoftTlbTable::new(Arc::clone(&registry)));
    for k in 0..KEYSPACE {
        table.map_key(k, k + VALUE_OFFSET);
    }
    Rig {
        registry,
        table,
        reclaimer: Reclaimer::new(ReclaimBackend::Sharded, GRACE, THREADS),
    }
}

/// Host time inside each runtime call, traced windows only.
#[derive(Clone, Copy, Debug, Default)]
struct CallTimes {
    lookup_batch_ns: u64,
    tick_ns: u64,
    unmap_lazy_ns: u64,
    defer_ns: u64,
    collect_ns: u64,
}

/// One thread's tallies for a window.
#[derive(Clone, Debug, Default)]
struct ThreadTally {
    requests: u64,
    refused: u64,
    deferred: u64,
    collected: u64,
    wrong_values: u64,
    canary_failures: u64,
    hits: u64,
    misses: u64,
    calls: CallTimes,
    request_ns: Histogram,
    unmap_ns: Histogram,
}

impl ThreadTally {
    /// Adds `t`'s counts, times and latency samples to these.
    fn absorb(&mut self, t: &ThreadTally) {
        self.requests += t.requests;
        self.refused += t.refused;
        self.deferred += t.deferred;
        self.collected += t.collected;
        self.wrong_values += t.wrong_values;
        self.canary_failures += t.canary_failures;
        self.hits += t.hits;
        self.misses += t.misses;
        self.calls.lookup_batch_ns += t.calls.lookup_batch_ns;
        self.calls.tick_ns += t.calls.tick_ns;
        self.calls.unmap_lazy_ns += t.calls.unmap_lazy_ns;
        self.calls.defer_ns += t.calls.defer_ns;
        self.calls.collect_ns += t.calls.collect_ns;
        self.request_ns.merge(&t.request_ns);
        self.unmap_ns.merge(&t.unmap_ns);
    }
}

/// One window's results.
#[derive(Debug)]
struct Window {
    setup_ns: u64,
    wall_ns: u64,
    tally: ThreadTally,
    states_saved: u64,
    overflows: u64,
    drained: u64,
}

fn worker(
    rig: &Rig,
    core: usize,
    seed: u64,
    traced: bool,
    barrier: &Barrier,
    stop: &AtomicBool,
) -> ThreadTally {
    let mut round = SimRng::new(seed).fork(core as u64).below(KEYSPACE);
    let mut tlb = SoftTlb::new(core, Arc::clone(&rig.table)).with_sweep_mode(SweepMode::Pending);
    let mut t = ThreadTally::default();
    let mut collected = Vec::new();
    let registry = &rig.registry;
    barrier.wait();
    'run: while !stop.load(Ordering::Relaxed) {
        while registry.tick_of(core) > registry.min_tick() + MAX_SKEW {
            if stop.load(Ordering::Relaxed) {
                break 'run;
            }
            std::thread::yield_now();
        }
        let start = Instant::now();
        for i in 0..LOOKUPS {
            let key = round.wrapping_mul(7).wrapping_add(i) % KEYSPACE;
            // A key some thread is between unmap and remap walks to
            // `None`; any value but the one mapped is corruption.
            if let Some(v) = black_box(tlb.lookup(key)) {
                t.wrong_values += u64::from(v != key + VALUE_OFFSET);
            }
        }
        let mark = traced.then(Instant::now);
        tlb.tick();
        let unmap_start = Instant::now();
        if let Some(m) = mark {
            t.calls.lookup_batch_ns += (m - start).as_nanos() as u64;
            t.calls.tick_ns += (unmap_start - m).as_nanos() as u64;
        }
        let key = (core as u64).wrapping_mul(31).wrapping_add(round) % KEYSPACE;
        match rig.table.unmap_lazy(core, key) {
            Ok(old) => {
                // `None` when the other thread has the key unmapped.
                t.wrong_values += u64::from(old.is_some_and(|v| v != key + VALUE_OFFSET));
                let mark = traced.then(Instant::now);
                // A due every collector must respect: the slowest
                // thread's tick now, plus grace.
                rig.reclaimer
                    .defer(registry, core, registry.min_tick() + GRACE);
                t.deferred += 1;
                if let Some(m) = mark {
                    t.calls.unmap_lazy_ns += (m - unmap_start).as_nanos() as u64;
                    t.calls.defer_ns += m.elapsed().as_nanos() as u64;
                }
                t.unmap_ns.record(unmap_start.elapsed().as_nanos() as u64);
                rig.table.map_key(key, key + VALUE_OFFSET);
            }
            Err(_) => t.refused += 1,
        }
        collected.clear();
        let mark = traced.then(Instant::now);
        rig.reclaimer.collect_into(registry, core, &mut collected);
        if let Some(m) = mark {
            t.calls.collect_ns += m.elapsed().as_nanos() as u64;
        }
        if !collected.is_empty() {
            let frontier = registry.min_tick();
            t.canary_failures += collected.iter().filter(|&&due| frontier < due).count() as u64;
            t.collected += collected.len() as u64;
        }
        t.request_ns.record(start.elapsed().as_nanos() as u64);
        t.requests += 1;
        round = round.wrapping_add(1);
    }
    t.hits = tlb.hits();
    t.misses = tlb.misses();
    t
}

fn run_window(seed: u64, length: Duration, traced: bool) -> Window {
    let t0 = Instant::now();
    let rig = set_up();
    let setup_ns = t0.elapsed().as_nanos() as u64;
    let barrier = Barrier::new(THREADS + 1);
    let stop = AtomicBool::new(false);
    let (wall_ns, tallies) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|core| {
                let (rig, barrier, stop) = (&rig, &barrier, &stop);
                s.spawn(move || worker(rig, core, seed, traced, barrier, stop))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(length);
        stop.store(true, Ordering::Relaxed);
        let tallies: Vec<ThreadTally> = handles
            .into_iter()
            .map(|h| h.join().expect("rt worker thread panicked"))
            .collect();
        (start.elapsed().as_nanos() as u64, tallies)
    });
    let mut tally = ThreadTally::default();
    for t in &tallies {
        tally.absorb(t);
    }
    let stats = rig.registry.stats();
    Window {
        setup_ns,
        wall_ns,
        tally,
        states_saved: stats.states_saved,
        overflows: stats.overflows,
        drained: rig.reclaimer.drain_all().len() as u64,
    }
}

/// Tallies attempts and failures of `windows` into `out`.
fn gate(windows: &[Window], out: &mut Outcome) {
    for (i, w) in windows.iter().enumerate() {
        let t = &w.tally;
        out.attempted += t.requests;
        out.failed += t.refused;
        if t.refused > 0 || w.overflows > 0 {
            out.fail(format!(
                "window {i}: {} unmaps refused ({} queue overflows)",
                t.refused, w.overflows
            ));
        }
        if t.wrong_values > 0 {
            out.fail(format!("window {i}: {} wrong values read", t.wrong_values));
        }
        if t.canary_failures > 0 {
            out.fail(format!(
                "window {i}: {} items collected before min_tick() reached their due tick",
                t.canary_failures
            ));
        }
        if t.collected + w.drained != t.deferred {
            out.fail(format!(
                "window {i}: {} deferred but {} collected and {} left",
                t.deferred, t.collected, w.drained
            ));
        }
    }
}

fn window_length(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / WINDOWS as f64).max(0.02))
}

fn ns_per_request(w: &Window) -> f64 {
    w.wall_ns as f64 / w.tally.requests.max(1) as f64
}

/// The untraced run: end-to-end metrics. `setup_s` is the median set-up
/// time of the windows, which spread its samples over the whole run.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let windows: Vec<Window> = (0..WINDOWS)
        .map(|_| run_window(seed, window_length(seconds), false))
        .collect();
    let mut out = Outcome::default();
    gate(&windows, &mut out);
    let per = |f: &dyn Fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let mut all = ThreadTally::default();
    for w in &windows {
        all.absorb(&w.tally);
    }
    let (request, unmap) = (&all.request_ns, &all.unmap_ns);
    out.metric("setup_s", per(&|w| w.setup_ns as f64 / 1e9));
    out.metric("host_us_per_request", per(&|w| ns_per_request(w) / 1e3));
    out.metric(
        "host_ns_per_event",
        per(&|w| ns_per_request(w) / (LOOKUPS + 1) as f64),
    );
    out.metric("peak_rss_mb", crate::host::peak_rss_mb());
    out.metric("request_mean_us", request.mean() / 1e3);
    out.metric("munmap_mean_us", unmap.mean() / 1e3);
    out.note(format!(
        "{WINDOWS} windows of {:?} on {THREADS} threads; {} request and {} munmap latency samples",
        window_length(seconds),
        request.count(),
        unmap.count()
    ));
    out
}

/// The traced run: per-layer metrics, from plain and traced windows that
/// alternate so their ratio is the tracing overhead.
pub fn measure_traced(seed: u64, seconds: f64) -> Outcome {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..WINDOWS {
        let w = run_window(seed, window_length(seconds), i % 2 == 1);
        if i % 2 == 1 {
            traced.push(w);
        } else {
            plain.push(w);
        }
    }
    let mut out = Outcome::default();
    gate(&plain, &mut out);
    gate(&traced, &mut out);
    let mut t = ThreadTally::default();
    let (mut saved, mut overflows) = (0, 0);
    for w in &traced {
        t.absorb(&w.tally);
        saved += w.states_saved;
        overflows += w.overflows;
    }
    let per_request = |ns: u64| ns as f64 / t.requests.max(1) as f64;
    out.metric(
        "rt.lookup_ns",
        per_request(t.calls.lookup_batch_ns) / LOOKUPS as f64,
    );
    out.metric("rt.tick_ns", per_request(t.calls.tick_ns));
    out.metric(
        "rt.unmap_lazy_ns",
        t.calls.unmap_lazy_ns as f64 / t.deferred.max(1) as f64,
    );
    let mut untraced = Histogram::new();
    for w in &plain {
        untraced.merge(&w.tally.unmap_ns);
    }
    out.metric("rt.unmap_p99_ns", untraced.percentile(0.99) as f64);
    out.metric(
        "rt.defer_ns",
        t.calls.defer_ns as f64 / t.deferred.max(1) as f64,
    );
    out.metric("rt.collect_ns", per_request(t.calls.collect_ns));
    out.metric("rt.requests", t.requests as f64);
    out.metric("rt.overflows", overflows as f64);
    out.metric("rt.states_saved", saved as f64);
    out.metric(
        "rt.collected_per_deferred",
        t.collected as f64 / t.deferred.max(1) as f64,
    );
    out.metric(
        "rt.tlb_hit_ratio",
        t.hits as f64 / (t.hits + t.misses).max(1) as f64,
    );
    let cost = |ws: &[Window]| median(&ws.iter().map(ns_per_request).collect::<Vec<_>>());
    out.metric(
        "trace.overhead_pct",
        (cost(&traced) / cost(&plain) - 1.0) * 100.0,
    );
    out.note(format!(
        "{} plain and {} traced windows of {:?} on {THREADS} threads",
        plain.len(),
        traced.len(),
        window_length(seconds)
    ));
    out
}
