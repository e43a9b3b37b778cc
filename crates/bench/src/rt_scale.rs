//! The rt scaling benchmark behind `BENCH_rt_scale.json` (ISSUE 5).
//!
//! Unlike the simulator benches, this one runs *real* `std::thread`
//! threads — one per "core" at 4, 16, 64 and 120 — through a
//! munmap-heavy loop over the lock-free rt runtime: every thread hammers
//! a [`SoftTlb`] lookup loop, sweeps at its tick, and unmaps/remaps a key
//! per round — deferring the "page" into the reclaimer and collecting it
//! back once its grace elapses. Three engine stacks are compared:
//!
//! * **`lazy-sharded`** — the scaling path: pending-bitmap sweep,
//!   [`ReclaimBackend::Sharded`] (per-core wheel shards gated on the
//!   cached reclamation frontier).
//! * **`lazy-reference`** — the PR-4-style reference: full-scan sweep,
//!   [`ReclaimBackend::Reference`] (one global mutexed deque, an
//!   O(cores) `min_tick` scan per defer/collect).
//! * **`sync-ipi`** — the synchronous baseline Latr removes: every unmap
//!   rendezvouses with every other thread through per-thread padded
//!   mailboxes (request/ack sequence numbers) before returning.
//!
//! Every run carries a **canary**: each deferred item records
//! `min_tick() + grace` at defer time — a sound lower bound on its due
//! tick under both engines — and every collect re-checks the ground
//! truth `min_tick() ≥ due`. A violation means the cached frontier (or a
//! shard) released memory while some core could still hold a stale
//! translation; the binary aborts rather than report a tainted speedup.
//!
//! The machine running this is almost certainly smaller than 120
//! hardware threads; the point of the oversubscribed shapes is the
//! *contention structure* (mutex vs shards, O(cores) scans vs a cached
//! load, shared vs padded lines), which oversubscription amplifies
//! rather than hides.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use latr_core::rt::{
    CachePadded, ReclaimBackend, Reclaimer, RtRegistry, SoftTlb, SoftTlbTable, SweepMode,
};
use parking_lot::RwLock;

/// Keys in the shared table; lookups and unmaps cycle over this space.
const KEYSPACE: u64 = 256;
/// Lookups per loop round, between sweeps.
const LOOKUPS_PER_ROUND: u64 = 32;
/// Reclamation grace in sweep ticks (§4.2 uses two cycles).
const GRACE: u64 = 2;
/// Per-core queue capacity — deep enough that overflow is rare noise.
const QUEUE_SLOTS: usize = 512;

/// The engine stacks the benchmark compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleEngine {
    /// Pending-bitmap sweep + sharded reclaimer + cached frontier.
    LazySharded,
    /// Full-scan sweep + mutexed reclaimer + O(cores) frontier scans.
    LazyReference,
    /// Synchronous mailbox rendezvous on every unmap.
    SyncIpi,
}

impl ScaleEngine {
    /// The label used in rows and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ScaleEngine::LazySharded => "lazy-sharded",
            ScaleEngine::LazyReference => "lazy-reference",
            ScaleEngine::SyncIpi => "sync-ipi",
        }
    }

    /// All engines, in report order.
    pub fn all() -> [ScaleEngine; 3] {
        [
            ScaleEngine::LazySharded,
            ScaleEngine::LazyReference,
            ScaleEngine::SyncIpi,
        ]
    }
}

/// One engine × thread-count measurement.
#[derive(Clone, Debug)]
pub struct RtScalePoint {
    /// Engine label.
    pub engine: &'static str,
    /// Real OS threads driven.
    pub threads: usize,
    /// Wall-clock nanoseconds for the measured window.
    pub wall_ns: u128,
    /// Lookups + unmaps completed across all threads.
    pub ops: u64,
    /// Unmap rounds completed.
    pub unmaps: u64,
    /// Publishes refused on a full queue (lazy engines only).
    pub overflows: u64,
    /// Items the reclaimer handed back during the window.
    pub collected: u64,
    /// `ops` per wall-clock second — the headline number.
    pub ops_per_sec: f64,
    /// Median sampled sweep latency (ns; 0 for sync-ipi).
    pub sweep_p50_ns: u64,
    /// 99th-percentile sampled sweep latency (ns; 0 for sync-ipi).
    pub sweep_p99_ns: u64,
    /// Mean ticks between an item's due and its collection.
    pub reclaim_lag_ticks: f64,
    /// Whether every collected item passed the ground-truth due check.
    pub canary_ok: bool,
}

/// The thread counts a run measures.
pub fn rt_scale_threads(quick: bool) -> Vec<usize> {
    if quick {
        vec![4, 16]
    } else {
        vec![4, 16, 64, 120]
    }
}

/// The measured window per (engine, shape) point. Oversubscribed shapes
/// get a longer window so every thread still sees meaningful CPU time —
/// otherwise OS scheduling noise drowns the engine difference.
pub fn rt_scale_duration(quick: bool, threads: usize) -> Duration {
    let base = if quick { 80 } else { 400 };
    Duration::from_millis(base * (threads as u64).div_ceil(32).max(1))
}

/// How often (in loop rounds) the canary re-derives the ground-truth
/// frontier with a full O(cores) scan. Sampling keeps the measurement
/// from taxing the lazy path it is checking; the exhaustive versions of
/// the same property live in the loom and differential suites.
const CANARY_SAMPLE_ROUNDS: u64 = 8;

#[derive(Default)]
struct ThreadStats {
    ops: u64,
    unmaps: u64,
    overflows: u64,
    collected: u64,
    lag_ticks: u64,
    lag_count: u64,
    sweep_ns: Vec<u64>,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn finish(
    engine: ScaleEngine,
    threads: usize,
    wall_ns: u128,
    per_thread: Vec<ThreadStats>,
    canary_ok: bool,
) -> RtScalePoint {
    let mut ops = 0;
    let mut unmaps = 0;
    let mut overflows = 0;
    let mut collected = 0;
    let mut lag_ticks = 0;
    let mut lag_count = 0;
    let mut sweeps = Vec::new();
    for s in per_thread {
        ops += s.ops;
        unmaps += s.unmaps;
        overflows += s.overflows;
        collected += s.collected;
        lag_ticks += s.lag_ticks;
        lag_count += s.lag_count;
        sweeps.extend(s.sweep_ns);
    }
    sweeps.sort_unstable();
    RtScalePoint {
        engine: engine.name(),
        threads,
        wall_ns,
        ops,
        unmaps,
        overflows,
        collected,
        ops_per_sec: ops as f64 * 1e9 / wall_ns.max(1) as f64,
        sweep_p50_ns: percentile(&sweeps, 0.50),
        sweep_p99_ns: percentile(&sweeps, 0.99),
        reclaim_lag_ticks: if lag_count == 0 {
            0.0
        } else {
            lag_ticks as f64 / lag_count as f64
        },
        canary_ok,
    }
}

/// Runs one (engine, thread-count) point for `duration` and measures it.
pub fn run_rt_scale_point(engine: ScaleEngine, threads: usize, duration: Duration) -> RtScalePoint {
    match engine {
        ScaleEngine::LazySharded => run_lazy(engine, threads, duration),
        ScaleEngine::LazyReference => run_lazy(engine, threads, duration),
        ScaleEngine::SyncIpi => run_sync(threads, duration),
    }
}

fn run_lazy(engine: ScaleEngine, threads: usize, duration: Duration) -> RtScalePoint {
    let (mode, backend) = match engine {
        ScaleEngine::LazySharded => (SweepMode::Pending, ReclaimBackend::Sharded),
        _ => (SweepMode::FullScan, ReclaimBackend::Reference),
    };
    let registry = Arc::new(RtRegistry::new(threads, QUEUE_SLOTS));
    let table = Arc::new(SoftTlbTable::new(Arc::clone(&registry)));
    for k in 0..KEYSPACE {
        table.map_key(k, k + 1000);
    }
    // Items carry their conservative due tick for the canary + lag.
    let reclaimer: Arc<Reclaimer<u64>> = Arc::new(Reclaimer::new(backend, GRACE, threads));
    let stop = Arc::new(AtomicBool::new(false));
    let canary_ok = Arc::new(AtomicBool::new(true));
    let barrier = Arc::new(Barrier::new(threads + 1));

    let handles: Vec<_> = (0..threads)
        .map(|core| {
            let registry = Arc::clone(&registry);
            let table = Arc::clone(&table);
            let reclaimer = Arc::clone(&reclaimer);
            let stop = Arc::clone(&stop);
            let canary_ok = Arc::clone(&canary_ok);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut tlb = SoftTlb::new(core, table.clone()).with_sweep_mode(mode);
                let mut stats = ThreadStats::default();
                let mut collect_buf: Vec<u64> = Vec::new();
                let mut round = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..LOOKUPS_PER_ROUND {
                        black_box(tlb.lookup((round.wrapping_mul(7) + i) % KEYSPACE));
                    }
                    stats.ops += LOOKUPS_PER_ROUND;
                    // Sweep at the "tick"; sample its latency every 8th.
                    if round.is_multiple_of(8) {
                        let t0 = Instant::now();
                        tlb.tick();
                        stats.sweep_ns.push(t0.elapsed().as_nanos() as u64);
                    } else {
                        tlb.tick();
                    }
                    // Munmap-heavy: *every* thread unmaps each round —
                    // this is the per-round cost the three engines price
                    // so differently.
                    let key = (core as u64).wrapping_mul(31).wrapping_add(round) % KEYSPACE;
                    match table.unmap_lazy(core, key) {
                        Ok(_) => {
                            stats.unmaps += 1;
                            stats.ops += 1;
                            // A due every engine must respect: the
                            // slowest core's tick now, plus grace.
                            let due = registry.min_tick() + GRACE;
                            reclaimer.defer(&registry, core, due);
                            table.map_key(key, key + 1000);
                        }
                        Err(_) => {
                            // Overflow counting moved to the registry's
                            // unified stats snapshot; just back off.
                            std::thread::yield_now();
                        }
                    }
                    collect_buf.clear();
                    reclaimer.collect_into(&registry, core, &mut collect_buf);
                    if !collect_buf.is_empty() {
                        stats.collected += collect_buf.len() as u64;
                        if round.is_multiple_of(CANARY_SAMPLE_ROUNDS) {
                            // Ground truth, not the cached frontier: the
                            // O(cores) scan is the canary's price, so it
                            // samples.
                            let min_now = registry.min_tick();
                            for &due in &collect_buf {
                                if min_now < due {
                                    canary_ok.store(false, Ordering::Release);
                                }
                                stats.lag_ticks += min_now.saturating_sub(due);
                                stats.lag_count += 1;
                            }
                        }
                    }
                    round = round.wrapping_add(1);
                }
                stats
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let per_thread: Vec<ThreadStats> = handles
        .into_iter()
        .map(|h| h.join().expect("bench thread"))
        .collect();
    let wall = start.elapsed().as_nanos().max(1);
    let mut point = finish(
        engine,
        threads,
        wall,
        per_thread,
        canary_ok.load(Ordering::Acquire),
    );
    // Queue-side counters come from the registry's unified snapshot
    // rather than per-thread tallies; a fault-free run also ends with
    // no core excluded.
    let reg_stats = registry.stats();
    debug_assert_eq!(reg_stats.excluded_cores, 0);
    point.overflows = reg_stats.overflows;
    point
}

/// One thread's shootdown mailbox: request/ack sequence numbers on their
/// own cache lines (the rendezvous is the point, not the line ping-pong).
struct Mailbox {
    req: CachePadded<AtomicU64>,
    ack: CachePadded<AtomicU64>,
}

/// Per-request handler cost the user-space mailbox cannot model on its
/// own: a real shootdown *interrupts* the target core — the paper's
/// Linux baseline pays ~1.6µs per IPI round (Table 5), most of it
/// interrupt entry/exit that a user-space atomic exchange simply does
/// not have. Each serviced request spins for roughly that entry/exit
/// cost; without it, oversubscription makes the baseline unrealistically
/// cheap (a blocked initiator costs nothing globally when the OS just
/// schedules another thread over it).
const IPI_HANDLER_SPINS: u32 = 400;

fn service_mailbox(mailbox: &Mailbox, cache: &mut HashMap<u64, u64>) {
    let r = mailbox.req.load(Ordering::Acquire);
    let mut a = mailbox.ack.load(Ordering::Relaxed);
    while a < r {
        // One interrupt per outstanding request: entry/exit cost, then
        // the handler's full-flush fallback, then the ack.
        for _ in 0..IPI_HANDLER_SPINS {
            std::hint::spin_loop();
        }
        cache.clear();
        a += 1;
        mailbox.ack.store(a, Ordering::Release);
    }
}

fn run_sync(threads: usize, duration: Duration) -> RtScalePoint {
    let table: Arc<RwLock<HashMap<u64, u64>>> = Arc::new(RwLock::new(HashMap::new()));
    for k in 0..KEYSPACE {
        table.write().insert(k, k + 1000);
    }
    let mailboxes: Arc<Vec<Mailbox>> = Arc::new(
        (0..threads)
            .map(|_| Mailbox {
                req: CachePadded::new(AtomicU64::new(0)),
                ack: CachePadded::new(AtomicU64::new(0)),
            })
            .collect(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));

    let handles: Vec<_> = (0..threads)
        .map(|core| {
            let table = Arc::clone(&table);
            let mailboxes = Arc::clone(&mailboxes);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut cache: HashMap<u64, u64> = HashMap::new();
                let mut stats = ThreadStats::default();
                let mut expected = vec![0u64; threads];
                let mut round = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    service_mailbox(&mailboxes[core], &mut cache);
                    for i in 0..LOOKUPS_PER_ROUND {
                        let key = (round.wrapping_mul(7) + i) % KEYSPACE;
                        let hit = match cache.get(&key) {
                            Some(&v) => Some(v),
                            None => {
                                let v = table.read().get(&key).copied();
                                if let Some(v) = v {
                                    cache.insert(key, v);
                                }
                                v
                            }
                        };
                        black_box(hit);
                    }
                    stats.ops += LOOKUPS_PER_ROUND;
                    {
                        let key = (core as u64).wrapping_mul(31).wrapping_add(round) % KEYSPACE;
                        table.write().remove(&key);
                        cache.remove(&key);
                        // The synchronous shootdown: bump every other
                        // thread's request line, then spin until each has
                        // acked — servicing our own mailbox meanwhile so
                        // two publishers can't deadlock each other.
                        for (t, exp) in expected.iter_mut().enumerate() {
                            if t != core {
                                *exp = mailboxes[t].req.fetch_add(1, Ordering::AcqRel) + 1;
                            }
                        }
                        let mut aborted = false;
                        for t in 0..threads {
                            if t == core {
                                continue;
                            }
                            while mailboxes[t].ack.load(Ordering::Acquire) < expected[t] {
                                service_mailbox(&mailboxes[core], &mut cache);
                                if stop.load(Ordering::Relaxed) {
                                    aborted = true;
                                    break;
                                }
                                std::thread::yield_now();
                            }
                            if aborted {
                                break;
                            }
                        }
                        // Reclamation is immediate once everyone acked.
                        table.write().insert(key, key + 1000);
                        if !aborted {
                            stats.unmaps += 1;
                            stats.ops += 1;
                        }
                    }
                    round = round.wrapping_add(1);
                }
                stats
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let per_thread: Vec<ThreadStats> = handles
        .into_iter()
        .map(|h| h.join().expect("bench thread"))
        .collect();
    let wall = start.elapsed().as_nanos().max(1);
    finish(ScaleEngine::SyncIpi, threads, wall, per_thread, true)
}

/// Whether every point's canary held.
pub fn canary_passed(points: &[RtScalePoint]) -> bool {
    points.iter().all(|p| p.canary_ok)
}

/// `(threads, lazy-sharded ops/sec ÷ <other engine> ops/sec)` per shape.
pub fn ratios_vs(points: &[RtScalePoint], other: &str) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for p in points.iter().filter(|p| p.engine == "lazy-sharded") {
        if let Some(q) = points
            .iter()
            .find(|q| q.engine == other && q.threads == p.threads)
        {
            out.push((p.threads, p.ops_per_sec / q.ops_per_sec.max(1e-9)));
        }
    }
    out
}

/// Renders the measurement set as the `BENCH_rt_scale.json` document.
/// Hand-rolled like `hotpath_json`: flat schema, vendored serde stub
/// does not serialize.
pub fn rt_scale_json(points: &[RtScalePoint], quick: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"rt_scale\",");
    let _ = writeln!(out, "  \"workload\": \"munmap-heavy soft-tlb loop\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"grace_ticks\": {GRACE},");
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"engine\": \"{}\", \"threads\": {}, \"wall_ns\": {}, \
             \"ops\": {}, \"unmaps\": {}, \"overflows\": {}, \"collected\": {}, \
             \"ops_per_sec\": {:.1}, \"sweep_p50_ns\": {}, \"sweep_p99_ns\": {}, \
             \"reclaim_lag_ticks\": {:.2}, \"canary_ok\": {}}}{comma}",
            p.engine,
            p.threads,
            p.wall_ns,
            p.ops,
            p.unmaps,
            p.overflows,
            p.collected,
            p.ops_per_sec,
            p.sweep_p50_ns,
            p.sweep_p99_ns,
            p.reclaim_lag_ticks,
            p.canary_ok,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"canary_passed\": {},", canary_passed(points));
    for (threads, r) in ratios_vs(points, "lazy-reference") {
        let _ = writeln!(out, "  \"sharded_vs_reference_at_{threads}\": {r:.2},");
    }
    for (threads, r) in ratios_vs(points, "sync-ipi") {
        let _ = writeln!(out, "  \"lazy_vs_sync_at_{threads}\": {r:.2},");
    }
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(engine: &'static str, threads: usize, ops_per_sec: f64, canary: bool) -> RtScalePoint {
        RtScalePoint {
            engine,
            threads,
            wall_ns: 1,
            ops: 1,
            unmaps: 1,
            overflows: 0,
            collected: 1,
            ops_per_sec,
            sweep_p50_ns: 10,
            sweep_p99_ns: 20,
            reclaim_lag_ticks: 0.5,
            canary_ok: canary,
        }
    }

    #[test]
    fn json_is_well_formed_and_reports_ratios() {
        let points = [
            point("lazy-sharded", 16, 400.0, true),
            point("lazy-reference", 16, 100.0, true),
            point("sync-ipi", 16, 50.0, true),
        ];
        let json = rt_scale_json(&points, true);
        assert!(json.contains("\"sharded_vs_reference_at_16\": 4.00"));
        assert!(json.contains("\"lazy_vs_sync_at_16\": 8.00"));
        assert!(json.contains("\"canary_passed\": true"));
        crate::assert_strict_json(&json);
    }

    #[test]
    fn canary_failure_is_reported() {
        let points = [point("lazy-sharded", 4, 1.0, false)];
        assert!(!canary_passed(&points));
        assert!(rt_scale_json(&points, false).contains("\"canary_passed\": false"));
    }

    #[test]
    fn percentiles_pick_the_right_ranks() {
        assert_eq!(percentile(&[], 0.5), 0);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 51);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }

    #[test]
    fn tiny_live_run_on_every_engine() {
        for engine in ScaleEngine::all() {
            let p = run_rt_scale_point(engine, 3, Duration::from_millis(25));
            assert_eq!(p.threads, 3);
            assert!(p.ops > 0, "{} did no work", p.engine);
            assert!(p.canary_ok, "{} tripped the canary", p.engine);
            if engine != ScaleEngine::SyncIpi {
                assert!(p.unmaps > 0, "{} never unmapped", p.engine);
                assert!(p.sweep_p99_ns >= p.sweep_p50_ns);
            }
        }
    }
}
