//! The long-running robustness soak behind `BENCH_soak.json` (ISSUE 6).
//!
//! Where `rt_scale` measures *throughput* of a healthy runtime, the soak
//! measures *survival* of a faulted one: real worker threads drive the
//! same munmap-heavy [`SoftTlb`] loop for seconds to minutes while a
//! seeded [`ThreadFaultInjector`] stalls sweepers, drops publish wakeups,
//! suppresses frontier announces, and kills threads outright — one by
//! panic mid-sweep (exercising the [`SweepGuard`] panic fence), one by
//! silent exit (exercising the [`FrontierWatchdog`] path). A monitor
//! thread plays the role of a kernel housekeeping timer: it runs the
//! watchdog scan and feeds live [`RtStats`] into an [`RtTuner`] that
//! retunes the reclaimer wheel on the fly.
//!
//! Every run is gated by the PR-5 ground-truth canary: each deferred item
//! records `min_live_tick() + grace` and the exclusion-event epoch at
//! defer time; sampled collects re-check `min_live_tick() ≥ due` whenever
//! the epoch is unchanged (an exclusion or rejoin in between legitimately
//! moves the live minimum non-monotonically, so those windows only skip
//! the *strict* check — the structural guarantees are still loom/proptest
//! checked). A trip means memory was handed back while a live core could
//! still hold a stale translation, and the soak fails.
//!
//! Pass criteria ([`soak_passed`]): zero canary trips, every *fired*
//! thread death excluded within the recovery bound (twice the watchdog
//! timeout plus generous oversubscription slack — the container running
//! this likely has far fewer hardware threads than the 120 the largest
//! shape drives), and no live core stuck excluded past that same bound
//! (a healthy excluded core rejoins on its very next tick).
//!
//! [`SweepGuard`]: latr_core::rt::SweepGuard
//! [`FrontierWatchdog`]: latr_core::rt::FrontierWatchdog
//! [`RtStats`]: latr_core::rt::RtStats
//! [`RtTuner`]: latr_core::rt::RtTuner

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use latr_core::rt::{
    ReclaimBackend, Reclaimer, RtRegistry, RtTuner, RtTuningConfig, SoftTlb, SoftTlbTable,
    SweepMode,
};
use latr_faults::{ThreadFault, ThreadFaultInjector, ThreadFaultPlan};

/// Keys in the shared table; lookups and unmaps cycle over this space.
const KEYSPACE: u64 = 256;
/// Lookups per loop round, between sweeps.
const LOOKUPS_PER_ROUND: u64 = 32;
/// Reclamation grace in sweep ticks (§4.2's two cycles). The tuner is
/// configured with `min_grace == base_grace == GRACE` so adaptive runs
/// never shrink it — the canary's recorded dues stay sound.
const GRACE: u64 = 2;
/// Per-core queue capacity. Between a thread's death and its exclusion
/// the dead queue fills and publishers overflow; the reap-on-exclusion
/// path then clears it.
const QUEUE_SLOTS: usize = 512;
/// How often (in rounds) a collect re-derives the ground truth.
const CANARY_SAMPLE_ROUNDS: u64 = 8;
/// Monitor (watchdog + tuner) cadence.
const MONITOR_PERIOD: Duration = Duration::from_millis(25);

/// The engine stacks the soak hardens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoakEngine {
    /// Pending-bitmap sweep + sharded wheel reclaimer + cached frontier.
    Sharded,
    /// Full-scan sweep + mutexed reference reclaimer.
    Reference,
}

impl SoakEngine {
    /// The label used in rows and JSON.
    pub fn name(self) -> &'static str {
        match self {
            SoakEngine::Sharded => "sharded",
            SoakEngine::Reference => "reference",
        }
    }

    /// Both engines, in report order.
    pub fn all() -> [SoakEngine; 2] {
        [SoakEngine::Sharded, SoakEngine::Reference]
    }
}

/// One engine × thread-count soak measurement.
#[derive(Clone, Debug)]
pub struct SoakPoint {
    /// Engine label.
    pub engine: &'static str,
    /// Real OS threads driven.
    pub threads: usize,
    /// Wall-clock nanoseconds for the measured window.
    pub wall_ns: u128,
    /// Lookups + unmaps completed across all threads.
    pub ops: u64,
    /// Loop rounds completed across all threads.
    pub rounds: u64,
    /// Unmap rounds completed.
    pub unmaps: u64,
    /// Items the reclaimer handed back.
    pub collected: u64,
    /// Publishes refused on a full queue (from the registry snapshot).
    pub overflows: u64,
    /// `overflows / (overflows + states_saved)`.
    pub overflow_rate: f64,
    /// Median sampled reclaim lag (ticks past due at collection).
    pub lag_p50: u64,
    /// 99th-percentile sampled reclaim lag.
    pub lag_p99: u64,
    /// Maximum sampled reclaim lag.
    pub lag_max: u64,
    /// Whether every sampled collect passed the ground-truth due check.
    pub canary_ok: bool,
    /// Scheduled deaths that actually fired during the window.
    pub deaths_fired: usize,
    /// Fired deaths whose core the runtime excluded.
    pub deaths_recovered: usize,
    /// Worst death-to-exclusion latency, in milliseconds.
    pub max_recovery_ms: f64,
    /// The bound `max_recovery_ms` is held to.
    pub recovery_bound_ms: f64,
    /// Watchdog exclusions of stalled (not dead) cores.
    pub stall_exclusions: u64,
    /// Panic-fence poisons (should cover exactly the panic deaths).
    pub panic_poisons: u64,
    /// Excluded cores that flushed and rejoined — every one of these is
    /// a recovered frontier stall.
    pub frontier_stall_recoveries: u64,
    /// Undelivered states reaped from dead cores' queue slots.
    pub reaped_states: u64,
    /// Live (non-dead) cores that stayed excluded past the recovery
    /// bound without rejoining — a genuine stuck frontier stall, as
    /// observed by the monitor during the window (teardown-time
    /// exclusions of already-exited workers never count).
    pub unrecovered_stalls: usize,
    /// Wall-clock milliseconds the tuner spent in degraded mode.
    pub degraded_ms: f64,
    /// Tuner wheel widenings.
    pub tuner_widenings: u64,
    /// Tuner wheel narrowings.
    pub tuner_narrowings: u64,
    /// Reclaimer wheel slots at the end of the run (0 for reference).
    pub final_wheel_slots: usize,
}

/// The thread counts a soak run drives.
pub fn soak_threads(quick: bool) -> Vec<usize> {
    if quick {
        vec![16]
    } else {
        vec![16, 64, 120]
    }
}

/// The soak window per (engine, shape) point.
pub fn soak_duration(quick: bool) -> Duration {
    if quick {
        Duration::from_secs(4)
    } else {
        Duration::from_secs(20)
    }
}

/// Watchdog timeout for a shape: oversubscribed shapes get a longer
/// leash, since on a small host a perfectly healthy thread can go
/// unscheduled for hundreds of milliseconds.
pub fn soak_watchdog_timeout(threads: usize) -> Duration {
    if threads > 64 {
        Duration::from_secs(1)
    } else {
        Duration::from_millis(500)
    }
}

/// The recovery bound a fired death is held to: twice the watchdog
/// timeout (ageing past the timeout, plus one full monitor scan of
/// slack) plus a large constant for scheduling noise on oversubscribed
/// hosts.
pub fn soak_recovery_bound(threads: usize) -> Duration {
    soak_watchdog_timeout(threads) * 2 + Duration::from_secs(5)
}

/// The default fault plan for a shape: background stalls, wakeup drops
/// and announce suppression on every thread, plus (when the shape has
/// threads to spare) one panic death and one silent death early in the
/// run.
pub fn soak_plan(threads: usize) -> ThreadFaultPlan {
    let mut plan = ThreadFaultPlan::default()
        .with_stalls(0.002, 200)
        .with_wakeup_drops(0.01)
        .with_announce_delays(0.05);
    if threads >= 4 {
        plan = plan.with_death((threads - 1) as u16, 400, true).with_death(
            (threads - 2) as u16,
            800,
            false,
        );
    }
    plan
}

#[derive(Default)]
struct SoakThreadStats {
    ops: u64,
    rounds: u64,
    unmaps: u64,
    collected: u64,
    lag: Vec<u64>,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one (engine, thread-count) soak point for `duration` under
/// `plan`, seeded with `seed`.
pub fn run_soak_point(
    engine: SoakEngine,
    threads: usize,
    duration: Duration,
    plan: ThreadFaultPlan,
    seed: u64,
) -> SoakPoint {
    let (mode, backend) = match engine {
        SoakEngine::Sharded => (SweepMode::Pending, ReclaimBackend::Sharded),
        SoakEngine::Reference => (SweepMode::FullScan, ReclaimBackend::Reference),
    };
    let watchdog_timeout = soak_watchdog_timeout(threads);
    let recovery_bound = soak_recovery_bound(threads);
    let registry = Arc::new(RtRegistry::with_watchdog(
        threads,
        QUEUE_SLOTS,
        watchdog_timeout.as_nanos() as u64,
    ));
    let table = Arc::new(SoftTlbTable::new(Arc::clone(&registry)));
    for k in 0..KEYSPACE {
        table.map_key(k, k + 1000);
    }
    // Items carry (conservative due tick, exclusion epoch at defer).
    let reclaimer: Arc<Reclaimer<(u64, u64)>> = Arc::new(Reclaimer::new(backend, GRACE, threads));
    let tuner = Arc::new(RtTuner::new(RtTuningConfig {
        base_grace: GRACE,
        min_grace: GRACE,
        ..RtTuningConfig::default()
    }));
    let injector = ThreadFaultInjector::new(plan.clone(), seed);
    let deaths = plan.deaths.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let canary_ok = Arc::new(AtomicBool::new(true));
    let results: Arc<Mutex<Vec<SoakThreadStats>>> = Arc::new(Mutex::new(Vec::new()));
    // Wall-clock (ns since `epoch`) of each scheduled death firing and of
    // the monitor first observing its core excluded; 0 = not yet.
    let death_at: Arc<Vec<AtomicU64>> = Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
    let recovered_at: Arc<Vec<AtomicU64>> =
        Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
    let barrier = Arc::new(Barrier::new(threads + 1));
    let epoch = Instant::now();

    let handles: Vec<_> = (0..threads)
        .map(|core| {
            let registry = Arc::clone(&registry);
            let table = Arc::clone(&table);
            let reclaimer = Arc::clone(&reclaimer);
            let stop = Arc::clone(&stop);
            let canary_ok = Arc::clone(&canary_ok);
            let results = Arc::clone(&results);
            let death_at = Arc::clone(&death_at);
            let barrier = Arc::clone(&barrier);
            let mut faults = injector.stream(core as u16);
            std::thread::spawn(move || {
                let mut tlb = SoftTlb::new(core, table.clone()).with_sweep_mode(mode);
                let mut stats = SoakThreadStats::default();
                let mut collect_buf: Vec<(u64, u64)> = Vec::new();
                let mut round = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let fault = faults.fault_at(round);
                    if let ThreadFault::Die { panic } = fault {
                        death_at[core].store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
                        results.lock().expect("stats lock").push(stats);
                        if panic {
                            // Die mid-sweep: the guard's Drop must poison
                            // only this core.
                            let _guard = registry.sweep_guard(core);
                            panic!("injected death of worker {core}");
                        }
                        return; // Silent death: the watchdog's problem.
                    }
                    for i in 0..LOOKUPS_PER_ROUND {
                        black_box(tlb.lookup((round.wrapping_mul(7) + i) % KEYSPACE));
                    }
                    stats.ops += LOOKUPS_PER_ROUND;
                    match fault {
                        // A stall window: keep publishing, skip the sweep
                        // — exactly the starvation the watchdog exists
                        // for.
                        ThreadFault::Stalled => {}
                        // Sweep without announcing: the cached frontier
                        // only learns of this progress at a forced
                        // refresh.
                        ThreadFault::DelayAnnounce => {
                            tlb.tick_unannounced();
                        }
                        _ => {
                            tlb.tick();
                        }
                    }
                    let key = (core as u64).wrapping_mul(31).wrapping_add(round) % KEYSPACE;
                    match table.unmap_lazy(core, key) {
                        Ok(_) => {
                            stats.unmaps += 1;
                            stats.ops += 1;
                            let due = registry.min_live_tick() + GRACE;
                            reclaimer.defer(&registry, core, (due, registry.exclusion_events()));
                            table.map_key(key, key + 1000);
                            // The publisher's post-publish nudge to
                            // sweepers — unless this round drops it, in
                            // which case they find the work on their own
                            // schedule.
                            if fault != ThreadFault::DropWakeup {
                                std::thread::yield_now();
                            }
                        }
                        Err(_) => {
                            std::thread::yield_now();
                        }
                    }
                    collect_buf.clear();
                    reclaimer.collect_into(&registry, core, &mut collect_buf);
                    if !collect_buf.is_empty() {
                        stats.collected += collect_buf.len() as u64;
                        if round.is_multiple_of(CANARY_SAMPLE_ROUNDS) {
                            let min_live = registry.min_live_tick();
                            let epoch_now = registry.exclusion_events();
                            for &(due, at_epoch) in &collect_buf {
                                // Only epochs with no exclusion or rejoin
                                // in between admit the strict check: a
                                // rejoining core legitimately re-enters
                                // below an already-collected due.
                                if at_epoch == epoch_now {
                                    if min_live < due {
                                        canary_ok.store(false, Ordering::Release);
                                    }
                                    stats.lag.push(min_live.saturating_sub(due));
                                }
                            }
                        }
                    }
                    round = round.wrapping_add(1);
                    stats.rounds += 1;
                }
                // A watchdog exclusion right before the window closed
                // would otherwise read as an unrecovered stall: one last
                // tick flushes and rejoins.
                if registry.is_excluded(core) {
                    tlb.tick();
                }
                results.lock().expect("stats lock").push(stats);
            })
        })
        .collect();

    // The monitor: the housekeeping timer a kernel would run. Watchdog
    // scan + adaptive retune every period, plus death-recovery and
    // stuck-exclusion bookkeeping for the report.
    let monitor = {
        let registry = Arc::clone(&registry);
        let reclaimer = Arc::clone(&reclaimer);
        let tuner = Arc::clone(&tuner);
        let stop = Arc::clone(&stop);
        let death_at = Arc::clone(&death_at);
        let recovered_at = Arc::clone(&recovered_at);
        let dead: Vec<usize> = deaths
            .iter()
            .map(|d| usize::from(d.thread))
            .filter(|&c| c < threads)
            .collect();
        std::thread::spawn(move || {
            let threads = death_at.len();
            let mut degraded = Duration::ZERO;
            let mut excluded_since: Vec<Option<Instant>> = vec![None; threads];
            let mut stuck = vec![false; threads];
            let mut last = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(MONITOR_PERIOD);
                if stop.load(Ordering::Relaxed) {
                    // No scan during teardown: excluding a worker that is
                    // already past its final rejoin check would read as a
                    // stuck stall.
                    break;
                }
                registry.check_watchdog();
                tuner.observe(&registry.stats());
                tuner.apply(&reclaimer);
                let now = Instant::now();
                if tuner.degraded() {
                    degraded += now - last;
                }
                last = now;
                for core in 0..threads {
                    if death_at[core].load(Ordering::Acquire) != 0
                        && recovered_at[core].load(Ordering::Relaxed) == 0
                        && registry.is_excluded(core)
                    {
                        recovered_at[core]
                            .store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
                    }
                    // A live core excluded this long without its rejoin
                    // landing is genuinely stuck (a healthy one rejoins
                    // on its very next tick).
                    if dead.contains(&core) {
                        continue;
                    }
                    if registry.is_excluded(core) {
                        let since = *excluded_since[core].get_or_insert(now);
                        if now.duration_since(since) > recovery_bound {
                            stuck[core] = true;
                        }
                    } else {
                        excluded_since[core] = None;
                    }
                }
            }
            (degraded, stuck.iter().filter(|&&s| s).count())
        })
    };

    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    // The monitor first, so no watchdog scan runs while workers drain
    // (their ageing timestamps would read as stalls).
    let (degraded, unrecovered_stalls) = monitor.join().expect("monitor thread");
    let mut panicked_workers = 0usize;
    for h in handles {
        if h.join().is_err() {
            panicked_workers += 1;
        }
    }
    let wall = start.elapsed().as_nanos().max(1);

    // Snapshot *before* the post-run recovery wait: exclusions that
    // happen after the workers exited are teardown artifacts, not run
    // behavior.
    let run_stats = registry.stats();
    let dead: Vec<usize> = deaths
        .iter()
        .map(|d| usize::from(d.thread))
        .filter(|&c| c < threads)
        .collect();

    // Fallback for deaths that fired so late the monitor never saw the
    // exclusion land: keep scanning (the workers are gone, so only the
    // dead cores matter) until every fired death recovers or its bound
    // expires.
    loop {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        let mut waiting = false;
        for &core in &dead {
            let died = death_at[core].load(Ordering::Acquire);
            if died == 0 || recovered_at[core].load(Ordering::Relaxed) != 0 {
                continue;
            }
            if registry.is_excluded(core) {
                recovered_at[core].store(now_ns.max(died + 1), Ordering::Release);
            } else if now_ns.saturating_sub(died) < recovery_bound.as_nanos() as u64 {
                waiting = true;
            }
        }
        if !waiting {
            break;
        }
        registry.check_watchdog();
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut deaths_fired = 0usize;
    let mut deaths_recovered = 0usize;
    let mut max_recovery_ns = 0u64;
    for &core in &dead {
        let died = death_at[core].load(Ordering::Acquire);
        if died == 0 {
            continue;
        }
        deaths_fired += 1;
        let rec = recovered_at[core].load(Ordering::Acquire);
        if rec != 0 {
            deaths_recovered += 1;
            max_recovery_ns = max_recovery_ns.max(rec.saturating_sub(died));
        }
    }
    assert_eq!(
        panicked_workers,
        deaths
            .iter()
            .filter(|d| d.panic && death_at[usize::from(d.thread)].load(Ordering::Acquire) != 0)
            .count(),
        "only injected panic deaths may panic"
    );

    let per_thread = std::mem::take(&mut *results.lock().expect("stats lock"));
    let mut ops = 0;
    let mut rounds = 0;
    let mut unmaps = 0;
    let mut collected = 0;
    let mut lag = Vec::new();
    for s in per_thread {
        ops += s.ops;
        rounds += s.rounds;
        unmaps += s.unmaps;
        collected += s.collected;
        lag.extend(s.lag);
    }
    lag.sort_unstable();
    let denom = run_stats.overflows + run_stats.states_saved;
    SoakPoint {
        engine: engine.name(),
        threads,
        wall_ns: wall,
        ops,
        rounds,
        unmaps,
        collected,
        overflows: run_stats.overflows,
        overflow_rate: if denom == 0 {
            0.0
        } else {
            run_stats.overflows as f64 / denom as f64
        },
        lag_p50: percentile(&lag, 0.50),
        lag_p99: percentile(&lag, 0.99),
        lag_max: lag.last().copied().unwrap_or(0),
        canary_ok: canary_ok.load(Ordering::Acquire),
        deaths_fired,
        deaths_recovered,
        max_recovery_ms: max_recovery_ns as f64 / 1e6,
        recovery_bound_ms: recovery_bound.as_nanos() as f64 / 1e6,
        stall_exclusions: run_stats.stall_exclusions,
        panic_poisons: run_stats.panic_poisons,
        frontier_stall_recoveries: run_stats.rejoins,
        reaped_states: run_stats.reaped_states,
        unrecovered_stalls,
        degraded_ms: degraded.as_nanos() as f64 / 1e6,
        tuner_widenings: tuner.widenings(),
        tuner_narrowings: tuner.narrowings(),
        final_wheel_slots: reclaimer.wheel_slots(),
    }
}

/// Whether every point survived: no canary trip, every fired death
/// recovered within its bound, no live core stuck excluded past it.
pub fn soak_passed(points: &[SoakPoint]) -> bool {
    points.iter().all(|p| {
        p.canary_ok
            && p.unrecovered_stalls == 0
            && p.deaths_recovered == p.deaths_fired
            && p.max_recovery_ms <= p.recovery_bound_ms
    })
}

/// Renders the measurement set as the `BENCH_soak.json` document.
/// Hand-rolled like `rt_scale_json`: the vendored serde stub does not
/// serialize.
pub fn soak_json(points: &[SoakPoint], quick: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"soak\",");
    let _ = writeln!(
        out,
        "  \"workload\": \"munmap-heavy soft-tlb loop under thread faults\","
    );
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"grace_ticks\": {GRACE},");
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"engine\": \"{}\", \"threads\": {}, \"wall_ns\": {}, \
             \"ops\": {}, \"rounds\": {}, \"unmaps\": {}, \"collected\": {}, \
             \"overflows\": {}, \"overflow_rate\": {:.4}, \
             \"reclaim_lag_p50\": {}, \"reclaim_lag_p99\": {}, \"reclaim_lag_max\": {}, \
             \"canary_ok\": {}, \"deaths_fired\": {}, \"deaths_recovered\": {}, \
             \"max_recovery_ms\": {:.1}, \"recovery_bound_ms\": {:.1}, \
             \"stall_exclusions\": {}, \"panic_poisons\": {}, \
             \"frontier_stall_recoveries\": {}, \"reaped_states\": {}, \
             \"unrecovered_stalls\": {}, \"degraded_ms\": {:.1}, \
             \"tuner_widenings\": {}, \"tuner_narrowings\": {}, \
             \"final_wheel_slots\": {}}}{comma}",
            p.engine,
            p.threads,
            p.wall_ns,
            p.ops,
            p.rounds,
            p.unmaps,
            p.collected,
            p.overflows,
            p.overflow_rate,
            p.lag_p50,
            p.lag_p99,
            p.lag_max,
            p.canary_ok,
            p.deaths_fired,
            p.deaths_recovered,
            p.max_recovery_ms,
            p.recovery_bound_ms,
            p.stall_exclusions,
            p.panic_poisons,
            p.frontier_stall_recoveries,
            p.reaped_states,
            p.unrecovered_stalls,
            p.degraded_ms,
            p.tuner_widenings,
            p.tuner_narrowings,
            p.final_wheel_slots,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"soak_passed\": {}", soak_passed(points));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(canary: bool, unrecovered: usize, fired: usize, recovered: usize) -> SoakPoint {
        SoakPoint {
            engine: "sharded",
            threads: 4,
            wall_ns: 1,
            ops: 1,
            rounds: 1,
            unmaps: 1,
            collected: 1,
            overflows: 0,
            overflow_rate: 0.0,
            lag_p50: 0,
            lag_p99: 1,
            lag_max: 2,
            canary_ok: canary,
            deaths_fired: fired,
            deaths_recovered: recovered,
            max_recovery_ms: 10.0,
            recovery_bound_ms: 100.0,
            stall_exclusions: 0,
            panic_poisons: 1,
            frontier_stall_recoveries: 0,
            reaped_states: 0,
            unrecovered_stalls: unrecovered,
            degraded_ms: 0.0,
            tuner_widenings: 0,
            tuner_narrowings: 0,
            final_wheel_slots: 8,
        }
    }

    #[test]
    fn pass_criteria_cover_each_failure_mode() {
        assert!(soak_passed(&[point(true, 0, 2, 2)]));
        assert!(!soak_passed(&[point(false, 0, 2, 2)])); // canary
        assert!(!soak_passed(&[point(true, 1, 2, 2)])); // stuck stall
        assert!(!soak_passed(&[point(true, 0, 2, 1)])); // lost death
    }

    #[test]
    fn json_is_well_formed() {
        let json = soak_json(&[point(true, 0, 2, 2)], true);
        assert!(json.contains("\"soak_passed\": true"));
        assert!(json.contains("\"deaths_recovered\": 2"));
        crate::assert_strict_json(&json);
    }

    #[test]
    fn default_plans_validate_at_every_shape() {
        for quick in [true, false] {
            for threads in soak_threads(quick) {
                assert_eq!(soak_plan(threads).validate(), Ok(()));
            }
        }
        assert_eq!(soak_plan(2).deaths.len(), 0, "tiny shapes keep all threads");
    }

    #[test]
    fn tiny_faulted_run_survives_on_both_engines() {
        // A miniature soak: 4 threads, a panic death and a silent death
        // early on. The panic excludes its core instantly via the sweep
        // guard; the silent one rides the 500 ms watchdog (mostly in the
        // post-run recovery wait), so each engine takes around a second.
        let plan = ThreadFaultPlan::default()
            .with_stalls(0.001, 50)
            .with_wakeup_drops(0.01)
            .with_announce_delays(0.05)
            .with_death(3, 50, true)
            .with_death(2, 90, false);
        for engine in SoakEngine::all() {
            let p = run_soak_point(engine, 4, Duration::from_millis(300), plan.clone(), 7);
            assert!(p.ops > 0, "{} did no work", p.engine);
            assert!(p.canary_ok, "{} tripped the canary", p.engine);
            assert_eq!(p.deaths_fired, 2, "{}: both deaths fire", p.engine);
            assert_eq!(
                p.deaths_recovered, p.deaths_fired,
                "{}: every death excluded",
                p.engine
            );
            assert!(
                p.max_recovery_ms <= p.recovery_bound_ms,
                "{}: recovery {}ms over bound {}ms",
                p.engine,
                p.max_recovery_ms,
                p.recovery_bound_ms
            );
            assert!(
                p.panic_poisons >= 1,
                "{}: panic fence never fired",
                p.engine
            );
            assert_eq!(p.unrecovered_stalls, 0, "{}: stuck exclusion", p.engine);
            assert!(soak_passed(&[p]));
        }
    }
}
