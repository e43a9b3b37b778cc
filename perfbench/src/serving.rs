//! The three serving workloads: [`ServingWorkload`] on the 120-core
//! preset, timed end to end and, in a traced run, layer by layer.
//!
//! A run cycles through [`SUB_RUNS`] simulations at seeds derived from
//! the run's seed. Every repetition of one simulation must produce the
//! same fingerprint fold, counts and simulated-time figures; the
//! host-time figures are totals over all repetitions.

use std::any::Any;
use std::time::Instant;

use latr_bench::serving::{serving_shape, serving_variants, ServingVariant, SERVING_PROCS};
use latr_kernel::{metrics, EngineBackend, Machine, MachineConfig, TlbPolicy, Workload};
use latr_sim::{Histogram, MILLISECOND, SECOND};
use latr_workloads::{ArrivalProcess, ServingWorkload};

use crate::layers::{HookTime, MemGauge, PolicyHook, TimedPolicy, TimedWorkload};
use crate::stats::{median, median_index};
use crate::Outcome;

/// Requests each worker admits in one repetition (24,000 in all).
pub const REQUESTS_PER_WORKER: u64 = 200;
/// Distinct simulations a run cycles through, each at its own seed
/// derived from the run's seed. The simulated-time figures merge their
/// latency histograms, and a run makes at least one repetition of each.
pub const SUB_RUNS: u64 = 8;

/// The seed of simulation `sub` of a run at `seed`.
fn sub_seed(seed: u64, sub: u64) -> u64 {
    seed.wrapping_mul(SUB_RUNS).wrapping_add(sub)
}

/// One of the serving workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Serving {
    /// Latr's lazy path, oracle and faults off.
    Latr,
    /// The same arrivals under synchronous Linux shootdowns.
    Linux,
    /// Latr under the `latr+sweep-chaos` fault plan with the oracle on.
    ChaosOracle,
}

impl Serving {
    /// Every serving workload.
    pub const ALL: [Serving; 3] = [Serving::Latr, Serving::Linux, Serving::ChaosOracle];

    /// The workload name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Serving::Latr => "serving-latr",
            Serving::Linux => "serving-linux",
            Serving::ChaosOracle => "serving-chaos-oracle",
        }
    }

    /// The serving bench's curve this workload runs: its policy and
    /// fault plan.
    fn variant(self) -> ServingVariant {
        let label = match self {
            Serving::Latr => "latr",
            Serving::Linux => "linux",
            Serving::ChaosOracle => "latr+sweep-chaos",
        };
        serving_variants()
            .into_iter()
            .find(|v| v.label == label)
            .expect("the serving bench defines the curve")
    }

    fn policy(self) -> Box<dyn TlbPolicy> {
        self.variant().policy.build()
    }

    /// Whether the coherence oracle shadows the run.
    pub fn oracle(self) -> bool {
        self == Serving::ChaosOracle
    }
}

/// How one repetition is instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No per-call timers: the end-to-end measurement.
    Plain,
    /// Every policy and workload hook timed.
    Traced,
    /// Plain, with the oracle forced off: the verify layer's twin.
    OracleOff,
}

/// Simulated-time results; identical for every repetition at one seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimFigures {
    /// Arrival-to-munmap request latency mean, p50, p99 and p999, µs.
    /// The mean is exact; a quantile is the midpoint of a histogram
    /// bucket about 1.6% wide, and several read the same at every seed.
    pub request_us: [f64; 4],
    /// Requests in the latency histogram.
    pub request_samples: u64,
    /// `munmap` latency mean and p99, µs.
    pub munmap_us: [f64; 2],
    /// `munmap` calls in the histogram.
    pub munmap_samples: u64,
}

impl SimFigures {
    /// The figures of a request- and a munmap-latency histogram (ns).
    pub fn of(request: &Histogram, munmap: &Histogram) -> SimFigures {
        let us = |h: &Histogram, q: f64| h.percentile(q) as f64 / 1e3;
        SimFigures {
            request_us: [
                request.mean() / 1e3,
                us(request, 0.50),
                us(request, 0.99),
                us(request, 0.999),
            ],
            request_samples: request.count(),
            munmap_us: [munmap.mean() / 1e3, us(munmap, 0.99)],
            munmap_samples: munmap.count(),
        }
    }
}

/// Deterministic per-layer counts read after a repetition.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    /// Events the queue delivered.
    pub events: u64,
    /// Completed requests.
    pub requests: u64,
    /// Kernel counters: shootdowns, IPIs sent, page faults, scheduler
    /// ticks, context switches.
    pub kernel: [u64; 5],
    /// Latr counters, in the order of [`LATR_COUNTERS`].
    pub latr: [u64; 7],
    /// TLB lookups, misses, invalidations and full flushes, over cores.
    pub tlb: [u64; 4],
    /// Missed ticks and sweep stalls injected.
    pub faults: [u64; 2],
    /// Events the oracle observed.
    pub oracle_events: u64,
}

/// The Latr counters read from the run's stats, and their metric names.
const LATR_COUNTERS: [(&str, &str); 7] = [
    (metrics::LATR_STATES_SAVED, "latr.states_saved"),
    (metrics::LATR_SWEEP_HITS, "latr.sweep_hits"),
    (metrics::LATR_FALLBACK_IPIS, "latr.fallback_ipis"),
    (metrics::LATR_DEFERRED_FRAMES, "latr.deferred_frames"),
    (
        metrics::LATR_RECLAIM_RELEASED_FRAMES,
        "latr.reclaim_released_frames",
    ),
    (
        metrics::LATR_WATCHDOG_ESCALATIONS,
        "latr.watchdog_escalations",
    ),
    (metrics::LATR_ADAPTIVE_SYNC_OPS, "latr.adaptive_sync_ops"),
];

/// The host-time split of a traced repetition.
#[derive(Clone, Copy, Debug)]
pub struct LayerTimes {
    /// `Machine::run` wall time, ns.
    pub run_ns: u64,
    /// Per-hook policy timings.
    pub policy: [HookTime; PolicyHook::ALL.len()],
    /// Workload `setup`, ns.
    pub setup_ns: u64,
    /// Workload `next_op`.
    pub next_op: HookTime,
    /// Workload `on_op_complete`.
    pub op_complete: HookTime,
    /// The mem-layer gauge.
    pub mem: MemGauge,
    /// Sweeps (`on_sched_tick` and `on_context_switch` calls) that
    /// invalidated something.
    pub sweeps_hit: u64,
}

impl LayerTimes {
    /// Kernel self time: the run minus every policy and workload hook.
    pub fn kernel_self_ns(&self) -> u64 {
        let hooks: u64 = self.policy.iter().map(|h| h.busy_ns).sum::<u64>()
            + self.setup_ns
            + self.next_op.busy_ns
            + self.op_complete.busy_ns;
        self.run_ns.saturating_sub(hooks)
    }
}

/// One repetition's results.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Which of the run's simulations this repetition ran.
    pub sub: u64,
    /// `Machine::fingerprint_fold()` after the run.
    pub fold: u64,
    /// `Machine::run` wall time minus the workload's `setup`, ns.
    pub serve_ns: u64,
    /// Requests the workload was asked to serve.
    pub total_requests: u64,
    /// Simulated-time figures of this repetition alone.
    pub sim: SimFigures,
    /// Its request and `munmap` latency histograms (ns), kept for the
    /// first repetition of each simulation only, so that memory does not
    /// grow with the number of repetitions.
    pub histograms: Option<Box<[Histogram; 2]>>,
    /// Deterministic counts.
    pub counts: Counts,
    /// Layer timings (traced repetitions only).
    pub layers: Option<LayerTimes>,
    /// Correctness gates that failed, by reason.
    pub failures: Vec<String>,
}

fn build(
    kind: Serving,
    seed: u64,
    requests_per_worker: u64,
    mode: Mode,
) -> (Machine, ServingWorkload) {
    let (topology, cores) = serving_shape();
    let mut config = MachineConfig::new(topology);
    config.seed = seed;
    config.trace_capacity = 0;
    config.engine = EngineBackend::Fast;
    config.oracle = kind.oracle() && mode != Mode::OracleOff;
    config.faults = kind.variant().faults;
    // The arrivals and workload seed of the serving bench's curves.
    let workload = ServingWorkload::new(cores, SERVING_PROCS, requests_per_worker)
        .with_arrivals(ArrivalProcess::Bursty {
            period: 4 * MILLISECOND,
            on_pct: 25,
            factor: 2.0,
        })
        .with_seed(seed ^ 0x5e21);
    (Machine::new(config), workload)
}

/// Host nanoseconds to set `kind` up once: `Machine::new` plus the
/// workload's `setup`.
pub fn setup_once(kind: Serving, seed: u64) -> u64 {
    let t0 = Instant::now();
    let (mut machine, mut workload) =
        build(kind, sub_seed(seed, 0), REQUESTS_PER_WORKER, Mode::Plain);
    workload.setup(&mut machine);
    t0.elapsed().as_nanos() as u64
}

/// Runs simulation `sub` of a run of `kind` at `seed` once.
pub fn run_rep(kind: Serving, seed: u64, sub: u64, requests_per_worker: u64, mode: Mode) -> Rep {
    let (mut machine, workload) = build(kind, sub_seed(seed, sub), requests_per_worker, mode);
    let total_requests = workload.total_requests();
    let traced = mode == Mode::Traced;
    let workload = Box::new(TimedWorkload::new(Box::new(workload), traced));
    let policy: Box<dyn TlbPolicy> = if traced {
        Box::new(TimedPolicy::new(kind.policy()))
    } else {
        kind.policy()
    };
    let t0 = Instant::now();
    let (workload, policy) = machine.run(workload, policy, 60 * SECOND);
    let run_ns = t0.elapsed().as_nanos() as u64;

    let workload = (workload as Box<dyn Any>)
        .downcast::<TimedWorkload>()
        .expect("the run hands back the workload it was given");
    let layers = traced.then(|| {
        let policy = (policy as Box<dyn Any>)
            .downcast::<TimedPolicy>()
            .expect("the run hands back the policy it was given");
        LayerTimes {
            run_ns,
            policy: policy.hooks,
            setup_ns: workload.setup_ns,
            next_op: workload.next_op,
            op_complete: workload.op_complete,
            mem: policy.mem,
            sweeps_hit: policy.sweeps_hit,
        }
    });

    let stats = &machine.stats;
    let histogram = |name| stats.histogram(name).cloned().unwrap_or_default();
    let request_ns = histogram(metrics::SERVING_REQUEST_NS);
    let munmap_ns = histogram(metrics::MUNMAP_NS);
    let mut tlb = [0; 4];
    for core in &machine.cores {
        let s = core.tlb.stats();
        tlb[0] += s.l1_hits + s.l2_hits + s.misses;
        tlb[1] += s.misses;
        tlb[2] += s.invalidations;
        tlb[3] += s.full_flushes;
    }
    let counts = Counts {
        events: machine.events_delivered(),
        requests: stats.counter(metrics::WORK_UNITS),
        kernel: [
            metrics::SHOOTDOWNS,
            metrics::IPIS_SENT,
            metrics::PAGE_FAULTS,
            metrics::SCHED_TICKS,
            metrics::CONTEXT_SWITCHES,
        ]
        .map(|c| stats.counter(c)),
        latr: LATR_COUNTERS.map(|(c, _)| stats.counter(c)),
        tlb,
        faults: [metrics::FAULTS_TICKS_MISSED, metrics::FAULTS_SWEEP_STALLS]
            .map(|c| stats.counter(c)),
        oracle_events: machine.oracle_events_observed(),
    };

    let mut failures = Vec::new();
    if counts.requests != total_requests || request_ns.count() != total_requests {
        failures.push(format!(
            "{} of {total_requests} requests completed ({} latency samples)",
            counts.requests,
            request_ns.count()
        ));
    }
    if let Some(v) = machine.check_reclamation_invariant() {
        failures.push(format!("reclamation invariant: {v:?}"));
    }
    if let Some(v) = machine.check_mapping_coherence() {
        failures.push(format!("mapping coherence: {v:?}"));
    }
    if kind.oracle() && mode != Mode::OracleOff {
        if let Some(v) = machine.oracle_violation() {
            failures.push(format!("oracle violation: {v:?}"));
        }
        if counts.oracle_events == 0 {
            failures.push("the oracle observed no events".to_string());
        }
    }

    Rep {
        sub,
        fold: machine.fingerprint_fold(),
        serve_ns: run_ns - workload.setup_ns,
        total_requests,
        sim: SimFigures::of(&request_ns, &munmap_ns),
        histograms: Some(Box::new([request_ns, munmap_ns])),
        counts,
        layers,
        failures,
    }
}

/// Calls `round(i)` for i = 0, 1, ... until `seconds` have passed and at
/// least [`SUB_RUNS`] rounds ran.
fn repeat(seconds: f64, mut round: impl FnMut(u64)) {
    let start = Instant::now();
    let mut i = 0;
    while i < SUB_RUNS || start.elapsed().as_secs_f64() < seconds {
        round(i);
        i += 1;
    }
}

/// Checks the determinism gate over `reps` — every repetition of one
/// simulation must fold and count the same — and tallies attempts and
/// failures into `out`.
fn gate(reps: &[Rep], out: &mut Outcome) {
    for (i, r) in reps.iter().enumerate() {
        out.attempted += r.total_requests;
        if r.failures.is_empty() {
            out.failed += r.total_requests - r.counts.requests.min(r.total_requests);
        } else {
            out.failed += r.total_requests;
            for f in &r.failures {
                out.fail(format!("repetition {i}: {f}"));
            }
        }
        let first = reps.iter().find(|f| f.sub == r.sub).expect("r itself");
        if r.fold != first.fold {
            out.fail(format!(
                "repetition {i}: fingerprint fold {:016x} differs from {:016x}",
                r.fold, first.fold
            ));
        }
        if r.sim != first.sim || r.counts != first.counts {
            out.fail(format!("repetition {i}: simulated-time results differ"));
        }
    }
}

/// The simulated-time figures of a run: the latency histograms of its
/// simulations, merged.
fn merged(reps: &[Rep]) -> SimFigures {
    let (mut request, mut munmap) = (Histogram::new(), Histogram::new());
    for sub in 0..SUB_RUNS {
        let r = reps
            .iter()
            .find(|r| r.sub == sub)
            .expect("every simulation ran");
        let [req, unmap] = &**r
            .histograms
            .as_ref()
            .expect("kept for the first repetition");
        request.merge(req);
        munmap.merge(unmap);
    }
    SimFigures::of(&request, &munmap)
}

/// `rep`, the `i`-th of its run, with its histograms dropped unless it
/// is the first repetition of its simulation.
fn keep_first(i: u64, mut rep: Rep) -> Rep {
    if i >= SUB_RUNS {
        rep.histograms = None;
    }
    rep
}

fn us_per_request(r: &Rep) -> f64 {
    r.serve_ns as f64 / 1e3 / r.counts.requests.max(1) as f64
}

/// The untraced run: end-to-end metrics but `setup_s`.
pub fn measure(kind: Serving, seed: u64, seconds: f64) -> Outcome {
    let mut reps = Vec::new();
    repeat(seconds, |i| {
        let rep = run_rep(kind, seed, i % SUB_RUNS, REQUESTS_PER_WORKER, Mode::Plain);
        reps.push(keep_first(i, rep));
    });
    let mut out = Outcome::default();
    gate(&reps, &mut out);
    // Totals over the run rather than medians of repetitions: the host's
    // speed drifts in phases of seconds, which a total averages over.
    let serve_ns = reps.iter().map(|r| r.serve_ns).sum::<u64>() as f64;
    let total = |f: fn(&Rep) -> u64| reps.iter().map(f).sum::<u64>().max(1) as f64;
    let sim = merged(&reps);
    out.metric(
        "host_us_per_request",
        serve_ns / 1e3 / total(|r| r.counts.requests),
    );
    out.metric("host_ns_per_event", serve_ns / total(|r| r.counts.events));
    out.metric("peak_rss_mb", crate::host::peak_rss_mb());
    out.metric("request_mean_us", sim.request_us[0]);
    out.metric("munmap_mean_us", sim.munmap_us[0]);
    out.note(format!(
        "{} repetitions of {} simulations of {} requests; {} request and {} munmap latency samples; folds {:x?}",
        reps.len(),
        SUB_RUNS,
        reps[0].total_requests,
        sim.request_samples,
        sim.munmap_samples,
        reps[..SUB_RUNS as usize].iter().map(|r| r.fold).collect::<Vec<_>>()
    ));
    out.note(format!(
        "host us/request per repetition: {:?}",
        reps.iter()
            .map(|r| (us_per_request(r) * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    out
}

/// The traced run: per-layer metrics. Plain and traced repetitions of
/// the same simulation alternate, so their ratio is the tracing
/// overhead; on the oracle workload an oracle-off twin joins each round
/// to price the verify layer. The layer split is reported from the
/// traced repetition of the first simulation with the median run time,
/// so its parts sum to that repetition's run.
pub fn measure_traced(kind: Serving, seed: u64, seconds: f64) -> Outcome {
    let (mut plain, mut traced, mut twins) = (Vec::new(), Vec::new(), Vec::new());
    repeat(seconds, |i| {
        let sub = i % SUB_RUNS;
        let rep = run_rep(kind, seed, sub, REQUESTS_PER_WORKER, Mode::Plain);
        plain.push(keep_first(i, rep));
        let rep = run_rep(kind, seed, sub, REQUESTS_PER_WORKER, Mode::Traced);
        traced.push(keep_first(SUB_RUNS, rep));
        if kind.oracle() {
            twins.push(run_rep(
                kind,
                seed,
                sub,
                REQUESTS_PER_WORKER,
                Mode::OracleOff,
            ));
        }
    });
    let mut out = Outcome::default();
    let all: Vec<Rep> = plain.iter().chain(&traced).cloned().collect();
    gate(&all, &mut out);
    for (t, p) in twins.iter().zip(&plain) {
        if t.fold != p.fold {
            out.fail(format!(
                "oracle-off twin of simulation {}: fold {:016x} differs from {:016x}",
                t.sub, t.fold, p.fold
            ));
        }
    }

    let serve = |reps: &[Rep]| median(&reps.iter().map(|r| r.serve_ns as f64).collect::<Vec<_>>());
    let first: Vec<&Rep> = traced.iter().filter(|r| r.sub == 0).collect();
    let pick = first[median_index(
        &first
            .iter()
            .map(|r| r.layers.expect("traced").run_ns as f64)
            .collect::<Vec<_>>(),
    )];
    let l = pick.layers.expect("traced");
    let c = pick.counts;
    let ms = |ns: u64| ns as f64 / 1e6;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    out.metric("kernel.run_ms", ms(l.run_ns));
    out.metric("kernel.self_ms", ms(l.kernel_self_ns()));
    out.metric(
        "kernel.self_ns_per_event",
        l.kernel_self_ns() as f64 / c.events.max(1) as f64,
    );
    for (name, v) in [
        "kernel.shootdowns",
        "kernel.ipis_sent",
        "kernel.page_faults",
        "kernel.sched_ticks",
        "kernel.context_switches",
    ]
    .iter()
    .zip(c.kernel)
    {
        out.metric(name, v as f64);
    }
    out.metric("mem.blocked_va_ranges_mean", l.mem.blocked_mean());
    out.metric("mem.blocked_va_ranges_max", l.mem.blocked_max as f64);
    out.metric("mem.vmas_mean", l.mem.vmas_mean());
    out.metric("mem.reclaim_debt_frames_max", l.mem.debt_max as f64);
    out.metric("sim.events", c.events as f64);
    out.metric("sim.events_per_request", ratio(c.events, c.requests));
    out.metric("sim.requests", c.requests as f64);
    let sim = merged(&plain);
    out.metric("sim.request_p50_us", sim.request_us[1]);
    out.metric("sim.request_p99_us", sim.request_us[2]);
    out.metric("sim.request_p999_us", sim.request_us[3]);
    out.metric("sim.munmap_p99_us", sim.munmap_us[1]);
    for hook in [
        PolicyHook::FlushOthers,
        PolicyHook::SchedTick,
        PolicyHook::ContextSwitch,
        PolicyHook::ReclaimTick,
        PolicyHook::SyncComplete,
        PolicyHook::Timer,
    ] {
        let h = l.policy[hook as usize];
        out.metric(&format!("policy.{}.calls", hook.name()), h.calls as f64);
        out.metric(&format!("policy.{}.busy_ms", hook.name()), ms(h.busy_ns));
        out.metric(
            &format!("policy.{}.ns_per_call", hook.name()),
            h.ns_per_call(),
        );
    }
    let other: HookTime = [
        PolicyHook::MemoryPressure,
        PolicyHook::AllocStall,
        PolicyHook::NumaHintUnmap,
        PolicyHook::NumaFaultMayProceed,
        PolicyHook::Shutdown,
    ]
    .iter()
    .fold(HookTime::default(), |a, &h| HookTime {
        calls: a.calls + l.policy[h as usize].calls,
        busy_ns: a.busy_ns + l.policy[h as usize].busy_ns,
    });
    out.metric("policy.other.calls", other.calls as f64);
    out.metric("policy.other.busy_ms", ms(other.busy_ns));
    for ((_, name), v) in LATR_COUNTERS.iter().zip(c.latr) {
        out.metric(name, v as f64);
    }
    let sweeps = l.policy[PolicyHook::SchedTick as usize].calls
        + l.policy[PolicyHook::ContextSwitch as usize].calls;
    out.metric("latr.sweep_hit_ratio", ratio(l.sweeps_hit, sweeps));
    out.metric("tlb.lookups", c.tlb[0] as f64);
    out.metric("tlb.miss_ratio", ratio(c.tlb[1], c.tlb[0]));
    out.metric("tlb.invalidations", c.tlb[2] as f64);
    out.metric("tlb.full_flushes", c.tlb[3] as f64);
    out.metric("verify.events_observed", c.oracle_events as f64);
    let verify_ns = if twins.is_empty() {
        0.0
    } else {
        (serve(&plain) - serve(&twins)).max(0.0)
    };
    out.metric("verify.overhead_ms", verify_ns / 1e6);
    out.metric(
        "verify.ns_per_observed_event",
        if c.oracle_events == 0 {
            0.0
        } else {
            verify_ns / c.oracle_events as f64
        },
    );
    out.metric("faults.ticks_missed", c.faults[0] as f64);
    out.metric("faults.sweep_stalls", c.faults[1] as f64);
    for (name, h) in [("next_op", l.next_op), ("op_complete", l.op_complete)] {
        out.metric(&format!("workload.{name}.calls"), h.calls as f64);
        out.metric(&format!("workload.{name}.busy_ms"), ms(h.busy_ns));
        out.metric(&format!("workload.{name}.ns_per_call"), h.ns_per_call());
    }
    out.metric("workload.setup_ms", ms(l.setup_ns));
    out.metric(
        "trace.overhead_pct",
        (serve(&traced) / serve(&plain) - 1.0) * 100.0,
    );
    out.note(format!(
        "{} plain, {} traced and {} oracle-off repetitions; layer split from a traced repetition of simulation 0",
        plain.len(),
        traced.len(),
        twins.len()
    ));
    out
}
