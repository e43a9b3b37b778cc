//! Tests of the benchmark itself: the catalog agrees with
//! `BENCHMARK.json`, the result line is strict JSON, the decorators
//! forward every hook, and the serving workloads are deterministic per
//! seed at a small size.

use std::any::Any;

use latr_arch::{CpuId, CpuMask, MachinePreset, NodeId, Topology};
use latr_kernel::{
    FlushKind, FlushOutcome, Machine, MachineConfig, Op, OpResult, ShootdownTxn, TaskId, TlbPolicy,
    TxnId, Workload,
};
use latr_mem::{MmId, Pfn, Pressure, VaRange, Vpn};
use latr_perfbench::json::Json;
use latr_perfbench::layers::{PolicyHook, TimedPolicy, TimedWorkload};
use latr_perfbench::serving::{run_rep, Mode, Serving};
use latr_perfbench::{rt, Catalog, Outcome, CATALOG};
use latr_sim::{Nanos, Time};

fn strings(v: &Json, key: &str) -> Vec<String> {
    v.as_array()
        .expect("array")
        .iter()
        .map(|e| e.get(key).and_then(Json::as_str).expect(key).to_string())
        .collect()
}

#[test]
fn catalog_is_complete_and_matches_benchmark_json() {
    let catalog = Json::parse(CATALOG).expect("catalog.json is strict JSON");
    let parsed = Catalog::parse(CATALOG).expect("catalog.json is well formed");
    let workloads = strings(catalog.get("workloads").expect("workloads"), "name");
    let mut names: Vec<_> = parsed
        .end_to_end
        .iter()
        .chain(&parsed.per_layer)
        .map(|s| s.name.clone())
        .collect();
    let count = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), count, "metric names are unique");

    for w in catalog
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
    {
        assert!(w
            .get("why")
            .and_then(Json::as_str)
            .is_some_and(|s| !s.is_empty()));
    }
    let e2e: Vec<_> = parsed.end_to_end.iter().map(|s| s.name.clone()).collect();
    for m in catalog
        .get("per_layer")
        .and_then(Json::as_array)
        .expect("per_layer")
    {
        let name = m.get("name").and_then(Json::as_str).expect("name");
        let layer = m.get("layer").and_then(Json::as_str).expect("layer");
        assert!(layer.starts_with("latr-"), "{name}: layer {layer}");
        for mv in m.get("moves").and_then(Json::as_array).expect("moves") {
            let metric = mv.get("metric").and_then(Json::as_str).expect("metric");
            let workload = mv.get("workload").and_then(Json::as_str).expect("workload");
            assert!(e2e.iter().any(|e| e == metric), "{name} moves {metric}");
            assert!(
                workloads.iter().any(|w| w == workload),
                "{name} on {workload}"
            );
        }
    }

    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let bench = Json::parse(&text).expect("BENCHMARK.json is strict JSON");
    // A catalogued workload is in BENCHMARK.json unless the catalog says
    // why not.
    let benchmarked: Vec<String> = catalog
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .filter(|w| w.get("not_in_benchmark_json").is_none())
        .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect();
    assert_eq!(
        strings(bench.get("workloads").expect("workloads"), "name"),
        benchmarked
    );
    for (key, specs) in [
        ("end_to_end", &parsed.end_to_end),
        ("per_layer", &parsed.per_layer),
    ] {
        let listed = bench.get(key).and_then(Json::as_array).expect(key);
        assert_eq!(listed.len(), specs.len(), "{key}");
        for (b, s) in listed.iter().zip(specs.iter()) {
            assert_eq!(b.get("name").and_then(Json::as_str), Some(s.name.as_str()));
            assert_eq!(b.get("unit").and_then(Json::as_str), Some(s.unit.as_str()));
            assert_eq!(
                b.get("better").and_then(Json::as_str),
                Some(s.better.as_str())
            );
        }
    }
    assert!(parsed
        .end_to_end
        .iter()
        .any(|s| s.name == "setup_s" && s.unit == "s"));
}

#[test]
fn result_line_is_strict_json_with_every_metric() {
    let catalog = Catalog::builtin();
    let mut out = Outcome {
        attempted: 3,
        ..Outcome::default()
    };
    for (i, s) in catalog.end_to_end.iter().enumerate() {
        out.metric(&s.name, 1.0 / (i + 3) as f64);
    }
    let line = Json::parse(&out.result_line(&catalog.end_to_end, false)).expect("strict JSON");
    let keys: Vec<_> = line.as_object().expect("object").keys().cloned().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let metrics = line
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), catalog.end_to_end.len());
    let first = &catalog.end_to_end[0];
    assert_eq!(
        metrics[&first.name].get("value").and_then(Json::as_f64),
        Some(1.0 / 3.0)
    );

    out.fail("a \"quoted\"\nreason".to_string());
    let traced = Outcome::default().result_line(&catalog.per_layer, true);
    let traced = Json::parse(&traced).expect("strict JSON");
    assert_eq!(
        traced
            .get("metrics")
            .and_then(Json::as_object)
            .map(|m| m.len()),
        Some(catalog.per_layer.len())
    );
    let failed = Json::parse(&out.result_line(&catalog.end_to_end, false)).expect("strict JSON");
    assert_eq!(failed.get("correct"), Some(&Json::Bool(false)));
}

#[test]
#[should_panic(expected = "was not measured")]
fn a_missing_end_to_end_metric_is_refused() {
    Outcome::default().result_line(&Catalog::builtin().end_to_end, false);
}

/// Records every call and answers with values the decorators must pass
/// back unchanged.
#[derive(Default)]
struct Recorder {
    calls: Vec<&'static str>,
}

impl TlbPolicy for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn flush_others(
        &mut self,
        _: &mut Machine,
        _: CpuId,
        _: Option<TaskId>,
        _: MmId,
        _: VaRange,
        _: &[(Vpn, Pfn)],
        _: FlushKind,
        start_delay: Nanos,
    ) -> FlushOutcome {
        self.calls.push("flush_others");
        FlushOutcome::Deferred {
            local_ns: start_delay + 1,
            defer_reclaim: true,
        }
    }
    fn on_sched_tick(&mut self, _: &mut Machine, _: CpuId) -> Nanos {
        self.calls.push("sched_tick");
        11
    }
    fn on_context_switch(&mut self, _: &mut Machine, _: CpuId) -> Nanos {
        self.calls.push("context_switch");
        13
    }
    fn on_reclaim_tick(&mut self, _: &mut Machine) {
        self.calls.push("reclaim_tick");
    }
    fn on_memory_pressure(&mut self, _: &mut Machine, _: NodeId, _: Pressure) {
        self.calls.push("memory_pressure");
    }
    fn on_alloc_stall(&mut self, _: &mut Machine, _: CpuId, _: NodeId) -> u64 {
        self.calls.push("alloc_stall");
        17
    }
    fn numa_hint_unmap(&mut self, _: &mut Machine, _: CpuId, _: MmId, _: Vpn) -> bool {
        self.calls.push("numa_hint_unmap");
        true
    }
    fn numa_fault_may_proceed(&mut self, _: &mut Machine, _: MmId, _: Vpn) -> bool {
        self.calls.push("numa_fault_may_proceed");
        false
    }
    fn on_sync_complete(&mut self, _: &mut Machine, _: &ShootdownTxn) {
        self.calls.push("sync_complete");
    }
    fn on_timer(&mut self, _: &mut Machine, _: u64) {
        self.calls.push("timer");
    }
    fn on_shutdown(&mut self, _: &mut Machine) {
        self.calls.push("shutdown");
    }
}

impl Workload for Recorder {
    fn setup(&mut self, _: &mut Machine) {
        self.calls.push("setup");
    }
    fn next_op(&mut self, _: &mut Machine, _: TaskId) -> Op {
        self.calls.push("next_op");
        Op::Compute(19)
    }
    fn on_op_complete(&mut self, _: &mut Machine, _: TaskId, _: OpResult) {
        self.calls.push("op_complete");
    }
    fn name(&self) -> &str {
        "recorder-workload"
    }
}

fn small_machine() -> Machine {
    Machine::new(MachineConfig::new(Topology::preset(
        MachinePreset::Commodity2S16C,
    )))
}

#[test]
fn policy_decorator_forwards_and_times_every_hook() {
    let mut m = small_machine();
    let mut p = TimedPolicy::new(Box::new(Recorder::default()));
    let (cpu, mm, vpn, node) = (CpuId(0), MmId(0), Vpn(0), NodeId(0));
    assert_eq!(p.name(), "recorder");
    let outcome = p.flush_others(
        &mut m,
        cpu,
        None,
        mm,
        VaRange::new(vpn, 1),
        &[],
        FlushKind::Unmap,
        4,
    );
    assert!(matches!(
        outcome,
        FlushOutcome::Deferred {
            local_ns: 5,
            defer_reclaim: true
        }
    ));
    assert_eq!(p.on_sched_tick(&mut m, cpu), 11);
    assert_eq!(p.on_context_switch(&mut m, cpu), 13);
    p.on_reclaim_tick(&mut m);
    p.on_memory_pressure(&mut m, node, Pressure::Low);
    assert_eq!(p.on_alloc_stall(&mut m, cpu, node), 17);
    assert!(p.numa_hint_unmap(&mut m, cpu, mm, vpn));
    assert!(!p.numa_fault_may_proceed(&mut m, mm, vpn));
    let txn = ShootdownTxn {
        id: TxnId(0),
        initiator: cpu,
        blocked_task: None,
        mm,
        pending: CpuMask::empty(),
        pages: Vec::new(),
        frames_to_release: Vec::new(),
        va_to_unblock: None,
        started: Time::ZERO,
        wait_started: Time::ZERO,
    };
    p.on_sync_complete(&mut m, &txn);
    p.on_timer(&mut m, 7);
    p.on_shutdown(&mut m);

    for hook in PolicyHook::ALL {
        assert_eq!(p.hook(hook).calls, 1, "{}", hook.name());
    }
    assert_eq!(p.mem.samples, 1, "the gauge samples at the reclaim tick");
    let recorder = (p.inner() as &dyn Any)
        .downcast_ref::<Recorder>()
        .expect("recorder");
    let expected: Vec<_> = PolicyHook::ALL.iter().map(|h| h.name()).collect();
    assert_eq!(recorder.calls, expected);
}

#[test]
fn workload_decorator_forwards_every_call() {
    for per_call in [false, true] {
        let mut m = small_machine();
        let mut w = TimedWorkload::new(Box::new(Recorder::default()), per_call);
        w.setup(&mut m);
        assert_eq!(w.next_op(&mut m, TaskId(0)), Op::Compute(19));
        w.on_op_complete(
            &mut m,
            TaskId(0),
            OpResult {
                op: Op::Compute(19),
                latency: 19,
            },
        );
        assert_eq!(w.name(), "recorder-workload");
        assert_eq!(w.next_op.calls, u64::from(per_call));
        assert_eq!(w.op_complete.calls, u64::from(per_call));
        let recorder = (w.inner() as &dyn Any)
            .downcast_ref::<Recorder>()
            .expect("recorder");
        assert_eq!(recorder.calls, ["setup", "next_op", "op_complete"]);
    }
}

#[test]
fn serving_workloads_are_deterministic_per_seed() {
    const SMALL: u64 = 10;
    for kind in Serving::ALL {
        let a = run_rep(kind, 7, 0, SMALL, Mode::Plain);
        let again = run_rep(kind, 7, 0, SMALL, Mode::Plain);
        let traced = run_rep(kind, 7, 0, SMALL, Mode::Traced);
        let held_out = run_rep(kind, 8, 0, SMALL, Mode::Plain);
        let other_sim = run_rep(kind, 7, 1, SMALL, Mode::Plain);
        for r in [&a, &again, &traced, &held_out, &other_sim] {
            assert!(r.failures.is_empty(), "{}: {:?}", kind.name(), r.failures);
            assert_eq!(r.counts.requests, r.total_requests);
        }
        assert_eq!(a.fold, again.fold, "{}: same seed, same fold", kind.name());
        assert_eq!(a.counts, again.counts);
        assert_eq!(a.fold, traced.fold, "{}: the trace perturbs", kind.name());
        assert_eq!(a.counts, traced.counts);
        assert_ne!(a.fold, held_out.fold, "{}: held-out seed", kind.name());
        assert_ne!(a.fold, other_sim.fold, "{}: second simulation", kind.name());
        // Kernel self time is the run minus the timed hooks, so what can
        // go wrong is a hook timed twice (the hooks exceed the run) or a
        // call the decorator misses (its counts fall short of the
        // machine's own).
        let layers = traced.layers.expect("traced repetition");
        let hooks: u64 = layers.policy.iter().map(|h| h.busy_ns).sum::<u64>()
            + layers.setup_ns
            + layers.next_op.busy_ns
            + layers.op_complete.busy_ns;
        assert!(
            hooks <= layers.run_ns,
            "{}: hooks exceed the run",
            kind.name()
        );
        assert_eq!(
            layers.policy[PolicyHook::SchedTick as usize].calls,
            traced.counts.kernel[3],
            "{}: one on_sched_tick per scheduler tick",
            kind.name()
        );
        assert_eq!(
            layers.policy[PolicyHook::FlushOthers as usize].calls,
            traced.counts.requests,
            "{}: one flush_others per served request's munmap",
            kind.name()
        );
        if kind.oracle() {
            assert!(a.counts.oracle_events > 0);
            let twin = run_rep(kind, 7, 0, SMALL, Mode::OracleOff);
            assert_eq!(twin.fold, a.fold, "the oracle is a pure observer");
            assert_eq!(twin.counts.oracle_events, 0);
        }
    }
}

#[test]
fn rt_lazy_runs_clean_at_a_small_size() {
    let out = rt::measure(3, 0.3);
    assert!(out.correct(), "{:?}", out.failures);
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0);
    let traced = rt::measure_traced(3, 0.3);
    assert!(traced.correct(), "{:?}", traced.failures);
    assert!(traced.value("rt.states_saved").is_some_and(|v| v > 0.0));
}
