//! Pinned simulated results of small serving points.
//!
//! The differential suites prove the engines agree with each other; this
//! test proves the simulation itself has not moved. It runs scaled-down
//! `latr` and `latr+sweep-chaos` curves of the serving bench
//! (`BENCH_serving.json`) and compares the event-stream fold, the event
//! count, the request p99 and a fold of every mmap placement with
//! constants captured before the sorted blocked-VA walk replaced the
//! linear rescan. A host-side optimisation must leave all four
//! untouched.
//!
//! The placement fold is there because the other three are blind to
//! where a range lands: shifting every Latr placement by one page leaves
//! the machine fingerprint of these runs unchanged.
//!
//! If a change is *meant* to alter the simulation, re-capture the
//! constants from this test's failure message and say why in the commit.

use latr_bench::serving::{serving_setup, serving_variants, SERVING_HORIZON};
use latr_kernel::{metrics, EngineBackend, Machine, Op, OpResult, TaskId, Workload};
use latr_workloads::ServingWorkload;

/// The serving bench's seed.
const SEED: u64 = 0xC0FF;
/// Requests each of the 120 workers admits.
const REQUESTS_PER_WORKER: u64 = 50;

/// Forwards to the serving workload and folds the completing task's
/// latest mmap placement into an FNV-1a hash at every op completion.
struct PlacementFold {
    inner: ServingWorkload,
    fold: u64,
}

impl Workload for PlacementFold {
    fn setup(&mut self, machine: &mut Machine) {
        self.inner.setup(machine);
    }

    fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
        self.inner.next_op(machine, task)
    }

    fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
        if let Some(range) = machine.task(task).last_mmap {
            for word in [range.start.0, range.pages] {
                self.fold = (self.fold ^ word).wrapping_mul(0x100_0000_01b3);
            }
        }
        self.inner.on_op_complete(machine, task, result);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// `(fold, events, request p99 ns, placement fold)` of one scaled-down
/// curve.
fn run(label: &str) -> (u64, u64, u64, u64) {
    let variant = serving_variants()
        .into_iter()
        .find(|v| v.label == label)
        .expect("known serving variant");
    let (mut machine, inner, policy) =
        serving_setup(EngineBackend::Fast, &variant, REQUESTS_PER_WORKER, SEED);
    let workload = PlacementFold {
        inner,
        fold: 0xcbf2_9ce4_8422_2325,
    };
    let (workload, _) = machine.run(Box::new(workload), policy.build(), SERVING_HORIZON);
    let placement = (workload as Box<dyn std::any::Any>)
        .downcast::<PlacementFold>()
        .expect("the workload that was run")
        .fold;
    let p99 = machine
        .stats
        .histogram(metrics::SERVING_REQUEST_NS)
        .expect("requests served")
        .summary()
        .p99;
    (
        machine.fingerprint_fold(),
        machine.events_delivered(),
        p99,
        placement,
    )
}

fn assert_pinned(label: &str, pinned: (u64, u64, u64, u64)) {
    let got = run(label);
    assert_eq!(
        got, pinned,
        "{label}: (fold, events, request p99 ns, placement fold) moved: \
         got ({:#018x}, {}, {}, {:#018x})",
        got.0, got.1, got.2, got.3
    );
}

#[test]
fn latr_serving_point_is_pinned() {
    assert_pinned(
        "latr",
        (
            0x3f3e_37ed_4fa0_2f6a,
            90_159,
            364_544,
            0x1fc3_7b6e_0939_39c8,
        ),
    );
}

#[test]
fn latr_sweep_chaos_serving_point_is_pinned() {
    assert_pinned(
        "latr+sweep-chaos",
        (
            0xf70a_2a0f_c1dd_d529,
            90_445,
            331_776,
            0xf769_bf38_46f6_9c1e,
        ),
    );
}
