//! Outside-in layer timing: decorators around the two trait objects
//! [`Machine::run`] accepts.
//!
//! [`TimedPolicy`] wraps a `Box<dyn TlbPolicy>` and times every hook;
//! [`TimedWorkload`] wraps a `Box<dyn Workload>` and times `setup`,
//! `next_op` and `on_op_complete`. What `Machine::run` spends outside
//! both is the kernel's self time (event queue, dispatch, page tables,
//! TLB model, stats and fingerprint fold, oracle). Both decorators only
//! forward: the simulation they drive is event-for-event the same, which
//! the benchmark checks by comparing fingerprint folds.

use std::time::Instant;

use latr_arch::{CpuId, NodeId};
use latr_kernel::{
    metrics, FlushKind, FlushOutcome, Machine, Op, OpResult, ShootdownTxn, TaskId, TlbPolicy,
    Workload,
};
use latr_mem::{MmId, Pfn, Pressure, VaRange, Vpn};
use latr_sim::Nanos;

/// Calls into one hook and the host time spent inside them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HookTime {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside the hook.
    pub busy_ns: u64,
}

impl HookTime {
    fn add(&mut self, since: Instant) {
        self.calls += 1;
        self.busy_ns += since.elapsed().as_nanos() as u64;
    }

    /// Mean host nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.calls as f64
        }
    }
}

/// The [`TlbPolicy`] hooks, in the order [`TimedPolicy::hooks`] keeps them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyHook {
    /// `flush_others`.
    FlushOthers,
    /// `on_sched_tick`.
    SchedTick,
    /// `on_context_switch`.
    ContextSwitch,
    /// `on_reclaim_tick`.
    ReclaimTick,
    /// `on_memory_pressure`.
    MemoryPressure,
    /// `on_alloc_stall`.
    AllocStall,
    /// `numa_hint_unmap`.
    NumaHintUnmap,
    /// `numa_fault_may_proceed`.
    NumaFaultMayProceed,
    /// `on_sync_complete`.
    SyncComplete,
    /// `on_timer`.
    Timer,
    /// `on_shutdown`.
    Shutdown,
}

impl PolicyHook {
    /// Every hook.
    pub const ALL: [PolicyHook; 11] = [
        PolicyHook::FlushOthers,
        PolicyHook::SchedTick,
        PolicyHook::ContextSwitch,
        PolicyHook::ReclaimTick,
        PolicyHook::MemoryPressure,
        PolicyHook::AllocStall,
        PolicyHook::NumaHintUnmap,
        PolicyHook::NumaFaultMayProceed,
        PolicyHook::SyncComplete,
        PolicyHook::Timer,
        PolicyHook::Shutdown,
    ];

    /// The name used in metric names (`policy.<name>.calls`).
    pub fn name(self) -> &'static str {
        match self {
            PolicyHook::FlushOthers => "flush_others",
            PolicyHook::SchedTick => "sched_tick",
            PolicyHook::ContextSwitch => "context_switch",
            PolicyHook::ReclaimTick => "reclaim_tick",
            PolicyHook::MemoryPressure => "memory_pressure",
            PolicyHook::AllocStall => "alloc_stall",
            PolicyHook::NumaHintUnmap => "numa_hint_unmap",
            PolicyHook::NumaFaultMayProceed => "numa_fault_may_proceed",
            PolicyHook::SyncComplete => "sync_complete",
            PolicyHook::Timer => "timer",
            PolicyHook::Shutdown => "shutdown",
        }
    }
}

/// The mem-layer gauge, sampled at every reclaim tick.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemGauge {
    /// Reclaim ticks sampled.
    pub samples: u64,
    /// Sum over samples of the blocked VA ranges across every mm.
    pub blocked_sum: u64,
    /// Largest such total.
    pub blocked_max: u64,
    /// Sum over samples of the VMAs across every mm.
    pub vmas_sum: u64,
    /// Largest reclamation debt seen, in frames.
    pub debt_max: u64,
}

impl MemGauge {
    fn sample(&mut self, machine: &Machine) {
        let (mut blocked, mut vmas) = (0, 0);
        for id in 0..machine.num_mms() {
            let mm = machine.mm(MmId(id as u32));
            blocked += mm.blocked_ranges().len() as u64;
            vmas += mm.vmas.len() as u64;
        }
        self.samples += 1;
        self.blocked_sum += blocked;
        self.blocked_max = self.blocked_max.max(blocked);
        self.vmas_sum += vmas;
        self.debt_max = self.debt_max.max(machine.reclaim_debt_total());
    }

    /// Mean blocked VA ranges per sample.
    pub fn blocked_mean(&self) -> f64 {
        self.blocked_sum as f64 / self.samples.max(1) as f64
    }

    /// Mean VMAs per sample.
    pub fn vmas_mean(&self) -> f64 {
        self.vmas_sum as f64 / self.samples.max(1) as f64
    }
}

/// A [`TlbPolicy`] that times every hook of the policy it wraps, samples
/// the mem-layer gauge at each reclaim tick and counts the sweeps that
/// invalidated something (both outside the timed span, so they land in
/// kernel self time).
pub struct TimedPolicy {
    inner: Box<dyn TlbPolicy>,
    /// Per-hook timings, indexed by [`PolicyHook`] as `usize`.
    pub hooks: [HookTime; PolicyHook::ALL.len()],
    /// The mem-layer gauge.
    pub mem: MemGauge,
    /// `on_sched_tick` and `on_context_switch` calls (the sweeps) during
    /// which the Latr sweep-hit counter rose.
    pub sweeps_hit: u64,
}

impl TimedPolicy {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn TlbPolicy>) -> Self {
        TimedPolicy {
            inner,
            hooks: [HookTime::default(); PolicyHook::ALL.len()],
            mem: MemGauge::default(),
            sweeps_hit: 0,
        }
    }

    /// The timing of one hook.
    pub fn hook(&self, hook: PolicyHook) -> HookTime {
        self.hooks[hook as usize]
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &dyn TlbPolicy {
        self.inner.as_ref()
    }
}

macro_rules! timed {
    ($self:ident, $hook:expr, $call:expr) => {{
        let t0 = Instant::now();
        let r = $call;
        $self.hooks[$hook as usize].add(t0);
        r
    }};
}

/// A sweep hook, timed, counting into `sweeps_hit` whether it swept
/// anything.
macro_rules! sweep {
    ($self:ident, $machine:ident, $hook:expr, $call:expr) => {{
        let before = $machine.stats.counter(metrics::LATR_SWEEP_HITS);
        let r = timed!($self, $hook, $call);
        $self.sweeps_hit += u64::from($machine.stats.counter(metrics::LATR_SWEEP_HITS) > before);
        r
    }};
}

impl TlbPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn flush_others(
        &mut self,
        machine: &mut Machine,
        initiator: CpuId,
        task: Option<TaskId>,
        mm: MmId,
        range: VaRange,
        pages: &[(Vpn, Pfn)],
        kind: FlushKind,
        start_delay: Nanos,
    ) -> FlushOutcome {
        timed!(
            self,
            PolicyHook::FlushOthers,
            self.inner.flush_others(
                machine,
                initiator,
                task,
                mm,
                range,
                pages,
                kind,
                start_delay
            )
        )
    }

    fn on_sched_tick(&mut self, machine: &mut Machine, cpu: CpuId) -> Nanos {
        sweep!(
            self,
            machine,
            PolicyHook::SchedTick,
            self.inner.on_sched_tick(machine, cpu)
        )
    }

    fn on_context_switch(&mut self, machine: &mut Machine, cpu: CpuId) -> Nanos {
        sweep!(
            self,
            machine,
            PolicyHook::ContextSwitch,
            self.inner.on_context_switch(machine, cpu)
        )
    }

    fn on_reclaim_tick(&mut self, machine: &mut Machine) {
        self.mem.sample(machine);
        timed!(
            self,
            PolicyHook::ReclaimTick,
            self.inner.on_reclaim_tick(machine)
        )
    }

    fn on_memory_pressure(&mut self, machine: &mut Machine, node: NodeId, level: Pressure) {
        timed!(
            self,
            PolicyHook::MemoryPressure,
            self.inner.on_memory_pressure(machine, node, level)
        )
    }

    fn on_alloc_stall(&mut self, machine: &mut Machine, cpu: CpuId, node: NodeId) -> u64 {
        timed!(
            self,
            PolicyHook::AllocStall,
            self.inner.on_alloc_stall(machine, cpu, node)
        )
    }

    fn numa_hint_unmap(&mut self, machine: &mut Machine, cpu: CpuId, mm: MmId, vpn: Vpn) -> bool {
        timed!(
            self,
            PolicyHook::NumaHintUnmap,
            self.inner.numa_hint_unmap(machine, cpu, mm, vpn)
        )
    }

    fn numa_fault_may_proceed(&mut self, machine: &mut Machine, mm: MmId, vpn: Vpn) -> bool {
        timed!(
            self,
            PolicyHook::NumaFaultMayProceed,
            self.inner.numa_fault_may_proceed(machine, mm, vpn)
        )
    }

    fn on_sync_complete(&mut self, machine: &mut Machine, txn: &ShootdownTxn) {
        timed!(
            self,
            PolicyHook::SyncComplete,
            self.inner.on_sync_complete(machine, txn)
        )
    }

    fn on_timer(&mut self, machine: &mut Machine, token: u64) {
        timed!(self, PolicyHook::Timer, self.inner.on_timer(machine, token))
    }

    fn on_shutdown(&mut self, machine: &mut Machine) {
        timed!(self, PolicyHook::Shutdown, self.inner.on_shutdown(machine))
    }
}

/// A [`Workload`] that times the workload it wraps. `setup` is always
/// timed (it is part of the set-up metric); `next_op` and
/// `on_op_complete` only when `per_call` is set, so an untraced run pays
/// one predictable branch per call and nothing else.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    per_call: bool,
    /// Host nanoseconds in `setup`.
    pub setup_ns: u64,
    /// `next_op` timing (zero unless `per_call`).
    pub next_op: HookTime,
    /// `on_op_complete` timing (zero unless `per_call`).
    pub op_complete: HookTime,
}

impl TimedWorkload {
    /// Wraps `inner`; `per_call` turns on the per-op timers.
    pub fn new(inner: Box<dyn Workload>, per_call: bool) -> Self {
        TimedWorkload {
            inner,
            per_call,
            setup_ns: 0,
            next_op: HookTime::default(),
            op_complete: HookTime::default(),
        }
    }

    /// The wrapped workload.
    pub fn inner(&self) -> &dyn Workload {
        self.inner.as_ref()
    }
}

impl Workload for TimedWorkload {
    fn setup(&mut self, machine: &mut Machine) {
        let t0 = Instant::now();
        self.inner.setup(machine);
        self.setup_ns += t0.elapsed().as_nanos() as u64;
    }

    fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
        if !self.per_call {
            return self.inner.next_op(machine, task);
        }
        let t0 = Instant::now();
        let op = self.inner.next_op(machine, task);
        self.next_op.add(t0);
        op
    }

    fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
        if !self.per_call {
            return self.inner.on_op_complete(machine, task, result);
        }
        let t0 = Instant::now();
        self.inner.on_op_complete(machine, task, result);
        self.op_complete.add(t0);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
