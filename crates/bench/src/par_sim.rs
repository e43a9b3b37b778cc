//! The parallel-simulator benchmark behind `BENCH_par_sim.json` (ISSUE 9).
//!
//! Measures the lane-sharded engine ([`EngineBackend::Parallel`]) against
//! the PR-4 sequential fast engine on the sweep-heavy `SweepStorm`
//! workload: worker counts {1, 2, 4, 8} × simulated cores {16, 64, 120},
//! every point fingerprint-gated against the fast engine — a speedup with
//! a diverging fingerprint is disqualified, exactly as in
//! `BENCH_hotpath.json`. Run conditions are identical to the hotpath
//! bench ([`run_hotpath_point`] does the measuring), so the fast-engine
//! numbers here are directly comparable with `BENCH_hotpath.json`.
//!
//! Honesty note, recorded in the JSON as `host_cpus`: the engine's
//! parallelism is real (every lane is an OS thread doing calendar
//! maintenance at epoch barriers), but handlers execute on the
//! coordinator in global `(time, id)` order — that is what makes the
//! fingerprint bit-identical regardless of worker count — so the
//! parallel win is bounded by the queue-maintenance share of the run and
//! by the host's core count. On a single-CPU host the worker threads are
//! timeshared and the numbers measure protocol overhead, not scaling;
//! compare `ticks_per_sec` across `workers` on a many-core host for the
//! scheduling headroom the lane partition exposes.
//!
//! [`EngineBackend::Parallel`]: latr_kernel::EngineBackend::Parallel

use crate::hotpath::{hotpath_rounds, hotpath_shapes, run_hotpath_point, HotpathPoint};
use latr_arch::Topology;
use latr_kernel::EngineBackend;

/// The worker counts `BENCH_par_sim.json` sweeps.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One engine × machine-size measurement, plus the worker count (0 for
/// the sequential fast baseline).
#[derive(Clone, Debug)]
pub struct ParSimPoint {
    /// The underlying measurement (engine label, throughput, fingerprint).
    pub point: HotpathPoint,
    /// Lane-worker threads; 0 marks the sequential fast baseline.
    pub workers: usize,
}

/// Runs one `par_sim` measurement under the hotpath bench's run
/// conditions (oracle and tracing off, 4 sparse publishers). Best of
/// three repetitions — the runs are short enough that scheduler noise
/// dominates a single sample — with the fingerprint asserted identical
/// across repetitions (it is a deterministic simulation).
pub fn run_par_sim_point(
    backend: EngineBackend,
    topology: Topology,
    cores: usize,
    rounds: u32,
    seed: u64,
) -> ParSimPoint {
    let workers = match backend {
        EngineBackend::Parallel(n) => n,
        _ => 0,
    };
    let mut best: Option<HotpathPoint> = None;
    for _ in 0..3 {
        let p = run_hotpath_point(backend, topology.clone(), cores, rounds, seed);
        match &best {
            Some(b) => {
                assert_eq!(
                    b.fingerprint, p.fingerprint,
                    "{} repetition broke determinism",
                    p.engine
                );
                if p.wall_ns < b.wall_ns {
                    best = Some(p);
                }
            }
            None => best = Some(p),
        }
    }
    ParSimPoint {
        point: best.expect("three repetitions ran"),
        workers,
    }
}

/// Runs the full matrix: the fast baseline plus every worker count, at
/// every machine size.
pub fn run_par_sim_matrix(quick: bool, mut report: impl FnMut(&ParSimPoint)) -> Vec<ParSimPoint> {
    let mut points = Vec::new();
    for (topology, cores) in hotpath_shapes() {
        let rounds = hotpath_rounds(cores, quick);
        let seed = 0x9A12 ^ cores as u64;
        let mut run = |backend| {
            let p = run_par_sim_point(backend, topology.clone(), cores, rounds, seed);
            report(&p);
            points.push(p);
        };
        run(EngineBackend::Fast);
        for w in WORKER_COUNTS {
            run(EngineBackend::Parallel(w));
        }
    }
    points
}

/// Whether every point at the same core count produced the same
/// fingerprint — worker count and engine must be invisible.
pub fn par_fingerprints_match(points: &[ParSimPoint]) -> bool {
    points.iter().all(|p| {
        points
            .iter()
            .filter(|q| q.point.cores == p.point.cores)
            .all(|q| q.point.fingerprint == p.point.fingerprint)
    })
}

/// `(cores, best parallel ticks/sec ÷ fast ticks/sec)` per machine size.
pub fn par_speedups(points: &[ParSimPoint]) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for base in points.iter().filter(|p| p.workers == 0) {
        let best = points
            .iter()
            .filter(|q| q.workers > 0 && q.point.cores == base.point.cores)
            .map(|q| q.point.ticks_per_sec)
            .fold(0.0f64, f64::max);
        out.push((base.point.cores, best / base.point.ticks_per_sec.max(1e-9)));
    }
    out
}

/// Renders `BENCH_par_sim.json`. Hand-rolled like the hotpath schema
/// (the vendored serde stub does not serialize).
pub fn par_sim_json(points: &[ParSimPoint], quick: bool) -> String {
    use std::fmt::Write as _;
    let host_cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"par_sim\",");
    let _ = writeln!(out, "  \"workload\": \"sweep-storm\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        out,
        "  \"note\": \"handlers execute on the coordinator in (time,id) order — \
         that is what keeps fingerprints identical across worker counts; lane \
         workers parallelize queue maintenance at epoch barriers, so speedup \
         over the fast engine is bounded by the queue share of the run and by \
         host_cpus (1 means the workers were timeshared)\","
    );
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"engine\": \"{}\", \"workers\": {}, \"cores\": {}, \
             \"wall_ns\": {}, \"sim_ticks\": {}, \"events\": {}, \"ops\": {}, \
             \"ticks_per_sec\": {:.1}, \"fingerprint\": \"{:016x}\"}}{comma}",
            p.point.engine,
            p.workers,
            p.point.cores,
            p.point.wall_ns,
            p.point.sim_ticks,
            p.point.events,
            p.point.ops,
            p.point.ticks_per_sec,
            p.point.fingerprint,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"fingerprints_match\": {},",
        par_fingerprints_match(points)
    );
    for (cores, speedup) in par_speedups(points) {
        let _ = writeln!(out, "  \"speedup_at_{cores}_cores\": {speedup:.2},");
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

    #[test]
    fn matrix_point_matches_fast_engine() {
        let fast = run_par_sim_point(EngineBackend::Fast, Topology::new(2, 2), 4, 3, 9);
        let par = run_par_sim_point(EngineBackend::Parallel(3), Topology::new(2, 2), 4, 3, 9);
        assert_eq!(fast.workers, 0);
        assert_eq!(par.workers, 3);
        assert_eq!(fast.point.fingerprint, par.point.fingerprint);
        assert!(par_fingerprints_match(&[fast.clone(), par.clone()]));
        let json = par_sim_json(&[fast, par], true);
        assert!(json.contains("\"fingerprints_match\": true"));
        assert!(json.contains("\"speedup_at_4_cores\""));
        assert!(json.contains("\"host_cpus\""));
        crate::assert_strict_json(&json);
    }

    #[test]
    fn diverging_fingerprint_is_reported() {
        let a = run_par_sim_point(EngineBackend::Fast, Topology::new(2, 2), 4, 3, 9);
        let mut b = a.clone();
        b.point.fingerprint ^= 1;
        b.workers = 2;
        assert!(!par_fingerprints_match(&[a.clone(), b.clone()]));
        assert!(par_sim_json(&[a, b], true).contains("\"fingerprints_match\": false"));
    }
}
