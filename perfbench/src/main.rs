//! `latr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host header, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! of the catalog with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A failed correctness gate is reported on stderr, makes
//! `correct` false and the exit code 2.
//!
//! `latr-perfbench setup-once --workload <name> --seed <n>` sets a
//! serving workload up once and prints the host nanoseconds it took; an
//! untraced serving run takes `setup_s` as the median of [`SETUP_RUNS`]
//! such processes, so every sample is a cold set-up, as a user's first
//! run is. (In one process the allocator's adaptive thresholds make
//! repeated set-ups switch between two speeds.)

use std::process::{Command, ExitCode};

use latr_perfbench::{host, run, setup_once, stats::median, Catalog};

/// Fresh processes whose set-up times `setup_s` is the median of.
const SETUP_RUNS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = Some(parsed.map_err(|e| format!("--seed {value}: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value}: out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The median host seconds of [`SETUP_RUNS`] cold set-ups.
fn measure_setup(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..SETUP_RUNS {
        let out = Command::new(&exe)
            .args([
                "setup-once",
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
            ])
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        let ns: f64 = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .map_err(|e| format!("set-up process ({}): {e}", out.status))?;
        samples.push(ns / 1e9);
    }
    Ok(median(&samples))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let setup_only = argv.next_if(|a| a == "setup-once").is_some();
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("latr-perfbench: {e}");
            return ExitCode::from(64);
        }
    };
    let catalog = Catalog::builtin();
    if !catalog.workloads.contains(&args.workload) {
        eprintln!(
            "latr-perfbench: unknown workload `{}` (one of {})",
            args.workload,
            catalog.workloads.join(", ")
        );
        return ExitCode::from(64);
    }
    if setup_only {
        return match setup_once(&args.workload, args.seed) {
            Ok(ns) => {
                println!("{ns}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("latr-perfbench: {e}");
                ExitCode::from(64)
            }
        };
    }
    println!(
        "{}",
        host::header(&args.workload, args.seed, args.seconds, args.trace)
    );
    let measured = run(&args.workload, args.seed, args.seconds, args.trace).and_then(|mut o| {
        if !args.trace && o.value("setup_s").is_none() {
            o.metric("setup_s", measure_setup(&args.workload, args.seed)?);
        }
        Ok(o)
    });
    let outcome = match measured {
        Ok(o) => o,
        Err(e) => {
            eprintln!("latr-perfbench: {e}");
            return ExitCode::from(64);
        }
    };
    for note in &outcome.notes {
        eprintln!("{}: {note}", args.workload);
    }
    let specs = if args.trace {
        &catalog.per_layer
    } else {
        &catalog.end_to_end
    };
    for (name, value) in &outcome.metrics {
        let unit = specs
            .iter()
            .find(|s| &s.name == name)
            .map_or("", |s| &s.unit);
        eprintln!("  {name:<36} {value:>16.4} {unit}");
    }
    for f in &outcome.failures {
        eprintln!("{}: GATE FAILED: {f}", args.workload);
    }
    println!("{}", outcome.result_line(specs, args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
