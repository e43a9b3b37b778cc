//! The repository benchmark: host cost per served request on three
//! serving workloads of the simulator and on the real-thread `rt`
//! runtime, with an outside-in layer trace.
//!
//! `catalog.json` names every workload and metric with its unit, layer,
//! better direction and the end-to-end metric it should move; a run
//! reports exactly the catalog's end-to-end metrics (`--trace 0`) or its
//! per-layer metrics (`--trace 1`).

pub mod host;
pub mod json;
pub mod layers;
pub mod rt;
pub mod serving;
pub mod stats;

use json::{quote, Json};
use serving::Serving;

/// The metric catalog, the single list of workloads and metrics.
pub const CATALOG: &str = include_str!("../catalog.json");

/// One catalogued metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// The crate the metric measures, or `end-to-end`.
    pub layer: String,
}

/// The parsed catalog.
#[derive(Clone, Debug)]
pub struct Catalog {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, reported by untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, reported by traced runs.
    pub per_layer: Vec<MetricSpec>,
}

impl Catalog {
    /// Parses and checks the catalog text.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("catalog: `{key}` is not an array"))
        };
        let field = |e: &Json, key: &str| {
            e.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("catalog: an entry lacks `{key}`"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?;
        let specs = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let spec = MetricSpec {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        better: field(m, "better")?,
                        layer: field(m, "layer")?,
                    };
                    if spec.better != "higher" && spec.better != "lower" {
                        return Err(format!("catalog: `{}` has no direction", spec.name));
                    }
                    Ok(spec)
                })
                .collect()
        };
        Ok(Catalog {
            workloads,
            end_to_end: specs("end_to_end")?,
            per_layer: specs("per_layer")?,
        })
    }

    /// The built-in catalog.
    pub fn builtin() -> Catalog {
        Catalog::parse(CATALOG).expect("catalog.json is checked by the tests")
    }
}

/// What one run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (served requests).
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// Correctness gates that failed, by reason.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable notes on how the figures were taken.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records a failed gate.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Records a note.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// The value of `name`, if recorded.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: every metric of `specs`, in catalog order. A
    /// per-layer metric the run did not record is a layer this workload
    /// does not exercise and reads 0; a missing end-to-end metric, an
    /// uncatalogued one or a non-finite value is a bug in the benchmark.
    pub fn result_line(&self, specs: &[MetricSpec], zero_missing: bool) -> String {
        for (name, value) in &self.metrics {
            let spec = specs.iter().find(|s| &s.name == name);
            assert!(spec.is_some(), "metric `{name}` is not in the catalog");
            assert!(value.is_finite(), "metric `{name}` is {value}");
        }
        let metrics: Vec<String> = specs
            .iter()
            .map(|s| {
                let v = self.value(&s.name);
                assert!(
                    v.is_some() || zero_missing,
                    "metric `{}` was not measured",
                    s.name
                );
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&s.name),
                    v.unwrap_or(0.0),
                    quote(&s.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Host nanoseconds to set the serving workload `workload` up once at
/// `seed`.
pub fn setup_once(workload: &str, seed: u64) -> Result<u64, String> {
    Ok(serving::setup_once(serving_kind(workload)?, seed))
}

fn serving_kind(workload: &str) -> Result<Serving, String> {
    Serving::ALL
        .into_iter()
        .find(|s| s.name() == workload)
        .ok_or(format!("unknown workload `{workload}`"))
}

/// Runs `workload` at `seed` for about `seconds`, traced or not. An
/// untraced serving run reports every end-to-end metric but `setup_s`,
/// which needs fresh processes (see `setup_once`).
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if workload == "rt-lazy" {
        return Ok(if trace {
            rt::measure_traced(seed, seconds)
        } else {
            rt::measure(seed, seconds)
        });
    }
    let kind = serving_kind(workload)?;
    Ok(if trace {
        serving::measure_traced(kind, seed, seconds)
    } else {
        serving::measure(kind, seed, seconds)
    })
}
