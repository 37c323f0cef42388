//! `BENCHMARK.json`: the metric list every result line follows. The
//! benchmark reads its names, units and bounds from the file itself, so
//! the printed metrics cannot drift from the declared ones.

use minnow_bench::json_read::Json;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Default measurement budget of one run, in seconds.
    pub run_seconds: u64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (printed without `--trace`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (printed with `--trace`).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The repository's `BENCHMARK.json`.
    pub fn embedded() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    /// Parses a benchmark definition.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let items = doc
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("missing `{key}` array"))?;
            items
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: m.str_field("name")?.to_string(),
                        unit: m.str_field("unit")?.to_string(),
                        higher_is_better: match m.str_field("better")? {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("`better` is `{other}`")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("missing `workloads` array")?
            .iter()
            .map(|w| w.str_field("name").map(str::to_string))
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: doc.u64_field("run_seconds")?,
            workloads,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// The metrics a run prints: per-layer when traced, else end-to-end.
    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn benchmark_json_declares_the_workloads_this_binary_runs() {
        let spec = Spec::embedded();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    }
}
