//! One run's result: the four keys of the final output line plus notes
//! (sample counts, percentiles used, context) written beside it.

use pcr_metrics::JsonValue;

/// A named measurement; its unit is listed with its name in `main.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Accumulates a run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Problems found by the output checks; empty means correct.
    pub problems: Vec<String>,
    /// Images (or units of work) attempted.
    pub attempted: u64,
    /// Attempted units that failed their check.
    pub failed: u64,
    /// Metrics in insertion order.
    pub metrics: Vec<Metric>,
    /// Context and supporting detail, printed before the result line.
    pub notes: Vec<(String, JsonValue)>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric { name, value });
    }

    /// Records a note.
    pub fn note(&mut self, key: &str, value: JsonValue) {
        self.notes.push((key.to_string(), value));
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The final output line: `correct`, `attempted`, `failed` and the
    /// metrics named in `expected` (name, unit), in that order. A metric
    /// the workload does not exercise reads 0 and is listed in the notes.
    pub fn result_line(&mut self, expected: &[(&'static str, &'static str)]) -> String {
        let mut metrics = Vec::new();
        let mut absent = Vec::new();
        for &(name, unit) in expected {
            let value = self.get(name).unwrap_or_else(|| {
                absent.push(JsonValue::str(name));
                0.0
            });
            metrics.push((
                name,
                JsonValue::object([
                    ("value", JsonValue::F64(value)),
                    ("unit", JsonValue::str(unit)),
                ]),
            ));
        }
        if !absent.is_empty() {
            self.note("not_exercised", JsonValue::Array(absent));
        }
        JsonValue::object([
            (
                "correct",
                JsonValue::Bool(self.problems.is_empty() && self.failed == 0),
            ),
            ("attempted", JsonValue::U64(self.attempted.max(1))),
            ("failed", JsonValue::U64(self.failed)),
            ("metrics", JsonValue::object(metrics)),
        ])
        .render()
    }
}
