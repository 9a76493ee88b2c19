//! Failed-operation accounting, named metrics and the printed report.

use crate::fingerprint::Fingerprint;

/// How many failure reasons a report keeps verbatim (all are counted).
const KEPT_REASONS: usize = 8;

/// Operations attempted and failed. Every checked operation goes through
/// [`Tally::record`]; a failure is counted and never dropped.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (wrong result, solver error, rejected
    /// submission, remote spectrum not bit-identical to the local one).
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one operation and its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            self.keep(reason);
        }
    }

    /// Fold another tally (e.g. one connection's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        other.reasons.into_iter().for_each(|r| self.keep(r));
    }

    fn keep(&mut self, reason: String) {
        if self.reasons.len() < KEPT_REASONS {
            self.reasons.push(reason);
        }
    }

    /// `true` when nothing failed.
    pub fn all_ok(&self) -> bool {
        self.failed == 0
    }
}

/// One named metric with its unit and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`s`, `1/s`, `count`, ...).
    pub unit: &'static str,
    /// Samples the value was computed from (0 for a computed figure).
    pub samples: usize,
    /// How the value was obtained (percentile, "computed", ...).
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name: name.to_string(), value, unit, samples, note: String::new() }
    }

    /// Attach a note.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Requested measuring time.
    pub seconds: f64,
    /// Traced (per-layer) run or not.
    pub trace: bool,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Operation accounting.
    pub tally: Tally,
    /// Free-form lines printed before the metric table.
    pub notes: Vec<String>,
}

/// A finite JSON number with all its digits (`{:?}` prints the shortest
/// string that reads back to the same `f64`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

impl Report {
    /// The one-line result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (each metric an object of `value` and `unit`).
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics
        )
    }

    /// Every result is correct and every metric finite.
    pub fn correct(&self) -> bool {
        self.tally.all_ok()
            && self.tally.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable report; the last line is [`Report::result_json`].
    pub fn render(&self, host: &Fingerprint) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# hjsvd benchmark: workload {} seed {} seconds {} trace {}\n",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace)
        ));
        out.push_str(&format!("# host {}\n", host.to_json()));
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        out.push_str(&format!(
            "{:<28} {:>16} {:<6} {:>8}  {}\n",
            "metric", "value", "unit", "samples", "note"
        ));
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<28} {:>16.9e} {:<6} {:>8}  {}\n",
                m.name, m.value, m.unit, m.samples, m.note
            ));
        }
        out.push_str(&format!(
            "# operations attempted {} failed {}\n",
            self.tally.attempted, self.tally.failed
        ));
        for reason in &self.tally.reasons {
            out.push_str(&format!("# failure: {reason}\n"));
        }
        out.push_str(&self.result_json());
        out.push('\n');
        out
    }
}
