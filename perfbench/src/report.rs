//! Run bookkeeping: operation counts, correctness-gate failures, metrics,
//! order statistics, the final JSON line and the in-memory span log.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run did: operations attempted and failed, every gate failure in
/// words, and the metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Generator lateness of every open-loop request, in microseconds.
    pub late_us: Vec<f64>,
}

impl Outcome {
    /// Counts one attempted operation, failed when `error` is `Some`.
    pub fn op(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = error {
            self.fail(reason);
        }
    }

    /// Records a failed correctness gate; only the first few reasons are kept
    /// in words, every one is counted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(reason);
        }
    }

    /// Records a metric and prints it by name with its unit.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        println!("metric {name} = {value} {unit}{}", tag(note));
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Prints a measured figure that is not one of the run's JSON metrics:
    /// `kind` is `e2e` for the named end-to-end figures, `info` otherwise.
    pub fn show(&self, kind: &str, name: &str, value: f64, unit: &str, note: &str) {
        println!("{kind} {name} = {value} {unit}{}", tag(note));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn tag(note: &str) -> String {
    if note.is_empty() {
        String::new()
    } else {
        format!(" ({note})")
    }
}

/// Median of unsorted samples (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Linear-interpolated percentile of unsorted samples; NaN when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The machine-readable last line of standard output.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One traced call: a layer entry point (or a whole request) with its parent
/// span and the request it served. Times are nanoseconds since the tracer's
/// epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory during the traced run and written out at exit.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its id (ids start at 1; parent 0 is the root).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, parent, request, start_ns, end_ns)
    }

    pub fn record_ns(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Self time of every span: its duration minus the durations of its
    /// child spans. Layer calls are timed one after another rather than
    /// nested, so a child can outlast its parent by noise and a self time
    /// can come out slightly negative; it is kept signed rather than clamped.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut child = vec![0i64; self.spans.len() + 1];
        for s in &self.spans {
            child[s.parent as usize] += s.duration_ns() as i64;
        }
        self.spans
            .iter()
            .map(|s| s.duration_ns() as i64 - child[s.id as usize])
            .collect()
    }

    /// Median self time of the spans called `name`, in microseconds.
    pub fn median_self_us(&self, name: &str) -> f64 {
        let selfs = self.self_ns();
        let v: Vec<f64> = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect();
        median(&v)
    }

    /// Median duration of the spans called `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        median(&v)
    }

    /// Writes one JSON object per span, with its derived self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.record_ns("request", 0, 7, 0, 100);
        let a = t.record_ns("outer", root, 7, 10, 90);
        t.record_ns("inner", a, 7, 20, 50);
        assert_eq!(t.self_ns(), vec![20, 50, 30]);
        t.record_ns("longer child", a, 7, 0, 100);
        assert_eq!(t.self_ns()[1], -50);
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let m = [Metric {
            name: "setup_s".into(),
            value: 0.25,
            unit: "s",
        }];
        assert_eq!(
            json_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
