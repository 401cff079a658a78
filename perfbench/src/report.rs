//! What one workload run reports, printed for people and as JSON.

use crate::host::Host;
use crate::trace::Tracer;
use std::fmt::Write as _;

/// The benchmark's contract: its metric lists decide what the result line
/// carries.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Metric names of one section of `BENCHMARK.json` (`end_to_end` or
/// `per_layer`), in its order.
pub fn gated(section: &str) -> Vec<&'static str> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &BENCHMARK_JSON[start..];
    let end = rest.find(']').expect("section closes");
    rest[..end]
        .split("\"name\"")
        .skip(1)
        .map(|chunk| chunk.split('"').nth(1).expect("quoted name"))
        .collect()
}

/// One named number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value; `None` when the workload never produced it (e.g. ε never
    /// reached), which is printed, never silently dropped.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// Qualifier shown next to the value (`process-wide`, `computed`, ...).
    pub label: &'static str,
    /// `(samples, q1, q3)` of the repetitions behind a median.
    pub spread: Option<(usize, f64, f64)>,
}

/// Everything a workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
    /// Why operations failed (first occurrence of each reason).
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// Free-form result lines (calibration row, span table).
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one operation, recording the reason when it failed.
    pub fn operation(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if !self.failures.contains(&why) && self.failures.len() < 16 {
                self.failures.push(why);
            }
        }
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: Option<f64>, unit: &'static str) -> &mut Metric {
        self.end_to_end.push(metric(name, value, unit));
        self.end_to_end.last_mut().expect("just pushed")
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: Option<f64>, unit: &'static str) -> &mut Metric {
        self.per_layer.push(metric(name, value, unit));
        self.per_layer.last_mut().expect("just pushed")
    }
}

impl Metric {
    /// Sets the label.
    pub fn label(&mut self, label: &'static str) -> &mut Metric {
        self.label = label;
        self
    }

    /// Records the repetitions behind a median.
    pub fn spread(&mut self, samples: &[f64]) -> &mut Metric {
        if let Some((q1, q3)) = crate::stats::quartiles(samples) {
            self.spread = Some((samples.len(), q1, q3));
        }
        self
    }
}

fn metric(name: &str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: value.filter(|v| v.is_finite()),
        unit,
        label: "",
        spread: None,
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number (full precision) or `null`.
pub fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:?}"),
        _ => "null".to_string(),
    }
}

fn metric_json(m: &Metric, detailed: bool) -> String {
    let mut s = format!(
        "{}: {{\"value\": {}, \"unit\": {}",
        json_str(&m.name),
        json_num(m.value),
        json_str(m.unit)
    );
    if detailed {
        if !m.label.is_empty() {
            let _ = write!(s, ", \"label\": {}", json_str(m.label));
        }
        if let Some((n, q1, q3)) = m.spread {
            let _ = write!(
                s,
                ", \"reps\": {n}, \"q1\": {}, \"q3\": {}",
                json_num(Some(q1)),
                json_num(Some(q3))
            );
        }
    }
    s.push('}');
    s
}

/// Human-readable lines: every metric by name with its unit.
pub fn print_human(workload: &str, traced: bool, report: &Report) {
    let metrics = if traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "== {workload} ({}) ==",
        if traced {
            "traced run: per-layer"
        } else {
            "end-to-end"
        }
    );
    for m in metrics {
        let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        let mut line = format!("{:<44} {value:>16} {}", m.name, m.unit);
        if !m.label.is_empty() {
            let _ = write!(line, "  [{}]", m.label);
        }
        if let Some((n, q1, q3)) = m.spread {
            let _ = write!(line, "  (n={n}, q1={q1:.6}, q3={q3:.6})");
        }
        println!("{line}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "operations: attempted={} failed={} failed_frac={:.4}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for why in &report.failures {
        println!("  failure: {why}");
    }
}

/// The result line: `correct`, `attempted`, `failed` and exactly the
/// gated metrics of the run's kind.
pub fn result_line(traced: bool, report: &Report) -> String {
    let (names, metrics) = if traced {
        (gated("per_layer"), &report.per_layer)
    } else {
        (gated("end_to_end"), &report.end_to_end)
    };
    let body: Vec<String> = names
        .iter()
        .map(|name| match metrics.iter().find(|m| m.name == *name) {
            Some(m) => metric_json(m, false),
            None => format!("{}: {{\"value\": null, \"unit\": null}}", json_str(name)),
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        body.join(", ")
    )
}

/// The full result file: provenance, every metric with its spread, the
/// failures, notes and span totals.
pub fn result_file(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    host: &Host,
    report: &Report,
    tracer: &Tracer,
) -> String {
    let list = |ms: &[Metric]| {
        ms.iter()
            .map(|m| format!("    {}", metric_json(m, true)))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let strings = |xs: &[String]| {
        xs.iter()
            .map(|x| json_str(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let spans = tracer
        .totals()
        .iter()
        .map(|(name, t)| {
            format!(
                "    {}: {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                json_str(name),
                t.count,
                json_num(Some(t.total_s)),
                json_num(Some(t.self_s))
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"traced\": {traced},\n  \
         \"host\": {{\"cores\": {}, \"pinned_shards\": {}, \"engine_threads\": 1, \"cpu_model\": {}, \"l2\": {}, \"commit\": {}}},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \
         \"end_to_end\": {{\n{}\n  }},\n  \"per_layer\": {{\n{}\n  }},\n  \"notes\": [{}],\n  \"spans\": {{\n{}\n  }}\n}}\n",
        json_str(workload),
        host.cores,
        crate::host::cores(),
        json_str(&host.cpu_model),
        json_str(&host.l2),
        json_str(&host.commit),
        report.attempted,
        report.failed,
        strings(&report.failures),
        list(&report.end_to_end),
        list(&report.per_layer),
        strings(&report.notes),
        spans
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gated_lists_come_from_benchmark_json() {
        assert!(gated("end_to_end").contains(&"setup_s"));
        assert!(gated("per_layer").contains(&"topology.build_s"));
        assert!(!gated("end_to_end").contains(&"topology.build_s"));
    }

    #[test]
    fn result_line_carries_exactly_the_gated_metrics() {
        let mut r = Report::default();
        r.operation(None);
        for name in gated("end_to_end") {
            r.e2e(name, Some(1.5), "s");
        }
        r.e2e("time_to_settle_s", Some(2.0), "s");
        let line = result_line(false, &r);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(!line.contains("time_to_settle_s"));
        for name in gated("end_to_end") {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": 1.5")));
        }
    }
}
