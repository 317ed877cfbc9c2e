//! What a run reports, and the declared metric names `BENCHMARK.json`
//! must match.
//!
//! A run prints two lines on standard output. The first is the full report:
//! the run's environment, every end-to-end metric with its sample count,
//! `fail_ratio` and the workload's own numbers (such as `offline`'s solve
//! times), and the failure log's length. The last line is the summary that
//! benchmark runners read: `correct`, `attempted`, `failed` and the
//! declared metrics — end-to-end ones untraced, per-layer ones traced.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use privmech_core::PivotStats;

use crate::trace::{SpanTotals, Tracer};

/// The workloads `BENCHMARK.json` declares, in its order.
pub const WORKLOADS: &[&str] = &["hot", "offline"];

/// Every workload the program runs: the declared ones and `tail`, which is
/// not declared because its numbers move with the state of a shared host by
/// more than any bound allows (see `METHODOLOGY.md`). `hot`'s traced run
/// runs it and reports its fleet's numbers as [`TAIL_LAYERS`].
pub const RUNNABLE: &[&str] = &["hot", "tail", "offline"];

/// End-to-end metrics: name, unit, and whether higher is better. Every
/// workload reports each of them (see `METHODOLOGY.md` for what each means
/// per workload). `latency_ms` is the workload's headline latency: `hot`'s
/// median, `tail`'s 99th percentile, `offline`'s slowest job. The report
/// line adds every latency summary under its own name (`p50_ms`, `p90_ms`,
/// `p95_ms`, `p99_ms`, `mean_ms`); the others are too noisy run to run on a
/// shared 2-core machine to carry a bound (see `METHODOLOGY.md`).
pub const END_TO_END: &[(&str, &str, bool)] = &[
    ("latency_ms", "ms", false),
    ("capacity_rps", "1/s", true),
    ("setup_s", "s", false),
    ("peak_rss_mb", "MiB", false),
];

/// Spans whose mean self time is reported as `trace.self_us.<span>`.
pub const TRACED_SPANS: &[&str] = &[
    "load.request",
    "replay.request",
    "serve.frame.read",
    "serve.json.parse",
    "serve.proto.decode",
    "core.fingerprint",
    "serve.cache.get",
    "serve.proto.split",
    "core.engine.solve",
    "core.engine.sweep",
    "core.engine.interact",
    "serve.proto.render",
    "serve.cache.insert",
    "serve.frame.write",
    "offline.job",
    "zoo.regret_table",
];

/// Per-layer metrics other than the per-span self times: name and unit. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.frame.read_us", "us"),
    ("serve.frame.reply_bytes", "bytes"),
    ("serve.json.parse_us", "us"),
    ("serve.proto.decode_us", "us"),
    ("core.fingerprint_us", "us"),
    ("serve.proto.split_us", "us"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.proto.render_us", "us"),
    ("serve.server.handler_us.solve", "us"),
    ("serve.server.handler_us.sweep", "us"),
    ("serve.server.handler_us.interact", "us"),
    ("serve.server.queue_ms.solve", "ms"),
    ("serve.server.queue_ms.sweep", "ms"),
    ("serve.server.queue_ms.interact", "ms"),
    ("serve.server.cpu_us_per_req", "us"),
    ("serve.server.hit_p99_ms", "ms"),
    ("core.engine.solve_ms.rational", "ms"),
    ("core.engine.solve_ms.f64", "ms"),
    ("core.engine.sweep_ms.rational", "ms"),
    ("core.engine.sweep_ms.f64", "ms"),
    ("core.engine.interact_ms.rational", "ms"),
    ("core.engine.interact_ms.f64", "ms"),
    ("lp.pivots", "count"),
    ("lp.phase1_pivots", "count"),
    ("lp.degenerate_pivots", "count"),
    ("lp.bland_pivots", "count"),
    ("lp.fallback_activations", "count"),
    ("lp.us_per_pivot", "us"),
    ("numerics.max_den_bits", "bits"),
    ("zoo.regret_ms.count.rational", "ms"),
    ("zoo.regret_ms.count.f64", "ms"),
    ("zoo.regret_ms.sum2x2.rational", "ms"),
    ("zoo.regret_ms.sum2x2.f64", "ms"),
    ("zoo.regret_ms.sum2x3.rational", "ms"),
    ("zoo.regret_ms.sum2x3.f64", "ms"),
    ("zoo.regret_ms.median.rational", "ms"),
    ("zoo.regret_ms.median.f64", "ms"),
    ("offline.solve_s.n12", "s"),
    ("offline.solve_s.n14", "s"),
    ("offline.sweep_s", "s"),
    ("offline.zoo_s", "s"),
    ("offline.known_defects", "count"),
    ("load.send_lag_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The `tail` fleet's numbers that `hot`'s traced run reports, each as
/// `tail.<name>`: its end-to-end latency and capacity, unbounded here, and
/// the layers only a cold two-shard fleet exercises (misses, evictions, the
/// router and the ring).
pub const TAIL_LAYERS: &[(&str, &str)] = &[
    ("latency_ms", "ms"),
    ("capacity_rps", "1/s"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.insert_us", "us"),
    ("serve.proto.render_us", "us"),
    ("serve.server.cpu_us_per_req", "us"),
    ("serve.server.hit_p99_ms", "ms"),
    ("serve.server.miss_p50_ms", "ms"),
    ("serve.router.hop_us", "us"),
    ("serve.ring.max_share", "ratio"),
    ("core.engine.solve_ms.rational", "ms"),
    ("core.engine.solve_ms.f64", "ms"),
    ("core.engine.sweep_ms.rational", "ms"),
    ("core.engine.sweep_ms.f64", "ms"),
    ("core.engine.interact_ms.rational", "ms"),
    ("core.engine.interact_ms.f64", "ms"),
    ("lp.pivots", "count"),
    ("lp.us_per_pivot", "us"),
];

/// Every per-layer metric: [`PER_LAYER`], [`TAIL_LAYERS`] and one self time
/// per traced span.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .chain(
            TAIL_LAYERS
                .iter()
                .map(|&(name, unit)| (format!("tail.{name}"), unit)),
        )
        .chain(
            TRACED_SPANS
                .iter()
                .map(|span| (format!("trace.self_us.{span}"), "us")),
        )
        .collect()
}

/// Whether a run's numbers may be reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Validity {
    /// The generator kept its schedule.
    Valid,
    /// The generator fell behind; the numbers describe it, not the server.
    Invalid(String),
}

/// Everything one run measured.
pub struct Outcome {
    /// The workload.
    pub workload: &'static str,
    /// Operations attempted (requests, or offline jobs).
    pub attempted: usize,
    /// Operations that errored, went unanswered or were not drained.
    pub failed: usize,
    /// Median set-up time.
    pub setup_s: f64,
    /// Peak resident memory of the measured processes.
    pub peak_rss_mb: f64,
    /// Latency summaries and capacity: the end-to-end metrics other than
    /// set-up and memory, plus the unbounded latency summaries.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each end-to-end metric.
    pub samples: BTreeMap<&'static str, usize>,
    /// The workload's own numbers for the report line: name → (value, unit).
    pub extra: BTreeMap<&'static str, (f64, &'static str)>,
    /// Per-layer metrics measured by this run.
    pub layers: BTreeMap<String, f64>,
    /// Run conditions (load, lags, counts) for the report line.
    pub env: BTreeMap<&'static str, f64>,
    /// Correctness-gate mismatches.
    pub mismatches: Vec<String>,
    /// One line per failed operation: error code and request.
    pub failures: Vec<String>,
    /// Whether the numbers may be reported.
    pub validity: Validity,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// An empty outcome.
    #[must_use]
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            setup_s: 0.0,
            peak_rss_mb: 0.0,
            metrics: BTreeMap::new(),
            samples: BTreeMap::new(),
            extra: BTreeMap::new(),
            layers: BTreeMap::new(),
            env: BTreeMap::new(),
            mismatches: Vec::new(),
            failures: Vec::new(),
            validity: Validity::Valid,
            tracer: None,
        }
    }

    /// Set an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Record a correctness-gate mismatch.
    pub fn mismatch(&mut self, message: String) {
        eprintln!("[{}] MISMATCH: {message}", self.workload);
        self.mismatches.push(message);
    }

    /// The LP counters of a set of engine calls that took `engine_ns`.
    pub fn pivots(&mut self, stats: &PivotStats, engine_ns: u64) {
        let total = stats.total_pivots();
        self.layer("lp.pivots", total as f64);
        self.layer("lp.phase1_pivots", stats.phase1_pivots as f64);
        self.layer("lp.degenerate_pivots", stats.degenerate_pivots as f64);
        self.layer("lp.bland_pivots", stats.bland_pivots as f64);
        self.layer("lp.fallback_activations", stats.fallback_activations as f64);
        self.layer(
            "lp.us_per_pivot",
            if total == 0 {
                0.0
            } else {
                engine_ns as f64 / 1e3 / total as f64
            },
        );
    }

    /// Mean self time per span of each traced span name.
    pub fn self_times(&mut self, totals: &BTreeMap<&'static str, SpanTotals>) {
        for span in TRACED_SPANS {
            let value = totals
                .get(span)
                .map_or(0.0, |t| t.self_ns as f64 / 1e3 / t.count.max(1) as f64);
            self.layer(&format!("trace.self_us.{span}"), value);
        }
    }

    /// Take in a traced `tail` run: its numbers in [`TAIL_LAYERS`] as
    /// `tail.<name>`, and its operations, failures, mismatches and validity.
    pub fn absorb_tail(&mut self, tail: Outcome) {
        for &(name, _) in TAIL_LAYERS {
            let value = tail
                .layers
                .get(name)
                .or_else(|| tail.metrics.get(name))
                .copied()
                .unwrap_or(0.0);
            self.layer(&format!("tail.{name}"), value);
        }
        self.attempted += tail.attempted;
        self.failed += tail.failed;
        self.failures.extend(tail.failures);
        self.mismatches.extend(tail.mismatches);
        if let Validity::Invalid(reason) = tail.validity {
            self.validity = Validity::Invalid(format!("tail: {reason}"));
        }
    }

    /// Whether every correctness gate passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    fn end_to_end_value(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "peak_rss_mb" => self.peak_rss_mb,
            other => *self
                .metrics
                .get(other)
                .unwrap_or_else(|| panic!("workload {} did not measure {other}", self.workload)),
        }
    }

    /// The full report line.
    #[must_use]
    pub fn report_line(
        &self,
        seed: u64,
        traced: bool,
        env: &BTreeMap<&'static str, String>,
    ) -> String {
        let mut out = format!(
            "{{\"report\":\"perfbench\",\"workload\":\"{}\",\"seed\":{seed},\"trace\":{},\"env\":{{",
            self.workload,
            u8::from(traced)
        );
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
        };
        for (key, value) in env {
            sep(&mut out);
            let _ = write!(out, "\"{key}\":\"{}\"", value.replace('"', "'"));
        }
        for (key, value) in &self.env {
            sep(&mut out);
            let _ = write!(out, "\"{key}\":{}", number(*value));
        }
        out.push_str("},\"metrics\":{");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
        };
        let rows = self
            .metrics
            .iter()
            .map(|(&name, &value)| {
                (
                    name,
                    if name == "capacity_rps" { "1/s" } else { "ms" },
                    value,
                )
            })
            .chain([
                ("setup_s", "s", self.setup_s),
                ("peak_rss_mb", "MiB", self.peak_rss_mb),
            ]);
        for (name, unit, value) in rows {
            sep(&mut out);
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"",
                number(value)
            );
            if let Some(n) = self.samples.get(name) {
                let _ = write!(out, ",\"samples\":{n}");
            }
            out.push('}');
        }
        sep(&mut out);
        let fail_ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = write!(
            out,
            "\"fail_ratio\":{{\"value\":{},\"unit\":\"ratio\",\"samples\":{}}}",
            number(fail_ratio),
            self.attempted
        );
        for (name, (value, unit)) in &self.extra {
            sep(&mut out);
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*value)
            );
        }
        let _ = write!(
            out,
            "}},\"failures\":{},\"mismatches\":{}}}",
            self.failures.len(),
            self.mismatches.len()
        );
        out
    }

    /// The summary line benchmark runners read.
    #[must_use]
    pub fn summary_line(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let rows: Vec<(String, &str, f64)> = if traced {
            per_layer()
                .into_iter()
                .map(|(name, unit)| {
                    let value = self.layers.get(&name).copied().unwrap_or(0.0);
                    (name, unit, value)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit, _)| (name.to_string(), unit, self.end_to_end_value(name)))
                .collect()
        };
        for (k, (name, unit, value)) in rows.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privmech_serve::json::{self, Json};

    fn manifest() -> Json {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        json::parse(text).expect("BENCHMARK.json is JSON")
    }

    fn names(list: &Json) -> Vec<(String, String, String)> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|item| {
                let field = |key: &str| {
                    item.get(key)
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn manifest_declares_exactly_the_workloads_run() {
        let declared: Vec<String> = names(manifest().get("workloads").expect("workloads"))
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        assert_eq!(declared, WORKLOADS);
    }

    #[test]
    fn manifest_declares_exactly_the_metrics_printed() {
        let manifest = manifest();
        let end_to_end: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|&(name, unit, higher)| {
                (
                    name.to_string(),
                    unit.to_string(),
                    if higher { "higher" } else { "lower" }.to_string(),
                )
            })
            .collect();
        assert_eq!(
            names(manifest.get("end_to_end").expect("end_to_end")),
            end_to_end
        );
        let declared: Vec<(String, String)> = names(manifest.get("per_layer").expect("per_layer"))
            .into_iter()
            .map(|(name, unit, _)| (name, unit))
            .collect();
        let printed: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(name, unit)| (name, unit.to_string()))
            .collect();
        assert_eq!(declared, printed);
    }

    #[test]
    fn summary_lines_carry_every_declared_metric() {
        let mut outcome = Outcome::new("hot");
        for &(name, _, _) in END_TO_END {
            outcome.metric(name, 1.5);
        }
        for (traced, expected) in [(false, END_TO_END.len()), (true, per_layer().len())] {
            let line = json::parse(&outcome.summary_line(traced)).expect("summary is JSON");
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("metrics object")
            };
            assert_eq!(metrics.len(), expected);
        }
    }
}
