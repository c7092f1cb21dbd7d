//! Metric names and units, sample statistics and the span recorder.
//!
//! Every run reports the same names whatever the workload: a layer a
//! workload never calls reads 0, which is the measured value and the
//! prediction that the layer's changes leave that workload alone.

use std::collections::BTreeMap;
use std::time::Instant;

/// The 14 analysis passes of the study composite, each timed alone.
pub const PASSES: [&str; 14] = [
    "counts",
    "ho_types",
    "durations",
    "districts",
    "population",
    "density",
    "temporal",
    "manufacturer",
    "hof_patterns",
    "causes",
    "pingpong",
    "vendor",
    "frame_daily",
    "frame_period",
];

/// Request kinds whose socket latency the two query streams report.
pub const QUERY_KINDS: [&str; 5] = ["status", "section", "outputs", "window", "frame"];

const FIXED_PER_LAYER: [(&str, &str); 41] = [
    ("sim.run_s", "s"),
    ("sim.ue_days_per_s", "1/s"),
    ("sim.records", "count"),
    ("trace.write_s", "s"),
    ("trace.bytes_per_record", "B"),
    ("trace.decode_s", "s"),
    ("trace.chunks", "count"),
    ("trace.skipped_chunks", "count"),
    ("analytics.sweep_1t_records_per_s", "1/s"),
    ("analytics.sweep_nt_records_per_s", "1/s"),
    ("analytics.record_s", "s"),
    ("analytics.end_s", "s"),
    ("analytics.accessors_s", "s"),
    ("analytics.models_s", "s"),
    ("store.puts", "count"),
    ("store.commits", "count"),
    ("store.bytes_committed", "B"),
    ("store.put_s", "s"),
    ("store.commit_s", "s"),
    ("store.get_s", "s"),
    ("serve.ingest_day_p50_s", "s"),
    ("serve.ingest_day_max_s", "s"),
    ("serve.build_view_p50_s", "s"),
    ("serve.build_view_max_s", "s"),
    ("serve.view_bytes", "B"),
    ("serve.query_p50_ms", "ms"),
    ("serve.query_p99_ms", "ms"),
    ("serve.query_samples", "count"),
    ("serve.bulk_mb_per_s", "MB/s"),
    ("serve.generator_lag_ms", "ms"),
    ("orchestrator.plan_s", "s"),
    ("orchestrator.orchestrate_s", "s"),
    ("orchestrator.dispatches", "count"),
    ("orchestrator.retries", "count"),
    ("orchestrator.shard_complete_s", "s"),
    ("orchestrator.open_study_s", "s"),
    ("bench.tracing_overhead_pct", "%"),
    ("env.hardware_threads", "count"),
    ("env.calibration_mops", "Mop/s"),
    ("env.calibration_membw_gbps", "GB/s"),
    ("bench.repetitions", "count"),
];

/// Every per-layer metric, in reporting order, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        FIXED_PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    out.extend(PASSES.iter().map(|p| (format!("analytics.pass.{p}_s"), "s")));
    out.extend(
        crate::workloads::HANDLE_REQUESTS
            .iter()
            .map(|(k, _, _)| (format!("serve.handle_request_us.{k}"), "us")),
    );
    out.extend(QUERY_KINDS.iter().map(|k| (format!("serve.query_ms.{k}"), "ms")));
    out
}

/// Named metric values with units, as printed.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Span recorder around calls into the layers. Off, it only calls the
/// closure, so an untraced repetition runs exactly the traced code minus
/// the clock reads.
#[derive(Default)]
pub struct Tracer {
    /// Whether spans are recorded.
    pub on: bool,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Tracer {
    /// Run `f`, recording its duration in seconds under `name` when on.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let (out, secs) = timed(f);
        self.add(name, secs);
        out
    }

    /// Record one sample under `name`, whether or not spans are on.
    pub fn add(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_string()).or_default().push(value);
    }

    /// All samples recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples under `name`; 0 when none.
    pub fn median(&self, name: &str) -> f64 {
        median(self.samples(name))
    }

    /// Largest sample under `name`; 0 when none.
    pub fn max(&self, name: &str) -> f64 {
        self.samples(name).iter().copied().fold(0.0, f64::max)
    }
}
