//! End-to-end benchmark for synthattr.
//!
//! Four workloads drive the program only through its public
//! functions, from inputs generated from the workload seed:
//!
//! * `paper` — the three paper-scale year pipelines, then Tables VIII
//!   and IX;
//! * `chain` — a transform-heavy pipeline build under recoverable
//!   fault injection;
//! * `scale` — the out-of-core build, sharded training and streamed
//!   hold-out scoring;
//! * `serve` — open-loop HTTP against an in-process server.
//!
//! An untraced run prints the end-to-end metrics; a traced run
//! replays the workload through the layers' entry points under
//! [`trace::Tracer`] and prints the per-layer metrics. See README.md.

pub mod alloc;
pub mod compare;
pub mod json;
pub mod openloop;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch space inside the checkout (column stores, span dumps).
    pub work_dir: PathBuf,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra context printed on the line before the result: sample
    /// counts, percentiles used, checks performed.
    pub notes: BTreeMap<String, String>,
}

impl Report {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[e2ebench] check failed: {what}");
        }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.insert(key.to_string(), value.to_string());
    }
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("gen.samples", "count"),
    ("gen.self_s", "s"),
    ("gen.alloc_mib", "MiB"),
    ("lang.parses", "count"),
    ("lang.self_s", "s"),
    ("analysis.units", "count"),
    ("analysis.self_s", "s"),
    ("features.extracts", "count"),
    ("features.self_s", "s"),
    ("features.node_hit_ratio", "ratio"),
    ("core.self_s", "s"),
    ("core.artifact_hit_ratio", "ratio"),
    ("core.frontend_s", "s"),
    ("gpt.steps", "count"),
    ("gpt.self_s", "s"),
    ("faults.calls", "count"),
    ("faults.retries", "count"),
    ("faults.recovered", "count"),
    ("faults.accept_ratio", "ratio"),
    ("ml.fit.calls", "count"),
    ("ml.fit.self_s", "s"),
    ("ml.fit.alloc_mib", "MiB"),
    ("ml.predict.rows", "count"),
    ("ml.predict.self_s", "s"),
    ("ml.predict.alloc_mib", "MiB"),
    ("ml.colstore.bytes", "bytes"),
    ("ml.colstore.self_s", "s"),
    ("serve.http.self_us", "us"),
    ("serve.handle.self_us", "us"),
    ("serve.wait_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_rows_mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.gen_lag_ms", "ms"),
    ("pool.busy_ratio", "ratio"),
    ("untracked_s", "s"),
    ("trace_wall_s", "s"),
    ("trace_overhead_pct", "%"),
];

/// Span names that are layers; the root span is named `run`.
pub const LAYERS: [&str; 11] = [
    "gen",
    "lang",
    "analysis",
    "features",
    "core",
    "gpt",
    "ml.fit",
    "ml.predict",
    "ml.colstore",
    "serve.http",
    "serve.handle",
];

/// The raw measurements of an untraced run.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// One entry per set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// One entry per measured pass, seconds.
    pub pass_s: Vec<f64>,
    /// CPU seconds (user + sys) over all measured passes.
    pub cpu_total_s: f64,
    pub peak_heap_bytes: u64,
    pub items_per_s: f64,
    /// One entry per timed operation, ms.
    pub op_ms: Vec<f64>,
}

impl EndToEnd {
    /// Turns the measurements into the end-to-end metrics.
    pub fn into_report(self, report: &mut Report) {
        let (tail_p, tail_ms) = stats::tail(&stats::sorted(&self.op_ms));
        let values = [
            stats::median(&self.setup_s),
            stats::median(&self.pass_s),
            self.cpu_total_s / self.pass_s.len() as f64,
            self.peak_heap_bytes as f64 / (1024.0 * 1024.0),
            self.items_per_s,
            stats::median(&self.op_ms),
            tail_ms,
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            report.metrics.push(Metric { name, value, unit });
        }
        report.note("setup_samples", self.setup_s.len());
        report.note("run_samples", self.pass_s.len());
        report.note("op_samples", self.op_ms.len());
        report.note("op_tail_percentile", tail_p);
    }
}

/// Per-layer values gathered by a traced run, keyed by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// Derives self times, allocations and `untracked_s` from a finished
/// tracer whose single root span is named `run`.
pub fn layer_values(tr: &trace::Tracer) -> LayerValues {
    let totals = trace::layer_totals(tr.spans());
    let mut v = LayerValues::new();
    let mut sum_ns = 0u64;
    for layer in LAYERS {
        let t = totals.get(layer).copied().unwrap_or_default();
        sum_ns += t.self_ns;
        let key: &'static str = match layer {
            "gen" => "gen.self_s",
            "lang" => "lang.self_s",
            "analysis" => "analysis.self_s",
            "features" => "features.self_s",
            "core" => "core.self_s",
            "gpt" => "gpt.self_s",
            "ml.fit" => "ml.fit.self_s",
            "ml.predict" => "ml.predict.self_s",
            "ml.colstore" => "ml.colstore.self_s",
            "serve.http" => "serve.http.self_us",
            _ => "serve.handle.self_us",
        };
        let value = if key.ends_with("_us") {
            t.self_ns as f64 / 1e3 / t.spans.max(1) as f64
        } else {
            t.self_ns as f64 / 1e9
        };
        v.insert(key, value);
    }
    let mib =
        |layer: &str| totals.get(layer).map_or(0.0, |t| t.alloc_bytes as f64) / (1024.0 * 1024.0);
    v.insert("gen.alloc_mib", mib("gen"));
    v.insert("ml.fit.alloc_mib", mib("ml.fit"));
    v.insert("ml.predict.alloc_mib", mib("ml.predict"));
    let root = totals.get("run").copied().unwrap_or_default();
    let wall_ns: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    v.insert("untracked_s", root.self_ns as f64 / 1e9);
    v.insert("trace_wall_s", wall_ns as f64 / 1e9);
    // Layer self times plus the root's own time must account for the
    // whole traced wall; anything else means spans escaped the root.
    let accounted = (sum_ns + root.self_ns) as f64;
    v.insert(
        "trace_sum_error_pct",
        100.0 * (accounted - wall_ns as f64).abs() / (wall_ns.max(1) as f64),
    );
    v
}

/// Fills a traced run's report with every per-layer metric.
pub fn per_layer_report(values: &LayerValues, report: &mut Report) {
    for (name, unit) in PER_LAYER {
        report.metrics.push(Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        });
    }
    if let Some(err) = values.get("trace_sum_error_pct") {
        report.note("trace_sum_error_pct", err);
    }
}

/// Process CPU time (user + sys, every thread) from `/proc/self/stat`,
/// in seconds; 0 where the file is unavailable.
pub fn cpu_seconds() -> f64 {
    // USER_HZ is 100 on every Linux target std supports.
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Repeats `pass` until `seconds` of wall time have been spent (at
/// least once). Returns each pass's wall seconds and output, the CPU
/// seconds the passes used, and the median over passes of each pass's
/// live-heap high-water mark (a median, because the peak of two
/// workers' interleaved allocations varies from pass to pass).
pub fn measure_passes<T>(seconds: f64, mut pass: impl FnMut() -> T) -> (Vec<(f64, T)>, f64, u64) {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let (mut out, mut peaks) = (Vec::new(), Vec::new());
    loop {
        alloc::reset_peak();
        let t0 = Instant::now();
        let value = pass();
        out.push((t0.elapsed().as_secs_f64(), value));
        peaks.push(alloc::peak_bytes() as f64);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (out, cpu_seconds() - cpu0, stats::median(&peaks) as u64)
}

/// Times `reps` repetitions of a set-up step, returning the last
/// result and every repetition's seconds.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up repetition"), times)
}

/// 64-bit FNV-1a, the digest the correctness checks compare.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// `trace_overhead_pct`: the traced replay's wall time against the
/// same replay with the recorder disabled.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    100.0 * (traced_s - untraced_s) / untraced_s.max(1e-9)
}
