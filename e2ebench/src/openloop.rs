//! Open-loop load accounting, kept free of sockets so it can be tested.
//!
//! Requests are due on a fixed schedule whether or not earlier ones
//! have completed. Latency is timed from each request's due time, so a
//! stall that delays later sends is charged to every request it
//! delays; how late the generator itself sent (`sent - due`) is
//! reported separately as generator lag.

use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Attribute,
    Transform,
}

/// One request of a phase. Times are nanoseconds from the phase start.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub route: Route,
    pub due_ns: u64,
    pub sent_ns: u64,
    /// When the full response arrived; `None` for a timeout or a
    /// broken connection.
    pub done_ns: Option<u64>,
    pub status: u16,
}

impl Record {
    pub fn ok(&self) -> bool {
        self.done_ns.is_some() && self.status == 200
    }

    /// Latency from the due time, in ms (`None` when it never completed).
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_ns
            .map(|d| d.saturating_sub(self.due_ns) as f64 / 1e6)
    }

    /// How late the generator sent this request, in ms.
    pub fn lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Due times (ns from phase start) for `rate` requests per second
/// over `seconds`, evenly spaced.
pub fn schedule(rate: f64, seconds: f64) -> Vec<u64> {
    let n = (rate * seconds).floor() as usize;
    let gap = 1e9 / rate;
    (0..n).map(|i| (i as f64 * gap) as u64).collect()
}

/// What one phase of the ladder measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    /// Sorted latencies (ms) of successful `/attribute` requests.
    pub attribute_ms: Vec<f64>,
    /// Sorted latencies (ms) of successful `/transform` requests.
    pub transform_ms: Vec<f64>,
    /// Sorted generator lag (ms) over every request.
    pub lag_ms: Vec<f64>,
    /// Latency (ms) of the request due last; a growing backlog shows
    /// here first. Infinite when it never completed.
    pub last_ms: f64,
    /// First due time to last completion, in seconds.
    pub span_s: f64,
}

pub fn summarize(records: &[Record]) -> Phase {
    let lat = |route: Route| {
        stats::sorted(
            &records
                .iter()
                .filter(|r| r.route == route && r.ok())
                .filter_map(Record::latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    let last = records.iter().max_by_key(|r| r.due_ns);
    let first_due = records.iter().map(|r| r.due_ns).min().unwrap_or(0);
    let last_done = records
        .iter()
        .filter_map(|r| r.done_ns)
        .max()
        .unwrap_or(first_due);
    Phase {
        attempted: records.len() as u64,
        failed: records.iter().filter(|r| !r.ok()).count() as u64,
        attribute_ms: lat(Route::Attribute),
        transform_ms: lat(Route::Transform),
        lag_ms: stats::sorted(&records.iter().map(Record::lag_ms).collect::<Vec<_>>()),
        last_ms: last
            .and_then(|r| if r.ok() { r.latency_ms() } else { None })
            .unwrap_or(f64::INFINITY),
        span_s: last_done.saturating_sub(first_due) as f64 / 1e9,
    }
}

impl Phase {
    /// The phase meets the limit when nothing failed, the `/attribute`
    /// tail percentile stays under `slo_ms`, and the last request due
    /// also completed under it (no backlog left growing at the end).
    pub fn meets_slo(&self, slo_ms: f64) -> bool {
        self.failed == 0
            && !self.attribute_ms.is_empty()
            && stats::tail(&self.attribute_ms).1 < slo_ms
            && self.last_ms < slo_ms
    }

    /// Successful requests per second over the phase's span.
    pub fn completed_per_s(&self) -> f64 {
        let ok = (self.attempted - self.failed) as f64;
        ok / self.span_s.max(1e-9)
    }
}
