//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public entry point, on the replaying thread only.
//! Each span keeps its name, start, end, parent and request id plus
//! the process-wide allocation counter at both ends. A layer's self
//! time is its spans' durations minus the part of each interval its
//! child spans cover, so the self times of all spans in a tree add up
//! to the root's duration; the root's own self time is the work no
//! layer span claimed (`untracked_s`).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub alloc_start: u64,
    pub alloc_end: u64,
}

/// Self time and self allocation of one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfCost {
    pub ns: u64,
    pub alloc_bytes: u64,
}

/// Per-layer totals over every span with that name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub self_ns: u64,
    pub alloc_bytes: u64,
    pub spans: u64,
}

/// Computes each span's self cost: its duration minus the union of
/// its children's intervals (clipped to the parent), and its
/// allocation minus its children's.
pub fn self_costs(spans: &[Span]) -> Vec<SelfCost> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut intervals: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in intervals {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            let child_alloc: u64 = children[i]
                .iter()
                .map(|&c| spans[c].alloc_end.saturating_sub(spans[c].alloc_start))
                .sum();
            SelfCost {
                ns: (s.end_ns - s.start_ns).saturating_sub(covered),
                alloc_bytes: s
                    .alloc_end
                    .saturating_sub(s.alloc_start)
                    .saturating_sub(child_alloc),
            }
        })
        .collect()
}

/// Sums self costs by span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, cost) in spans.iter().zip(self_costs(spans)) {
        let t = out.entry(span.name).or_default();
        t.self_ns += cost.ns;
        t.alloc_bytes += cost.alloc_bytes;
        t.spans += 1;
    }
    out
}

/// Records spans and counters when enabled; every call is a no-op
/// when disabled, so the same replay code measures its own overhead.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            alloc_start: alloc::requested_bytes(),
            alloc_end: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("end() without a matching begin()");
        let now = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = now;
        span.alloc_end = alloc::requested_bytes();
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// Adds `delta` to a named counter.
    pub fn count(&mut self, name: &'static str, delta: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += delta;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"alloc_bytes\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.alloc_end.saturating_sub(s.alloc_start)
            )?;
        }
        out.flush()
    }
}
