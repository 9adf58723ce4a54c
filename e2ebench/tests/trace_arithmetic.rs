//! Span self-time arithmetic: self time is duration minus the union of
//! child intervals, and the self times of a tree sum to the root's
//! duration, so layer times plus `untracked_s` equal the traced wall.

use e2ebench::layer_values;
use e2ebench::trace::{layer_totals, self_costs, Span, Tracer};

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        request: 0,
        alloc_start: 0,
        alloc_end: 0,
    }
}

#[test]
fn self_time_subtracts_children() {
    let spans = vec![
        span("run", 0, 100, None),
        span("gen", 10, 30, Some(0)),
        span("ml.fit", 40, 90, Some(0)),
        span("ml.predict", 50, 60, Some(2)),
    ];
    let costs = self_costs(&spans);
    let ns: Vec<u64> = costs.iter().map(|c| c.ns).collect();
    assert_eq!(ns, vec![30, 20, 40, 10]);
    assert_eq!(
        ns.iter().sum::<u64>(),
        100,
        "self times sum to the root's duration"
    );
}

#[test]
fn overlapping_children_count_once() {
    // Children recorded on two threads may overlap; the parent loses
    // only the union of their intervals, clipped to its own.
    let spans = vec![
        span("run", 0, 100, None),
        span("gen", 10, 50, Some(0)),
        span("gen", 30, 70, Some(0)),
        span("lang", 90, 120, Some(0)),
    ];
    assert_eq!(self_costs(&spans)[0].ns, 100 - 60 - 10);
}

#[test]
fn allocation_is_attributed_to_the_innermost_span() {
    let mut spans = vec![span("run", 0, 10, None), span("ml.fit", 1, 9, Some(0))];
    spans[0].alloc_start = 100;
    spans[0].alloc_end = 1_100;
    spans[1].alloc_start = 200;
    spans[1].alloc_end = 900;
    let costs = self_costs(&spans);
    assert_eq!(costs[0].alloc_bytes, 300);
    assert_eq!(costs[1].alloc_bytes, 700);
}

#[test]
fn layer_totals_group_by_name() {
    let spans = vec![
        span("run", 0, 100, None),
        span("core", 0, 10, Some(0)),
        span("core", 20, 25, Some(0)),
    ];
    let totals = layer_totals(&spans);
    assert_eq!(totals["core"].self_ns, 15);
    assert_eq!(totals["core"].spans, 2);
    assert_eq!(totals["run"].self_ns, 85);
}

#[test]
fn live_tracer_accounts_for_the_whole_wall() {
    let mut tr = Tracer::new(true);
    tr.begin("run", 0);
    for i in 0..50u64 {
        tr.leaf("gen", i, || {
            std::hint::black_box((0..1_000u64).sum::<u64>())
        });
        tr.begin("ml.fit", i);
        tr.leaf("ml.predict", i, || {
            std::hint::black_box((0..500u64).product::<u64>())
        });
        tr.end();
    }
    tr.end();
    let v = layer_values(&tr);
    let layers = v["gen.self_s"] + v["ml.fit.self_s"] + v["ml.predict.self_s"];
    let wall = v["trace_wall_s"];
    assert!(wall > 0.0);
    assert!((layers + v["untracked_s"] - wall).abs() <= 0.05 * wall);
    assert_eq!(v["trace_sum_error_pct"], 0.0);
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut tr = Tracer::new(false);
    tr.begin("run", 0);
    tr.leaf("gen", 0, || ());
    tr.count("gen.samples", 3.0);
    tr.end();
    assert!(tr.spans().is_empty());
    assert_eq!(tr.counter("gen.samples"), 0.0);
}
