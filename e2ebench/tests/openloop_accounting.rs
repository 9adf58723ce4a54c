//! Open-loop accounting: latency runs from the due time, not the send
//! time, so a generator stall is charged to the requests it delayed;
//! the stall itself is reported as generator lag.

use e2ebench::openloop::{schedule, summarize, Record, Route};

const MS: u64 = 1_000_000;

fn rec(due_ms: u64, sent_ms: u64, done_ms: Option<u64>, status: u16) -> Record {
    Record {
        route: Route::Attribute,
        due_ns: due_ms * MS,
        sent_ns: sent_ms * MS,
        done_ns: done_ms.map(|d| d * MS),
        status,
    }
}

#[test]
fn schedule_is_evenly_spaced_at_the_rate() {
    let due = schedule(100.0, 1.0);
    assert_eq!(due.len(), 100);
    assert_eq!(due[0], 0);
    assert_eq!(due[1], 10 * MS);
    assert_eq!(due[99], 990 * MS);
}

#[test]
fn latency_counts_from_the_due_time() {
    // Due at 0, sent 5 ms late by a stalled generator, answered 2 ms
    // after sending: the user waited 7 ms.
    let r = rec(0, 5, Some(7), 200);
    assert_eq!(r.latency_ms(), Some(7.0));
    assert_eq!(r.lag_ms(), 5.0);
}

#[test]
fn a_stall_is_charged_to_every_delayed_request() {
    // The generator stalls for 50 ms; requests due at 0, 10, 20 go out
    // together at 50 and return at 52.
    let records: Vec<Record> = [0, 10, 20]
        .iter()
        .map(|&due| rec(due, 50, Some(52), 200))
        .collect();
    let phase = summarize(&records);
    assert_eq!(phase.attribute_ms, vec![32.0, 42.0, 52.0]);
    assert_eq!(phase.lag_ms, vec![30.0, 40.0, 50.0]);
    assert_eq!(phase.failed, 0);
}

#[test]
fn timeouts_and_errors_fail_and_miss_the_limit() {
    let records = vec![
        rec(0, 0, Some(1), 200),
        rec(10, 10, None, 0),
        rec(20, 20, Some(21), 503),
    ];
    let phase = summarize(&records);
    assert_eq!(phase.attempted, 3);
    assert_eq!(phase.failed, 2);
    assert_eq!(phase.attribute_ms, vec![1.0]);
    assert!(!phase.meets_slo(100.0));
}

#[test]
fn a_backlog_at_the_end_misses_the_limit() {
    // Early requests are fast; the last one is stuck behind a queue.
    let mut records: Vec<Record> = (0..40)
        .map(|i| rec(i * 10, i * 10, Some(i * 10 + 1), 200))
        .collect();
    records.push(rec(400, 400, Some(900), 200));
    let phase = summarize(&records);
    assert_eq!(phase.last_ms, 500.0);
    assert!(!phase.meets_slo(50.0));
    assert!(phase.meets_slo(600.0));
}

#[test]
fn completed_rate_spans_first_due_to_last_completion() {
    let records: Vec<Record> = (0..10)
        .map(|i| rec(i * 100, i * 100, Some(i * 100 + 100), 200))
        .collect();
    let phase = summarize(&records);
    assert!((phase.span_s - 1.0).abs() < 1e-9);
    assert!((phase.completed_per_s() - 10.0).abs() < 1e-9);
}
