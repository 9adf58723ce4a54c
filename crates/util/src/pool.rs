//! A scoped, order-preserving parallel map over owned work items.
//!
//! The workspace's hot loops (forest training, per-challenge
//! transformation, per-sample feature extraction) are all shaped the
//! same way: a list of independent work items whose outputs must come
//! back **in input order** so that experiment results stay
//! byte-identical regardless of how many threads ran. This module
//! provides exactly that shape on `std::thread::scope` — no external
//! dependency, no detached threads, no unsafe.
//!
//! # Scheduling
//!
//! Workers self-schedule over a shared atomic cursor in small chunks:
//! a worker that finishes its chunk immediately claims the next one,
//! so uneven item costs balance out (the useful half of work
//! stealing) while the chunk size keeps cursor contention negligible.
//! Each output is written into the slot of its input index, so the
//! returned vector order never depends on thread timing.
//!
//! # Determinism and worker counts
//!
//! The number of workers changes only *wall-clock time*, never
//! results — every caller in this workspace derives per-item RNG
//! streams before dispatch. The count resolves, in priority order:
//!
//! 1. an explicit override (e.g. a config field) passed to
//!    [`resolve_workers`];
//! 2. the `SYNTHATTR_WORKERS` environment variable ([`ENV_WORKERS`]),
//!    for reproducible CI runs;
//! 3. [`std::thread::available_parallelism`].
//!
//! # Panics
//!
//! A panic on a worker thread is caught, the remaining queue is
//! drained without running `f`, and the original panic payload is
//! re-raised on the calling thread once every worker has parked.
//!
//! # Example
//!
//! ```
//! use synthattr_util::pool;
//!
//! let squares = pool::parallel_map((0..100u64).collect(), |x| x * x);
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares.len(), 100);
//! ```

use std::collections::VecDeque;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Environment variable overriding the worker count (`0` or unset
/// means "auto"). Set it to `1` to force fully serial execution.
pub const ENV_WORKERS: &str = "SYNTHATTR_WORKERS";

/// Items each worker claims per visit to the shared cursor. Small
/// enough to balance skewed workloads (one slow tree, one huge
/// challenge), large enough that the atomic is never contended.
const CHUNK: usize = 4;

/// Resolves the effective worker count.
///
/// `override_workers` (from a config struct) wins over the
/// [`ENV_WORKERS`] environment variable, which wins over the
/// machine's available parallelism. Zero from any source means
/// "auto"; the result is always at least 1.
pub fn resolve_workers(override_workers: Option<usize>) -> usize {
    let picked = override_workers.filter(|&w| w > 0).or_else(|| {
        std::env::var(ENV_WORKERS)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w > 0)
    });
    picked
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .max(1)
}

/// Order-preserving parallel map with the ambient worker count
/// (see [`resolve_workers`]).
pub fn parallel_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    parallel_map_workers(resolve_workers(None), items, f)
}

/// Order-preserving parallel map on exactly `workers` threads
/// (clamped to the item count; `1` runs inline on the caller): the
/// infallible case of [`parallel_try_map_workers`].
///
/// Output index `i` always holds `f(items[i])`.
pub fn parallel_map_workers<I, O, F>(workers: usize, items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let Ok(out) = parallel_try_map_workers(workers, items, |item| Ok::<O, Infallible>(f(item)));
    out
}

/// Fallible order-preserving parallel map with the ambient worker
/// count (see [`resolve_workers`] and [`parallel_try_map_workers`]).
pub fn parallel_try_map<I, O, E, F>(items: Vec<I>, f: F) -> Result<Vec<O>, E>
where
    I: Send,
    O: Send,
    E: Send,
    F: Fn(I) -> Result<O, E> + Sync,
{
    parallel_try_map_workers(resolve_workers(None), items, f)
}

/// Fallible order-preserving parallel map on exactly `workers`
/// threads.
///
/// On success, output index `i` holds the `Ok` value of `f(items[i])`.
/// The first `Err` **short-circuits**: the poisoned flag is raised,
/// every not-yet-claimed item is drained without running `f`, and the
/// error is returned once all workers have parked. When several
/// in-flight items error concurrently, the error with the *lowest
/// input index* among those that actually ran wins, so the common
/// case (one bad item) reports deterministically; which items ran at
/// all still depends on scheduling, as it must for a short-circuit.
///
/// Worker panics keep their existing semantics: the queue drains and
/// the first payload re-raises on the caller (panics outrank errors).
pub fn parallel_try_map_workers<I, O, E, F>(
    workers: usize,
    items: Vec<I>,
    f: F,
) -> Result<Vec<O>, E>
where
    I: Send,
    O: Send,
    E: Send,
    F: Fn(I) -> Result<O, E> + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 || n <= 1 {
        // Serial fallback: `?` gives exact first-error semantics.
        return items.into_iter().map(f).collect();
    }

    let input: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let output: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let error_slot: Mutex<Option<(usize, E)>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                if start >= n {
                    return;
                }
                for i in start..(start + CHUNK).min(n) {
                    if poisoned.load(Ordering::Relaxed) {
                        // A sibling errored or panicked: drain without
                        // running f.
                        continue;
                    }
                    let item = input[i]
                        .lock()
                        .expect("pool input slot poisoned")
                        .take()
                        .expect("pool input slot claimed twice");
                    match catch_unwind(AssertUnwindSafe(|| f(item))) {
                        Ok(Ok(out)) => {
                            *output[i].lock().expect("pool output slot poisoned") = Some(out);
                        }
                        Ok(Err(e)) => {
                            poisoned.store(true, Ordering::Relaxed);
                            let mut slot = error_slot.lock().expect("pool error slot poisoned");
                            // Prefer the lowest input index among the
                            // errors that ran.
                            if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                                *slot = Some((i, e));
                            }
                        }
                        Err(payload) => {
                            poisoned.store(true, Ordering::Relaxed);
                            let mut slot = panic_payload.lock().expect("pool panic slot poisoned");
                            // Keep the first payload; later ones are
                            // cascade noise.
                            slot.get_or_insert(payload);
                        }
                    }
                }
            });
        }
    });

    if let Some(payload) = panic_payload
        .into_inner()
        .expect("pool panic slot poisoned")
    {
        resume_unwind(payload);
    }
    if let Some((_, e)) = error_slot.into_inner().expect("pool error slot poisoned") {
        return Err(e);
    }

    Ok(output
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("pool output slot poisoned")
                .unwrap_or_else(|| panic!("work item {i} produced no result"))
        })
        .collect())
}

/// A blocking multi-producer multi-consumer work queue with close
/// semantics, for long-lived worker pools (the serving layer's
/// accept/worker split) rather than the bounded fork-join shape of
/// [`parallel_map_workers`].
///
/// Producers [`push`](WorkQueue::push) items; consumers
/// [`pop`](WorkQueue::pop), blocking while the queue is empty. Closing
/// the queue wakes every blocked consumer: `pop` keeps draining any
/// queued items and then returns `None` forever, which is the workers'
/// shutdown signal. Items are delivered in FIFO order, each to exactly
/// one consumer.
#[derive(Debug, Default)]
pub struct WorkQueue<T> {
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Default for QueueInner<T> {
    fn default() -> Self {
        QueueInner {
            items: VecDeque::new(),
            closed: false,
        }
    }
}

impl<T> WorkQueue<T> {
    /// An empty, open queue.
    pub fn new() -> Self {
        WorkQueue {
            inner: Mutex::new(QueueInner::default()),
            ready: Condvar::new(),
        }
    }

    /// Enqueues an item, waking one blocked consumer. Returns `false`
    /// (dropping the item) if the queue is already closed.
    pub fn push(&self, item: T) -> bool {
        self.offer(item).is_ok()
    }

    /// Enqueues an item like [`push`](WorkQueue::push), but hands the
    /// item **back** instead of silently dropping it when the queue is
    /// closed. Producers whose items own live resources (the serving
    /// layer parks open connections here) need the rejected item to
    /// dispose of it deliberately — e.g. finish a graceful drain —
    /// rather than have `Drop` slam the resource shut.
    ///
    /// # Errors
    ///
    /// `Err(item)` when the queue is closed; the queue is unchanged.
    pub fn offer(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        if inner.closed {
            return Err(item);
        }
        inner.items.push_back(item);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the next item, blocking while the queue is empty and
    /// open. Returns `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("work queue poisoned");
        }
    }

    /// Closes the queue: future `push` calls are refused, and every
    /// consumer unblocks once the remaining items drain.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        inner.closed = true;
        self.ready.notify_all();
    }

    /// Items currently queued (racy by nature; for stats only).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("work queue poisoned").items.len()
    }

    /// Whether no items are currently queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order() {
        let out = parallel_map_workers(8, (0..1000usize).collect(), |x| x * 3);
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn preserves_order_under_uneven_chunk_sizes() {
        // Early items are much slower than late ones, so late chunks
        // finish first; ordering must still hold.
        let out = parallel_map_workers(4, (0..97usize).collect(), |x| {
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            x + 1
        });
        assert_eq!(out, (1..=97).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_falls_back_to_serial() {
        // With one worker no threads spawn; results match the map.
        let calls = AtomicUsize::new(0);
        let out = parallel_map_workers(1, (0..50u64).collect(), |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x * x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 50);
        assert_eq!(out[49], 49 * 49);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = parallel_map_workers(8, Vec::<u8>::new(), |x| x);
        assert!(empty.is_empty());
        let one = parallel_map_workers(8, vec![41u8], |x| x + 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let f = |x: u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13);
        let base = parallel_map_workers(1, (0..500u64).collect(), f);
        for workers in [2, 3, 8] {
            assert_eq!(
                parallel_map_workers(workers, (0..500u64).collect(), f),
                base,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn panic_propagates_with_original_message() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_workers(4, (0..64usize).collect(), |x| {
                if x == 17 {
                    panic!("item 17 exploded");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("item 17 exploded"), "payload was: {msg}");
    }

    #[test]
    fn two_concurrent_panics_terminate_and_keep_a_real_payload() {
        // Regression: two workers panicking at the same instant must
        // neither deadlock the scope join nor lose the recorded
        // payload. A barrier forces items 0 and 4 (claimed by
        // different workers, CHUNK = 4) to panic truly concurrently.
        let barrier = std::sync::Barrier::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_workers(2, (0..8usize).collect(), |x| {
                if x == 0 || x == 4 {
                    barrier.wait();
                    panic!("worker bomb {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg == "worker bomb 0" || msg == "worker bomb 4",
            "payload must be one of the two genuine panics, got: {msg}"
        );
    }

    #[test]
    fn try_map_collects_ok_results_in_order() {
        let out = parallel_try_map_workers(8, (0..500usize).collect(), |x| Ok::<_, String>(x * 2))
            .unwrap();
        assert_eq!(out, (0..500).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_short_circuit_drains_the_queue() {
        // Item 0 errors instantly; every other item sleeps. By the
        // time the sleepers finish, the poisoned flag is up, so the
        // vast majority of the queue must drain without running f.
        let calls = AtomicUsize::new(0);
        let n = 1000usize;
        let result = parallel_try_map_workers(4, (0..n).collect(), |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            if x == 0 {
                return Err(format!("item {x} failed"));
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            Ok(x)
        });
        assert_eq!(result, Err("item 0 failed".to_string()));
        let ran = calls.load(Ordering::Relaxed);
        assert!(
            ran < n / 2,
            "short-circuit should skip most of the queue, but f ran {ran}/{n} times"
        );
    }

    #[test]
    fn try_map_serial_path_returns_first_error() {
        let calls = AtomicUsize::new(0);
        let result = parallel_try_map_workers(1, (0..50usize).collect(), |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            if x >= 3 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(result, Err(3));
        assert_eq!(calls.load(Ordering::Relaxed), 4, "stops at the first error");
    }

    #[test]
    fn try_map_prefers_lowest_index_error() {
        // Item 40 errors fast; item 3 sleeps briefly then errors.
        // Whichever lands first, the reported error must be a genuine
        // one, and when both recorded, index 3 wins. Run a few times
        // to cover schedules.
        for _ in 0..5 {
            let result = parallel_try_map_workers(4, (0..64usize).collect(), |x| {
                if x == 3 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    return Err(x);
                }
                if x == 40 {
                    return Err(x);
                }
                std::thread::sleep(std::time::Duration::from_micros(100));
                Ok(x)
            });
            let err = result.expect_err("at least one item errors");
            assert!(err == 3 || err == 40, "unexpected error index {err}");
        }
    }

    #[test]
    fn try_map_empty_and_singleton() {
        let empty: Result<Vec<u8>, ()> = parallel_try_map_workers(8, Vec::new(), Ok);
        assert_eq!(empty, Ok(Vec::new()));
        let one: Result<Vec<u8>, ()> = parallel_try_map(vec![41], |x| Ok(x + 1));
        assert_eq!(one, Ok(vec![42]));
    }

    #[test]
    fn work_queue_is_fifo_for_a_single_consumer() {
        let q = WorkQueue::new();
        for i in 0..10 {
            assert!(q.push(i));
        }
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
        assert_eq!(q.pop(), None, "closed queue stays closed");
    }

    #[test]
    fn work_queue_refuses_push_after_close() {
        let q = WorkQueue::new();
        q.close();
        assert!(!q.push(1u8));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn work_queue_offer_returns_the_item_when_closed() {
        let q = WorkQueue::new();
        assert_eq!(q.offer(7u8), Ok(()));
        q.close();
        // The queued item still drains…
        assert_eq!(q.pop(), Some(7));
        // …but a rejected offer hands the item back intact instead of
        // dropping it, so the caller can dispose of it deliberately.
        assert_eq!(q.offer(9u8), Err(9));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn work_queue_pop_blocks_until_push() {
        let q = WorkQueue::new();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| q.pop());
            // Give the consumer a chance to park before the push.
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert!(q.push(42u64));
            assert_eq!(consumer.join().unwrap(), Some(42));
        });
    }

    #[test]
    fn work_queue_delivers_each_item_to_exactly_one_consumer() {
        let q = WorkQueue::new();
        let n = 500usize;
        let consumed = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(item) = q.pop() {
                        consumed.lock().unwrap().push(item);
                    }
                });
            }
            for i in 0..n {
                assert!(q.push(i));
            }
            q.close();
        });
        let mut got = consumed.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn work_queue_close_unblocks_parked_consumers() {
        let q: WorkQueue<u8> = WorkQueue::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3).map(|_| s.spawn(|| q.pop())).collect();
            std::thread::sleep(std::time::Duration::from_millis(5));
            q.close();
            for h in handles {
                assert_eq!(h.join().unwrap(), None);
            }
        });
    }

    #[test]
    fn resolve_workers_priority() {
        // Explicit override wins regardless of the environment.
        assert_eq!(resolve_workers(Some(3)), 3);
        // Zero means auto, which is always at least one.
        assert!(resolve_workers(Some(0)) >= 1);
        assert!(resolve_workers(None) >= 1);
    }
}
