//! Graceful-drain bookkeeping: one flag, one deadline, a few
//! counters, and the statistics [`crate::server::RunningServer`]
//! hands back from `shutdown()`.
//!
//! Like [`crate::conn`], the core is clock-explicit — `begin`,
//! `force_deadline_passed`, and friends take the server's monotonic
//! `now_ms` — so drain arithmetic is unit-testable without threads.
//! The protocol it coordinates (implemented in `server.rs`):
//!
//! 1. `begin` flips the flag; `/healthz` starts reporting
//!    `"drain_state":"draining"`.
//! 2. The reactor wakes and stops accepting, but keeps polling. On
//!    every pass it hands each idle parked connection to a worker,
//!    which retires it. A connection mid-request or mid-flush stays
//!    parked under its own budget deadlines, with the wait capped at
//!    [`DrainState::deadline_remaining_ms`].
//! 3. Workers serve through the ordinary loop: a response with no
//!    next request started behind it carries `Connection: close` and
//!    ends its connection, and a connection found idle is retired.
//!    Header, body and write deadlines still cut hostile connections.
//!    Each close wakes the reactor, which returns once no connection
//!    is open.
//! 4. Past `begin + force_deadline_ms`, the reactor force-closes the
//!    connections it holds and any that workers hand back, so
//!    shutdown always terminates.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Shared drain state. Constructed once per server.
#[derive(Debug)]
pub struct DrainState {
    draining: AtomicBool,
    /// `now_ms` when the drain began (valid once `draining`).
    began_ms: AtomicU64,
    /// Hard deadline after `began_ms` for force-closing stragglers.
    force_deadline_ms: u64,
    /// Connections retired during the drain (gracefully or not).
    drained_connections: AtomicU64,
    /// Responses written to in-flight requests during the drain.
    final_responses: AtomicU64,
    /// Connections force-closed at the hard deadline.
    forced_closes: AtomicU64,
}

impl DrainState {
    /// A fresh, not-draining state with the given hard deadline.
    pub fn new(force_deadline_ms: u64) -> Self {
        DrainState {
            draining: AtomicBool::new(false),
            began_ms: AtomicU64::new(0),
            force_deadline_ms,
            drained_connections: AtomicU64::new(0),
            final_responses: AtomicU64::new(0),
            forced_closes: AtomicU64::new(0),
        }
    }

    /// Starts the drain at `now_ms`. Idempotent: the first call wins
    /// and anchors the hard deadline.
    pub fn begin(&self, now_ms: u64) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            self.began_ms.store(now_ms, Ordering::SeqCst);
        }
    }

    /// Whether a drain is in progress.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The `/healthz` `drain_state` value.
    pub fn state_name(&self) -> &'static str {
        if self.is_draining() {
            "draining"
        } else {
            "active"
        }
    }

    /// Whether the hard deadline has passed (never true before
    /// `begin`).
    pub fn force_deadline_passed(&self, now_ms: u64) -> bool {
        self.is_draining()
            && now_ms.saturating_sub(self.began_ms.load(Ordering::SeqCst)) >= self.force_deadline_ms
    }

    /// Milliseconds left until the hard deadline (0 once passed): the
    /// longest the draining reactor waits.
    pub fn deadline_remaining_ms(&self, now_ms: u64) -> u64 {
        if !self.is_draining() {
            return self.force_deadline_ms;
        }
        let elapsed = now_ms.saturating_sub(self.began_ms.load(Ordering::SeqCst));
        self.force_deadline_ms.saturating_sub(elapsed)
    }

    /// One connection retired during the drain.
    pub fn note_drained(&self) {
        self.drained_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` in-flight requests answered during the drain.
    pub fn note_final_responses(&self, n: u64) {
        self.final_responses.fetch_add(n, Ordering::Relaxed);
    }

    /// One straggler force-closed at the hard deadline.
    pub fn note_forced(&self) {
        self.forced_closes.fetch_add(1, Ordering::Relaxed);
    }

    /// The statistics snapshot `shutdown()` returns.
    pub fn stats(&self, drain_ms: u64) -> DrainStats {
        let forced = self.forced_closes.load(Ordering::Relaxed);
        DrainStats {
            drained_connections: self.drained_connections.load(Ordering::Relaxed),
            final_responses: self.final_responses.load(Ordering::Relaxed),
            forced_closes: forced,
            drain_ms,
            clean: forced == 0,
        }
    }
}

/// What `shutdown()` reports about the drain it performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainStats {
    /// Connections retired during the drain.
    pub drained_connections: u64,
    /// In-flight requests answered after the drain began.
    pub final_responses: u64,
    /// Connections force-closed at the hard deadline.
    pub forced_closes: u64,
    /// Wall-clock milliseconds the shutdown took end to end.
    pub drain_ms: u64,
    /// `true` when nothing had to be force-closed: every in-flight
    /// request got its response.
    pub clean: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_is_idempotent_and_anchors_the_deadline_once() {
        let d = DrainState::new(100);
        assert!(!d.is_draining());
        assert_eq!(d.state_name(), "active");
        assert!(!d.force_deadline_passed(1_000_000), "never before begin");

        d.begin(50);
        assert!(d.is_draining());
        assert_eq!(d.state_name(), "draining");
        // A second begin at a later clock must not move the anchor.
        d.begin(140);
        assert!(!d.force_deadline_passed(149), "anchored at 50, not 140");
        assert!(d.force_deadline_passed(150));
        assert_eq!(d.deadline_remaining_ms(100), 50);
        assert_eq!(d.deadline_remaining_ms(999), 0);
    }

    #[test]
    fn stats_reflect_the_counters_and_cleanliness() {
        let d = DrainState::new(100);
        d.begin(0);
        d.note_drained();
        d.note_drained();
        d.note_final_responses(7);
        let clean = d.stats(42);
        assert_eq!(clean.drained_connections, 2);
        assert_eq!(clean.final_responses, 7);
        assert_eq!(clean.forced_closes, 0);
        assert_eq!(clean.drain_ms, 42);
        assert!(clean.clean, "no forced closes → clean drain");

        d.note_forced();
        assert!(!d.stats(43).clean, "a forced close taints the drain");
    }
}
