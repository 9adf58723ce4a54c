//! Per-connection survivability policy: budgets, phases, verdicts.
//!
//! A worker in `server.rs` never camps on a socket — it reads what a
//! connection has to offer, then either serves, parks, or closes it.
//! *Which* of those happens is decided here, by a pure policy core, and
//! so is how long the reactor may wait on a parked connection
//! ([`ConnGauge::deadline_ms`]): every method takes an explicit
//! `now_ms`, so the unit suite can replay a slow-loris, a byte-dripper,
//! or an idle keep-alive session with a scripted clock and no sockets
//! at all.
//!
//! The model: a connection is always in one [`Phase`]. Time spent
//! in [`Phase::Idle`] accrues against a *total* idle budget for the
//! connection's lifetime (a patient keep-alive client is fine, a
//! parked zombie is not); time spent in the other phases is bounded
//! per phase (`Head`/`Body`/`Write` progress deadlines), so a peer
//! that starts a request must keep it moving. A request served
//! counts against `max_requests`, bounding what one connection can
//! extract before it is recycled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::http::Pending;

/// Per-connection budgets.
#[derive(Debug, Clone)]
pub struct ConnPolicy {
    /// Total milliseconds a connection may sit idle (no request in
    /// flight) across its whole lifetime before it is recycled.
    pub idle_budget_ms: u64,
    /// Deadline from the first byte of a request to a complete head —
    /// the slow-loris bound.
    pub header_deadline_ms: u64,
    /// Deadline from a complete head to a complete body — the
    /// mid-request staller bound.
    pub body_deadline_ms: u64,
    /// Deadline for a blocked response write to make progress.
    pub write_stall_ms: u64,
    /// Requests served per connection before it is closed (bounds
    /// what one keep-alive session can extract).
    pub max_requests: u32,
}

impl Default for ConnPolicy {
    fn default() -> Self {
        ConnPolicy {
            idle_budget_ms: 30_000,
            header_deadline_ms: 2_000,
            body_deadline_ms: 2_000,
            write_stall_ms: 2_000,
            max_requests: 1_024,
        }
    }
}

impl ConnPolicy {
    /// The read timeout the server advertises to well-behaved
    /// clients: comfortably past the point where the server itself
    /// would have recycled a stalled exchange, with a floor so tight
    /// chaos-test deadlines never race a legitimate response.
    pub fn client_timeout(&self) -> Duration {
        let ms = (self.header_deadline_ms + self.body_deadline_ms)
            .saturating_mul(4)
            .max(1_000);
        Duration::from_millis(ms)
    }
}

/// What a connection is doing right now, as far as budgets care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No request in flight; the peer owes us nothing.
    Idle,
    /// A request head is arriving.
    Head,
    /// The head is complete; the body is arriving.
    Body,
    /// A response is partially written and the socket is full.
    Write,
}

/// Why a connection was closed. Every variant is a `/healthz`
/// counter, so operators can tell a hostile army from a flaky LAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseCause {
    /// The peer closed first (clean keep-alive teardown).
    PeerClosed,
    /// The request asked for `Connection: close` (or HTTP/1.0).
    ClientClose,
    /// Lifetime idle budget exhausted.
    IdleBudget,
    /// Head progress deadline missed (slow-loris).
    HeaderStall,
    /// Body progress deadline missed (mid-request staller).
    BodyStall,
    /// A blocked response write never drained.
    WriteStall,
    /// `max_requests` served; the connection is recycled.
    MaxRequests,
    /// The request was malformed or over-limit; framing is gone.
    BadRequest,
    /// Transport error or handler panic — an abrupt peer.
    HostileReset,
    /// Closed while gracefully draining, after final responses.
    Drain,
    /// Force-closed at the drain hard deadline.
    Forced,
}

impl CloseCause {
    /// Every cause, in `/healthz` serialization order.
    pub const ALL: [CloseCause; 11] = [
        CloseCause::PeerClosed,
        CloseCause::ClientClose,
        CloseCause::IdleBudget,
        CloseCause::HeaderStall,
        CloseCause::BodyStall,
        CloseCause::WriteStall,
        CloseCause::MaxRequests,
        CloseCause::BadRequest,
        CloseCause::HostileReset,
        CloseCause::Drain,
        CloseCause::Forced,
    ];

    /// The `/healthz` counter key.
    pub fn tag(self) -> &'static str {
        match self {
            CloseCause::PeerClosed => "peer_closed",
            CloseCause::ClientClose => "client_close",
            CloseCause::IdleBudget => "idle_budget",
            CloseCause::HeaderStall => "header_stall",
            CloseCause::BodyStall => "body_stall",
            CloseCause::WriteStall => "write_stall",
            CloseCause::MaxRequests => "max_requests",
            CloseCause::BadRequest => "bad_request",
            CloseCause::HostileReset => "hostile_reset",
            CloseCause::Drain => "drain",
            CloseCause::Forced => "forced",
        }
    }
}

/// A worker's decision for a connection that has nothing more to offer
/// this slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Park it until its socket is ready or a deadline is due; its
    /// budgets still have room.
    Park,
    /// Recycle it, for the given cause.
    Close(CloseCause),
}

/// One connection's budget meter. All methods take an explicit
/// `now_ms` (same monotonic clock as the rate limiter), so the whole
/// state machine is unit-testable with a scripted clock.
#[derive(Debug, Clone)]
pub struct ConnGauge {
    phase: Phase,
    /// When the current phase began.
    phase_start_ms: u64,
    /// Idle milliseconds accrued in *completed* idle stretches.
    idle_spent_ms: u64,
    /// Requests served on this connection.
    requests: u32,
}

impl ConnGauge {
    /// A fresh connection, idle as of `now_ms`.
    pub fn new(now_ms: u64) -> Self {
        ConnGauge {
            phase: Phase::Idle,
            phase_start_ms: now_ms,
            idle_spent_ms: 0,
            requests: 0,
        }
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Requests served so far.
    pub fn requests(&self) -> u32 {
        self.requests
    }

    /// Idle milliseconds spent so far (completed stretches plus the
    /// current one, if idle).
    pub fn idle_spent_ms(&self, now_ms: u64) -> u64 {
        let current = match self.phase {
            Phase::Idle => now_ms.saturating_sub(self.phase_start_ms),
            _ => 0,
        };
        self.idle_spent_ms + current
    }

    fn enter(&mut self, phase: Phase, now_ms: u64) {
        if self.phase == phase {
            return;
        }
        if self.phase == Phase::Idle {
            self.idle_spent_ms += now_ms.saturating_sub(self.phase_start_ms);
        }
        self.phase = phase;
        self.phase_start_ms = now_ms;
    }

    /// Folds how far the buffered request got into the phase machine:
    /// first bytes of a request move Idle → Head, a complete head moves
    /// Head → Body. A pending write pins the phase (the write deadline
    /// governs until the socket drains).
    pub fn observe(&mut self, pending: Pending, now_ms: u64) {
        if self.phase == Phase::Write {
            return;
        }
        match pending {
            Pending::Empty => self.enter(Phase::Idle, now_ms),
            Pending::Head => {
                if self.phase == Phase::Idle {
                    self.enter(Phase::Head, now_ms);
                }
            }
            Pending::Body => {
                if self.phase == Phase::Idle {
                    self.enter(Phase::Head, now_ms);
                }
                self.enter(Phase::Body, now_ms);
            }
        }
    }

    /// A response write could not complete; the write deadline now
    /// governs the connection.
    pub fn write_blocked(&mut self, now_ms: u64) {
        self.enter(Phase::Write, now_ms);
    }

    /// A blocked write moved bytes: its deadline re-arms.
    pub fn write_progress(&mut self, now_ms: u64) {
        if self.phase == Phase::Write {
            self.phase_start_ms = now_ms;
        }
    }

    /// The blocked write fully drained; the connection is idle again
    /// (a buffered next request re-enters Head on the next parse).
    pub fn write_drained(&mut self, now_ms: u64) {
        if self.phase == Phase::Write {
            self.phase = Phase::Idle;
            self.phase_start_ms = now_ms;
        }
    }

    /// One request was served. Returns `true` when the connection has
    /// reached `max_requests` and must close after this response.
    pub fn request_served(&mut self, policy: &ConnPolicy, now_ms: u64) -> bool {
        self.requests = self.requests.saturating_add(1);
        // The request is done; whatever phase the parse left us in,
        // the peer owes us nothing until its next request line.
        self.phase = Phase::Idle;
        self.phase_start_ms = now_ms;
        self.requests >= policy.max_requests
    }

    /// The clock value at which [`ConnGauge::stalled`] turns from
    /// `Park` to `Close` if nothing happens first: the time the
    /// server's reactor may wait for a parked connection. An exhausted
    /// idle budget gives a deadline at or before now.
    pub fn deadline_ms(&self, policy: &ConnPolicy) -> u64 {
        let allowance = match self.phase {
            Phase::Idle => policy.idle_budget_ms.saturating_sub(self.idle_spent_ms),
            Phase::Head => policy.header_deadline_ms,
            Phase::Body => policy.body_deadline_ms,
            Phase::Write => policy.write_stall_ms,
        };
        self.phase_start_ms.saturating_add(allowance)
    }

    /// The verdict for a connection that yielded no progress this
    /// slice: park it, or close it because a budget ran out.
    pub fn stalled(&self, policy: &ConnPolicy, now_ms: u64) -> Verdict {
        let in_phase = now_ms.saturating_sub(self.phase_start_ms);
        match self.phase {
            Phase::Idle => {
                if self.idle_spent_ms + in_phase >= policy.idle_budget_ms {
                    Verdict::Close(CloseCause::IdleBudget)
                } else {
                    Verdict::Park
                }
            }
            Phase::Head => {
                if in_phase >= policy.header_deadline_ms {
                    Verdict::Close(CloseCause::HeaderStall)
                } else {
                    Verdict::Park
                }
            }
            Phase::Body => {
                if in_phase >= policy.body_deadline_ms {
                    Verdict::Close(CloseCause::BodyStall)
                } else {
                    Verdict::Park
                }
            }
            Phase::Write => {
                if in_phase >= policy.write_stall_ms {
                    Verdict::Close(CloseCause::WriteStall)
                } else {
                    Verdict::Park
                }
            }
        }
    }
}

/// Shared connection gauges and close-cause counters: relaxed atomics
/// for observability, except `open`, which is sequentially consistent
/// because the draining reactor returns once it reads 0.
#[derive(Debug, Default)]
pub struct ConnCounters {
    /// Connections accepted over the server's lifetime.
    pub opened: AtomicU64,
    /// Connections currently open (accepted, not yet closed).
    pub open: AtomicU64,
    /// Connections currently parked on the work queue.
    pub parked: AtomicU64,
    closes: [AtomicU64; CloseCause::ALL.len()],
}

impl ConnCounters {
    fn slot(cause: CloseCause) -> usize {
        CloseCause::ALL
            .iter()
            .position(|&c| c == cause)
            .expect("cause in ALL")
    }

    /// A connection was accepted.
    pub fn on_accept(&self) {
        self.opened.fetch_add(1, Ordering::Relaxed);
        self.open.fetch_add(1, Ordering::SeqCst);
    }

    /// A connection was parked on the queue.
    pub fn on_park(&self) {
        self.parked.fetch_add(1, Ordering::Relaxed);
    }

    /// A parked connection was picked up by a worker.
    pub fn on_resume(&self) {
        self.parked.fetch_sub(1, Ordering::Relaxed);
    }

    /// A connection was closed, for `cause`.
    pub fn on_close(&self, cause: CloseCause) {
        self.open.fetch_sub(1, Ordering::SeqCst);
        self.closes[Self::slot(cause)].fetch_add(1, Ordering::Relaxed);
    }

    /// The close counter for one cause.
    pub fn closed(&self, cause: CloseCause) -> u64 {
        self.closes[Self::slot(cause)].load(Ordering::Relaxed)
    }

    /// Currently open connections.
    pub fn open_now(&self) -> u64 {
        self.open.load(Ordering::SeqCst)
    }

    /// Currently parked connections.
    pub fn parked_now(&self) -> u64 {
        self.parked.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ConnPolicy {
        ConnPolicy {
            idle_budget_ms: 100,
            header_deadline_ms: 20,
            body_deadline_ms: 30,
            write_stall_ms: 15,
            max_requests: 3,
        }
    }

    #[test]
    fn a_slow_loris_is_cut_at_the_header_deadline() {
        let p = policy();
        let mut g = ConnGauge::new(0);
        // First bytes arrive at t=5: Idle → Head.
        g.observe(Pending::Head, 5);
        assert_eq!(g.phase(), Phase::Head);
        assert_eq!(g.stalled(&p, 10), Verdict::Park, "5ms into the head");
        assert_eq!(g.stalled(&p, 24), Verdict::Park, "19ms in: still inside");
        assert_eq!(
            g.stalled(&p, 25),
            Verdict::Close(CloseCause::HeaderStall),
            "20ms of head with no completion"
        );
    }

    #[test]
    fn a_dripper_survives_as_long_as_each_phase_progresses() {
        let p = policy();
        let mut g = ConnGauge::new(0);
        g.observe(Pending::Head, 2);
        // Drip, drip — still a partial head, but the head deadline is
        // anchored at first byte, not per byte: no re-arming.
        for t in [6, 10, 14, 18] {
            g.observe(Pending::Head, t);
            assert_eq!(g.stalled(&p, t), Verdict::Park);
        }
        // Head completes inside the deadline; body phase re-arms.
        g.observe(Pending::Body, 20);
        assert_eq!(g.phase(), Phase::Body);
        assert_eq!(g.stalled(&p, 49), Verdict::Park, "29ms of body");
        assert_eq!(
            g.stalled(&p, 50),
            Verdict::Close(CloseCause::BodyStall),
            "30ms of body with no completion"
        );
    }

    #[test]
    fn idle_budget_is_lifetime_total_not_per_stretch() {
        let p = policy();
        let mut g = ConnGauge::new(0);
        // 60ms idle, then a served request, then idle again.
        g.observe(Pending::Head, 60);
        assert!(!g.request_served(&p, 61));
        assert_eq!(g.phase(), Phase::Idle);
        assert_eq!(g.idle_spent_ms(61), 60);
        // A second stretch of 39ms keeps the total under 100…
        assert_eq!(g.stalled(&p, 100), Verdict::Park);
        // …but the stretch that reaches the total is the end.
        assert_eq!(g.stalled(&p, 101), Verdict::Close(CloseCause::IdleBudget));
    }

    #[test]
    fn max_requests_recycles_the_connection() {
        let p = policy();
        let mut g = ConnGauge::new(0);
        assert!(!g.request_served(&p, 1));
        assert!(!g.request_served(&p, 2));
        assert!(
            g.request_served(&p, 3),
            "third request reaches max_requests=3"
        );
        assert_eq!(g.requests(), 3);
    }

    #[test]
    fn a_blocked_write_stalls_out_unless_it_progresses() {
        let p = policy();
        let mut g = ConnGauge::new(0);
        g.write_blocked(10);
        assert_eq!(g.phase(), Phase::Write);
        assert_eq!(g.stalled(&p, 24), Verdict::Park);
        // Progress re-arms the deadline…
        g.write_progress(24);
        assert_eq!(g.stalled(&p, 38), Verdict::Park);
        assert_eq!(g.stalled(&p, 39), Verdict::Close(CloseCause::WriteStall));
        // …and draining returns the connection to idle accounting.
        g.write_drained(30);
        assert_eq!(g.phase(), Phase::Idle);
    }

    #[test]
    fn write_phase_pins_the_gauge_against_scan_transitions() {
        let mut g = ConnGauge::new(0);
        g.write_blocked(5);
        g.observe(Pending::Head, 6);
        assert_eq!(
            g.phase(),
            Phase::Write,
            "buffered next request must not mask a blocked write"
        );
    }

    #[test]
    fn served_requests_reset_the_phase_but_not_idle_history() {
        let p = policy();
        let mut g = ConnGauge::new(0);
        g.observe(Pending::Head, 40);
        g.observe(Pending::Body, 45);
        assert!(!g.request_served(&p, 50));
        // 40ms idle accrued before the request; the served request
        // contributes nothing to idle.
        assert_eq!(g.idle_spent_ms(50), 40);
        assert_eq!(g.stalled(&p, 99), Verdict::Park);
        assert_eq!(g.stalled(&p, 110), Verdict::Close(CloseCause::IdleBudget));
    }

    /// `deadline_ms` is the exact clock value where `stalled` turns.
    fn assert_turns_at_deadline(g: &ConnGauge, p: &ConnPolicy, cause: CloseCause) {
        let deadline = g.deadline_ms(p);
        assert_eq!(g.stalled(p, deadline - 1), Verdict::Park, "{cause:?}");
        assert_eq!(g.stalled(p, deadline), Verdict::Close(cause), "{cause:?}");
    }

    #[test]
    fn deadline_is_where_each_phase_stops_parking() {
        let p = policy();

        // Idle budget spent across two stretches: 60 ms, a request,
        // then the remaining 40 ms from t=61.
        let mut idle = ConnGauge::new(0);
        idle.observe(Pending::Head, 60);
        idle.request_served(&p, 61);
        assert_eq!(idle.deadline_ms(&p), 101);
        assert_turns_at_deadline(&idle, &p, CloseCause::IdleBudget);

        let mut head = ConnGauge::new(0);
        head.observe(Pending::Head, 5);
        assert_eq!(head.deadline_ms(&p), 25);
        assert_turns_at_deadline(&head, &p, CloseCause::HeaderStall);

        let mut body = ConnGauge::new(0);
        body.observe(Pending::Head, 2);
        body.observe(Pending::Body, 20);
        assert_eq!(body.deadline_ms(&p), 50);
        assert_turns_at_deadline(&body, &p, CloseCause::BodyStall);

        // Progress on a blocked write re-arms the write deadline.
        let mut write = ConnGauge::new(0);
        write.write_blocked(10);
        write.write_progress(24);
        assert_eq!(write.deadline_ms(&p), 39);
        assert_turns_at_deadline(&write, &p, CloseCause::WriteStall);
    }

    #[test]
    fn an_exhausted_idle_budget_is_due_at_once() {
        let p = policy();
        let mut g = ConnGauge::new(0);
        // 100 ms idle before the first byte spends the whole budget.
        g.observe(Pending::Head, 100);
        g.request_served(&p, 101);
        assert!(g.deadline_ms(&p) <= 101, "due at or before now");
        assert_eq!(g.stalled(&p, 101), Verdict::Close(CloseCause::IdleBudget));
    }

    #[test]
    fn counters_track_gauges_and_causes() {
        let c = ConnCounters::default();
        c.on_accept();
        c.on_accept();
        c.on_park();
        assert_eq!(c.open_now(), 2);
        assert_eq!(c.parked_now(), 1);
        c.on_resume();
        c.on_close(CloseCause::IdleBudget);
        c.on_close(CloseCause::HostileReset);
        assert_eq!(c.open_now(), 0);
        assert_eq!(c.parked_now(), 0);
        assert_eq!(c.closed(CloseCause::IdleBudget), 1);
        assert_eq!(c.closed(CloseCause::HostileReset), 1);
        assert_eq!(c.closed(CloseCause::Drain), 0);
        assert_eq!(c.opened.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn client_timeout_scales_with_deadlines_and_has_a_floor() {
        let mut p = policy();
        assert_eq!(
            p.client_timeout(),
            Duration::from_millis(1_000),
            "tiny test deadlines still give clients a sane floor"
        );
        p.header_deadline_ms = 2_000;
        p.body_deadline_ms = 2_000;
        assert_eq!(p.client_timeout(), Duration::from_millis(16_000));
    }
}
