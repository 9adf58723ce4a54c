//! Deterministic chaos engineering for the simulated LLM service.
//!
//! The paper's experiments are driven by thousands of "ChatGPT" calls.
//! A real deployment of that harness spends most of its operational
//! effort on the service being unreliable: timeouts, 429s, 5xx blips,
//! truncated and silently mangled responses. This crate reproduces
//! that reality *deterministically* and proves the pipeline survives
//! it:
//!
//! * [`plan::FaultPlan`] — a seeded plan that decides, per
//!   `(year, anchor, step, attempt)`, whether a fault fires and which
//!   kind, on RNG streams fully independent of the transform
//!   randomness. Any observed failure replays from its coordinates.
//! * [`retry::RetryPolicy`] / [`retry::RetryBudget`] — exponential
//!   backoff with deterministic jitter, under a per-pipeline budget.
//! * [`breaker::CircuitBreaker`] — Closed/Open/HalfOpen, cooling down
//!   by rejected-call count so trajectories are replayable.
//! * [`validate::ResponseValidator`] — every response body must pass
//!   the `synthattr-analysis` lint + semantic-fingerprint gate before
//!   the pipeline accepts it.
//! * [`service::FaultyTransformer`] — the transformer behind the
//!   chaos proxy, with the **invisible-retry invariant**: a call that
//!   recovers leaves the caller's RNG and output byte-identical to a
//!   fault-free call.
//! * [`drivers`] — resilient NCT/CT runs that degrade (NCT resamples
//!   a fresh stream, CT holds its last good step) instead of
//!   panicking, returning per-step [`Outcome`]s and aggregated
//!   [`ResilienceStats`].
//! * [`traffic::TrafficProfile`] — the hostile *client* side: seeded,
//!   transport-free scripts of slow-loris writers, mid-request
//!   stallers, byte-at-a-time drippers, and abrupt resets, replayed
//!   over live sockets by the serve crate's chaos suite.
//!
//! # Example
//!
//! ```
//! use synthattr_faults::{FaultPlan, FaultyTransformer, RetryPolicy, StreamCx};
//! use synthattr_faults::drivers::run_nct_resilient;
//! use synthattr_gen::corpus::Origin;
//! use synthattr_gpt::YearPool;
//! use synthattr_util::Pcg64;
//!
//! let pool = YearPool::calibrated(2018, 1);
//! let svc = FaultyTransformer::new(&pool, FaultPlan::new(7, 0.2), RetryPolicy::default());
//! let seed = "int main() { int x = 0; x = x + 1; return 0; }";
//! let run = run_nct_resilient(
//!     &svc, seed, 5, Origin::ChatGpt, &mut Pcg64::new(3), "demo", &mut StreamCx::lenient(),
//! ).unwrap();
//! assert_eq!(run.samples.len(), 5);
//! assert_eq!(run.stats.calls, 5);
//! ```

#![forbid(unsafe_code)]

pub mod breaker;
pub mod drivers;
pub mod outcome;
pub mod plan;
pub mod profile;
pub mod retry;
pub mod service;
pub mod traffic;
pub mod validate;

pub use breaker::{BreakerConfig, CircuitBreaker};
pub use drivers::{run_ct_resilient, run_nct_resilient, StreamCx};
pub use outcome::{Fallback, Outcome, ResilienceStats};
pub use plan::{CallScope, FaultKind, FaultPlan, FaultWeights, InjectedFault};
pub use profile::FaultProfile;
pub use retry::{RetryBudget, RetryPolicy};
pub use service::{CallTrace, FaultyTransformer};
pub use traffic::{HostileKind, HostileScript, ScriptEnd, SocketOp, TrafficProfile};
pub use validate::{Expectation, ResponseValidator};
