//! # synthattr-serve — attribution as a service
//!
//! A hermetic (zero registry dependencies) HTTP/1.1 server that wraps
//! the offline attribution pipeline in a network API:
//!
//! | Endpoint | What it does |
//! |---|---|
//! | `POST /attribute?year=Y` | C++ source in, ranked author/ChatGPT verdict with probabilities out |
//! | `POST /transform?year=Y&mode=nct\|ct&steps=N&seed=S` | the simulated ChatGPT transformation chain |
//! | `GET /healthz` | breaker state, cache/traffic counters, connection gauges, per-cause close counters, drain state |
//!
//! Architecture, bottom-up:
//!
//! * [`http`] — one defensive HTTP/1.1 request parser over a byte
//!   buffer (with a `BufRead` adapter) and the response writer, with
//!   hard limits on every dimension an attacker controls (request-line
//!   length, header count/size, body size), so slow-loris and
//!   byte-soup inputs degrade to 4xx/close — never a panic or a hang.
//!   The parser reports the first defect in wire order.
//! * [`json`] — write-only JSON with shortest-round-trip float
//!   formatting, the property that makes response bodies byte-stable.
//! * [`registry`] — per-year models trained **once** through the exact
//!   offline pipeline code path ([`synthattr_core::pipeline::year_oracle`])
//!   and shared `Arc`-style across workers; `/attribute` predicts its
//!   one row on the worker that parsed the request.
//! * [`limit`] — per-client token buckets built by running the fault
//!   layer's [`synthattr_faults::RetryBudget`] in reverse.
//! * [`conn`] — the connection-survivability policy core: per-
//!   connection budgets (lifetime idle budget, header/body progress
//!   deadlines, max requests) decided by a clock-explicit
//!   [`conn::ConnGauge`], unit-testable without sockets.
//! * [`drain`] — graceful-shutdown bookkeeping: the draining flag,
//!   the force-close hard deadline, and the [`drain::DrainStats`]
//!   report `shutdown()` returns.
//! * `readiness` (private) — a declared `poll(2)` and the safe `wait`
//!   around the workspace's only `unsafe` block; std already links the
//!   C library, so no crate is added.
//! * [`server`] — a **reactor** thread plus workers over
//!   [`synthattr_util::pool::WorkQueue`]: the reactor owns the parked
//!   connections and blocks in one `poll(2)` until a socket is ready
//!   or a budget deadline is due, then hands the connection to a
//!   worker; workers hand back connections that yield no bytes instead
//!   of camping on them, so hostile connections hold sockets, never
//!   threads, and nothing sleeps on a timer; the graceful drain runs
//!   through the same reactor and the same per-connection loop, so
//!   budgets keep cutting hostile connections while in-flight requests
//!   finish; a [`synthattr_faults::CircuitBreaker`] guards the
//!   transform engine and surfaces on `/healthz` as
//!   `ok`/`degraded`/`draining`.
//! * [`client`] — the minimal blocking client the e2e tests and
//!   `e2ebench` drive the server with (read timeout configurable,
//!   defaulting to the server's advertised deadline-derived value).
//!
//! The load-bearing invariant, proven end-to-end in
//! `tests/serve_e2e.rs`: a served `/attribute` response is
//! **byte-identical** to what the offline pipeline's oracle produces
//! for the same source, at any worker count and client concurrency —
//! caching and the reactor change scheduling, never results.
//! The survivability claims get their own live-TCP proof in
//! `tests/serve_chaos.rs` (hostile traffic from
//! `synthattr_faults::TrafficProfile`) and `tests/serve_drain.rs`
//! (shutdown racing pipelined bursts drops zero responses, and
//! slow-loris connections cannot hold the drain).

#![deny(unsafe_code)]

#[cfg(not(unix))]
compile_error!("synthattr-serve waits on poll(2) and needs a unix target");

pub mod client;
pub mod conn;
pub mod drain;
pub mod http;
pub mod json;
pub mod limit;
#[cfg(unix)]
#[allow(unsafe_code)]
mod readiness;
pub mod registry;
pub mod server;

pub use client::{Client, ClientResponse};
pub use conn::{CloseCause, ConnGauge, ConnPolicy, Phase, Verdict};
pub use drain::{DrainState, DrainStats};
pub use http::{Limits, Request, Response};
pub use limit::{RateConfig, RateLimiter, TokenBucket};
pub use registry::{ModelRegistry, YearModel};
pub use server::{attribution_body, RunningServer, ServeConfig, Server, ServerState};
