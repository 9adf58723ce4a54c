//! The attribution server: reactor, workers, routing, handlers.
//!
//! Threading is a reactor/worker split, hardened for hostile
//! connections. Sockets are **non-blocking**. The reactor thread owns
//! every parked connection and blocks in one `poll(2)` over the
//! listener, a wake socket and every parked socket, with the earliest
//! budget deadline as its timeout ([`crate::conn::ConnGauge::deadline_ms`]).
//! It accepts new connections and hands ready or due ones to `workers`
//! threads (resolved by the same `SYNTHATTR_WORKERS` machinery as the
//! offline pipeline) over a blocking [`WorkQueue`]. A worker reads
//! whatever the connection has to offer, serves every complete
//! pipelined request, and *hands the connection back* the moment it
//! stops yielding bytes — so a slow-loris army holds open sockets,
//! never worker threads, no worker ever blocks on a socket, and an
//! idle worker sleeps in `pop`, not on a timer. Each request is parsed
//! once, off the connection's buffer, by
//! [`crate::http::parse_request`]. Budgets ([`crate::conn::ConnPolicy`]:
//! lifetime idle budget, header/body progress deadlines, max requests
//! per connection) are enforced by the clock-explicit
//! [`crate::conn::ConnGauge`] core. Shutdown is a graceful drain
//! ([`crate::drain`]) through the same reactor and the same `drive`:
//! the reactor stops accepting but keeps polling, a response with no
//! next request started behind it carries `Connection: close` and ends
//! its connection, idle connections are retired, budgets keep cutting
//! hostile ones, stragglers are force-closed only at a hard deadline,
//! and [`RunningServer::shutdown`] reports [`DrainStats`].
//!
//! All request handling stays pure of the transport
//! ([`ServerState::handle_request`] maps a parsed request to a
//! response), which is what lets the unit suite drive every route
//! without a socket.
//!
//! Endpoints:
//!
//! * `POST /attribute?year=Y` — body: raw C++ source (`text/plain`);
//!   response: the oracle's ranked author verdict with probabilities,
//!   predicted on the worker that parsed the request.
//! * `POST /transform?year=Y&mode=nct|ct&steps=N&seed=S` — body: seed
//!   source; response: the simulated ChatGPT transformation chain.
//! * `GET /healthz` — circuit-breaker state, cache hit/eviction rates,
//!   registry load state, traffic, connection gauges, per-cause close
//!   counters, and the drain state.
//!
//! Determinism: attribution is a pure function of (year, body) — the
//! registry trains through the offline pipeline's code path, feature
//! extraction is cached but pure, and prediction is per row — so
//! responses are byte-identical across worker counts, client counts,
//! scheduling, and restarts.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use synthattr_core::config::ExperimentConfig;
use synthattr_core::ArtifactCache;
use synthattr_faults::{BreakerConfig, CircuitBreaker};
use synthattr_gen::corpus::Origin;
use synthattr_gpt::chain::{try_run_ct, try_run_nct};
use synthattr_gpt::transform::Transformer;
use synthattr_gpt::GptError;
use synthattr_util::{pool, pool::WorkQueue, Pcg64};

use crate::conn::{CloseCause, ConnCounters, ConnGauge, ConnPolicy, Phase, Verdict};
use crate::drain::{DrainState, DrainStats};
use crate::http::{parse_request, HttpError, Limits, Parsed, Pending, Request, Response};
use crate::json;
use crate::limit::{RateConfig, RateLimiter};
use crate::readiness::{self, PollFd};
use crate::registry::ModelRegistry;

/// Upper bound on `steps` per `/transform` call, so one request cannot
/// monopolize a worker.
const MAX_TRANSFORM_STEPS: usize = 64;

/// Requests served per drive slice before the connection goes back on
/// the work queue, so one pipelining client cannot monopolize a worker.
const MAX_REQUESTS_PER_SLICE: u32 = 32;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Experiment configuration models are trained from (seed, scale,
    /// forest, features) — the same struct the offline pipeline takes.
    pub experiment: ExperimentConfig,
    /// Years the registry serves.
    pub years: Vec<u32>,
    /// Worker thread count override (`None` = `SYNTHATTR_WORKERS` /
    /// available parallelism).
    pub workers: Option<usize>,
    /// Capacity of the shared artifact LRU.
    pub cache_capacity: usize,
    /// Per-client rate limits (`None` disables limiting).
    pub rate: Option<RateConfig>,
    /// Circuit-breaker tuning for the transform engine.
    pub breaker: BreakerConfig,
    /// Per-connection budgets — the slow-loris, staller, and zombie
    /// bounds.
    pub conn: ConnPolicy,
    /// Hard deadline for the graceful drain, ms: connections still
    /// open this long after `shutdown()` are force-closed.
    pub drain_deadline_ms: u64,
    /// HTTP input limits.
    pub limits: Limits,
    /// Train every registry year at bind time instead of lazily.
    pub preload: bool,
}

impl ServeConfig {
    /// Smoke-scale serving config: small corpus and forest, all three
    /// years, defaults everywhere else.
    pub fn smoke() -> Self {
        ServeConfig {
            experiment: ExperimentConfig::smoke(),
            years: vec![2017, 2018, 2019],
            workers: None,
            cache_capacity: 256,
            rate: Some(RateConfig::default()),
            breaker: BreakerConfig::default(),
            conn: ConnPolicy::default(),
            drain_deadline_ms: 5_000,
            limits: Limits::default(),
            preload: false,
        }
    }

    /// The read timeout the server advertises to its own blocking
    /// client ([`crate::client::Client::connect`] uses it by
    /// default when connecting via
    /// [`crate::client::Client::connect_with_timeout`]).
    pub fn client_timeout(&self) -> Duration {
        self.conn.client_timeout()
    }
}

/// Per-route traffic counters (relaxed atomics; observability only).
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests routed, any endpoint.
    pub requests: AtomicU64,
    /// `/attribute` requests served 200.
    pub attribute_ok: AtomicU64,
    /// `/transform` requests served 200.
    pub transform_ok: AtomicU64,
    /// `/healthz` reads.
    pub healthz: AtomicU64,
    /// Requests refused with 429.
    pub rate_limited: AtomicU64,
    /// 4xx responses (including parse rejections).
    pub client_errors: AtomicU64,
    /// 5xx responses.
    pub server_errors: AtomicU64,
    /// Handler panics caught; each closes its connection without a
    /// response (counted as a `hostile_reset` close).
    pub panics: AtomicU64,
}

/// Everything the workers share. Handlers live here, transport-free.
#[derive(Debug)]
pub struct ServerState {
    config: ServeConfig,
    registry: ModelRegistry,
    cache: Mutex<ArtifactCache>,
    limiter: Option<Mutex<RateLimiter>>,
    breaker: Mutex<CircuitBreaker>,
    stats: ServeStats,
    conns: ConnCounters,
    drain: DrainState,
    started: Instant,
    /// Write end of the reactor's wake socket; `None` until
    /// [`Server::bind`] pairs the state with a reactor.
    waker: Option<UnixStream>,
}

impl ServerState {
    /// Builds the shared state (trains nothing unless `preload`).
    ///
    /// # Errors
    ///
    /// [`synthattr_core::PipelineError::UnsupportedYear`] via the
    /// registry if `config.years` leaves the paper's 2017–2019 range.
    pub fn new(config: ServeConfig) -> Result<Self, synthattr_core::PipelineError> {
        let registry = ModelRegistry::new(config.experiment.clone(), &config.years)?;
        let state = ServerState {
            cache: Mutex::new(ArtifactCache::bounded(config.cache_capacity)),
            limiter: config.rate.clone().map(|r| Mutex::new(RateLimiter::new(r))),
            breaker: Mutex::new(CircuitBreaker::new(config.breaker.clone())),
            stats: ServeStats::default(),
            conns: ConnCounters::default(),
            drain: DrainState::new(config.drain_deadline_ms),
            started: Instant::now(),
            waker: None,
            registry,
            config,
        };
        if state.config.preload {
            for year in state.registry.years() {
                state.registry.get(year);
            }
        }
        Ok(state)
    }

    /// The server configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Traffic counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The transform-engine circuit breaker (exposed so operators and
    /// the regression suite can inspect or trip it directly).
    pub fn breaker(&self) -> MutexGuard<'_, CircuitBreaker> {
        self.breaker.lock().expect("breaker poisoned")
    }

    /// Connection gauges and per-cause close counters.
    pub fn conns(&self) -> &ConnCounters {
        &self.conns
    }

    /// The graceful-drain state (flag, deadline, drain counters).
    pub fn drain(&self) -> &DrainState {
        &self.drain
    }

    /// Starts the graceful drain: `/healthz` flips to `draining`, the
    /// reactor wakes and stops accepting, and workers finish in-flight
    /// requests. Idempotent; normally reached through
    /// [`RunningServer::shutdown`].
    pub fn begin_drain(&self) {
        self.drain.begin(self.now_ms());
        self.wake();
    }

    /// Interrupts the reactor's wait. A full wake socket already holds
    /// an unread byte, so a refused write loses nothing.
    fn wake(&self) {
        if let Some(waker) = &self.waker {
            let _ = (&*waker).write(&[1]);
        }
    }

    /// Milliseconds since the server started — the limiter's clock.
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Routes one parsed request. Pure of the transport: no socket in
    /// sight, which is how the unit suite drives every path.
    pub fn handle_request(&self, req: &Request) -> Response {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let response = match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/attribute") => self.rate_limited(req, |s, r| s.attribute(r)),
            ("POST", "/transform") => self.rate_limited(req, |s, r| s.transform(r)),
            ("GET", "/healthz") => self.healthz(),
            (_, "/attribute" | "/transform" | "/healthz") => {
                Response::error(405, "method not allowed")
            }
            _ => Response::error(404, "not found"),
        };
        match response.status {
            429 => {
                self.stats.rate_limited.fetch_add(1, Ordering::Relaxed);
            }
            s if (400..500).contains(&s) => {
                self.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            }
            s if s >= 500 => {
                self.stats.server_errors.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        response
    }

    /// Applies the per-client token bucket before running `handler`.
    fn rate_limited(
        &self,
        req: &Request,
        handler: fn(&ServerState, &Request) -> Response,
    ) -> Response {
        if let Some(limiter) = &self.limiter {
            let client = req.header("x-client-id").unwrap_or("anon");
            let now = self.now_ms();
            if !limiter.lock().expect("limiter poisoned").check(client, now) {
                return Response::error(429, "rate limit exceeded");
            }
        }
        handler(self, req)
    }

    /// Parses the `year` query parameter and resolves its model.
    fn year_model(&self, req: &Request) -> Result<Arc<crate::registry::YearModel>, Response> {
        let year_text = req
            .query_param("year")
            .ok_or_else(|| Response::error(400, "missing year parameter"))?;
        let year: u32 = year_text
            .parse()
            .map_err(|_| Response::error(400, "year must be an integer"))?;
        self.registry.get(year).ok_or_else(|| {
            Response::json(
                404,
                format!(
                    "{{\"error\":{},\"years\":{}}}",
                    json::string("year not served"),
                    json::array(self.registry.years().iter().map(|y| y.to_string()))
                ),
            )
        })
    }

    /// `POST /attribute?year=Y` — the body is raw C++ source.
    fn attribute(&self, req: &Request) -> Response {
        let model = match self.year_model(req) {
            Ok(m) => m,
            Err(resp) => return resp,
        };
        let source = match std::str::from_utf8(&req.body) {
            Ok(s) if !s.trim().is_empty() => s,
            Ok(_) => return Response::error(400, "empty body"),
            Err(_) => return Response::error(400, "body must be utf-8 source"),
        };

        // Shared LRU: identical sources across requests featurize once.
        // Only extractor-config-independent products plus features are
        // safe to share here; all registry years use one FeatureConfig,
        // and labels are computed from each year's forest below — never
        // from the artifact's per-model label slot.
        let artifact = self.cache.lock().expect("cache poisoned").intern(source);
        let proba = match artifact.features(model.model.extractor()) {
            Ok(features) => model.model.forest().predict_proba(features),
            Err(e) => {
                return Response::error_with_detail(
                    422,
                    "source rejected by the frontend",
                    &e.to_string(),
                )
            }
        };
        self.stats.attribute_ok.fetch_add(1, Ordering::Relaxed);
        Response::json(200, attribution_body(model.year, &proba))
    }

    /// `POST /transform?year=Y&mode=nct|ct&steps=N&seed=S`.
    fn transform(&self, req: &Request) -> Response {
        let model = match self.year_model(req) {
            Ok(m) => m,
            Err(resp) => return resp,
        };
        let mode = req.query_param("mode").unwrap_or("nct");
        let chaining = match mode {
            "nct" => false,
            "ct" => true,
            _ => return Response::error(400, "mode must be nct or ct"),
        };
        let steps: usize = match req.query_param("steps").unwrap_or("3").parse() {
            Ok(n) if (1..=MAX_TRANSFORM_STEPS).contains(&n) => n,
            _ => return Response::error(400, "steps must be in 1..=64"),
        };
        let seed: u64 = match req.query_param("seed").unwrap_or("0").parse() {
            Ok(s) => s,
            Err(_) => return Response::error(400, "seed must be an integer"),
        };
        let source = match std::str::from_utf8(&req.body) {
            Ok(s) if !s.trim().is_empty() => s,
            _ => return Response::error(400, "body must be utf-8 source"),
        };

        // The breaker guards the transform engine. Open = shed load
        // with 503 (reads — /attribute, /healthz — are unaffected).
        if self.breaker().admit().is_err() {
            return Response::json(
                503,
                format!(
                    "{{\"error\":{},\"breaker\":{}}}",
                    json::string("transform engine shedding load"),
                    json::string(self.breaker().state_name())
                ),
            );
        }

        let transformer = Transformer::new(&model.pool);
        let mut rng = Pcg64::seed_from(seed, &["serve-transform", &model.year.to_string(), mode]);
        let run = if chaining {
            try_run_ct(&transformer, source, steps, Origin::Human, &mut rng)
        } else {
            try_run_nct(&transformer, source, steps, Origin::Human, &mut rng)
        };
        match run {
            Ok(samples) => {
                self.breaker().record_success();
                self.stats.transform_ok.fetch_add(1, Ordering::Relaxed);
                let steps_json = json::array(samples.iter().map(|s| {
                    format!(
                        "{{\"step\":{},\"pool\":{},\"source\":{}}}",
                        s.step,
                        s.pool_index,
                        json::string(&s.source)
                    )
                }));
                Response::json(
                    200,
                    format!(
                        "{{\"year\":{},\"mode\":{},\"seed\":{},\"steps\":{}}}",
                        model.year,
                        json::string(mode),
                        seed,
                        steps_json
                    ),
                )
            }
            // A parse rejection is the client's fault, not engine
            // health: it must not feed the breaker.
            Err(GptError::Parse(e)) => {
                Response::error_with_detail(422, "seed rejected by the frontend", &e.to_string())
            }
            Err(e) => {
                self.breaker().record_failure();
                Response::error_with_detail(500, "transform engine failure", &e.to_string())
            }
        }
    }

    /// `GET /healthz`. Always 200 — a degraded engine is reported, not
    /// hidden behind an error; reads keep flowing while the breaker
    /// sheds transform load.
    fn healthz(&self) -> Response {
        self.stats.healthz.fetch_add(1, Ordering::Relaxed);
        let breaker = self.breaker();
        let status = if self.drain.is_draining() {
            "draining"
        } else if breaker.is_open() {
            "degraded"
        } else {
            "ok"
        };
        let breaker_json = format!(
            "{{\"state\":{},\"trips\":{}}}",
            json::string(breaker.state_name()),
            breaker.trips()
        );
        drop(breaker);

        let cache = self.cache.lock().expect("cache poisoned");
        let hits = cache.hits();
        let misses = cache.misses();
        let hit_rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        let cache_json = format!(
            "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{},\"capacity\":{},\"hit_rate\":{}}}",
            hits,
            misses,
            cache.evictions(),
            cache.len(),
            cache.capacity(),
            json::f64(hit_rate)
        );
        drop(cache);

        let (rate_clients, rate_rejected) = match &self.limiter {
            None => (0, 0),
            Some(l) => {
                let l = l.lock().expect("limiter poisoned");
                (l.clients(), l.rejected())
            }
        };
        let closes = CloseCause::ALL
            .iter()
            .map(|&cause| format!("{}:{}", json::string(cause.tag()), self.conns.closed(cause)))
            .collect::<Vec<_>>()
            .join(",");
        let connections_json = format!(
            "\"connections_open\":{},\"connections_parked\":{},\"connections_opened\":{},\
             \"connection_closes\":{{{}}}",
            self.conns.open_now(),
            self.conns.parked_now(),
            self.conns.opened.load(Ordering::Relaxed),
            closes
        );
        let s = &self.stats;
        let body = format!(
            "{{\"status\":{},\"drain_state\":{},\"uptime_ms\":{},\"years\":{},\"loaded\":{},\
             \"breaker\":{},\"cache\":{},\
             \"rate\":{{\"clients\":{},\"rejected\":{}}},\
             {},\
             \"requests\":{{\"total\":{},\"attribute_ok\":{},\"transform_ok\":{},\"healthz\":{},\
             \"rate_limited\":{},\"client_errors\":{},\"server_errors\":{},\"panics\":{}}}}}",
            json::string(status),
            json::string(self.drain.state_name()),
            self.now_ms(),
            json::array(self.registry.years().iter().map(|y| y.to_string())),
            json::array(self.registry.loaded().iter().map(|y| y.to_string())),
            breaker_json,
            cache_json,
            rate_clients,
            rate_rejected,
            connections_json,
            s.requests.load(Ordering::Relaxed),
            s.attribute_ok.load(Ordering::Relaxed),
            s.transform_ok.load(Ordering::Relaxed),
            s.healthz.load(Ordering::Relaxed),
            s.rate_limited.load(Ordering::Relaxed),
            s.client_errors.load(Ordering::Relaxed),
            s.server_errors.load(Ordering::Relaxed),
            s.panics.load(Ordering::Relaxed),
        );
        Response::json(200, body)
    }
}

/// Serializes one attribution verdict. Public so the e2e suite can
/// build its expected bytes from an *offline* oracle's probabilities
/// and compare them byte-for-byte against served responses.
pub fn attribution_body(year: u32, proba: &[f32]) -> String {
    // Descending probability; ties break to the lowest label, matching
    // the forest's own argmax, so `label` always equals `ranking[0]`.
    let mut order: Vec<usize> = (0..proba.len()).collect();
    order.sort_by(|&a, &b| {
        proba[b]
            .partial_cmp(&proba[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let label = order.first().copied().unwrap_or(0);
    let ranking = json::array(
        order
            .iter()
            .take(5)
            .map(|&i| format!("{{\"author\":{},\"p\":{}}}", i, json::f32(proba[i]))),
    );
    format!(
        "{{\"year\":{},\"label\":{},\"ranking\":{},\"probabilities\":{}}}",
        year,
        label,
        ranking,
        json::array(proba.iter().map(|&p| json::f32(p)))
    )
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    workers: usize,
    /// Read end of the reactor's wake socket (the state holds the
    /// write end).
    wake: UnixStream,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and builds the
    /// shared state.
    ///
    /// # Errors
    ///
    /// Socket errors from [`TcpListener::bind`] and the wake socket;
    /// registry configuration errors surface as `InvalidInput`.
    pub fn bind(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let workers = pool::resolve_workers(config.workers);
        let mut state = ServerState::new(config)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let (wake, waker) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        waker.set_nonblocking(true)?;
        state.waker = Some(waker);
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(state),
            workers,
            wake,
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates [`TcpListener::local_addr`].
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (stats, breaker, config).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Runs the reactor on the calling thread, serving on `workers`
    /// threads, until the drain [`RunningServer::shutdown`] begins has
    /// closed every connection. A failed readiness wait begins the
    /// drain too, force-closes the connections the reactor holds, and
    /// is returned once the workers have finished. Normally reached
    /// through [`Server::spawn`].
    ///
    /// # Errors
    ///
    /// Setting the listener non-blocking, or the `poll(2)` failure that
    /// stopped the reactor.
    pub fn run(self) -> std::io::Result<()> {
        let queue: WorkQueue<Conn> = WorkQueue::new();
        let inbox = Inbox::new();
        let state = &self.state;
        self.listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| worker_loop(state, &queue, &inbox));
            }
            react(state, &self.listener, &self.wake, &queue, &inbox)
        })
    }

    /// Starts the server on a background thread and returns a handle
    /// for shutdown.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::local_addr`].
    pub fn spawn(self) -> std::io::Result<RunningServer> {
        let addr = self.local_addr()?;
        let state = self.state();
        let thread = std::thread::spawn(move || self.run());
        Ok(RunningServer {
            addr,
            state,
            thread,
        })
    }
}

/// A live server: address, shared state, and the reactor thread.
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl RunningServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (stats, breaker, config).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Begins the graceful drain, joins the server thread once no
    /// connection is open, and reports what the drain did. The reactor
    /// stops accepting and keeps serving through the ordinary loop:
    /// each in-flight request is answered, the response with no next
    /// request started behind it carries `Connection: close`, idle
    /// connections are retired, budgets keep cutting hostile ones, and
    /// stragglers are force-closed only at
    /// [`ServeConfig::drain_deadline_ms`].
    pub fn shutdown(self) -> DrainStats {
        let begun = Instant::now();
        self.state.begin_drain();
        let _ = self.thread.join();
        self.state.drain.stats(begun.elapsed().as_millis() as u64)
    }
}

/// One live connection as the reactor and the workers pass it around:
/// the non-blocking socket, buffered request bytes, not-yet-flushed
/// response bytes, and the budget gauge.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Request bytes read but not yet consumed by the parser.
    buf: Vec<u8>,
    /// Serialized response bytes not yet accepted by the socket.
    pending: Vec<u8>,
    /// Prefix of `pending` already written.
    sent: usize,
    gauge: ConnGauge,
    /// Close this connection (with this cause) once `pending` drains.
    close_after_write: Option<CloseCause>,
    /// The peer half-closed its write side (EOF on read).
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream, now_ms: u64) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            pending: Vec::new(),
            sent: 0,
            gauge: ConnGauge::new(now_ms),
            close_after_write: None,
            eof: false,
        }
    }

    /// Queues a response for writing.
    fn enqueue(&mut self, response: &Response) {
        self.pending.extend_from_slice(&response.to_bytes());
    }

    /// No request started and nothing left to flush: what the drain
    /// retires.
    fn is_idle(&self) -> bool {
        self.gauge.phase() == Phase::Idle && self.pending.is_empty()
    }

    /// What a parked connection waits for: room to write while a
    /// response is pending, request bytes otherwise.
    fn interest(&self) -> PollFd {
        if self.pending.is_empty() {
            PollFd::readable(&self.stream)
        } else {
            PollFd::writable(&self.stream)
        }
    }
}

/// Connections the workers hand back to the reactor; `None` once the
/// reactor has stopped.
#[derive(Debug)]
struct Inbox(Mutex<Option<Vec<Conn>>>);

impl Inbox {
    fn new() -> Self {
        Inbox(Mutex::new(Some(Vec::new())))
    }

    /// Hands `conn` back to the reactor, waking it when the inbox was
    /// empty (a non-empty inbox has a wake byte on its way already).
    /// `Err(conn)` once the reactor has stopped.
    fn park(&self, state: &ServerState, conn: Conn) -> Result<(), Conn> {
        let mut inbox = self.0.lock().expect("inbox poisoned");
        let Some(conns) = inbox.as_mut() else {
            return Err(conn);
        };
        conns.push(conn);
        let first = conns.len() == 1;
        drop(inbox);
        if first {
            state.wake();
        }
        Ok(())
    }

    /// Everything handed back since the last call.
    fn take(&self) -> Vec<Conn> {
        let mut inbox = self.0.lock().expect("inbox poisoned");
        inbox.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Refuses further hand-backs and returns the last ones.
    fn close(&self) -> Vec<Conn> {
        self.0
            .lock()
            .expect("inbox poisoned")
            .take()
            .unwrap_or_default()
    }
}

/// The reactor: owns the parked connections and blocks in one
/// `poll(2)` over the wake socket, the listener and every parked
/// socket, until the earliest budget deadline. Ready or due
/// connections go to the workers; workers hand the others back through
/// `inbox` and wake it. Once the drain begins it stops accepting but
/// keeps polling: every pass hands the idle parked connections to the
/// workers, which retire them, the wait is capped at the drain's hard
/// deadline, and at that deadline it force-closes what it holds. It
/// returns once no connection is open, and closes the queue. Only the
/// reactor closes the queue, so its pushes never bounce.
fn react(
    state: &ServerState,
    listener: &TcpListener,
    wake: &UnixStream,
    queue: &WorkQueue<Conn>,
    inbox: &Inbox,
) -> io::Result<()> {
    const WAKE: usize = 0;
    const LISTENER: usize = 1;
    let policy = &state.config.conn;
    let mut parked: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    // False for one wait after an accept error that leaves the listener
    // readable (`EMFILE`, say): polling it again would spin.
    let mut listening = true;
    let result = loop {
        let now = state.now_ms();
        let draining = state.drain.is_draining();
        let mut drain_cap_ms = None;
        if draining {
            let forced = state.drain.force_deadline_passed(now);
            for conn in std::mem::take(&mut parked) {
                if forced {
                    force_close(state, conn);
                } else if conn.is_idle() {
                    queue.push(conn);
                } else {
                    parked.push(conn);
                }
            }
            // Workers wake the reactor each time they close one.
            if state.conns.open_now() == 0 {
                break Ok(());
            }
            // Past the deadline nothing is parked: wait for the workers.
            drain_cap_ms = (!forced).then(|| state.drain.deadline_remaining_ms(now));
        }
        let mut timeout_ms = parked
            .iter()
            .map(|conn| conn.gauge.deadline_ms(policy).saturating_sub(now))
            .chain(drain_cap_ms)
            .min();
        let accepting = listening && !draining;
        fds.clear();
        fds.push(PollFd::readable(wake));
        if accepting {
            fds.push(PollFd::readable(listener));
        } else if !listening {
            timeout_ms = Some(timeout_ms.map_or(1, |ms| ms.min(1)));
        }
        let first_parked = fds.len();
        fds.extend(parked.iter().map(Conn::interest));
        if let Err(e) = readiness::wait(&mut fds, timeout_ms.map(Duration::from_millis)) {
            state.begin_drain();
            break Err(e);
        }

        let now = state.now_ms();
        for (conn, fd) in std::mem::take(&mut parked)
            .into_iter()
            .zip(&fds[first_parked..])
        {
            if fd.is_ready() || conn.gauge.deadline_ms(policy) <= now {
                queue.push(conn);
            } else {
                parked.push(conn);
            }
        }
        if fds[WAKE].is_ready() {
            // Drain the wake bytes before taking the inbox, so a
            // hand-back after the take leaves a byte for the next wait.
            let mut sink = [0u8; 64];
            while matches!((&*wake).read(&mut sink), Ok(n) if n > 0) {}
            parked.extend(inbox.take());
        }
        if !listening {
            listening = true;
        } else if accepting && fds[LISTENER].is_ready() {
            listening = accept_all(state, listener, &mut parked);
        }
    };
    // Only a failed wait leaves connections open here: force-close what
    // the reactor holds, and refuse hand-backs, so that the workers
    // force-close theirs.
    for conn in parked.into_iter().chain(inbox.close()) {
        force_close(state, conn);
    }
    queue.close();
    result
}

/// Counts a connection's close. During the drain it also counts toward
/// [`DrainStats`] and wakes the reactor, which returns once no
/// connection is open.
fn retire(state: &ServerState, cause: CloseCause) {
    state.conns.on_close(cause);
    if state.drain.is_draining() {
        state.drain.note_drained();
        if cause == CloseCause::Forced {
            state.drain.note_forced();
        }
        state.wake();
    }
}

/// Force-closes a connection the reactor holds.
fn force_close(state: &ServerState, conn: Conn) {
    drop(conn);
    state.conns.on_resume();
    retire(state, CloseCause::Forced);
}

/// Accepts every pending connection into `parked`. Returns `false`
/// after an accept error other than `WouldBlock` or `Interrupted`.
fn accept_all(state: &ServerState, listener: &TcpListener, parked: &mut Vec<Conn>) -> bool {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Small exchanges stall ~40 ms per round trip under
                // Nagle + delayed ACK; responses go out in one buffer
                // anyway.
                let _ = stream.set_nodelay(true);
                state.conns.on_accept();
                state.conns.on_park();
                parked.push(Conn::new(stream, state.now_ms()));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// What one non-blocking flush attempt achieved.
enum Flush {
    /// Everything pending is on the wire.
    Done,
    /// Some bytes moved, then the socket filled.
    Progress,
    /// The socket accepted nothing.
    Blocked,
}

/// Writes as much of `pending` as the socket accepts right now.
fn flush(conn: &mut Conn) -> io::Result<Flush> {
    let mut progressed = false;
    loop {
        if conn.sent >= conn.pending.len() {
            conn.pending.clear();
            conn.sent = 0;
            return Ok(Flush::Done);
        }
        match conn.stream.write(&conn.pending[conn.sent..]) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
            Ok(n) => {
                conn.sent += n;
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                return Ok(if progressed {
                    Flush::Progress
                } else {
                    Flush::Blocked
                });
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// What a worker does with a connection after its slice.
enum Next {
    /// Retire it, for this cause.
    Close(CloseCause),
    /// Hand it back to the reactor until its socket is ready or a
    /// budget deadline is due.
    Park,
    /// Put it straight back on the work queue: the slice was cut at
    /// [`MAX_REQUESTS_PER_SLICE`] with requests already buffered, and
    /// its socket may never turn readable again.
    Requeue,
}

impl From<Verdict> for Next {
    fn from(verdict: Verdict) -> Self {
        match verdict {
            Verdict::Park => Next::Park,
            Verdict::Close(cause) => Next::Close(cause),
        }
    }
}

/// What the front of a connection's buffer yielded.
enum Intake {
    /// A complete request; its bytes are consumed.
    Request(Request),
    /// The error response for a defective or truncated request, already
    /// counted; the buffer is cleared, because framing is gone.
    Reject(Response),
    /// No complete request yet; how far the next one got.
    Pending(Pending),
}

/// Counts a request refused before routing and builds its error
/// response.
fn reject(state: &ServerState, err: &HttpError) -> Response {
    state.stats.requests.fetch_add(1, Ordering::Relaxed);
    state.stats.client_errors.fetch_add(1, Ordering::Relaxed);
    Response::from_error(err)
}

/// Takes the next request off the front of `conn.buf`. After EOF, a
/// request that started but can never complete is answered as a
/// truncation.
fn take_request(state: &ServerState, conn: &mut Conn) -> Intake {
    let err = match parse_request(&conn.buf, &state.config.limits) {
        Ok(Parsed::Complete(request, len)) => {
            conn.buf.drain(..len);
            return Intake::Request(request);
        }
        Ok(Parsed::Incomplete(pending)) => match pending.truncation() {
            Some(err) if conn.eof => err,
            _ => return Intake::Pending(pending),
        },
        Err(err) => err,
    };
    conn.buf.clear();
    Intake::Reject(reject(state, &err))
}

/// Drives one connection for one slice: flush what we owe, serve every
/// complete buffered request, read until the socket runs dry, then
/// park or close per the budget gauge. Never blocks. While the server
/// drains, a response with no next request started behind it ends the
/// connection, and a connection found idle is retired.
fn drive(state: &ServerState, conn: &mut Conn) -> Next {
    let policy = &state.config.conn;

    // A previously blocked response write gets first claim on the
    // slice; reading more requests while the peer won't take answers
    // just grows the buffer.
    if !conn.pending.is_empty() {
        let now = state.now_ms();
        match flush(conn) {
            Err(_) => return Next::Close(CloseCause::HostileReset),
            Ok(Flush::Blocked) => {
                conn.gauge.write_blocked(now);
                return conn.gauge.stalled(policy, now).into();
            }
            Ok(Flush::Progress) => {
                conn.gauge.write_blocked(now);
                conn.gauge.write_progress(now);
                return Next::Park;
            }
            Ok(Flush::Done) => {
                conn.gauge.write_drained(now);
                if let Some(cause) = conn.close_after_write {
                    return Next::Close(cause);
                }
            }
        }
    }

    let mut served_in_slice: u32 = 0;
    loop {
        // Serve every complete request already buffered (pipelining),
        // up to the fairness cap.
        while conn.close_after_write.is_none() && served_in_slice < MAX_REQUESTS_PER_SLICE {
            let draining = state.drain.is_draining();
            let response = match take_request(state, conn) {
                Intake::Request(req) => {
                    let mut response = state.handle_request(&req);
                    let exhausted = conn.gauge.request_served(policy, state.now_ms());
                    conn.close_after_write = if !req.keep_alive {
                        Some(CloseCause::ClientClose)
                    } else if exhausted {
                        Some(CloseCause::MaxRequests)
                    } else if draining && conn.buf.is_empty() {
                        Some(CloseCause::Drain)
                    } else {
                        None
                    };
                    response.close = conn.close_after_write.is_some();
                    response
                }
                Intake::Reject(response) => {
                    conn.close_after_write = Some(CloseCause::BadRequest);
                    response
                }
                Intake::Pending(pending) => {
                    conn.gauge.observe(pending, state.now_ms());
                    break;
                }
            };
            if draining {
                state.drain.note_final_responses(1);
            }
            conn.enqueue(&response);
            served_in_slice += 1;
        }

        // Push out what we owe, without blocking.
        if !conn.pending.is_empty() {
            let now = state.now_ms();
            match flush(conn) {
                Err(_) => return Next::Close(CloseCause::HostileReset),
                Ok(Flush::Done) => conn.gauge.write_drained(now),
                Ok(Flush::Progress) | Ok(Flush::Blocked) => {
                    conn.gauge.write_blocked(now);
                    return conn.gauge.stalled(policy, now).into();
                }
            }
        }
        if let Some(cause) = conn.close_after_write {
            return Next::Close(cause);
        }
        if served_in_slice >= MAX_REQUESTS_PER_SLICE {
            // Fairness: a hot pipelining peer yields the worker.
            return Next::Requeue;
        }
        if conn.eof {
            // The intake answered any request the EOF cut short, so the
            // peer closed between requests.
            return Next::Close(CloseCause::PeerClosed);
        }

        // Pull whatever the socket has.
        let mut chunk = [0u8; 8192];
        match conn.stream.read(&mut chunk) {
            Ok(0) => conn.eof = true,
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if conn.is_idle() && state.drain.is_draining() {
                    return Next::Close(CloseCause::Drain);
                }
                let now = state.now_ms();
                let verdict = conn.gauge.stalled(policy, now);
                if let Verdict::Close(cause) = verdict {
                    // A mid-request stall earns its 408 (best effort —
                    // the peer is hostile by definition here).
                    if matches!(cause, CloseCause::HeaderStall | CloseCause::BodyStall) {
                        conn.enqueue(&reject(state, &HttpError::Timeout));
                        let _ = flush(conn);
                    }
                }
                return verdict.into();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Next::Close(CloseCause::HostileReset),
        }
    }
}

/// One worker: block in `pop` until the reactor hands over a ready or
/// due connection (or a slice cut short comes back), drive it for a
/// slice, then retire it, requeue it, or hand it back to the reactor.
/// Past the drain's hard deadline, a connection that would go back is
/// force-closed instead.
fn worker_loop(state: &ServerState, queue: &WorkQueue<Conn>, inbox: &Inbox) {
    while let Some(mut conn) = queue.pop() {
        state.conns.on_resume();
        // A handler panic must cost one connection, not the worker.
        let next = match catch_unwind(AssertUnwindSafe(|| drive(state, &mut conn))) {
            Ok(next) => next,
            Err(_) => {
                state.stats.panics.fetch_add(1, Ordering::Relaxed);
                Next::Close(CloseCause::HostileReset)
            }
        };
        let handed = match next {
            Next::Close(cause) => {
                retire(state, cause);
                continue;
            }
            _ if state.drain.force_deadline_passed(state.now_ms()) => {
                retire(state, CloseCause::Forced);
                continue;
            }
            Next::Park => {
                state.conns.on_park();
                inbox.park(state, conn)
            }
            Next::Requeue => {
                state.conns.on_park();
                queue.offer(conn)
            }
        };
        if handed.is_err() {
            // A failed wait stopped the reactor: nothing will poll this
            // connection again.
            state.conns.on_resume();
            retire(state, CloseCause::Forced);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthattr_core::Artifact;

    fn single_year_config() -> ServeConfig {
        let mut config = ServeConfig::smoke();
        config.years = vec![2018];
        config.rate = None;
        config
    }

    fn state(config: ServeConfig) -> ServerState {
        ServerState::new(config).unwrap()
    }

    fn req(method: &str, path: &str, query: &[(&str, &str)], body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    const SOURCE: &str = "int main() { int total = 3; return total; }";

    #[test]
    fn router_maps_unknown_paths_and_methods() {
        let s = state(single_year_config());
        assert_eq!(s.handle_request(&req("GET", "/nope", &[], "")).status, 404);
        assert_eq!(
            s.handle_request(&req("GET", "/attribute", &[], "")).status,
            405,
            "known path, wrong method"
        );
        assert_eq!(
            s.handle_request(&req("POST", "/healthz", &[], "")).status,
            405
        );
        assert_eq!(s.stats().client_errors.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn attribute_validates_year_and_body() {
        let s = state(single_year_config());
        let missing = s.handle_request(&req("POST", "/attribute", &[], SOURCE));
        assert_eq!(missing.status, 400, "missing year");
        let bad = s.handle_request(&req("POST", "/attribute", &[("year", "soon")], SOURCE));
        assert_eq!(bad.status, 400, "non-integer year");
        let unserved = s.handle_request(&req("POST", "/attribute", &[("year", "2019")], SOURCE));
        assert_eq!(unserved.status, 404, "in-range year not in the registry");
        let empty = s.handle_request(&req("POST", "/attribute", &[("year", "2018")], ""));
        assert_eq!(empty.status, 400, "empty body");
        let broken = s.handle_request(&req(
            "POST",
            "/attribute",
            &[("year", "2018")],
            "int main( {",
        ));
        assert_eq!(broken.status, 422, "unparseable source");
    }

    #[test]
    fn attribute_matches_the_offline_oracle_byte_for_byte() {
        let s = state(single_year_config());
        let served = s.handle_request(&req("POST", "/attribute", &[("year", "2018")], SOURCE));
        assert_eq!(served.status, 200);

        let oracle = synthattr_core::year_oracle(2018, &s.config().experiment).unwrap();
        let artifact = Artifact::new(SOURCE);
        let features = artifact.features(oracle.extractor()).unwrap();
        let proba = oracle.forest().predict_proba(features);
        let expected = attribution_body(2018, &proba);
        assert_eq!(
            String::from_utf8(served.body).unwrap(),
            expected,
            "served verdict == offline pipeline verdict, byte for byte"
        );
    }

    #[test]
    fn rate_limiter_rejects_the_burst_overflow_with_429() {
        let mut config = single_year_config();
        config.rate = Some(RateConfig {
            burst: 2,
            per_second: 0,
        });
        let s = state(config);
        let attr = || req("POST", "/attribute", &[("year", "2018")], SOURCE);
        assert_eq!(s.handle_request(&attr()).status, 200);
        assert_eq!(s.handle_request(&attr()).status, 200);
        assert_eq!(s.handle_request(&attr()).status, 429, "burst exhausted");
        assert_eq!(s.stats().rate_limited.load(Ordering::Relaxed), 1);
        // A different client identity has its own bucket.
        let mut other = attr();
        other
            .headers
            .push(("x-client-id".to_string(), "fresh".to_string()));
        assert_eq!(s.handle_request(&other).status, 200);
        // /healthz is never rate-limited.
        assert_eq!(
            s.handle_request(&req("GET", "/healthz", &[], "")).status,
            200
        );
    }

    #[test]
    fn healthz_reports_degraded_when_the_breaker_opens_but_reads_still_flow() {
        let s = state(single_year_config());
        let healthy = s.handle_request(&req("GET", "/healthz", &[], ""));
        assert_eq!(healthy.status, 200);
        let text = String::from_utf8(healthy.body).unwrap();
        assert!(text.contains("\"status\":\"ok\""), "healthy body: {text}");

        // Trip the breaker the way real transform failures would.
        for _ in 0..s.config().breaker.failure_threshold {
            s.breaker().record_failure();
        }
        assert!(s.breaker().is_open());

        // Regression: a degraded engine must REPORT degraded, not fail
        // the health read or the attribution path.
        let degraded = s.handle_request(&req("GET", "/healthz", &[], ""));
        assert_eq!(degraded.status, 200, "healthz never errors on degradation");
        let text = String::from_utf8(degraded.body).unwrap();
        assert!(
            text.contains("\"status\":\"degraded\"") && text.contains("\"state\":\"open\""),
            "degraded body: {text}"
        );
        let attributed = s.handle_request(&req("POST", "/attribute", &[("year", "2018")], SOURCE));
        assert_eq!(attributed.status, 200, "reads flow while transforms shed");

        // Transforms shed with 503 while open.
        let shed = s.handle_request(&req("POST", "/transform", &[("year", "2018")], SOURCE));
        assert_eq!(shed.status, 503);
    }

    #[test]
    fn transform_is_deterministic_and_parse_rejects_skip_the_breaker() {
        let s = state(single_year_config());
        let t = || {
            req(
                "POST",
                "/transform",
                &[
                    ("year", "2018"),
                    ("mode", "ct"),
                    ("steps", "2"),
                    ("seed", "7"),
                ],
                SOURCE,
            )
        };
        let first = s.handle_request(&t());
        let second = s.handle_request(&t());
        assert_eq!(first.status, 200);
        assert_eq!(first.body, second.body, "same seed, same chain bytes");

        let trips_before = s.breaker().trips();
        let rejected = s.handle_request(&req(
            "POST",
            "/transform",
            &[("year", "2018")],
            "not c++ at all ~~~",
        ));
        assert_eq!(rejected.status, 422);
        assert_eq!(
            s.breaker().trips(),
            trips_before,
            "client parse errors never count against engine health"
        );

        let bad_mode = s.handle_request(&req(
            "POST",
            "/transform",
            &[("year", "2018"), ("mode", "detox")],
            SOURCE,
        ));
        assert_eq!(bad_mode.status, 400);
        for steps in ["0", "65", "99999999999999999999"] {
            let bad_steps = s.handle_request(&req(
                "POST",
                "/transform",
                &[("year", "2018"), ("steps", steps)],
                SOURCE,
            ));
            assert_eq!(bad_steps.status, 400, "steps={steps}");
        }
    }

    #[test]
    fn healthz_reports_drain_state_and_connection_counters() {
        let s = state(single_year_config());
        let before = s.handle_request(&req("GET", "/healthz", &[], ""));
        let text = String::from_utf8(before.body).unwrap();
        assert!(text.contains("\"status\":\"ok\""), "body: {text}");
        assert!(text.contains("\"drain_state\":\"active\""), "body: {text}");
        assert!(text.contains("\"connections_open\":0"), "body: {text}");
        assert!(text.contains("\"connections_parked\":0"), "body: {text}");
        assert!(
            text.contains("\"connection_closes\":{\"peer_closed\":0,"),
            "per-cause close counters present: {text}"
        );

        // Connection life-cycle events surface as gauges + counters.
        s.conns().on_accept();
        s.conns().on_accept();
        s.conns().on_park();
        s.conns().on_close(CloseCause::IdleBudget);
        let mid = s.handle_request(&req("GET", "/healthz", &[], ""));
        let text = String::from_utf8(mid.body).unwrap();
        assert!(text.contains("\"connections_open\":1"), "body: {text}");
        assert!(text.contains("\"connections_parked\":1"), "body: {text}");
        assert!(text.contains("\"idle_budget\":1"), "body: {text}");

        // The drain flips both status and drain_state, and healthz
        // keeps answering (load balancers need the draining signal).
        s.begin_drain();
        let draining = s.handle_request(&req("GET", "/healthz", &[], ""));
        assert_eq!(draining.status, 200);
        let text = String::from_utf8(draining.body).unwrap();
        assert!(text.contains("\"status\":\"draining\""), "body: {text}");
        assert!(
            text.contains("\"drain_state\":\"draining\""),
            "body: {text}"
        );
    }

    #[test]
    fn attribution_body_ranks_descending_with_ties_to_the_lowest_label() {
        let body = attribution_body(2017, &[0.25, 0.5, 0.25, 0.0]);
        assert!(
            body.starts_with("{\"year\":2017,\"label\":1,"),
            "argmax wins: {body}"
        );
        let ranked = attribution_body(2019, &[0.4, 0.4, 0.2]);
        assert!(
            ranked.contains("\"label\":0") && ranked.contains("[{\"author\":0,"),
            "ties break to the lowest label, matching the forest: {ranked}"
        );
        assert!(
            ranked.contains("\"probabilities\":[0.4,0.4,0.2]"),
            "full vector serialized: {ranked}"
        );
    }
}
