//! `serve`: open-loop HTTP against an in-process `synthattr-serve`
//! holding the paper-scale 2018 model, with 2 workers.
//!
//! One load generator of at most `nproc` (and at most 2) threads, each
//! owning one pipelined keep-alive connection, sends on a fixed
//! schedule and never waits for a response before the next send is
//! due. About 90% of requests are `/attribute` with generated corpus
//! and transformed sources (30% of those repeat a small hot set, so
//! the artifact LRU hits; the rest are fresh); about 10% are short
//! `/transform?mode=ct` calls.
//!
//! Latencies are measured at one reference rate well below saturation.
//! A ladder of higher rates then records the highest rate whose
//! `/attribute` tail stays under [`SLO_MS`] with no backlog left at the
//! end (`max_rps_at_slo`, on the context line), and its last rung,
//! past saturation, gives the sustained completion rate (`items_per_s`):
//! unlike the ladder's step result, it moves smoothly with capacity. `run_s` and `cpu_s` cover the whole schedule, reference phase
//! and ladder. Set-up is bind plus model preload up to the first 200. Check:
//! every request answers 200 within the timeout, and every served
//! label equals the offline oracle's label for the same source.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use synthattr_core::config::ExperimentConfig;
use synthattr_core::{year_oracle, AuthorshipModel};
use synthattr_gen::corpus::{generate_year, Origin, YearSpec};
use synthattr_gpt::chain::try_run_nct;
use synthattr_gpt::pool::YearPool;
use synthattr_gpt::transform::Transformer;
use synthattr_serve::client::Client;
use synthattr_serve::http::read_request;
use synthattr_serve::server::{RunningServer, ServeConfig, Server, ServerState};
use synthattr_util::Pcg64;

use crate::json::{self, Value};
use crate::openloop::{self, Record, Route};
use crate::trace::Tracer;
use crate::{alloc, cpu_seconds, layer_values, stats, EndToEnd, LayerValues, Opts, Report};

const YEAR: u32 = 2018;
const WORKERS: usize = 2;
/// Most generator threads (and connections) the load may use.
const MAX_CONNECTIONS: usize = 2;
const REFERENCE_RATE: f64 = 200.0;
/// Shares of `--seconds` spent at the reference rate and on each rung.
const REFERENCE_SHARE: f64 = 0.5;
const RUNG_SHARE: f64 = 0.15;
/// Rates above the reference one. The last is well past saturation on
/// 2 workers, so its completion rate measures capacity.
const LADDER: [f64; 3] = [400.0, 800.0, 2400.0];
/// The `/attribute` tail-latency limit a ladder rung must meet.
const SLO_MS: f64 = 50.0;
/// Sources the repeating share of `/attribute` draws from.
const HOT_SET: usize = 16;
const REPEAT_PERMILLE: u64 = 300;
const TRANSFORM_PERMILLE: u64 = 100;
const TRANSFORM_STEPS: usize = 2;
/// A response later than this after its due time is a failure.
const TIMEOUT: Duration = Duration::from_secs(20);
const SETUP_REPS: usize = 5;

fn serve_config() -> ServeConfig {
    let mut config = ServeConfig::smoke();
    config.experiment = ExperimentConfig::paper();
    config.years = vec![YEAR];
    config.workers = Some(WORKERS);
    config.rate = None;
    config.preload = true;
    // One keep-alive connection per generator thread carries the whole
    // run; recycling it mid-phase would measure reconnects, not serving.
    config.conn.max_requests = u32::MAX;
    config
}

fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_CONNECTIONS)
}

/// Binds, preloads the model and waits for the first 200.
fn start_server() -> RunningServer {
    let server = Server::bind("127.0.0.1:0", serve_config())
        .and_then(Server::spawn)
        .expect("bind and spawn the server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let target = format!("/attribute?year={YEAR}");
    let body = b"int main() { int x = 1; return x; }\n";
    loop {
        match client.request("POST", &target, &[], body) {
            Ok(r) if r.status == 200 => return server,
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The generated request bodies of one run.
struct Bodies {
    hot: Vec<String>,
    fresh: Vec<String>,
    transform: Vec<String>,
}

impl Bodies {
    /// Corpus solutions and one-step NCT transforms of them, alternating.
    fn generate(seed: u64, fresh: usize) -> Bodies {
        let n = fresh + HOT_SET;
        let spec = YearSpec::tiny(YEAR, n.div_ceil(8), 8);
        let corpus = generate_year(&spec, seed);
        let pool = YearPool::calibrated(YEAR, seed);
        let transformer = Transformer::new(&pool);
        let mut rng = Pcg64::seed_from(seed, &["serve-bodies"]);
        let mut sources: Vec<String> = corpus
            .samples
            .iter()
            .take(n)
            .enumerate()
            .map(|(i, s)| {
                if i % 2 == 0 {
                    return s.source.clone();
                }
                try_run_nct(&transformer, &s.source, 1, Origin::Human, &mut rng)
                    .ok()
                    .and_then(|mut v| v.pop())
                    .map_or_else(|| s.source.clone(), |t| t.source)
            })
            .collect();
        let fresh = sources.split_off(HOT_SET);
        let transform = corpus
            .samples
            .iter()
            .rev()
            .take(64)
            .map(|s| s.source.clone())
            .collect();
        Bodies {
            hot: sources,
            fresh,
            transform,
        }
    }
}

/// One scheduled request.
struct Planned {
    route: Route,
    due_ns: u64,
    bytes: Vec<u8>,
    /// The `/attribute` source, for the label check.
    source: Option<usize>,
}

/// Sources are numbered hot first, then fresh.
fn source_text(bodies: &Bodies, idx: usize) -> &str {
    if idx < HOT_SET {
        &bodies.hot[idx]
    } else {
        &bodies.fresh[idx - HOT_SET]
    }
}

fn http(method: &str, target: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nHost: synthattr\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Lays out one phase: due times from the rate, routes and bodies from
/// the seeded stream. `next_fresh` advances so no fresh body repeats.
fn plan(
    bodies: &Bodies,
    rng: &mut Pcg64,
    rate: f64,
    seconds: f64,
    next_fresh: &mut usize,
) -> Vec<Planned> {
    openloop::schedule(rate, seconds)
        .into_iter()
        .map(|due_ns| {
            let roll = rng.next_below(1000) as u64;
            if roll < TRANSFORM_PERMILLE {
                let body = &bodies.transform[rng.next_below(bodies.transform.len())];
                let target = format!(
                    "/transform?year={YEAR}&mode=ct&steps={TRANSFORM_STEPS}&seed={}",
                    rng.next_below(1 << 20)
                );
                Planned {
                    route: Route::Transform,
                    due_ns,
                    bytes: http("POST", &target, body),
                    source: None,
                }
            } else {
                let repeat = (rng.next_below(1000) as u64) < REPEAT_PERMILLE;
                let idx = if repeat || *next_fresh >= bodies.fresh.len() {
                    rng.next_below(HOT_SET)
                } else {
                    *next_fresh += 1;
                    HOT_SET + *next_fresh - 1
                };
                Planned {
                    route: Route::Attribute,
                    due_ns,
                    bytes: http(
                        "POST",
                        &format!("/attribute?year={YEAR}"),
                        source_text(bodies, idx),
                    ),
                    source: Some(idx),
                }
            }
        })
        .collect()
}

/// Splits a complete response off the front of `buf`: status, body.
fn take_response(buf: &mut Vec<u8>) -> Option<(u16, Vec<u8>)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let len: usize = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse().ok())?
    })?;
    if buf.len() < head_end + len {
        return None;
    }
    let body = buf[head_end..head_end + len].to_vec();
    buf.drain(..head_end + len);
    Some((status, body))
}

/// The served label in an `/attribute` response body.
fn label_of(body: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"label\":")? + 8..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Drives one connection through its share of the schedule; returns
/// each request's record and, for `/attribute`, the served label.
fn drive_connection(
    addr: SocketAddr,
    start: Instant,
    reqs: &[&Planned],
) -> Vec<(Record, Option<usize>)> {
    let mut out: Vec<(Record, Option<usize>)> = reqs
        .iter()
        .map(|r| {
            let rec = Record {
                route: r.route,
                due_ns: r.due_ns,
                sent_ns: r.due_ns,
                done_ns: None,
                status: 0,
            };
            (rec, None)
        })
        .collect();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return out;
    };
    let _ = stream.set_nodelay(true);
    let now_ns = || start.elapsed().as_nanos() as u64;
    let deadline = reqs.last().map_or(0, |r| r.due_ns) + TIMEOUT.as_nanos() as u64;
    let (mut next, mut inflight, mut buf) = (0usize, VecDeque::new(), Vec::new());
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let now = now_ns();
        if next < reqs.len() && reqs[next].due_ns <= now {
            if stream.write_all(&reqs[next].bytes).is_err() {
                break;
            }
            out[next].0.sent_ns = now_ns();
            inflight.push_back(next);
            next += 1;
            continue;
        }
        if inflight.is_empty() {
            if next >= reqs.len() {
                break;
            }
            std::thread::sleep(Duration::from_nanos(reqs[next].due_ns - now));
            continue;
        }
        if now >= deadline {
            break;
        }
        let until = if next < reqs.len() {
            reqs[next].due_ns
        } else {
            deadline
        };
        let wait = Duration::from_nanos(until.saturating_sub(now).max(20_000));
        if stream.set_read_timeout(Some(wait)).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                buf.extend_from_slice(&chunk[..k]);
                let done = now_ns();
                while let Some((status, body)) = take_response(&mut buf) {
                    let Some(i) = inflight.pop_front() else { break };
                    out[i].0.done_ns = Some(done);
                    out[i].0.status = status;
                    if reqs[i].route == Route::Attribute {
                        out[i].1 = label_of(&body);
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    out
}

/// Runs one open-loop phase over `connections()` generator threads;
/// records come back in schedule order.
fn run_phase(addr: SocketAddr, planned: &[Planned]) -> Vec<(Record, Option<usize>)> {
    let conns = connections();
    // A short lead lets every generator thread connect before the
    // first request is due.
    let start = Instant::now() + Duration::from_millis(20);
    let shares: Vec<Vec<(Record, Option<usize>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<&Planned> = planned.iter().skip(c).step_by(conns).collect();
                scope.spawn(move || {
                    let lead = start.saturating_duration_since(Instant::now());
                    std::thread::sleep(lead);
                    drive_connection(addr, start, &mine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut iters: Vec<_> = shares.into_iter().map(Vec::into_iter).collect();
    (0..planned.len())
        .map(|i| iters[i % conns].next().expect("one record per request"))
        .collect()
}

/// Counts failures: non-200, timeouts, and labels that differ from the
/// offline oracle's.
fn check_phase(
    report: &mut Report,
    planned: &[Planned],
    results: &[(Record, Option<usize>)],
    expected: &mut dyn FnMut(usize) -> usize,
) {
    for (p, (rec, label)) in planned.iter().zip(results) {
        let ok = rec.ok()
            && match p.source {
                Some(idx) => *label == Some(expected(idx)),
                None => true,
            };
        report.check(
            ok,
            "served 200 within the timeout with the offline oracle's label",
        );
    }
}

/// Memoized offline labels, computed after the measured phases.
struct Oracle<'a> {
    model: AuthorshipModel,
    bodies: &'a Bodies,
    cache: BTreeMap<usize, usize>,
}

impl Oracle<'_> {
    fn label(&mut self, idx: usize) -> usize {
        let (model, bodies) = (&self.model, self.bodies);
        *self.cache.entry(idx).or_insert_with(|| {
            model
                .predict(source_text(bodies, idx))
                .expect("generated sources parse")
        })
    }
}

fn seed_of(seed: u64) -> u64 {
    0x5E4E_0000_u64.wrapping_add(seed)
}

fn fresh_needed(seconds: f64) -> usize {
    let total =
        seconds * (REFERENCE_RATE * REFERENCE_SHARE + LADDER.iter().sum::<f64>() * RUNG_SHARE);
    (total * 0.7) as usize + 64
}

pub fn run(opts: &Opts, report: &mut Report) -> EndToEnd {
    let seed = seed_of(opts.seed);
    let bodies = Bodies::generate(seed, fresh_needed(opts.seconds));
    let mut rng = Pcg64::seed_from(seed, &["serve-plan"]);
    let mut next_fresh = 0;
    let reference = plan(
        &bodies,
        &mut rng,
        REFERENCE_RATE,
        opts.seconds * REFERENCE_SHARE,
        &mut next_fresh,
    );
    let rungs: Vec<Vec<Planned>> = LADDER
        .iter()
        .map(|&r| {
            plan(
                &bodies,
                &mut rng,
                r,
                opts.seconds * RUNG_SHARE,
                &mut next_fresh,
            )
        })
        .collect();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            RunningServer::shutdown(previous);
        }
        let t0 = Instant::now();
        server = Some(start_server());
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up repetition");
    alloc::reset_peak();
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    let ref_results = run_phase(server.addr(), &reference);
    let mut ladder = Vec::new();
    for planned in &rungs {
        ladder.push(run_phase(server.addr(), planned));
    }
    let run_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let peak_heap_bytes = alloc::peak_bytes();
    server.shutdown();

    let mut oracle = Oracle {
        model: year_oracle(YEAR, &ExperimentConfig::paper()).expect("offline oracle"),
        bodies: &bodies,
        cache: BTreeMap::new(),
    };
    check_phase(report, &reference, &ref_results, &mut |i| oracle.label(i));
    let mut max_rps_at_slo = 0.0;
    let mut capacity = 0.0;
    for ((rate, planned), results) in LADDER.iter().zip(&rungs).zip(&ladder) {
        let phase =
            openloop::summarize(&results.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>());
        report.note(
            &format!("rung_{rate}_tail_ms"),
            stats::tail(&phase.attribute_ms).1,
        );
        if phase.meets_slo(SLO_MS) {
            max_rps_at_slo = *rate;
        }
        capacity = phase.completed_per_s();
        // Requests past the limit are slow, not failed; only errors
        // and wrong labels count against the run.
        check_phase(report, planned, results, &mut |i| oracle.label(i));
    }

    let phase = openloop::summarize(
        &ref_results
            .iter()
            .map(|(r, _)| r.clone())
            .collect::<Vec<_>>(),
    );
    report.note("reference_rate", REFERENCE_RATE);
    report.note("connections", connections());
    report.note("slo_ms", SLO_MS);
    report.note("max_rps_at_slo", max_rps_at_slo);
    report.note("transform_p50_ms", stats::median(&phase.transform_ms));
    report.note("transform_samples", phase.transform_ms.len());
    report.note("gen_lag_p50_ms", stats::median(&phase.lag_ms));
    EndToEnd {
        setup_s,
        pass_s: vec![run_s],
        cpu_total_s: cpu_s,
        peak_heap_bytes,
        items_per_s: capacity,
        op_ms: phase.attribute_ms,
    }
}

/// Reads the counters the per-layer metrics take deltas of.
fn healthz(addr: SocketAddr) -> (f64, f64, f64, f64) {
    let body = Client::connect(addr)
        .and_then(|mut c| c.request("GET", "/healthz", &[], b""))
        .map(|r| r.text().to_string())
        .unwrap_or_default();
    let v = json::parse(&body).unwrap_or(Value::Null);
    let num = |a: &str, b: &str| {
        v.get(a)
            .and_then(|x| x.get(b))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    (
        num("batch", "batches"),
        num("batch", "rows"),
        num("cache", "hits"),
        num("cache", "misses"),
    )
}

/// Replays every sent request in-process: the HTTP parse on the sent
/// bytes, then the handler on a fresh server state. Returns the wall
/// seconds and each response's (status, label).
fn replay(
    state: &ServerState,
    planned: &[Planned],
    tr: &mut Tracer,
) -> (f64, Vec<(u16, Option<usize>)>) {
    let limits = state.config().limits.clone();
    let t0 = Instant::now();
    tr.begin("run", 0);
    let mut out = Vec::with_capacity(planned.len());
    for (i, p) in planned.iter().enumerate() {
        let request = i as u64;
        let req = tr
            .leaf("serve.http", request, || {
                read_request(&mut Cursor::new(&p.bytes), &limits)
            })
            .ok()
            .flatten();
        let Some(req) = req else {
            out.push((400, None));
            continue;
        };
        let resp = tr.leaf("serve.handle", request, || state.handle_request(&req));
        out.push((resp.status, label_of(&resp.body)));
    }
    tr.end();
    (t0.elapsed().as_secs_f64(), out)
}

pub fn trace(opts: &Opts, report: &mut Report) -> (LayerValues, Tracer) {
    let seed = seed_of(opts.seed);
    let bodies = Bodies::generate(seed, fresh_needed(opts.seconds));
    let mut rng = Pcg64::seed_from(seed, &["serve-plan"]);
    let reference = plan(
        &bodies,
        &mut rng,
        REFERENCE_RATE,
        opts.seconds * REFERENCE_SHARE,
        &mut 0,
    );
    let server = start_server();
    let before = healthz(server.addr());
    let cpu0 = cpu_seconds();
    let results = run_phase(server.addr(), &reference);
    let cpu_s = cpu_seconds() - cpu0;
    let after = healthz(server.addr());
    server.shutdown();

    let mut oracle = Oracle {
        model: year_oracle(YEAR, &ExperimentConfig::paper()).expect("offline oracle"),
        bodies: &bodies,
        cache: BTreeMap::new(),
    };
    check_phase(report, &reference, &results, &mut |i| oracle.label(i));
    let records: Vec<Record> = results.iter().map(|(r, _)| r.clone()).collect();
    let phase = openloop::summarize(&records);

    let state = ServerState::new(serve_config()).expect("server state");
    let (off_s, off) = replay(&state, &reference, &mut Tracer::new(false));
    let mut tr = Tracer::new(true);
    let (on_s, on) = replay(&state, &reference, &mut tr);
    let live: Vec<(u16, Option<usize>)> = results.iter().map(|(r, l)| (r.status, *l)).collect();
    report.check(
        off == live && on == live,
        "replayed responses equal the served ones",
    );

    let mut v = layer_values(&tr);
    let service_ms: Vec<f64> = {
        let spans = tr.spans();
        let mut per_request: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name.starts_with("serve.")) {
            *per_request.entry(s.request).or_insert(0) += s.end_ns - s.start_ns;
        }
        per_request.values().map(|&ns| ns as f64 / 1e6).collect()
    };
    let client_ms: Vec<f64> = records.iter().filter_map(Record::latency_ms).collect();
    v.insert(
        "serve.wait_ms",
        stats::median(&client_ms) - stats::median(&service_ms),
    );
    let batches = after.0 - before.0;
    v.insert("serve.batches", batches);
    v.insert(
        "serve.batch_rows_mean",
        (after.1 - before.1) / batches.max(1.0),
    );
    let (hits, misses) = (after.2 - before.2, after.3 - before.3);
    v.insert("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    v.insert("serve.gen_lag_ms", stats::tail(&phase.lag_ms).1);
    v.insert("pool.busy_ratio", cpu_s / (phase.span_s * WORKERS as f64));
    v.insert("trace_overhead_pct", crate::overhead_pct(on_s, off_s));
    report.note("transform_p50_ms", stats::median(&phase.transform_ms));
    (v, tr)
}
