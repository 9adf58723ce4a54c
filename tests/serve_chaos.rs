//! Chaos at the socket: live-TCP proof of the connection-survivability
//! claims in `synthattr-serve`.
//!
//! Hostile traffic comes from the fault layer's seeded
//! [`synthattr::faults::TrafficProfile`] — slow-loris header writers,
//! mid-request stallers, byte-at-a-time drippers, abrupt disconnects —
//! replayed over real sockets against a real server. The headline
//! claim, from the connection-rotation design: **hostile connections
//! hold sockets, never threads**, so with 64 slow-loris connections
//! open a legitimate `/attribute` client's p95 stays within 5× its
//! unloaded p95 and no request times out.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use synthattr::faults::{HostileKind, ScriptEnd, TrafficProfile};
use synthattr::serve::client::Client;
use synthattr::serve::server::{RunningServer, ServeConfig, Server};
use synthattr::serve::ConnPolicy;

const YEAR: u32 = 2018;
const SOURCE: &str = "int main() { int acc = 0; for (int i = 0; i < 6; i = i + 1) { acc = acc + i * 3; } return acc; }\n";

/// The legitimate request the hostile scripts mimic or mangle.
fn legit_request() -> Vec<u8> {
    format!(
        "POST /attribute?year={YEAR} HTTP/1.1\r\nHost: synthattr\r\nContent-Length: {}\r\n\r\n{SOURCE}",
        SOURCE.len()
    )
    .into_bytes()
}

fn spawn_with(conn: ConnPolicy, preload: bool) -> RunningServer {
    let mut config = ServeConfig::smoke();
    config.years = vec![YEAR];
    config.workers = Some(2);
    config.rate = None;
    config.preload = preload;
    config.conn = conn;
    Server::bind("127.0.0.1:0", config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

/// Reads the named close counter out of a `/healthz` body.
fn close_counter(health: &str, cause: &str) -> u64 {
    let key = format!("\"{cause}\":");
    let closes = health
        .split("\"connection_closes\":{")
        .nth(1)
        .unwrap_or_default();
    closes
        .split(&key)
        .nth(1)
        .and_then(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .unwrap_or(0)
}

fn healthz_text(addr: SocketAddr) -> String {
    let resp = synthattr::serve::client::request(addr, "GET", "/healthz", &[], b"")
        .expect("healthz under chaos");
    assert_eq!(resp.status, 200);
    resp.text().to_string()
}

/// p95 of a latency sample (nearest-rank).
fn p95(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[(samples.len() * 95).div_ceil(100).saturating_sub(1)]
}

/// Runs `n` keep-alive `/attribute` requests and returns the latency
/// of each. Panics on any failure or timeout — that's the point.
fn measure_attribute(addr: SocketAddr, timeout: Duration, n: usize) -> Vec<Duration> {
    let mut client = Client::connect_with_timeout(addr, timeout).expect("connect");
    let target = format!("/attribute?year={YEAR}");
    (0..n)
        .map(|i| {
            let started = Instant::now();
            let resp = client
                .request("POST", &target, &[], SOURCE.as_bytes())
                .unwrap_or_else(|e| panic!("legit request {i} failed under load: {e}"));
            assert_eq!(resp.status, 200, "body: {}", resp.text());
            started.elapsed()
        })
        .collect()
}

/// The acceptance gate: 64 slow-loris connections held open, and the
/// legitimate client's p95 stays within 5× its unloaded p95 (with a
/// small absolute floor so scheduler noise on tiny baselines can't
/// flake the ratio). Afterwards every loris is cut by the header
/// deadline — visible in the `header_stall` close counter — so the
/// sockets are reclaimed too.
#[test]
fn legit_attribute_p95_stays_bounded_under_64_slow_loris() {
    // Header deadline long enough that all 64 loris are still open
    // while we measure, short enough that the cut is observable fast.
    let policy = ConnPolicy {
        header_deadline_ms: 2_500,
        ..ConnPolicy::default()
    };
    let timeout = policy.client_timeout();
    let server = spawn_with(policy, true);
    let addr = server.addr();

    // Unloaded baseline, after a short warmup.
    measure_attribute(addr, timeout, 5);
    let mut unloaded = measure_attribute(addr, timeout, 60);
    let unloaded_p95 = p95(&mut unloaded);

    // 64 hostile connections, each replaying its own seeded script.
    let profile = TrafficProfile {
        loris_pause_ms: 400,
        ..TrafficProfile::new(0xC4A05)
    };
    let request = legit_request();
    let open = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..64 {
            let script = profile.script(HostileKind::SlowLoris, i, &request);
            let open = &open;
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("loris connect");
                open.fetch_add(1, Ordering::SeqCst);
                // The server cutting us mid-script is the expected
                // outcome; every loris ends in a write error.
                let _ = script.play(&mut stream, |ms| {
                    std::thread::sleep(Duration::from_millis(ms));
                });
            });
        }

        // Wait until the whole fleet is connected, then measure while
        // it is still inside its header deadline.
        let armed = Instant::now();
        while open.load(Ordering::SeqCst) < 64 {
            assert!(
                armed.elapsed() < Duration::from_secs(10),
                "loris fleet failed to connect"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut loaded = measure_attribute(addr, timeout, 60);
        let loaded_p95 = p95(&mut loaded);

        let floor = Duration::from_millis(5);
        let bound = unloaded_p95.max(floor) * 5;
        assert!(
            loaded_p95 <= bound,
            "loaded p95 {loaded_p95:?} exceeds 5x unloaded p95 {unloaded_p95:?} (bound {bound:?})"
        );

        // The loris are eventually all cut by the header deadline.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let cut = close_counter(&healthz_text(addr), "header_stall");
            if cut >= 64 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "only {cut}/64 loris cut by the header deadline"
            );
            std::thread::sleep(Duration::from_millis(200));
        }
    });

    let health = healthz_text(addr);
    assert!(health.contains("\"connections_opened\":"), "body: {health}");
    server.shutdown();
}

/// Deeply nested source used to overflow a worker's stack, which
/// aborts the whole process. Past the parser's nesting budget it is an
/// ordinary parse error: each such POST gets a 422 while a legitimate
/// client on another connection keeps getting 200s.
#[test]
fn deep_nesting_posts_get_422_while_legit_clients_keep_getting_200() {
    let policy = ConnPolicy::default();
    let timeout = policy.client_timeout();
    let server = spawn_with(policy, true);
    let addr = server.addr();
    let target = format!("/attribute?year={YEAR}");
    let depth = 20_000;
    let bodies = [
        format!(
            "int main() {{ int x = {}1{}; return x; }}",
            "(".repeat(depth),
            ")".repeat(depth)
        ),
        format!(
            "int main() {{ {} return 0; {} }}",
            "{".repeat(depth),
            "}".repeat(depth)
        ),
        format!(
            "int main() {{ int x = 1{}; return x; }}",
            "+1".repeat(depth)
        ),
    ];

    let hostile_done = AtomicBool::new(false);
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        let legit = scope.spawn(|| {
            let mut client = Client::connect_with_timeout(addr, timeout).expect("connect");
            start.wait();
            let mut served = 0usize;
            // Keep asking until the deep bodies are through, and a few
            // times after.
            while !hostile_done.load(Ordering::SeqCst) || served < 5 {
                let resp = client
                    .request("POST", &target, &[], SOURCE.as_bytes())
                    .unwrap_or_else(|e| panic!("legit request {served} failed: {e}"));
                assert_eq!(resp.status, 200, "body: {}", resp.text());
                served += 1;
            }
        });
        let mut hostile = Client::connect_with_timeout(addr, timeout).expect("connect");
        start.wait();
        for _ in 0..3 {
            for body in &bodies {
                let resp = hostile
                    .request("POST", &target, &[], body.as_bytes())
                    .expect("a deep body gets a response");
                assert_eq!(resp.status, 422, "body: {}", resp.text());
                assert!(resp.text().contains("nesting"), "body: {}", resp.text());
            }
        }
        hostile_done.store(true, Ordering::SeqCst);
        legit.join().expect("legit client");
    });
    server.shutdown();
}

/// A byte dripper is slow, not hostile: it completes its request under
/// the header deadline and must be served, not cut.
#[test]
fn byte_drippers_are_legitimate_clients_and_get_served() {
    let server = spawn_with(ConnPolicy::default(), false);
    let profile = TrafficProfile::new(0xD21);
    let request = b"GET /healthz HTTP/1.1\r\nHost: synthattr\r\nConnection: close\r\n\r\n";
    for index in 0..3 {
        let script = profile.script(HostileKind::ByteDripper, index, request);
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let end = script
            .play(&mut stream, |ms| {
                std::thread::sleep(Duration::from_millis(ms));
            })
            .expect("a dripper must never be cut mid-send");
        assert_eq!(end, ScriptEnd::Done);
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).expect("read response");
        let text = String::from_utf8_lossy(&reply);
        assert!(
            text.starts_with("HTTP/1.1 200"),
            "dripper {index} got: {text:.80}"
        );
    }
    server.shutdown();
}

/// A mid-request staller (complete head, body never finishes) is cut
/// by the body progress deadline, with a best-effort 408 on the way
/// out, and shows up in the `body_stall` close counter.
#[test]
fn mid_request_stallers_are_cut_by_the_body_deadline() {
    let policy = ConnPolicy {
        body_deadline_ms: 200,
        ..ConnPolicy::default()
    };
    let server = spawn_with(policy, false);
    let profile = TrafficProfile::new(0x57A11);
    let request = legit_request();
    let script = profile.script(HostileKind::MidRequestStall, 0, &request);

    let started = Instant::now();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // Replay the head+partial-body, but read instead of honoring the
    // terminal 10 s stall — the server must cut us near 200 ms.
    let _ = script.play(&mut stream, |ms| {
        if ms < 1_000 {
            std::thread::sleep(Duration::from_millis(ms));
        }
    });
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(5),
        "staller must be cut near the 200 ms body deadline, waited {waited:?}"
    );
    if !reply.is_empty() {
        assert!(
            String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 408"),
            "got: {}",
            String::from_utf8_lossy(&reply)
        );
    }
    assert!(close_counter(&healthz_text(server.addr()), "body_stall") >= 1);
    server.shutdown();
}

/// A mixed fleet — loris, stallers, drippers, resets — thrown at the
/// server while a legitimate client keeps working. Abrupt disconnects
/// mid-request must never panic a worker or wedge the server.
#[test]
fn mixed_hostile_fleet_leaves_the_server_healthy() {
    let policy = ConnPolicy {
        header_deadline_ms: 300,
        body_deadline_ms: 300,
        ..ConnPolicy::default()
    };
    let server = spawn_with(policy, false);
    let addr = server.addr();
    let profile = TrafficProfile {
        loris_pause_ms: 100,
        stall_ms: 1_500,
        ..TrafficProfile::new(0xF1EE7)
    };
    // A bodyless request keeps the fleet's honest drippers on the
    // untrained-model-free path; stallers degrade to header stalls.
    let request = b"GET /healthz HTTP/1.1\r\nHost: synthattr\r\nConnection: close\r\n\r\n".to_vec();

    std::thread::scope(|scope| {
        for script in profile.fleet(24, &request) {
            scope.spawn(move || {
                let mut stream = match TcpStream::connect(addr) {
                    Ok(s) => s,
                    Err(_) => return,
                };
                match script.play(&mut stream, |ms| {
                    std::thread::sleep(Duration::from_millis(ms));
                }) {
                    // A plain drop mid-request: the kernel turns the
                    // unread/unflushed state into a reset or an EOF
                    // mid-parse; either way the worker must survive.
                    Ok(ScriptEnd::Reset) | Ok(ScriptEnd::Done) | Err(_) => drop(stream),
                }
            });
        }
        // Legit traffic flows throughout the assault.
        for _ in 0..20 {
            let health = healthz_text(addr);
            assert!(health.contains("\"drain_state\":\"active\""), "{health}");
            std::thread::sleep(Duration::from_millis(50));
        }
    });

    // Every hostile connection is eventually closed and accounted —
    // the reactor hands a parked socket to a worker when it turns
    // ready or its budget deadline falls due, so give the counters a
    // moment to converge.
    let causes = [
        "peer_closed",
        "client_close",
        "idle_budget",
        "header_stall",
        "body_stall",
        "write_stall",
        "max_requests",
        "bad_request",
        "hostile_reset",
    ];
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let health = healthz_text(addr);
        let total: u64 = causes.iter().map(|c| close_counter(&health, c)).sum();
        if total >= 24 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "want >= 24 accounted closes, got {total}: {health}"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
    server.shutdown();
}
