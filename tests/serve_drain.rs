//! Graceful drain under fire: `shutdown()` racing pipelined
//! keep-alive bursts must drop **zero** in-flight responses, and
//! slow-loris connections must not hold the drain.
//!
//! The protocol under test (see DESIGN.md §14.3): `shutdown()` flips
//! the draining flag, and the reactor stops accepting but keeps
//! polling. On every pass it hands each idle parked connection to a
//! worker, which retires it; a connection mid-request or mid-flush
//! stays parked under its own budget deadlines. Workers serve through
//! the ordinary `drive`: a response with no next request started
//! behind it carries `Connection: close` and ends its connection. The
//! reactor returns once no connection is open, and force-closes
//! stragglers only at the hard deadline. A client that managed to get
//! its bytes onto an accepted connection gets complete answers, ending
//! exactly on a frame boundary.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use synthattr::serve::server::{RunningServer, ServeConfig, Server};

const BURST: usize = 24;

fn config(workers: usize) -> ServeConfig {
    let mut config = ServeConfig::smoke();
    config.years = vec![2018];
    config.workers = Some(workers);
    config.rate = None;
    config.drain_deadline_ms = 10_000;
    config
}

fn spawn(config: ServeConfig) -> RunningServer {
    Server::bind("127.0.0.1:0", config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

/// One pipelined burst of `BURST` keep-alive requests in a single
/// write.
fn burst_bytes() -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..BURST {
        out.extend_from_slice(
            format!("GET /healthz HTTP/1.1\r\nHost: synthattr\r\nX-Seq: {i}\r\n\r\n").as_bytes(),
        );
    }
    out
}

/// Splits a raw reply into complete `Content-Length`-framed responses.
/// Returns `(status_codes, leftover_bytes)`; a half-written response
/// shows up as nonempty leftover.
fn parse_responses(mut raw: &[u8]) -> (Vec<u16>, usize) {
    let mut statuses = Vec::new();
    loop {
        let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
            return (statuses, raw.len());
        };
        let head = String::from_utf8_lossy(&raw[..head_end]);
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .unwrap_or(0);
        let total = head_end + 4 + content_length;
        if raw.len() < total {
            return (statuses, raw.len() - head_end.min(raw.len()));
        }
        statuses.push(status);
        raw = &raw[total..];
        if raw.is_empty() {
            return (statuses, 0);
        }
    }
}

/// The core race, at a given worker count and shutdown stagger: a
/// pipelined burst lands on an accepted connection, `shutdown()` fires
/// mid-flight, and the client still collects `BURST` complete 200s.
fn race_once(workers: usize, stagger: Duration) {
    let server = spawn(config(workers));
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(&burst_bytes()).expect("burst");
    stream.flush().expect("flush");

    // Wait for the first response byte so we know the connection was
    // accepted and is mid-serve — *then* race the drain against the
    // rest of the burst.
    let mut reply = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let n = stream.read(&mut buf).expect("first bytes before drain");
    assert!(n > 0, "server closed before answering anything");
    reply.extend_from_slice(&buf[..n]);
    std::thread::sleep(stagger);

    let stats = server.shutdown();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
            Err(e) => panic!(
                "workers={workers} stagger={stagger:?}: read failed mid-drain \
                 after {} bytes: {e}",
                reply.len()
            ),
        }
    }

    let (statuses, leftover) = parse_responses(&reply);
    assert_eq!(
        statuses.len(),
        BURST,
        "workers={workers} stagger={stagger:?}: dropped responses (got {statuses:?})"
    );
    assert!(
        statuses.iter().all(|&s| s == 200),
        "workers={workers}: non-200 in {statuses:?}"
    );
    assert_eq!(
        leftover, 0,
        "workers={workers} stagger={stagger:?}: reply ends mid-frame ({leftover} dangling bytes)"
    );
    assert_eq!(
        stats.forced_closes, 0,
        "workers={workers}: drain had to force-close"
    );
    assert!(stats.clean, "workers={workers}: drain not clean: {stats:?}");
}

#[test]
fn drain_races_a_pipelined_burst_without_dropping_responses() {
    for workers in [1usize, 4] {
        for stagger_ms in [0u64, 2, 10] {
            race_once(workers, Duration::from_millis(stagger_ms));
        }
    }
}

/// Draining with no traffic at all is clean and immediate, and the
/// acceptor really stops: new connections are refused (or die unread)
/// after `shutdown()` returns.
#[test]
fn idle_drain_is_clean_and_stops_accepting() {
    let server = spawn(config(2));
    let addr = server.addr();
    let resp = synthattr::serve::client::request(addr, "GET", "/healthz", &[], b"")
        .expect("pre-drain healthz");
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("\"drain_state\":\"active\""));

    let stats = server.shutdown();
    assert_eq!(stats.forced_closes, 0);
    assert!(stats.clean);

    // The listener is gone with the server.
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut stream) => {
            // Connected to a dead address reuse at worst — no one
            // answers.
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .expect("timeout");
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = [0u8; 64];
            !matches!(stream.read(&mut buf), Ok(n) if n > 0)
        }
    };
    assert!(refused, "a drained server must not serve new connections");
}

/// Opens a connection and sends `head`, then waits until the server
/// has accepted it (its `opened` counter reaches `opened`).
fn connect_and_send(server: &RunningServer, head: &[u8], opened: u64) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(head).expect("partial head");
    let state = server.state();
    while state.conns().opened.load(Ordering::Relaxed) < opened {
        std::thread::sleep(Duration::from_millis(1));
    }
    stream
}

/// A slow-loris connection that reaches a worker first must not cost a
/// well-behaved client its in-flight request. With as many lorises as
/// workers parked ahead of it, a request completed 100 ms into the
/// drain still gets a complete 200 that closes the connection; the
/// lorises are cut at their header deadline, and the drain ends long
/// before its hard deadline with nothing force-closed.
#[test]
fn lorises_parked_ahead_do_not_cost_an_in_flight_request() {
    const HEAD: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: synthattr\r\n";
    for workers in [1usize, 2] {
        let mut config = config(workers);
        config.conn.header_deadline_ms = 500;
        let server = spawn(config);
        // Each loris sends a head without its final CRLF, then stalls.
        let lorises: Vec<TcpStream> = (1..=workers as u64)
            .map(|n| connect_and_send(&server, HEAD, n))
            .collect();
        let mut client = connect_and_send(&server, HEAD, workers as u64 + 1);
        client
            .set_read_timeout(Some(Duration::from_secs(15)))
            .expect("timeout");

        let state = server.state();
        let shutdown = std::thread::spawn(move || server.shutdown());
        while !state.drain().is_draining() {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(100));
        client.write_all(b"\r\n").expect("rest of the head");
        let mut reply = Vec::new();
        let mut buf = [0u8; 4096];
        let started = Instant::now();
        while let Ok(n @ 1..) = client.read(&mut buf) {
            reply.extend_from_slice(&buf[..n]);
        }
        let stats = shutdown.join().expect("shutdown");
        drop(lorises);

        let text = String::from_utf8_lossy(&reply);
        assert_eq!(
            parse_responses(&reply),
            (vec![200], 0),
            "workers={workers}: read {} bytes in {:?}: {text}",
            reply.len(),
            started.elapsed()
        );
        assert!(
            text.contains("\r\nConnection: close\r\n"),
            "workers={workers}: the final response announces the close: {text}"
        );
        assert_eq!(stats.forced_closes, 0, "workers={workers}: {stats:?}");
        assert!(stats.clean, "workers={workers}: {stats:?}");
        assert_eq!(stats.final_responses, 1, "workers={workers}: {stats:?}");
        assert!(
            stats.drain_ms < 3_000,
            "workers={workers}: the drain waited for its 10 s hard deadline: {stats:?}"
        );
    }
}
