//! Robustness properties for the HTTP surface, in two tiers:
//!
//! 1. **Pure parser totality** — `read_request` over in-memory byte
//!    soup, mutated valid requests, and adversarially-shaped inputs:
//!    every outcome is `Ok` or a typed `HttpError`, never a panic.
//! 2. **Live server survival** — the same input classes thrown at a
//!    real listener over TCP: malformed traffic maps to 4xx or a clean
//!    close (slow-loris times out within the configured bound), and
//!    the server keeps serving well-formed requests afterwards.
//!
//! A model-free registry config keeps these fast: malformed requests
//! never reach a handler, so no forest is ever trained.

use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use synthattr_serve::http::{read_request, Limits};
use synthattr_serve::server::{RunningServer, ServeConfig, Server};
use synthattr_util::prop::{gen, Runner};
use synthattr_util::{prop_assert, Pcg64};

// ---------------------------------------------------------------- tier 1

/// Parsing arbitrary bytes is total: some `Ok`, some typed error, no
/// panic (the prop runner converts panics into failures).
#[test]
fn parser_is_total_over_byte_soup() {
    Runner::new("http-byte-soup").cases(512).run(
        |rng| gen::any_string(rng, 512).into_bytes(),
        |bytes| {
            let mut cursor = Cursor::new(bytes.as_slice());
            let _ = read_request(&mut cursor, &Limits::default());
            Ok(())
        },
    );
}

/// Structured soup: line-oriented garbage that *looks* like HTTP —
/// methods, targets, versions, header-ish lines — in random order.
#[test]
fn parser_is_total_over_http_shaped_fragments() {
    let fragments = [
        "GET / HTTP/1.1\r\n",
        "POST /attribute?year=2018 HTTP/1.1\r\n",
        "get / http/1.1\r\n",
        "GET  /  HTTP/1.1\r\n",
        "GET / HTTP/2.0\r\n",
        "/ GET HTTP/1.1\r\n",
        "Content-Length: 5\r\n",
        "Content-Length: -1\r\n",
        "Content-Length: 99999999999999999999\r\n",
        "Transfer-Encoding: chunked\r\n",
        ": empty name\r\n",
        "No-Colon-Header\r\n",
        "Connection: keep-alive\r\n",
        "Connection: close\r\n",
        "\r\n",
        "\n",
        "body bytes",
        "\0\0\0\0",
    ];
    Runner::new("http-fragment-soup").cases(512).run(
        |rng| {
            gen::vec_of(rng, 12, |rng| gen::select(rng, &fragments))
                .concat()
                .into_bytes()
        },
        |bytes| {
            let mut cursor = Cursor::new(bytes.as_slice());
            // Drain the whole stream the way a keep-alive loop would.
            for _ in 0..16 {
                match read_request(&mut cursor, &Limits::default()) {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
            Ok(())
        },
    );
}

/// Truncating a valid request at any byte boundary yields a clean
/// outcome: a parsed request (cut fell after it), a clean EOF, or a
/// typed error — never a panic or a bogus parse.
#[test]
fn truncation_at_every_boundary_is_handled() {
    let valid =
        b"POST /attribute?year=2018 HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nint main(){";
    Runner::new("http-truncation").cases(256).run(
        |rng| rng.next_below(valid.len() + 1),
        |&cut| {
            let mut cursor = Cursor::new(&valid[..cut]);
            match read_request(&mut cursor, &Limits::default()) {
                Ok(Some(req)) => {
                    prop_assert!(
                        cut == valid.len() && req.body == b"int main(){",
                        "a parse can only succeed on the full request (cut={cut})"
                    );
                }
                Ok(None) => prop_assert!(cut == 0, "clean EOF only on empty input"),
                Err(e) => prop_assert!(e.status() == 0 || e.status() >= 400),
            }
            Ok(())
        },
    );
}

/// Flipping one byte of a valid request never panics the parser, and
/// every reported error carries a 4xx/5xx status or a close condition.
#[test]
fn single_byte_mutations_never_panic() {
    let valid = b"POST /attribute?year=2018&mode=x HTTP/1.1\r\nHost: srv\r\nX-Client-Id: abc\r\nContent-Length: 4\r\n\r\nwxyz".to_vec();
    Runner::new("http-mutation").cases(512).run(
        move |rng| {
            let mut bytes = valid.clone();
            let at = rng.next_below(bytes.len());
            bytes[at] = rng.next_below(256) as u8;
            bytes
        },
        |bytes| {
            let mut cursor = Cursor::new(bytes.as_slice());
            if let Err(e) = read_request(&mut cursor, &Limits::default()) {
                prop_assert!(
                    e.status() == 0 || (400..=599).contains(&e.status()),
                    "error must map to a close or an HTTP status, got {}",
                    e.status()
                );
            }
            Ok(())
        },
    );
}

/// Oversized inputs along every limited dimension map to their
/// specific statuses.
#[test]
fn oversize_maps_to_the_right_status() {
    let limits = Limits {
        max_request_line: 64,
        max_header_line: 64,
        max_headers: 4,
        max_body: 128,
    };
    Runner::new("http-oversize").cases(128).run(
        |rng| (rng.next_below(4), 1 + rng.next_below(64)),
        |&(kind, extra)| {
            let raw = match kind {
                0 => format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 + extra)),
                1 => format!(
                    "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
                    "b".repeat(64 + extra)
                ),
                2 => {
                    let headers: String =
                        (0..5 + extra % 8).map(|i| format!("H{i}: v\r\n")).collect();
                    format!("GET / HTTP/1.1\r\n{headers}\r\n")
                }
                _ => format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 128 + extra),
            };
            let mut cursor = Cursor::new(raw.as_bytes());
            let err =
                read_request(&mut cursor, &limits).expect_err("oversized input must be rejected");
            let want = [414, 431, 431, 413][kind];
            prop_assert!(
                err.status() == want,
                "kind {kind}: want {want}, got {}",
                err.status()
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------- tier 2

/// A registry-configured but never-trained server: malformed traffic
/// is rejected before any handler runs, so these spin up in
/// milliseconds. Short progress deadlines keep the slow-loris test
/// fast.
fn hardened_server() -> RunningServer {
    let mut config = ServeConfig::smoke();
    config.years = vec![2018];
    config.workers = Some(2);
    config.conn = synthattr_serve::ConnPolicy {
        header_deadline_ms: 150,
        body_deadline_ms: 150,
        write_stall_ms: 500,
        idle_budget_ms: 2_000,
        ..synthattr_serve::ConnPolicy::default()
    };
    config.limits = Limits {
        max_request_line: 1024,
        max_header_line: 1024,
        max_headers: 16,
        max_body: 4096,
    };
    Server::bind("127.0.0.1:0", config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

/// Sends raw bytes, optionally half-closes, and drains whatever the
/// server answers until it closes or `deadline` passes.
fn exchange_raw(server: &RunningServer, payload: &[u8], shutdown_write: bool) -> Vec<u8> {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let _ = stream.write_all(payload);
    let _ = stream.flush();
    if shutdown_write {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
        }
    }
}

fn assert_alive(server: &RunningServer) {
    let resp = synthattr_serve::client::request(server.addr(), "GET", "/healthz", &[], b"")
        .expect("healthz after abuse");
    assert_eq!(resp.status, 200, "server must keep serving after abuse");
}

/// Byte soup over real TCP: the server answers with a 4xx or closes,
/// never hangs, and stays alive for the next client.
#[test]
fn live_server_survives_byte_soup() {
    let server = hardened_server();
    let mut rng = Pcg64::new(0xB1_7E50 + 7);
    for _ in 0..48 {
        let payload = gen::any_string(&mut rng, 768).into_bytes();
        let reply = exchange_raw(&server, &payload, true);
        if !reply.is_empty() {
            let head = String::from_utf8_lossy(&reply);
            assert!(
                head.starts_with("HTTP/1.1 4") || head.starts_with("HTTP/1.1 5"),
                "soup must map to an error status, got: {head:.60}"
            );
        }
    }
    assert_alive(&server);
    server.shutdown();
}

/// Oversized request lines and headers get their 414/431 over the
/// wire and the connection closes.
#[test]
fn live_server_rejects_oversized_requests() {
    let server = hardened_server();
    let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "u".repeat(4096));
    let reply = exchange_raw(&server, long_target.as_bytes(), false);
    assert!(
        String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 414"),
        "got: {}",
        String::from_utf8_lossy(&reply)
    );

    let fat_header = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "h".repeat(4096)
    );
    let reply = exchange_raw(&server, fat_header.as_bytes(), false);
    assert!(
        String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 431"),
        "got: {}",
        String::from_utf8_lossy(&reply)
    );
    assert_alive(&server);
    server.shutdown();
}

/// A defective line followed by an over-limit one is a 400 for the
/// defect, not a 431 for the later oversize: the server reports the
/// first defect in wire order, whether or not the over-limit line has
/// ended.
#[test]
fn live_server_reports_the_first_defect_in_wire_order() {
    let server = hardened_server();
    let headers: String = (0..20).map(|i| format!("X-H{i}: v\r\n")).collect();
    for payload in [
        format!("GET / HTTP/1.1\r\nnocolon\r\nX: {}", "b".repeat(2048)),
        format!("get / http/1.1\r\n{headers}"),
        format!("GET / HTTP/1.1\r\nbad name: v\r\n{headers}"),
    ] {
        let reply = exchange_raw(&server, payload.as_bytes(), false);
        assert!(
            String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 400"),
            "{:?} got: {}",
            &payload[..24],
            String::from_utf8_lossy(&reply)
        );
    }
    assert_alive(&server);
    server.shutdown();
}

/// A truncated body (Content-Length promises more than arrives) is a
/// 400, not a hang.
#[test]
fn live_server_rejects_truncated_bodies() {
    let server = hardened_server();
    let reply = exchange_raw(
        &server,
        b"POST /attribute?year=2018 HTTP/1.1\r\nContent-Length: 500\r\n\r\nshort",
        true,
    );
    assert!(
        String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 400"),
        "got: {}",
        String::from_utf8_lossy(&reply)
    );
    assert_alive(&server);
    server.shutdown();
}

/// Slow-loris: a client that sends half a request line and stalls is
/// cut off by the header progress deadline — bounded wall-clock, and
/// because workers rotate instead of camping, no thread is lost.
#[test]
fn live_server_times_out_slow_loris_clients() {
    let server = hardened_server();
    let started = Instant::now();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(b"GET /heal").expect("drip");
    // Stall. The server's 150 ms header deadline must fire long before
    // our own 10 s guard.
    let mut buf = [0u8; 1024];
    let mut reply = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
        }
    }
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(5),
        "loris connection must be cut near the 150 ms timeout, waited {waited:?}"
    );
    if !reply.is_empty() {
        assert!(
            String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 408"),
            "got: {}",
            String::from_utf8_lossy(&reply)
        );
    }
    assert_alive(&server);
    server.shutdown();
}

/// Pipelined requests on one connection each get exactly one response,
/// in order.
#[test]
fn live_server_answers_pipelined_requests_in_order() {
    let server = hardened_server();
    let reply = exchange_raw(
        &server,
        b"GET /healthz HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        false,
    );
    let text = String::from_utf8_lossy(&reply);
    let statuses: Vec<&str> = text
        .split("HTTP/1.1 ")
        .skip(1)
        .map(|chunk| &chunk[..3])
        .collect();
    assert_eq!(
        statuses,
        vec!["200", "404", "200"],
        "three pipelined requests, three ordered responses: {text:.200}"
    );

    // More requests than one slice serves, all buffered by the first
    // read: a slice cut short goes straight back to a worker, because
    // the socket never turns readable again. Parking it instead would
    // wait out the 2 s idle budget once per slice.
    let mut burst: Vec<u8> = b"GET /healthz HTTP/1.1\r\n\r\n".repeat(99);
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    let started = Instant::now();
    let reply = exchange_raw(&server, &burst, false);
    let elapsed = started.elapsed();
    let text = String::from_utf8_lossy(&reply);
    let statuses: Vec<&str> = text
        .split("HTTP/1.1 ")
        .skip(1)
        .map(|chunk| &chunk[..3])
        .collect();
    assert_eq!(statuses, vec!["200"; 100], "100 ordered 200s");
    assert!(
        elapsed < Duration::from_secs(1),
        "100 pipelined requests took {elapsed:?}"
    );
    server.shutdown();
}
