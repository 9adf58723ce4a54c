//! End-to-end integration tests for `synthattr-serve`: a real server
//! on an ephemeral port, real TCP clients, and the load-bearing
//! invariant — served `/attribute` responses are **byte-identical** to
//! the offline pipeline's verdicts, at every worker count and client
//! concurrency in the matrix.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};

use synthattr::core::config::ExperimentConfig;
use synthattr::core::{year_oracle, Artifact};
use synthattr::serve::client::{request, Client};
use synthattr::serve::limit::RateConfig;
use synthattr::serve::server::{attribution_body, RunningServer, ServeConfig, Server};

const YEAR: u32 = 2018;

/// A handful of distinct sources inside the supported C++ subset.
fn sources() -> Vec<String> {
    (0..6)
        .map(|i| {
            format!(
                "int helper{i}(int x) {{ int y = x * {m}; return y + {i}; }}\n\
                 int main() {{ int acc = 0; for (int i = 0; i < {n}; i = i + 1) {{ acc = acc + helper{i}(i); }} return acc; }}\n",
                m = i + 2,
                n = (i + 3) * 2,
            )
        })
        .collect()
}

fn serve_config() -> ServeConfig {
    let mut config = ServeConfig::smoke();
    config.years = vec![YEAR];
    config.rate = None; // the matrix would trip a realistic limiter by design
    config.preload = true; // train before the clients stampede
    config
}

fn spawn(workers: usize) -> RunningServer {
    let mut config = serve_config();
    config.workers = Some(workers);
    Server::bind("127.0.0.1:0", config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

/// The offline half of the byte-identity check: train the same oracle
/// the registry trains, featurize the same sources, serialize with the
/// same writer.
fn offline_expected(sources: &[String]) -> BTreeMap<String, String> {
    let oracle = year_oracle(YEAR, &ExperimentConfig::smoke()).expect("offline oracle");
    sources
        .iter()
        .map(|src| {
            let artifact = Artifact::new(src.as_str());
            let features = artifact.features(oracle.extractor()).expect("featurize");
            let proba = oracle.forest().predict_proba(features);
            (src.clone(), attribution_body(YEAR, &proba))
        })
        .collect()
}

fn attribute(addr: SocketAddr, source: &str) -> String {
    let resp = request(
        addr,
        "POST",
        &format!("/attribute?year={YEAR}"),
        &[],
        source.as_bytes(),
    )
    .expect("attribute request");
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    resp.text().to_string()
}

#[test]
fn served_attribution_is_byte_identical_to_the_offline_pipeline() {
    let sources = sources();
    let expected = offline_expected(&sources);

    // worker counts × client counts: queueing, rotation, and cache
    // sharing change scheduling, never bytes.
    for workers in [1usize, 4] {
        let server = spawn(workers);
        let addr = server.addr();
        for clients in [1usize, 4] {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..clients {
                    scope.spawn(|| {
                        let mut client = Client::connect(addr).expect("connect");
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            // Each client walks the shared source list
                            // twice over, so identical sources arrive
                            // from different connections.
                            if i >= sources.len() * 2 {
                                return;
                            }
                            let src = &sources[i % sources.len()];
                            let resp = client
                                .request(
                                    "POST",
                                    &format!("/attribute?year={YEAR}"),
                                    &[],
                                    src.as_bytes(),
                                )
                                .expect("keep-alive attribute");
                            assert_eq!(resp.status, 200, "body: {}", resp.text());
                            assert_eq!(
                                resp.text(),
                                expected[src],
                                "workers={workers} clients={clients}: served bytes \
                                 diverged from the offline pipeline"
                            );
                        }
                    });
                }
            });
        }
        server.shutdown();
    }
}

#[test]
fn transform_chains_are_deterministic_across_server_instances() {
    let seed_code = "int main() { int value = 11; return value * 3; }";
    let run_one = || {
        let server = spawn(2);
        let resp = request(
            server.addr(),
            "POST",
            &format!("/transform?year={YEAR}&mode=ct&steps=3&seed=42"),
            &[],
            seed_code.as_bytes(),
        )
        .expect("transform request");
        assert_eq!(resp.status, 200, "body: {}", resp.text());
        let body = resp.text().to_string();
        server.shutdown();
        body
    };
    let first = run_one();
    let second = run_one();
    assert_eq!(
        first, second,
        "two fresh servers, same seed: same transformation chain"
    );
    assert!(first.contains("\"mode\":\"ct\""), "body: {first}");
}

#[test]
fn healthz_reflects_traffic_and_keep_alive_reuses_one_connection() {
    let server = spawn(2);
    let addr = server.addr();
    let sources = sources();

    // One keep-alive connection carries a whole conversation.
    let mut client = Client::connect(addr).expect("connect");
    for src in &sources {
        let resp = client
            .request(
                "POST",
                &format!("/attribute?year={YEAR}"),
                &[],
                src.as_bytes(),
            )
            .expect("keep-alive request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }
    // Same source again: a shared-cache hit must not change the bytes.
    let repeat = attribute(addr, &sources[0]);
    assert_eq!(repeat, offline_expected(&sources[..1])[&sources[0]]);

    let health = client
        .request("GET", "/healthz", &[], b"")
        .expect("healthz");
    assert_eq!(health.status, 200);
    let text = health.text();
    assert!(text.contains("\"status\":\"ok\""), "body: {text}");
    assert!(
        text.contains(&format!("\"loaded\":[{YEAR}]")),
        "body: {text}"
    );
    assert!(text.contains("\"hits\":"), "cache stats present: {text}");
    // Connection-survivability gauges: this keep-alive connection is
    // open (and being driven) right now, nothing has been drained.
    assert!(text.contains("\"drain_state\":\"active\""), "body: {text}");
    assert!(text.contains("\"connections_open\":"), "body: {text}");
    assert!(text.contains("\"connections_parked\":"), "body: {text}");
    assert!(
        text.contains("\"connection_closes\":{\"peer_closed\":"),
        "body: {text}"
    );

    let stats = server.shutdown();
    assert!(stats.clean, "quiet shutdown must drain clean: {stats:?}");
    assert_eq!(stats.forced_closes, 0, "stats: {stats:?}");
}

#[test]
fn rate_limited_clients_get_429_and_recover_identity_isolation() {
    let mut config = serve_config();
    config.rate = Some(RateConfig {
        burst: 2,
        per_second: 0,
    });
    config.workers = Some(2);
    let server = Server::bind("127.0.0.1:0", config)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = server.addr();
    let src = &sources()[0];

    let mut statuses = Vec::new();
    for _ in 0..3 {
        let resp = request(
            addr,
            "POST",
            &format!("/attribute?year={YEAR}"),
            &[("X-Client-Id", "greedy")],
            src.as_bytes(),
        )
        .expect("limited request");
        statuses.push(resp.status);
    }
    assert_eq!(statuses, vec![200, 200, 429]);

    // A distinct identity still has its full burst.
    let resp = request(
        addr,
        "POST",
        &format!("/attribute?year={YEAR}"),
        &[("X-Client-Id", "patient")],
        src.as_bytes(),
    )
    .expect("other identity");
    assert_eq!(resp.status, 200);
    server.shutdown();
}

#[test]
fn unknown_routes_and_bad_requests_fail_clean_over_tcp() {
    let server = spawn(1);
    let addr = server.addr();
    assert_eq!(request(addr, "GET", "/", &[], b"").unwrap().status, 404);
    assert_eq!(
        request(addr, "DELETE", "/attribute", &[], b"")
            .unwrap()
            .status,
        405
    );
    assert_eq!(
        request(addr, "POST", "/attribute?year=1848", &[], b"x")
            .unwrap()
            .status,
        404,
        "out-of-registry year"
    );
    assert_eq!(
        request(addr, "POST", "/attribute?year=2018", &[], b"\xff\xfe")
            .unwrap()
            .status,
        400,
        "non-utf8 body"
    );
    // The server survives all of that and still serves.
    let ok = attribute(addr, &sources()[0]);
    assert!(ok.contains("\"year\":2018"));
    server.shutdown();
}
