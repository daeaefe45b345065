//! Route-table contract of both network daemons, in process.
//!
//! For every route path plus one unknown path, `GET`, `POST` and `PUT`
//! against a `lis-server` and against a `lis-gateway` joined to it answer
//! the pinned status and body (`POST /shutdown` last). A known path with
//! the wrong method is 405 and an unknown path is 404. The gateway forwards
//! the analysis and sweep routes, answers `/metrics`, `/healthz` and
//! `/shutdown` itself, and answers 404 to `/batch` and `/store/*` for every
//! method. The server's `lis_requests_total` series are pinned as well, so
//! the route each request is counted under cannot drift either.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

use lis_gateway::{Backends, Gateway, GatewayConfig};
use lis_server::{Client, Server, ServerConfig};

const NOT_ALLOWED: &str =
    r#"{"error":{"kind":"method_not_allowed","message":"method not allowed on this route"}}"#;
const EMPTY_ENVELOPE: &str = r#"{"error":{"kind":"bad_request","message":"bad request: body: invalid JSON at byte 0: unexpected end of input"}}"#;
const EMPTY_BATCH: &str = r#"{"error":{"kind":"bad_request","message":"bad request: batch body must be NDJSON: one request envelope per line"}}"#;
const EMPTY_STORE_GET: &str = r#"{"error":{"kind":"bad_request","message":"bad request: store body must be {\"key\":\"<32-hex>\"}"}}"#;
const EMPTY_STORE_PUT: &str = r#"{"error":{"kind":"bad_request","message":"bad request: store body must be {\"key\":\"<32-hex>\",\"status\":N,\"body\":\"...\"}"}}"#;
const DRAINING: &str = r#"{"ok":true,"draining":true}"#;

/// What one `(method, path)` must answer.
#[derive(Clone, Copy)]
enum Want {
    /// This status and exactly this body.
    Is(u16, &'static str),
    /// This status and a body starting with this prefix (the rest is live
    /// state: counters, uptime, addresses).
    Starts(u16, &'static str),
    /// 404 naming the path.
    NotFound,
}

const fn row(path: &'static str, get: Want, post: Want, put: Want) -> (&'static str, [Want; 3]) {
    (path, [get, post, put])
}

const METHODS: [&str; 3] = ["GET", "POST", "PUT"];
const WRONG: Want = Want::Is(405, NOT_ALLOWED);
const ABSENT: [Want; 3] = [Want::NotFound; 3];

/// The server's answers to empty-bodied requests, `POST /shutdown` last.
const SERVER: [(&str, [Want; 3]); 13] = [
    row("/analyze", WRONG, Want::Is(400, EMPTY_ENVELOPE), WRONG),
    row("/qs", WRONG, Want::Is(400, EMPTY_ENVELOPE), WRONG),
    row("/insert", WRONG, Want::Is(400, EMPTY_ENVELOPE), WRONG),
    row("/dot", WRONG, Want::Is(400, EMPTY_ENVELOPE), WRONG),
    row("/sweep", WRONG, Want::Is(400, EMPTY_ENVELOPE), WRONG),
    row("/batch", WRONG, Want::Is(400, EMPTY_BATCH), WRONG),
    row(
        "/metrics",
        Want::Starts(200, "# TYPE lis_requests_total counter\n"),
        WRONG,
        WRONG,
    ),
    row(
        "/healthz",
        Want::Starts(
            200,
            r#"{"ok":true,"role":"server","engine":"howard","workers":"#,
        ),
        WRONG,
        WRONG,
    ),
    row("/store/index", Want::Is(200, ""), WRONG, WRONG),
    row("/store/get", WRONG, Want::Is(400, EMPTY_STORE_GET), WRONG),
    row("/store/put", WRONG, Want::Is(400, EMPTY_STORE_PUT), WRONG),
    ("/nope", ABSENT),
    row("/shutdown", WRONG, Want::Is(200, DRAINING), WRONG),
];

/// The gateway's answers: analysis routes relay the shard's bytes.
const GATEWAY: [(&str, [Want; 3]); 13] = [
    row("/analyze", WRONG, Want::Is(400, EMPTY_ENVELOPE), WRONG),
    row("/qs", WRONG, Want::Is(400, EMPTY_ENVELOPE), WRONG),
    row("/insert", WRONG, Want::Is(400, EMPTY_ENVELOPE), WRONG),
    row("/dot", WRONG, Want::Is(400, EMPTY_ENVELOPE), WRONG),
    row("/sweep", WRONG, Want::Is(400, EMPTY_ENVELOPE), WRONG),
    ("/batch", ABSENT),
    row(
        "/metrics",
        Want::Starts(200, "# TYPE lis_gateway_requests_total counter\n"),
        WRONG,
        WRONG,
    ),
    row(
        "/healthz",
        Want::Starts(200, r#"{"ok":true,"role":"gateway","shard_count":1,"#),
        WRONG,
        WRONG,
    ),
    ("/store/index", ABSENT),
    ("/store/get", ABSENT),
    ("/store/put", ABSENT),
    ("/nope", ABSENT),
    row("/shutdown", WRONG, Want::Is(200, DRAINING), WRONG),
];

/// The server's `lis_requests_total` series after one pass over [`SERVER`]
/// without the shutdown, plus one more scrape: 404s and 405s count as
/// `other`, the three `/store/*` routes as `store`.
const SERVER_REQUESTS: &str = "\
    lis_requests_total{route=\"analyze\",status=\"400\"} 1\n\
    lis_requests_total{route=\"qs\",status=\"400\"} 1\n\
    lis_requests_total{route=\"insert\",status=\"400\"} 1\n\
    lis_requests_total{route=\"dot\",status=\"400\"} 1\n\
    lis_requests_total{route=\"sweep\",status=\"400\"} 1\n\
    lis_requests_total{route=\"batch\",status=\"400\"} 1\n\
    lis_requests_total{route=\"metrics\",status=\"200\"} 1\n\
    lis_requests_total{route=\"healthz\",status=\"200\"} 1\n\
    lis_requests_total{route=\"store\",status=\"200\"} 1\n\
    lis_requests_total{route=\"store\",status=\"400\"} 2\n\
    lis_requests_total{route=\"other\",status=\"404\"} 3\n\
    lis_requests_total{route=\"other\",status=\"405\"} 24\n\
";

/// Sends every request of `table` but `POST /shutdown`, which
/// [`shut_down`] sends last.
fn check(addr: SocketAddr, daemon: &str, table: &[(&str, [Want; 3])]) {
    let mut client = Client::connect(addr).expect("connect");
    for (path, wants) in table {
        for (method, want) in METHODS.iter().zip(wants) {
            if (*path, *method) == ("/shutdown", "POST") {
                continue;
            }
            let r = client
                .request(method, path, b"")
                .unwrap_or_else(|e| panic!("{daemon} {method} {path}: {e}"));
            let body = String::from_utf8(r.body).expect("UTF-8 body");
            let what = format!("{daemon} {method} {path}");
            match *want {
                Want::Is(status, expected) => {
                    assert_eq!((r.status, body.as_str()), (status, expected), "{what}");
                }
                Want::Starts(status, prefix) => {
                    assert_eq!(r.status, status, "{what}");
                    assert!(body.starts_with(prefix), "{what}: {body}");
                }
                Want::NotFound => {
                    let expected = format!(
                        r#"{{"error":{{"kind":"not_found","message":"no such route \"{path}\""}}}}"#
                    );
                    assert_eq!((r.status, body), (404, expected), "{what}");
                }
            }
        }
    }
}

fn shut_down<T>(addr: SocketAddr, daemon: JoinHandle<std::io::Result<T>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    let r = client.request("POST", "/shutdown", b"").expect("shutdown");
    assert_eq!(
        (r.status, String::from_utf8(r.body).expect("UTF-8").as_str()),
        (200, DRAINING)
    );
    daemon.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn server_and_gateway_answer_every_route_and_method_as_pinned() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind server");
    let server_addr = server.local_addr().expect("server addr");
    let server_daemon = std::thread::spawn(move || server.run());
    check(server_addr, "server", &SERVER);
    let exposition = Client::connect(server_addr)
        .expect("connect")
        .metrics()
        .expect("scrape");
    let requests: String = exposition
        .lines()
        .filter(|l| l.starts_with("lis_requests_total"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(requests, SERVER_REQUESTS);

    // Hedging and replication off: every forward is one plain shard hop.
    let gateway = Gateway::bind(
        "127.0.0.1:0",
        Backends::Join(vec![server_addr]),
        GatewayConfig {
            hedge: None,
            replicate: false,
            probe_interval: Duration::from_millis(50),
            ..GatewayConfig::default()
        },
    )
    .expect("bind gateway");
    let gateway_addr = gateway.local_addr().expect("gateway addr");
    let gateway_daemon = std::thread::spawn(move || gateway.run());
    check(gateway_addr, "gateway", &GATEWAY);
    shut_down(gateway_addr, gateway_daemon);
    shut_down(server_addr, server_daemon);
}
