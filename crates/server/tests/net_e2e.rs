//! End-to-end tests for the event-loop front: keep-alive pipelining order
//! across hits, misses, errors and streamed `/sweep`s, partial-write
//! re-registration on single-shot and streamed answers, `/batch`
//! byte-identity against standalone requests and per-row crash isolation,
//! answers checked against the
//! in-process oracle, and pinned wire bytes for the 408/429 defenses.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use lis_server::http::{read_response, write_request};
use lis_server::wire::{obj, Json};
use lis_server::{parse_metric, Client, FaultPlan, RequestKind, Server, ServerConfig, ServerError};

/// The typed 408 a slow-loris peer receives (300 ms read deadline).
const PINNED_408: &str = "HTTP/1.1 408 Request Timeout\r\n\
    Content-Type: application/json\r\n\
    Content-Length: 115\r\n\
    Connection: close\r\n\
    \r\n\
    {\"error\":{\"kind\":\"slow_client\",\
    \"message\":\"request not received within the 300 ms read deadline\",\
    \"deadline_ms\":300}}";

/// The typed 429 a connection over the cap of 1 receives.
const PINNED_429: &str = "HTTP/1.1 429 Too Many Requests\r\n\
    Content-Type: application/json\r\n\
    Content-Length: 105\r\n\
    Connection: close\r\n\
    \r\n\
    {\"error\":{\"kind\":\"too_many_connections\",\
    \"message\":\"connection limit reached (1); retry later\",\
    \"limit\":1}}";

const FIG1: &str = "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n";

fn start(
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    JoinHandle<std::io::Result<lis_server::DrainReport>>,
) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.run()))
}

fn stop(addr: std::net::SocketAddr, daemon: JoinHandle<std::io::Result<lis_server::DrainReport>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    assert_eq!(client.shutdown().expect("shutdown request"), 200);
    daemon.join().expect("daemon thread").expect("clean exit");
}

fn envelope(netlist: &str) -> String {
    obj([("netlist", Json::str(netlist))]).to_string()
}

/// A Fig. 1 variant with a distinct relay-station count, so its cache key
/// differs from every other netlist used in this file.
fn variant(rs: u32) -> String {
    format!("block A\nblock B\nchannel A -> B rs={rs}\nchannel A -> B\n")
}

/// A small capacity grid: enough rows to span several chunk frames when
/// they are written 7 bytes at a time.
fn sweep_options() -> Json {
    obj([
        (
            "capacities",
            Json::Arr(vec![obj([
                ("channel", Json::Num(1.0)),
                (
                    "values",
                    Json::Arr((1..=4).map(|v| Json::Num(v as f64)).collect()),
                ),
            ])]),
        ),
        ("budget", Json::Num(2.0)),
    ])
}

fn sweep_envelope(netlist: &str) -> String {
    obj([
        ("netlist", Json::str(netlist)),
        ("options", sweep_options()),
    ])
    .to_string()
}

#[test]
fn pipelined_requests_answer_in_order_across_hits_misses_and_errors() {
    let (addr, daemon) = start(ServerConfig::default());

    // Warm /analyze and /qs for FIG1 and collect the expected bodies.
    let mut warm = Client::connect(addr).expect("connect");
    let hit_analyze = warm
        .request("POST", "/analyze", envelope(FIG1).as_bytes())
        .expect("warm analyze");
    let hit_qs = warm
        .request("POST", "/qs", envelope(FIG1).as_bytes())
        .expect("warm qs");
    let not_found = warm.request("GET", "/nope", b"").expect("404 probe");
    assert_eq!(hit_analyze.status, 200);
    assert_eq!(hit_qs.status, 200);
    assert_eq!(not_found.status, 404);

    // Four pipelined requests on one raw connection, written in a single
    // burst: cache hit, cold miss, routing error, cache hit.
    let cold = variant(3);
    let mut wire = Vec::new();
    write_request(&mut wire, "POST", "/analyze", envelope(FIG1).as_bytes()).unwrap();
    write_request(&mut wire, "POST", "/analyze", envelope(&cold).as_bytes()).unwrap();
    write_request(&mut wire, "GET", "/nope", b"").unwrap();
    write_request(&mut wire, "POST", "/qs", envelope(FIG1).as_bytes()).unwrap();

    let mut stream = TcpStream::connect(addr).expect("raw connect");
    stream.write_all(&wire).expect("write pipeline burst");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let responses: Vec<_> = (0..4)
        .map(|i| read_response(&mut reader).unwrap_or_else(|e| panic!("response {i}: {e}")))
        .collect();
    drop(reader);
    drop(stream);

    assert_eq!(
        responses.iter().map(|r| r.status).collect::<Vec<_>>(),
        vec![200, 200, 404, 200],
        "pipelined responses must arrive in request order"
    );
    assert_eq!(responses[0].body, hit_analyze.body);
    assert_eq!(responses[2].body, not_found.body);
    assert_eq!(responses[3].body, hit_qs.body);
    // The in-pipeline miss is now cached: a standalone repeat must be
    // byte-identical to what the pipeline answered.
    let repeat = warm
        .request("POST", "/analyze", envelope(&cold).as_bytes())
        .expect("repeat of the pipelined miss");
    assert_eq!(repeat.body, responses[1].body);

    // The loop observed the burst: depth histogram and wakeup counter moved.
    let exposition = warm.metrics().expect("metrics");
    assert!(parse_metric(&exposition, "lis_net_readiness_wakeups_total").unwrap_or(0.0) >= 1.0);
    assert!(parse_metric(&exposition, "lis_net_pipeline_depth_count").unwrap_or(0.0) >= 1.0);

    stop(addr, daemon);
}

/// The 400 a body that is not JSON receives.
const PINNED_JSON_400: &str = "{\"error\":{\"kind\":\"bad_request\",\
    \"message\":\"bad request: body: invalid JSON at byte 22: unterminated string\"}}";

/// The 400 a netlist naming an undeclared block receives.
const PINNED_NETLIST_400: &str = "{\"error\":{\"kind\":\"parse_error\",\
    \"message\":\"netlist line 3: unknown block \\\"Z\\\"\",\"line\":3}}";

/// Fig. 1's `/analyze` content address: the canonical hash and the request
/// token. Cache entries, store files and gateway routing are keyed on it.
const FIG1_ANALYZE_KEY: &str = "eaf1b589bf00fbb7-8704a6f604a17c5b";

/// Cold bodies reach a worker undecoded, so a malformed body's 400 is a
/// worker answer. Pipelined on one connection, [valid, malformed JSON,
/// netlist error, valid] still answer in request order, and the two 400s
/// carry the same bytes as when the event loop decoded bodies itself.
#[test]
fn pipelined_decode_errors_answer_in_order_with_pinned_bodies() {
    let (addr, daemon) = start(ServerConfig::default());
    let bodies = [
        envelope(FIG1),
        r#"{"netlist": "block A\n"#.to_string(),
        envelope("block A\nblock B\nchannel A -> Z\n"),
        envelope("block A\nblock B\nchannel A -> B rs=2\nchannel B -> A\n"),
    ];
    let mut wire = Vec::new();
    for body in &bodies {
        write_request(&mut wire, "POST", "/analyze", body.as_bytes()).unwrap();
    }
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    stream.write_all(&wire).expect("write pipeline burst");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let responses: Vec<_> = (0..bodies.len())
        .map(|i| read_response(&mut reader).unwrap_or_else(|e| panic!("response {i}: {e}")))
        .collect();
    drop(reader);
    drop(stream);

    assert_eq!(
        responses.iter().map(|r| r.status).collect::<Vec<_>>(),
        vec![200, 400, 400, 200],
        "pipelined responses must arrive in request order"
    );
    assert_eq!(
        std::str::from_utf8(&responses[1].body).unwrap(),
        PINNED_JSON_400
    );
    assert_eq!(
        std::str::from_utf8(&responses[2].body).unwrap(),
        PINNED_NETLIST_400
    );
    assert_eq!(
        responses[0].header("x-lis-cache-key"),
        Some(FIG1_ANALYZE_KEY)
    );
    for error in &responses[1..3] {
        assert_eq!(error.header("x-lis-cache-key"), None, "no content address");
    }
    // The valid answers are the daemon's: a standalone repeat, answered
    // from the cache, carries the same bytes.
    let mut client = Client::connect(addr).expect("connect");
    for i in [0, 3] {
        let repeat = client
            .request("POST", "/analyze", bodies[i].as_bytes())
            .expect("repeat");
        assert_eq!(repeat.body, responses[i].body, "request {i}");
    }
    // Each 400 was recorded once, under its route.
    let exposition = client.metrics().expect("metrics");
    assert!(
        exposition.contains("lis_requests_total{route=\"analyze\",status=\"400\"} 2\n"),
        "{exposition}"
    );
    stop(addr, daemon);
}

#[test]
fn short_writes_reregister_and_deliver_byte_identical_responses() {
    // Every response leaves the loop in 7-byte slices, forcing dozens of
    // partial writes and write-interest re-registrations per response.
    let (addr, daemon) = start(ServerConfig {
        faults: Some(Arc::new(FaultPlan::parse("write_chunk:7").expect("spec"))),
        ..ServerConfig::default()
    });
    let (plain_addr, plain_daemon) = start(ServerConfig::default());

    let mut chunked = Client::connect(addr).expect("connect chunked");
    let mut plain = Client::connect(plain_addr).expect("connect plain");
    for (route, body) in [
        ("/analyze", envelope(FIG1)),
        ("/qs", envelope(FIG1)),
        ("/dot", envelope(FIG1)),
        // Streamed: the head, every chunk frame and the terminator all
        // cross the partial-write path.
        ("/sweep", sweep_envelope(FIG1)),
    ] {
        let a = chunked
            .request("POST", route, body.as_bytes())
            .expect("chunked-front request");
        let b = plain
            .request("POST", route, body.as_bytes())
            .expect("plain-front request");
        assert_eq!(a.status, 200, "{route}");
        assert_eq!(a.status, b.status, "{route}");
        assert_eq!(a.body, b.body, "{route}: short writes must not corrupt");
    }

    stop(addr, daemon);
    stop(plain_addr, plain_daemon);
}

#[test]
fn batch_rows_are_byte_identical_to_standalone_responses() {
    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let analyze = client
        .request("POST", "/analyze", envelope(FIG1).as_bytes())
        .expect("standalone analyze");
    let qs = client
        .request("POST", "/qs", envelope(FIG1).as_bytes())
        .expect("standalone qs");
    let dot = client
        .request("POST", "/dot", envelope(FIG1).as_bytes())
        .expect("standalone dot");
    let hits_before =
        parse_metric(&client.metrics().expect("metrics"), "lis_cache_hits_total").unwrap_or(0.0);

    let qs_line = {
        let mut line = envelope(FIG1);
        line.insert_str(1, "\"route\": \"qs\", ");
        line
    };
    let dot_line = {
        let mut line = envelope(FIG1);
        line.insert_str(1, "\"route\": \"dot\", ");
        line
    };
    let ndjson = format!(
        "{}\n{}\n{}\nnot json at all\n{{\"route\": \"shutdown\"}}\n",
        envelope(FIG1),
        qs_line,
        dot_line,
    );
    let batch = client
        .request("POST", "/batch", ndjson.as_bytes())
        .expect("batch");
    assert_eq!(batch.status, 200);
    let text = String::from_utf8(batch.body.clone()).expect("utf-8 NDJSON");
    let rows: Vec<&str> = text.lines().collect();
    assert_eq!(rows.len(), 5, "one response row per request line");
    assert_eq!(rows[0].as_bytes(), &analyze.body[..]);
    assert_eq!(rows[1].as_bytes(), &qs.body[..]);
    assert_eq!(rows[2].as_bytes(), &dot.body[..]);
    assert!(
        rows[3].contains("error"),
        "malformed line answers an error row"
    );
    assert!(
        rows[4].contains("not batchable"),
        "control-plane routes are refused per row"
    );

    // The analysis rows were served from the cache (they repeat the
    // standalone requests), and a repeat of the whole batch is both
    // byte-identical and fully cached.
    let repeat = client
        .request("POST", "/batch", ndjson.as_bytes())
        .expect("batch repeat");
    assert_eq!(repeat.body, batch.body);
    let hits_after =
        parse_metric(&client.metrics().expect("metrics"), "lis_cache_hits_total").unwrap_or(0.0);
    assert!(
        hits_after >= hits_before + 6.0,
        "batch analysis rows must hit the cache ({hits_before} -> {hits_after})"
    );

    stop(addr, daemon);
}

/// A batch row whose solve panics answers the typed 500 row while the rest
/// of the batch carries on: the crash is caught per row, so no worker dies,
/// and the row is not cached, so the same batch answers it once the fault
/// has passed.
#[test]
fn a_crashed_batch_row_answers_500_and_is_not_cached() {
    let (addr, daemon) = start(ServerConfig {
        faults: Some(Arc::new(FaultPlan::parse("burst:1").expect("fault spec"))),
        ..ServerConfig::default()
    });
    let (plain_addr, plain_daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let mut plain = Client::connect(plain_addr).expect("connect plain");

    let lines = [envelope(&variant(11)), envelope(&variant(12)), {
        let mut line = envelope(&variant(13));
        line.insert_str(1, "\"route\": \"qs\", ");
        line
    }];
    let standalone: Vec<Vec<u8>> = [("/analyze", variant(12)), ("/qs", variant(13))]
        .iter()
        .map(|(route, netlist)| {
            let r = plain
                .request("POST", route, envelope(netlist).as_bytes())
                .expect("standalone request");
            assert_eq!(r.status, 200);
            r.body
        })
        .collect();
    let ndjson = format!("{}\n", lines.join("\n"));

    let batch = client
        .request("POST", "/batch", ndjson.as_bytes())
        .expect("batch");
    assert_eq!(batch.status, 200);
    let text = String::from_utf8(batch.body).expect("utf-8 NDJSON");
    let rows: Vec<&str> = text.lines().collect();
    assert_eq!(rows.len(), 3, "one response row per request line");
    assert_eq!(
        rows[0],
        ServerError::WorkerCrashed.to_json().to_string(),
        "the first solve takes the injected panic"
    );
    assert_eq!(rows[1].as_bytes(), &standalone[0][..]);
    assert_eq!(rows[2].as_bytes(), &standalone[1][..]);
    let exposition = client.metrics().expect("metrics");
    assert_eq!(
        parse_metric(&exposition, "lis_worker_panics_total"),
        Some(0.0),
        "a row crash is isolated inside the batch job"
    );

    let repeat = client
        .request("POST", "/batch", ndjson.as_bytes())
        .expect("batch repeat");
    let text = String::from_utf8(repeat.body).expect("utf-8 NDJSON");
    let first = text.lines().next().expect("first row");
    let solved = Json::parse(first).expect("row 0 is JSON");
    assert!(
        solved.get("error").is_none(),
        "the crashed row was not cached: {first}"
    );
    let analyze = plain
        .request("POST", "/analyze", lines[0].as_bytes())
        .expect("standalone row 0");
    assert_eq!(first.as_bytes(), &analyze.body[..]);

    stop(addr, daemon);
    stop(plain_addr, plain_daemon);
}

#[test]
fn pipelined_sweep_streams_in_order_and_matches_its_cached_replay() {
    let (addr, daemon) = start(ServerConfig::default());

    // Cold analysis, cold sweep, cold analysis — one burst on one socket.
    // The trailing /analyze may finish on the pool before the sweep does;
    // its answer must still wait for the sweep's last chunk.
    let (before, after) = (variant(5), variant(6));
    let mut wire = Vec::new();
    write_request(&mut wire, "POST", "/analyze", envelope(&before).as_bytes()).unwrap();
    write_request(&mut wire, "POST", "/sweep", sweep_envelope(FIG1).as_bytes()).unwrap();
    write_request(&mut wire, "POST", "/analyze", envelope(&after).as_bytes()).unwrap();
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    stream.write_all(&wire).expect("write pipeline burst");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let responses: Vec<_> = (0..3)
        .map(|i| read_response(&mut reader).unwrap_or_else(|e| panic!("response {i}: {e}")))
        .collect();
    drop(reader);
    drop(stream);

    assert_eq!(
        responses.iter().map(|r| r.status).collect::<Vec<_>>(),
        vec![200, 200, 200]
    );
    assert_eq!(
        responses[1].header("transfer-encoding"),
        Some("chunked"),
        "a cold sweep streams"
    );
    assert_eq!(
        responses[1].header("content-type"),
        Some("application/x-ndjson")
    );
    let mut client = Client::connect(addr).expect("connect");
    for (i, netlist) in [(0, &before), (2, &after)] {
        let repeat = client
            .request("POST", "/analyze", envelope(netlist).as_bytes())
            .expect("analyze repeat");
        assert_eq!(repeat.body, responses[i].body, "response {i} out of order");
    }
    // The repeat is a cache replay with Content-Length framing; the bytes
    // must equal what the pipelined stream delivered.
    let replay = client
        .request("POST", "/sweep", sweep_envelope(FIG1).as_bytes())
        .expect("sweep replay");
    assert_eq!(replay.status, 200);
    assert!(
        replay.header("content-length").is_some(),
        "replays are framed"
    );
    assert_eq!(replay.body, responses[1].body);
    assert_eq!(
        replay.header("x-lis-cache-key"),
        responses[1].header("x-lis-cache-key")
    );

    // Both sweeps ran through the pool's accounting and freed their slot.
    let exposition = client.metrics().expect("metrics");
    assert_eq!(parse_metric(&exposition, "lis_sweep_jobs_total"), Some(2.0));
    let health = client.request("GET", "/healthz", b"").expect("healthz");
    let health = Json::parse(std::str::from_utf8(&health.body).unwrap()).expect("json");
    assert_eq!(health.get("sweeps_in_flight").unwrap().as_u64(), Some(0));

    stop(addr, daemon);
}

/// What the daemon must answer for one request, computed in-process with
/// no server in the loop: the request decoder plus the job executor, and
/// the typed error taxonomy for everything else.
fn oracle(method: &str, route: &str, body: &str) -> (u16, Vec<u8>) {
    let result = match (method, route) {
        ("POST", "/analyze" | "/qs" | "/insert" | "/dot") => Json::parse(body)
            .map_err(|e| ServerError::BadRequest(format!("body: {e}")))
            .and_then(|envelope| RequestKind::decode(&route[1..], &envelope))
            .and_then(|(netlist, kind)| kind.execute(&lis_core::parse_netlist(&netlist)?)),
        (_, "/analyze" | "/qs" | "/insert" | "/dot") => Err(ServerError::MethodNotAllowed),
        _ => Err(ServerError::NotFound(route.to_string())),
    };
    match result {
        Ok(json) => (200, json.to_string().into_bytes()),
        Err(e) => (e.status(), e.to_json().to_string().into_bytes()),
    }
}

#[test]
fn answers_match_the_in_process_oracle() {
    let (addr, daemon) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    for (method, route, body) in [
        ("POST", "/analyze", envelope(FIG1)),
        ("POST", "/analyze", envelope(&variant(2))),
        ("POST", "/qs", envelope(FIG1)),
        ("POST", "/dot", envelope(FIG1)),
        ("POST", "/insert", envelope(FIG1)),
        (
            "POST",
            "/analyze",
            "{\"netlist\": \"not a netlist\"}".to_string(),
        ),
        ("GET", "/nope", String::new()),
        ("PUT", "/analyze", String::new()),
    ] {
        let expected = oracle(method, route, &body);
        // Twice: the cold answer and its cache replay.
        for pass in ["cold", "cached"] {
            let r = client
                .request(method, route, body.as_bytes())
                .unwrap_or_else(|e| panic!("{method} {route}: {e}"));
            assert_eq!(r.status, expected.0, "{method} {route} ({pass})");
            assert_eq!(
                String::from_utf8_lossy(&r.body),
                String::from_utf8_lossy(&expected.1),
                "{method} {route} ({pass})"
            );
        }
    }
    stop(addr, daemon);
}

/// Reads everything until the peer closes, for defense responses that
/// force-close the connection.
fn read_to_close(stream: &mut TcpStream) -> Vec<u8> {
    let mut bytes = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let _ = stream.read_to_end(&mut bytes);
    bytes
}

#[test]
fn slow_client_gets_the_pinned_408_bytes() {
    let (addr, daemon) = start(ServerConfig {
        read_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A request head that never completes: the deadline must answer 408.
    stream
        .write_all(b"POST /analyze HTTP/1.1\r\ncontent-length: 5\r\n")
        .expect("partial head");
    let bytes = read_to_close(&mut stream);
    stop(addr, daemon);
    assert_eq!(String::from_utf8_lossy(&bytes), PINNED_408);
}

#[test]
fn connection_over_the_cap_gets_the_pinned_429_bytes() {
    let (addr, daemon) = start(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    // Occupy the only slot with a completed request so the connection is
    // definitely counted before the second one arrives.
    let mut holder = Client::connect(addr).expect("first connection");
    let r = holder
        .request("POST", "/analyze", envelope(FIG1).as_bytes())
        .expect("holder request");
    assert_eq!(r.status, 200);
    let mut rejected = TcpStream::connect(addr).expect("second connection");
    let bytes = read_to_close(&mut rejected);
    drop(holder);
    // The freed slot is reclaimed asynchronously; retry the shutdown until
    // the admin connection is admitted.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut admin = Client::connect(addr).expect("connect for shutdown");
        match admin.shutdown() {
            Ok(200) => break,
            answer if std::time::Instant::now() < deadline => {
                drop(admin);
                std::thread::sleep(Duration::from_millis(20));
                let _ = answer;
            }
            answer => panic!("shutdown kept being rejected: {answer:?}"),
        }
    }
    daemon.join().expect("daemon thread").expect("clean exit");
    assert_eq!(String::from_utf8_lossy(&bytes), PINNED_429);
}
