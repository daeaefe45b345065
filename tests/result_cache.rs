//! The result cache's contract, against a real daemon in process.
//!
//! The daemon keeps one cache with two indexes: by canonical content and by
//! exact request bytes (an entry's alias, written on its first repeat). From
//! the outside the two must be indistinguishable: every repeat answers the
//! bytes and the `X-LIS-Cache-Key` of the first computation, counts one
//! cache hit, and never crosses routes; evicting an entry forgets its alias.
//!
//! Only the exact-bytes probe runs on the event loop. Decoding, the
//! canonical probe and the alias write run on a pool worker, so under a
//! full queue aliased bytes still answer while new bytes are shed, even
//! when they would hit the canonical index.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use lis_server::wire::{obj, Json};
use lis_server::{parse_metric, Client, DrainReport, FaultPlan, Server, ServerConfig};

const FIG1: &str = "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n";
const RING: &str =
    "block A\nblock B\nblock C\nchannel A -> B rs=2\nchannel B -> C\nchannel C -> A\n";

struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<DrainReport>>,
}

fn start(cache_capacity: usize) -> Daemon {
    start_with(ServerConfig {
        cache_capacity,
        ..ServerConfig::default()
    })
}

fn start_with(config: ServerConfig) -> Daemon {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");
    Daemon {
        addr,
        thread: std::thread::spawn(move || server.run()),
    }
}

fn stop(daemon: Daemon) {
    let mut client = Client::connect(daemon.addr).expect("connect for shutdown");
    assert_eq!(client.shutdown().expect("shutdown"), 200);
    daemon
        .thread
        .join()
        .expect("daemon thread")
        .expect("clean exit");
}

fn body(netlist: &str) -> Vec<u8> {
    obj([("netlist", Json::str(netlist))])
        .to_string()
        .into_bytes()
}

/// Status, `X-LIS-Cache-Key` and body of one request.
fn post(client: &mut Client, path: &str, body: &[u8]) -> (u16, String, Vec<u8>) {
    let r = client.request("POST", path, body).expect("request");
    let key = r.header("x-lis-cache-key").expect("cache key").to_string();
    (r.status, key, r.body)
}

/// `(hits, misses)` from the daemon's `/metrics`.
fn counters(client: &mut Client) -> (f64, f64) {
    let exposition = client.metrics().expect("metrics");
    let read = |name| parse_metric(&exposition, name).expect(name);
    (read("lis_cache_hits_total"), read("lis_cache_misses_total"))
}

#[test]
fn exact_repeats_replay_the_first_answer_and_count_as_hits() {
    let daemon = start(4096);
    let mut client = Client::connect(daemon.addr).expect("connect");
    let request = body(FIG1);
    let cold = post(&mut client, "/analyze", &request);
    assert_eq!(cold.0, 200);
    // The first repeat is a canonical hit, the second an exact-bytes hit.
    for _ in 0..2 {
        assert_eq!(post(&mut client, "/analyze", &request), cold);
    }
    assert_eq!(counters(&mut client), (2.0, 1.0));
    stop(daemon);
}

#[test]
fn one_body_on_two_routes_keeps_each_routes_answer() {
    let daemon = start(4096);
    let mut client = Client::connect(daemon.addr).expect("connect");
    let request = body(RING);
    let analyze = post(&mut client, "/analyze", &request);
    let qs = post(&mut client, "/qs", &request);
    assert_eq!((analyze.0, qs.0), (200, 200));
    assert_ne!(analyze.1, qs.1, "the routes share no cache entry");
    assert_ne!(analyze.2, qs.2);
    for _ in 0..3 {
        assert_eq!(post(&mut client, "/analyze", &request), analyze);
        assert_eq!(post(&mut client, "/qs", &request), qs);
    }
    assert_eq!(counters(&mut client), (6.0, 2.0));
    stop(daemon);
}

#[test]
fn evicting_an_entry_drops_its_alias() {
    let daemon = start(1);
    let mut client = Client::connect(daemon.addr).expect("connect");
    let first = body(FIG1);
    let cold = post(&mut client, "/analyze", &first);
    // Two repeats: the entry now carries these bytes as its alias.
    for _ in 0..2 {
        assert_eq!(post(&mut client, "/analyze", &first), cold);
    }
    assert_eq!(counters(&mut client), (2.0, 1.0));
    // A second design evicts the only entry, and its alias with it: the
    // same bytes again are a miss, recomputed to the same answer.
    assert_eq!(post(&mut client, "/analyze", &body(RING)).0, 200);
    assert_eq!(post(&mut client, "/analyze", &first), cold);
    assert_eq!(counters(&mut client), (2.0, 3.0));
    stop(daemon);
}

#[test]
fn under_a_full_queue_aliased_bytes_answer_and_new_bytes_are_shed() {
    // One worker, one queue slot, and a second per solve: two cold
    // designs fill the pool for a while.
    let daemon = start_with(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        faults: Some(Arc::new(
            FaultPlan::parse("job_delay:1500ms").expect("spec"),
        )),
        ..ServerConfig::default()
    });
    let addr = daemon.addr;
    let mut client = Client::connect(addr).expect("connect");
    let cold = post(&mut client, "/analyze", &body(FIG1));
    assert_eq!(cold.0, 200);
    // New bytes, same design: a canonical hit on the worker, which
    // aliases these bytes to the entry.
    let aliased = body(&format!("# aliased\n{FIG1}"));
    assert_eq!(post(&mut client, "/analyze", &aliased), cold);
    assert_eq!(counters(&mut client), (1.0, 1.0));

    let solve = |netlist: &'static str| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .request("POST", "/analyze", &body(netlist))
                .expect("cold request")
                .status
        })
    };
    let running = solve(RING);
    std::thread::sleep(Duration::from_millis(300)); // the worker takes it
    let queued = solve("block A\nblock B\nchannel A -> B rs=3\nchannel B -> A\n");
    std::thread::sleep(Duration::from_millis(300)); // it fills the queue

    // The aliased bytes answer from the exact index on the loop.
    assert_eq!(post(&mut client, "/analyze", &aliased), cold);
    // Never-seen bytes of the cached design need a worker to decode them:
    // with the queue full they are shed, not answered from the cache.
    let unseen = body(&format!("# unseen\n{FIG1}"));
    let shed = client
        .request("POST", "/analyze", &unseen)
        .expect("shed request");
    assert_eq!(shed.status, 503);
    let error = Json::parse(std::str::from_utf8(&shed.body).expect("UTF-8")).expect("JSON");
    let kind = error.get("error").and_then(|e| e.get("kind"));
    assert_eq!(kind.and_then(Json::as_str), Some("overloaded"));

    assert_eq!(running.join().expect("running"), 200);
    assert_eq!(queued.join().expect("queued"), 200);
    // With the pool free again the same bytes are a canonical hit.
    assert_eq!(post(&mut client, "/analyze", &unseen), cold);
    stop(daemon);
}
