//! The gateway refuses what its event loop cannot serve with the daemon's
//! exact wire bytes: the 400 for a protocol violation, the 408 for a
//! missed read deadline and the 429 for a connection over the cap. The
//! daemon's bytes are pinned in `lis-server`'s `tests/net_e2e.rs`; this
//! test drives both fronts with one configuration and compares them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use lis_gateway::{Backends, Gateway, GatewayConfig};
use lis_server::{Client, Server, ServerConfig};

const READ_DEADLINE: Duration = Duration::from_millis(300);

/// Reads everything until the peer closes.
fn read_to_close(mut stream: TcpStream) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut bytes = Vec::new();
    let _ = stream.read_to_end(&mut bytes);
    bytes
}

/// Drives the three refusals against a front whose cap is one connection,
/// in the order 400, 408, 429: each of the first two closes its
/// connection before the next connects, so only the last meets the cap.
fn refusals(addr: SocketAddr) -> [String; 3] {
    let mut smuggler = TcpStream::connect(addr).expect("connect");
    smuggler
        .write_all(b"POST /analyze HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}")
        .expect("conflicting Content-Length headers");
    let bad_request = read_to_close(smuggler);

    let mut loris = TcpStream::connect(addr).expect("connect");
    loris
        .write_all(b"POST /analyze HTTP/1.1\r\ncontent-length: 5\r\n")
        .expect("partial head");
    let slow_client = read_to_close(loris);

    let mut holder = Client::connect(addr).expect("connect the holder");
    let health = holder.request("GET", "/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200);
    let over_cap = read_to_close(TcpStream::connect(addr).expect("connect over the cap"));
    drop(holder);

    [bad_request, slow_client, over_cap].map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// Asks a front with a one-connection cap to shut down, retrying until the
/// dropped holder's slot is reclaimed.
fn shutdown(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let answer = Client::connect(addr).and_then(|mut admin| admin.shutdown());
        match answer {
            Ok(200) => return,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            answer => panic!("shutdown kept being refused: {answer:?}"),
        }
    }
}

#[test]
fn gateway_refusals_are_byte_identical_to_the_daemons() {
    let capped = ServerConfig {
        max_connections: 1,
        read_deadline: READ_DEADLINE,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", capped).expect("bind daemon");
    let daemon_addr = server.local_addr().expect("daemon addr");
    let daemon = std::thread::spawn(move || server.run());
    let expected = refusals(daemon_addr);
    shutdown(daemon_addr);
    daemon.join().expect("daemon thread").expect("clean exit");

    let shard = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind shard");
    let shard_addr = shard.local_addr().expect("shard addr");
    let shard_thread = std::thread::spawn(move || shard.run());
    let config = GatewayConfig {
        max_connections: 1,
        read_deadline: READ_DEADLINE,
        ..GatewayConfig::default()
    };
    let gateway =
        Gateway::bind("127.0.0.1:0", Backends::Join(vec![shard_addr]), config).expect("bind");
    let gateway_addr = gateway.local_addr().expect("gateway addr");
    let gateway_thread = std::thread::spawn(move || gateway.run());
    let actual = refusals(gateway_addr);
    shutdown(gateway_addr);
    gateway_thread
        .join()
        .expect("gateway thread")
        .expect("clean exit");
    shutdown(shard_addr);
    shard_thread
        .join()
        .expect("shard thread")
        .expect("clean exit");

    for (name, (gateway, daemon)) in ["400", "408", "429"]
        .iter()
        .zip(actual.iter().zip(&expected))
    {
        assert!(daemon.starts_with(&format!("HTTP/1.1 {name} ")), "{daemon}");
        assert_eq!(gateway, daemon, "the gateway's {name}");
    }
}
