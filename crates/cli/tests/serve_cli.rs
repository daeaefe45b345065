//! `lis serve` driven as a real process: the daemon starts, answers, and
//! drains on `POST /shutdown`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Command, Stdio};

use lis_server::wire::{obj, Json};
use lis_server::Client;

const FIG1: &str = "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n";

/// The CLI ignores flags it does not know, so a launcher that still passes
/// the retired `--front epoll` (the benchmark daemon does) keeps working.
#[test]
fn serve_ignores_the_retired_front_flag_and_shuts_down_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lis"))
        .args(["--threads", "2", "serve", "127.0.0.1:0", "--front", "epoll"])
        .env_remove("LIS_FAULTS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn lis serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read announcement");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("lis-server listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unexpected announcement {line:?}"));

    let mut client = Client::connect(addr).expect("connect");
    let (status, report) = client
        .analysis("analyze", FIG1, Json::Null)
        .expect("analyze");
    assert_eq!(status, 200);
    assert!(report.get("practical_mst").is_some(), "{report}");
    let body = obj([("netlist", Json::str(FIG1))]).to_string();
    let batch = client
        .request("POST", "/batch", body.as_bytes())
        .expect("batch");
    assert_eq!(batch.status, 200);
    assert_eq!(client.shutdown().expect("shutdown"), 200);
    drop(client);

    let exit = child.wait().expect("wait for lis serve");
    assert!(exit.success(), "lis serve exited with {exit}");
    let mut rest = String::new();
    let _ = std::io::Read::read_to_string(&mut stdout, &mut rest);
    assert!(rest.contains("drained and stopped"), "{rest:?}");
}
