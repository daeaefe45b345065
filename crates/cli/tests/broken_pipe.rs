//! Real-binary test: a reader that closes stdout early (`lis ... | head`)
//! ends `lis` cleanly instead of a "failed printing to stdout" panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const FIG1: &str = "block A\nblock B\nchannel A -> B rs=1\nchannel A -> B\n";

#[test]
fn closing_stdout_early_is_a_clean_exit() {
    let path = std::env::temp_dir().join(format!("lis-broken-pipe-{}.lis", std::process::id()));
    std::fs::write(&path, FIG1).expect("write netlist");
    // About 3 MB of waveform: far more than a pipe buffers, so `lis` is
    // still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_lis"))
        .args([
            "vcd",
            path.to_str().expect("utf-8 path"),
            "--steps",
            "200000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lis vcd");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read the first line");
    assert!(first.starts_with("$date"), "{first:?}");
    drop(stdout);

    let out = child.wait_with_output().expect("wait for lis vcd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_file(path);
}
