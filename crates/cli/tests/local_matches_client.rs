//! Real-binary check that the local analysis commands and `lis client`
//! answer alike: for every netlist in `examples/netlists/`, `lis <cmd>
//! <file> [flags]` and `lis client <addr> <cmd> <file> [flags]` against a
//! live daemon print byte-identical stdout and exit with the same code,
//! error answers included.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use lis_server::{Server, ServerConfig};

/// `(command, flags)` for every netlist.
const CASES: [(&str, &[&str]); 13] = [
    ("analyze", &[]),
    ("analyze", &["--schedule"]),
    (
        "analyze",
        &[
            "--burst",
            "100,300",
            "--burst-trials",
            "16",
            "--burst-cycles",
            "200",
        ],
    ),
    ("analyze", &["--burst", "100,300", "--burst-trials", "5000"]),
    ("analyze", &["--engine", "karp"]),
    ("qs", &[]),
    ("qs", &["--exact"]),
    ("insert", &["--budget", "1"]),
    ("insert", &["--budget", "2"]),
    ("insert", &["--budget", "20"]),
    ("sweep", &["--cap", "1=1,2", "--budget", "1"]),
    ("sweep", &["--cap", "1=1,2", "--qs"]),
    ("sweep", &["--cap", "99=1,2"]),
];

fn netlists() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/netlists");
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "lis"))
        .collect();
    out.sort();
    assert!(
        out.len() >= 5,
        "examples/netlists holds {} netlists",
        out.len()
    );
    let bad = std::env::temp_dir().join(format!("lis-local-bad-line-{}.lis", std::process::id()));
    std::fs::write(&bad, "block A\nblock B\nchannel A => B\n").expect("write bad netlist");
    out.push(bad);
    out
}

fn lis(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lis"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run lis {args:?}: {e}"))
}

#[test]
fn local_commands_print_what_the_client_prints() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind server");
    let addr = server.local_addr().expect("server addr").to_string();
    let daemon = std::thread::spawn(move || server.run());

    let mut codes = Vec::new();
    let netlists = netlists();
    for path in &netlists {
        let file = path.to_str().expect("utf-8 path");
        for (cmd, flags) in CASES {
            let mut local = vec![cmd, file];
            local.extend(flags);
            let mut remote = vec!["client", addr.as_str()];
            remote.extend(&local);
            let (mine, theirs) = (lis(&local), lis(&remote));
            assert_eq!(
                (String::from_utf8_lossy(&mine.stdout), mine.status.code()),
                (
                    String::from_utf8_lossy(&theirs.stdout),
                    theirs.status.code()
                ),
                "lis {local:?}\nstderr: {}",
                String::from_utf8_lossy(&mine.stderr)
            );
            assert!(!mine.stdout.is_empty(), "lis {local:?} printed nothing");
            codes.push(mine.status.code());
        }
    }
    // Answers and 4xx refusals (exit 2) were both exercised.
    assert!(codes.contains(&Some(0)), "{codes:?}");
    assert!(codes.contains(&Some(2)), "{codes:?}");
    let _ = std::fs::remove_file(netlists.last().expect("the bad-line netlist"));

    let shutdown = lis(&["client", &addr, "shutdown"]);
    assert!(shutdown.status.success(), "{shutdown:?}");
    daemon.join().expect("daemon thread").expect("clean exit");
}

/// `--burst-seed` at 2^53 or above cannot cross the JSON boundary exactly
/// (numbers are `f64`), so it is refused with the daemon's 400 naming the
/// seed; 2^53 − 1 is echoed exactly.
#[test]
fn a_burst_seed_beyond_f64_precision_is_refused() {
    let fig1 = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/netlists/fig1.lis");
    let fig1 = fig1.to_str().expect("utf-8 path");
    let burst = |seed: &str| {
        lis(&[
            "analyze",
            fig1,
            "--burst",
            "100,300",
            "--burst-trials",
            "4",
            "--burst-cycles",
            "10",
            "--burst-seed",
            seed,
        ])
    };
    let refused = burst("9007199254740993");
    let stdout = String::from_utf8_lossy(&refused.stdout);
    assert_eq!(refused.status.code(), Some(2), "{stdout}");
    assert!(stdout.contains(r#"burst \"seed\""#), "{stdout}");
    let exact = burst("9007199254740991");
    let stdout = String::from_utf8_lossy(&exact.stdout);
    assert_eq!(exact.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains(r#""seed":9007199254740991"#), "{stdout}");
}
