//! `lis` — analyze and optimize latency-insensitive systems from the
//! command line.
//!
//! ```text
//! lis analyze  <netlist> [--schedule] [--burst OFF,ON ...]
//!                                     throughput analysis + topology class
//! lis qs       <netlist> [--exact] [--apply OUT]
//!                                     queue sizing (heuristic by default)
//! lis insert   <netlist> [--budget N] [--apply OUT]
//!                                     relay-station insertion search
//! lis sweep    <netlist> [--cap CH=V1,V2,..] [--budget N] [--stalls ..]
//!                                     design-space exploration with a
//!                                     Pareto front over throughput,
//!                                     capacity, and stations
//! lis repair   <netlist> [--apply OUT]
//!                                     cheapest repair + DAG equalization
//! lis simulate <netlist> [--steps N] [--kernel reference|compiled]
//!              [--trials N] [--seed S] [--stall P]
//!                                     cycle-accurate simulation; the
//!                                     compiled kernel packs 64 seeded
//!                                     Monte-Carlo trials per machine word
//! lis vcd      <netlist> [--steps N]  waveform dump
//! lis dot      <netlist> [--doubled]  Graphviz export
//! lis serve    <addr>                 analysis-as-a-service daemon
//! lis client   <addr> <cmd> <netlist> one request against a daemon
//! ```
//!
//! `analyze`, `qs`, `insert` and `sweep` answer in process through
//! `lis_server::answer`, from the same request envelope `lis client` sends:
//! they print the daemon's JSON answer (a sweep's NDJSON lines) byte for
//! byte and exit as `client` does, 2 on a 4xx answer and 3 on a 5xx one.
//!
//! A global `--threads N` flag sets the worker-pool size of `lis serve`
//! (and the default shard pool size of `lis gateway`).
//!
//! Netlists use the `lis-core` text format (see `lis_core::parse_netlist`):
//!
//! ```text
//! block A
//! block B
//! channel A -> B rs=1
//! channel A -> B
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

mod commands;

/// Standard output for every command. A write that finds the reading end
/// closed (`lis vcd ... | head`) sets `closed`, and `main` then exits
/// cleanly instead of reporting the error.
struct Stdout {
    inner: io::Stdout,
    closed: bool,
}

impl Stdout {
    fn note<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if let Err(e) = &result {
            self.closed |= e.kind() == io::ErrorKind::BrokenPipe;
        }
        result
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let result = self.inner.write(buf);
        self.note(result)
    }

    fn flush(&mut self) -> io::Result<()> {
        let result = self.inner.flush();
        self.note(result)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Stdout {
        inner: io::stdout(),
        closed: false,
    };
    let result = commands::dispatch(&args, &mut out).and_then(|()| Ok(out.flush()?));
    if out.closed {
        return ExitCode::SUCCESS;
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // Typed exit codes for daemon answers, so scripts and CI can
            // distinguish "your request is wrong" (2) from "the service is
            // unhealthy" (3) from "back off and retry" (4, a shed sweep
            // carrying a retry hint) from local/transport failures (1).
            match e.downcast_ref::<commands::StatusError>() {
                Some(se) if se.retry_after_ms.is_some() => ExitCode::from(4),
                Some(se) if (400..500).contains(&se.status) => ExitCode::from(2),
                Some(_) => ExitCode::from(3),
                None => ExitCode::FAILURE,
            }
        }
    }
}
