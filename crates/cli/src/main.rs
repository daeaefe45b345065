//! `lis` — analyze and optimize latency-insensitive systems from the
//! command line.
//!
//! ```text
//! lis analyze  <netlist>              throughput analysis + topology class
//! lis qs       <netlist> [--exact] [--apply OUT]
//!                                     queue sizing (heuristic by default)
//! lis insert   <netlist> [--budget N] [--apply OUT]
//!                                     relay-station insertion search
//! lis simulate <netlist> [--steps N] [--kernel reference|compiled]
//!              [--trials N] [--seed S] [--stall P]
//!                                     cycle-accurate simulation; the
//!                                     compiled kernel packs 64 seeded
//!                                     Monte-Carlo trials per machine word
//! lis sweep    <netlist> [--cap CH=V1,V2,..] [--budget N] [--stalls ..]
//!                                     design-space exploration with a
//!                                     Pareto front over throughput,
//!                                     capacity, and stations
//! lis dot      <netlist> [--doubled]  Graphviz export
//! lis serve    <addr>                 analysis-as-a-service daemon
//! lis client   <addr> <cmd> <netlist> one request against a daemon
//! ```
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

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
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
