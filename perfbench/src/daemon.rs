//! Building, starting, scraping and stopping the real `lis serve` daemon in
//! a child process.

use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use lis_server::{parse_metric, Client};

/// Analysis workers the daemon runs (fixed, so runs compare).
pub const WORKERS: usize = 2;

/// Builds the `lis` binary from the checkout's own workspace and returns
/// its path. Cargo's output goes to stderr.
///
/// # Errors
///
/// Fails if cargo cannot be run or the build fails.
pub fn build() -> io::Result<PathBuf> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "lis-cli",
            "--bin",
            "lis",
        ])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("building lis failed: {status}")));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = target.join("release").join("lis");
    if !bin.is_file() {
        return Err(io::Error::other(format!(
            "{} missing after build",
            bin.display()
        )));
    }
    Ok(bin)
}

/// A running daemon. Dropping it kills and reaps the child.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon's later log lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The daemon's listening address.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `lis serve` on an ephemeral loopback port with the epoll
    /// front, default caches, no store and no faults, and waits until it
    /// reports its address.
    ///
    /// # Errors
    ///
    /// Fails if the child cannot start or never reports a listening address.
    pub fn spawn(bin: &PathBuf) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args([
                "--threads",
                &WORKERS.to_string(),
                "serve",
                "127.0.0.1:0",
                "--front",
                "epoll",
            ])
            .env_remove("LIS_FAULTS")
            .env_remove("LIS_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.split_whitespace()
                .skip_while(|w| *w != "on")
                .nth(1)
                .and_then(|a| a.parse().ok())
        });
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match addr {
            Some(addr) => daemon.addr = addr,
            None => {
                return Err(io::Error::other(format!(
                    "daemon did not report its address (got {line:?})"
                )))
            }
        }
        Ok(daemon)
    }

    /// Opens `n` keep-alive connections.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(&self, n: usize) -> io::Result<Vec<TcpStream>> {
        (0..n).map(|_| TcpStream::connect(self.addr)).collect()
    }

    /// One `GET /metrics` exposition.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn metrics(&self) -> io::Result<Counters> {
        let text = Client::connect(self.addr)?.metrics()?;
        Ok(Counters::from_exposition(&text))
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and exit, then reaps it (killing it if it
    /// has not exited within ten seconds).
    ///
    /// # Errors
    ///
    /// Fails if the daemon had to be killed or exited unsuccessfully.
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = Client::connect(self.addr).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return match (asked, status.success()) {
                    (Ok(200), true) => Ok(()),
                    (asked, _) => Err(io::Error::other(format!(
                        "daemon shutdown: {asked:?}, exit {status}"
                    ))),
                };
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other("daemon did not exit after /shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
///
/// # Errors
///
/// Fails if `/proc/<pid>/status` cannot be read or lacks the field.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// The daemon counters the per-layer report reads from `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// `lis_net_readiness_wakeups_total`.
    pub wakeups: f64,
    /// `lis_cache_hits_total`.
    pub cache_hits: f64,
    /// `lis_cache_misses_total`.
    pub cache_misses: f64,
    /// `lis_shed_total`.
    pub shed: f64,
    /// `lis_queue_depth` (a gauge).
    pub queue_depth: f64,
    /// `lis_net_pipeline_depth_sum`.
    pub depth_sum: f64,
    /// `lis_net_pipeline_depth_count`.
    pub depth_count: f64,
}

impl Counters {
    /// Reads the counters out of a Prometheus text exposition (absent
    /// series read as zero).
    pub fn from_exposition(text: &str) -> Counters {
        let get = |name| parse_metric(text, name).unwrap_or(0.0);
        Counters {
            wakeups: get("lis_net_readiness_wakeups_total"),
            cache_hits: get("lis_cache_hits_total"),
            cache_misses: get("lis_cache_misses_total"),
            shed: get("lis_shed_total"),
            queue_depth: get("lis_queue_depth"),
            depth_sum: get("lis_net_pipeline_depth_sum"),
            depth_count: get("lis_net_pipeline_depth_count"),
        }
    }

    /// Counter increase from `before` to `self` (gauges keep `self`'s value).
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            wakeups: self.wakeups - before.wakeups,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            shed: self.shed - before.shed,
            queue_depth: self.queue_depth,
            depth_sum: self.depth_sum - before.depth_sum,
            depth_count: self.depth_count - before.depth_count,
        }
    }
}
