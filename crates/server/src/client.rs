//! A small blocking client for the daemon's wire protocol, used by
//! `lis client`, the end-to-end tests, and the `loadgen` workload driver.
//!
//! One [`Client`] owns one persistent (keep-alive) connection; requests on
//! it are strictly sequential. Drop the client to close the connection.
//!
//! Every client holds a [`RetryPolicy`]. [`Client::connect`] makes one
//! attempt per request and reports every failure to its caller.
//! [`Client::with_retries`] retries transient failures (connection reset,
//! shed 503, timed-out 504, crashed-worker 500) with seeded, jittered
//! exponential backoff. Either way a connection that failed in transport
//! is dropped, and the next attempt opens a fresh one. Client errors
//! (400/422) are **never** retried — resending a malformed netlist cannot
//! fix it.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::http::{read_response, write_request_with, Response};
use crate::wire::{obj, Json};

/// One keep-alive connection: its write half and buffered read half.
struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addrs: &[SocketAddr]) -> io::Result<Connection> {
        let stream = TcpStream::connect(addrs)?;
        stream.set_nodelay(true)?;
        // Generous guard so a wedged server cannot hang the client forever.
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection {
            writer: stream,
            reader,
        })
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        write_request_with(&mut self.writer, method, path, extra_headers, body)?;
        read_response(&mut self.reader)
    }
}

/// A persistent connection to a `lis-server` daemon, under a
/// [`RetryPolicy`].
pub struct Client {
    addrs: Vec<SocketAddr>,
    policy: RetryPolicy,
    connection: Option<Connection>,
    rng_state: u64,
    retries_used: u64,
}

impl Client {
    /// Connects to a daemon. Every request gets exactly one attempt
    /// ([`RetryPolicy::none`]): a transport error or a transient status
    /// goes straight back to the caller.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::with_retries(addr, RetryPolicy::none())
    }

    /// Connects to a daemon under `policy`: transport failures and
    /// transient statuses are retried with jittered backoff. The initial
    /// connection is itself retried under the policy.
    ///
    /// # Errors
    ///
    /// Address-resolution failures, or connection errors once the retry
    /// budget is spent.
    pub fn with_retries(addr: impl ToSocketAddrs, policy: RetryPolicy) -> io::Result<Client> {
        let mut client = Client {
            addrs: addr.to_socket_addrs()?.collect(),
            rng_state: policy.seed,
            policy,
            connection: None,
            retries_used: 0,
        };
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match client.connection().err() {
                None => return Ok(client),
                Some(e) if is_retryable_io(&e) && client.may_retry(attempt) => {
                    client.pause(attempt);
                }
                Some(e) => return Err(e),
            }
        }
    }

    /// Retries spent so far (across all requests).
    pub fn retries_used(&self) -> u64 {
        self.retries_used
    }

    fn connection(&mut self) -> io::Result<&mut Connection> {
        if self.connection.is_none() {
            self.connection = Some(Connection::open(&self.addrs)?);
        }
        Ok(self.connection.as_mut().expect("connection just opened"))
    }

    fn may_retry(&self, attempt: u32) -> bool {
        attempt < self.policy.max_attempts && self.retries_used < self.policy.budget
    }

    /// Burns one unit of retry budget and sleeps the backoff for `attempt`.
    fn pause(&mut self, attempt: u32) {
        self.retries_used += 1;
        std::thread::sleep(self.policy.backoff(attempt, &mut self.rng_state));
    }

    /// Sends one request and reads the response, retrying per the policy.
    ///
    /// # Errors
    ///
    /// The final attempt's error, once attempts or budget run out;
    /// non-retryable errors immediately.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.request_with(method, path, &[], body)
    }

    /// [`Client::request`] with extra request headers (e.g. a propagated
    /// `X-LIS-Request-Id`).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let outcome = self
                .connection()
                .and_then(|c| c.request(method, path, extra_headers, body));
            match outcome {
                Ok(response) if self.policy.retry_statuses.contains(&response.status) => {
                    // The server answered coherently: the connection is
                    // still good, only the status says "come back later".
                    if !self.may_retry(attempt) {
                        return Ok(response);
                    }
                }
                Ok(response) => return Ok(response),
                Err(e) if is_retryable_io(&e) => {
                    // Transport failure: the connection is suspect. Drop it
                    // and reconnect on the next attempt.
                    self.connection = None;
                    if !self.may_retry(attempt) {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
            self.pause(attempt);
        }
    }

    /// POSTs a JSON value, returning the status and parsed JSON body.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; a well-framed non-JSON body is
    /// [`io::ErrorKind::InvalidData`] without further retries.
    pub fn post_json(&mut self, path: &str, body: &Json) -> io::Result<(u16, Json)> {
        let response = self.request("POST", path, body.to_string().as_bytes())?;
        let text = std::str::from_utf8(&response.body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))?;
        let json = Json::parse(text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("non-JSON response body: {e}"),
            )
        })?;
        Ok((response.status, json))
    }

    /// Issues an analysis request (`route` is `"analyze"`, `"qs"`,
    /// `"insert"`, or `"dot"`) for a netlist text, with request options.
    ///
    /// # Errors
    ///
    /// See [`Client::post_json`].
    pub fn analysis(
        &mut self,
        route: &str,
        netlist: &str,
        options: Json,
    ) -> io::Result<(u16, Json)> {
        let body = obj([("netlist", Json::str(netlist)), ("options", options)]);
        self.post_json(&format!("/{route}"), &body)
    }

    /// Issues a design-space sweep (`POST /sweep`) for a netlist text,
    /// returning the status and the raw NDJSON body. Chunked (streamed)
    /// responses are reassembled transparently by the HTTP layer.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn sweep(&mut self, netlist: &str, options: Json) -> io::Result<(u16, Vec<u8>)> {
        let body = obj([("netlist", Json::str(netlist)), ("options", options)]);
        let response = self.request("POST", "/sweep", body.to_string().as_bytes())?;
        Ok((response.status, response.body))
    }

    /// Fetches the Prometheus exposition from `GET /metrics`.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; a non-200 status or non-UTF-8 body is
    /// [`io::ErrorKind::InvalidData`].
    pub fn metrics(&mut self) -> io::Result<String> {
        let response = self.request("GET", "/metrics", b"")?;
        if response.status != 200 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("/metrics answered {}", response.status),
            ));
        }
        String::from_utf8(response.body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 metrics"))
    }

    /// Asks the daemon to drain and exit. Returns the response status.
    /// Sent exactly once, never retried: shutdown is a control-plane
    /// action whose duplicate delivery during a drain would just be noise.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn shutdown(&mut self) -> io::Result<u16> {
        let response = self.connection()?.request("POST", "/shutdown", &[], b"")?;
        Ok(response.status)
    }
}

/// When and how a [`Client`] retries a failed request.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Cap on any single backoff delay.
    pub max_delay: Duration,
    /// Response statuses worth retrying. Defaults to 500 (crashed worker),
    /// 503 (shed/draining), and 504 (deadline) — all transient server
    /// states. 400/422 are deliberately absent: client errors never heal.
    pub retry_statuses: Vec<u16>,
    /// Total retries this client may spend across its lifetime. A retry
    /// *budget*, so a persistently failing server degrades to fail-fast
    /// instead of amplifying load.
    pub budget: u64,
    /// Seed for the backoff jitter (deterministic per seed).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(3),
            max_delay: Duration::from_millis(250),
            retry_statuses: vec![500, 503, 504],
            budget: 1024,
            seed: 0x5eed_0f2e_7241_e500,
        }
    }
}

impl RetryPolicy {
    /// Never retries: every request gets exactly one attempt.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            retry_statuses: Vec::new(),
            budget: 0,
            ..RetryPolicy::default()
        }
    }

    /// Retries transport failures only; every HTTP status is final. For
    /// drivers (like `loadgen`) that account shed/timeout statuses
    /// themselves.
    pub fn io_only() -> RetryPolicy {
        RetryPolicy {
            retry_statuses: Vec::new(),
            ..RetryPolicy::default()
        }
    }

    /// The jittered exponential backoff before retry number `retry`
    /// (1-based): `min(max, base · 2^(retry-1))` scaled by a seeded factor
    /// in `[0.5, 1.0)` so synchronized clients desynchronize.
    fn backoff(&self, retry: u32, rng_state: &mut u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (retry - 1).min(16))
            .min(self.max_delay);
        exp.mul_f64(0.5 + 0.5 * next_unit(rng_state))
    }
}

/// SplitMix64 step, for dependency-free jitter.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn next_unit(state: &mut u64) -> f64 {
    (next_u64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Transport failures that a fresh connection can plausibly fix. Requests
/// to the daemon are idempotent (analysis is deterministic and cached), so
/// resending after a reset, truncation (`UnexpectedEof`), or garbled
/// response (`InvalidData` from the HTTP parser) is always safe.
fn is_retryable_io(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::InvalidData
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_jittered() {
        let policy = RetryPolicy::default();
        let mut state = policy.seed;
        let d1 = policy.backoff(1, &mut state);
        let d8 = policy.backoff(8, &mut state);
        // Jitter keeps every delay in [half, full) of the exponential step.
        assert!(d1 >= policy.base_delay / 2 && d1 < policy.base_delay);
        assert!(
            d8 >= policy.max_delay / 2 && d8 < policy.max_delay,
            "{d8:?}"
        );
        // Huge retry counts saturate instead of overflowing the shift.
        let _ = policy.backoff(64, &mut state);
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let policy = RetryPolicy::default();
        let (mut a, mut b) = (policy.seed, policy.seed);
        for retry in 1..=10 {
            assert_eq!(policy.backoff(retry, &mut a), policy.backoff(retry, &mut b));
        }
        let mut c = policy.seed ^ 1;
        let schedule_a: Vec<_> = (1..=10).map(|r| policy.backoff(r, &mut a)).collect();
        let schedule_c: Vec<_> = (1..=10).map(|r| policy.backoff(r, &mut c)).collect();
        assert_ne!(
            schedule_a, schedule_c,
            "different seeds should jitter apart"
        );
    }

    #[test]
    fn client_errors_are_never_in_the_default_retry_set() {
        let policy = RetryPolicy::default();
        assert!(policy.retry_statuses.contains(&500));
        assert!(policy.retry_statuses.contains(&503));
        assert!(policy.retry_statuses.contains(&504));
        assert!(!policy.retry_statuses.contains(&400));
        assert!(!policy.retry_statuses.contains(&422));
        assert!(RetryPolicy::none().retry_statuses.is_empty());
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert!(RetryPolicy::io_only().retry_statuses.is_empty());
        assert!(RetryPolicy::io_only().max_attempts > 1);
    }

    #[test]
    fn io_error_classification() {
        for kind in [
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::InvalidData,
        ] {
            assert!(is_retryable_io(&io::Error::new(kind, "x")), "{kind:?}");
        }
        for kind in [
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::AddrInUse,
            io::ErrorKind::InvalidInput,
        ] {
            assert!(!is_retryable_io(&io::Error::new(kind, "x")), "{kind:?}");
        }
    }
}
