//! Thread-free concurrent HTTP exchanges on one poller: health probes
//! against N peers at once, and request races.
//!
//! The gateway uses [`probe_many`] to sweep every shard's `/healthz` in a
//! single poll set and [`race`] for every forwarded request: one poller
//! runs the request down a list of peers without a thread per attempt.
//! A leg starts at its delay (the primary at once, a hedge at the hedge
//! deadline) or, failing that, as soon as every leg already started has
//! ended without a winner (failover). Legs reuse idle keep-alive streams
//! from their peer's [`StreamPool`].

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::http::Response;

use super::conn::{read_available, response_progress, ResponseProgress};
use super::poller::{Event, Interest, Poller};
use super::sys::sys_connect_nonblocking_v4;

/// Idle keep-alive streams to one peer, shared by every race that reaches
/// it. A race takes a stream when it starts a leg and puts the winner's
/// stream back when the exchange left it clean.
#[derive(Debug)]
pub struct StreamPool {
    idle: Mutex<Vec<TcpStream>>,
    max_idle: usize,
}

impl StreamPool {
    /// An empty pool that keeps at most `max_idle` idle streams.
    pub fn new(max_idle: usize) -> StreamPool {
        StreamPool {
            idle: Mutex::new(Vec::new()),
            max_idle,
        }
    }

    fn take(&self) -> Option<TcpStream> {
        self.idle.lock().expect("stream pool lock").pop()
    }

    fn put(&self, stream: TcpStream) {
        let mut idle = self.idle.lock().expect("stream pool lock");
        if idle.len() < self.max_idle {
            idle.push(stream);
        }
    }

    /// Drops every idle stream (the peer moved or was ejected).
    pub fn clear(&self) {
        self.idle.lock().expect("stream pool lock").clear();
    }
}

/// One request/response exchange in flight on a nonblocking stream.
struct Exchange<'a> {
    stream: TcpStream,
    wire: &'a [u8],
    written: usize,
    buf: Vec<u8>,
    started: Instant,
    eof: bool,
    /// Set on completion: the response filled the buffer exactly, the
    /// stream is still open and the peer did not ask to close it, so the
    /// stream can carry another request.
    reusable: bool,
}

impl<'a> Exchange<'a> {
    /// Starts the exchange on `pooled` or, without one, on a fresh
    /// connect, writes as much of `wire` as the socket takes at once (a
    /// pooled stream usually takes it all, saving a poller round), and
    /// registers it under `token`.
    fn start(
        addr: SocketAddr,
        pooled: Option<TcpStream>,
        wire: &'a [u8],
        v6_connect_timeout: Duration,
        poller: &mut Poller,
        token: usize,
    ) -> io::Result<Exchange<'a>> {
        let stream = match (pooled, addr) {
            (Some(stream), _) => stream,
            (None, SocketAddr::V4(v4)) => sys_connect_nonblocking_v4(&v4)?,
            (None, SocketAddr::V6(_)) => {
                // No raw nonblocking path for v6; a bounded blocking connect
                // keeps the rare case correct.
                let s = TcpStream::connect_timeout(&addr, v6_connect_timeout)?;
                s.set_nonblocking(true)?;
                s
            }
        };
        let _ = stream.set_nodelay(true);
        let mut ex = Exchange {
            stream,
            wire,
            written: 0,
            buf: Vec::new(),
            started: Instant::now(),
            eof: false,
            reusable: false,
        };
        // A connect still in progress takes nothing yet (WouldBlock).
        if let Some(Err(e)) = ex.on_ready(false, true, false) {
            return Err(e);
        }
        poller.register(ex.stream.as_raw_fd(), token, ex.interest())?;
        Ok(ex)
    }

    fn interest(&self) -> Interest {
        if self.written < self.wire.len() {
            Interest::BOTH
        } else {
            Interest::READ
        }
    }

    /// Advances the exchange on one readiness event; `Some` when it
    /// finished (either way), after deregistering it.
    fn step(&mut self, ev: &Event, poller: &mut Poller) -> Option<io::Result<Response>> {
        let before = self.interest();
        let done = self.on_ready(ev.readable, ev.writable, ev.hangup);
        let fd = self.stream.as_raw_fd();
        if done.is_some() {
            poller.deregister(fd);
        } else if self.interest() != before {
            let _ = poller.modify(fd, ev.token, self.interest());
        }
        done
    }

    /// Advances the exchange; `Some` when it finished (either way).
    fn on_ready(
        &mut self,
        readable: bool,
        writable: bool,
        hangup: bool,
    ) -> Option<io::Result<Response>> {
        if writable || hangup {
            while self.written < self.wire.len() {
                match self.stream.write(&self.wire[self.written..]) {
                    Ok(0) => return Some(Err(io::ErrorKind::WriteZero.into())),
                    Ok(n) => self.written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Some(Err(e)),
                }
            }
        }
        if readable || hangup {
            match read_available(&mut self.stream, &mut self.buf) {
                Ok((_, eof)) => self.eof |= eof,
                Err(e) => return Some(Err(e)),
            }
            match response_progress(&self.buf) {
                ResponseProgress::Complete { response, consumed } => {
                    let closes = response
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                    self.reusable = consumed == self.buf.len() && !self.eof && !closes;
                    return Some(Ok(*response));
                }
                ResponseProgress::Violation(e) => return Some(Err(e)),
                ResponseProgress::Partial if self.eof => {
                    return Some(Err(io::ErrorKind::UnexpectedEof.into()));
                }
                ResponseProgress::Partial => {}
            }
        }
        None
    }
}

/// Probes every address with one `GET /healthz` round trip, all driven
/// concurrently by a single poller. `healthy[i]` is true iff address `i`
/// answered a complete 200 within `timeout`.
pub fn probe_many(addrs: &[SocketAddr], timeout: Duration) -> Vec<bool> {
    let mut healthy = vec![false; addrs.len()];
    let Ok(mut poller) = Poller::new() else {
        return healthy;
    };
    let mut wire = Vec::new();
    let _ = crate::http::write_request(&mut wire, "GET", "/healthz", b"");
    let mut exchanges: Vec<Option<Exchange>> = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| Exchange::start(*addr, None, &wire, timeout, &mut poller, i).ok())
        .collect();
    let deadline = Instant::now() + timeout;
    let mut events = Vec::new();
    while exchanges.iter().any(Option::is_some) {
        let now = Instant::now();
        if now >= deadline || poller.wait(&mut events, Some(deadline - now)).is_err() {
            break;
        }
        for ev in &events {
            let Some(ex) = exchanges.get_mut(ev.token).and_then(Option::as_mut) else {
                continue;
            };
            if let Some(outcome) = ex.step(ev, &mut poller) {
                healthy[ev.token] = matches!(outcome, Ok(r) if r.status == 200);
                exchanges[ev.token] = None;
            }
        }
    }
    healthy
}

/// One leg of a [`race`]: one peer to send the request to.
pub struct RaceAttempt<'a> {
    /// Where to connect.
    pub addr: SocketAddr,
    /// Start this leg once `delay` has passed since the race began (zero
    /// for the primary, the hedge deadline for a runner-up). With `None`,
    /// or before the delay is up, the leg starts by failover: as soon as
    /// every earlier-started leg has ended without a winner.
    pub delay: Option<Duration>,
    /// Idle streams to `addr`, taken before dialling; the winner's stream
    /// goes back when it is clean. `None` always dials.
    pub pool: Option<&'a StreamPool>,
}

/// Why a race leg started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Launch {
    /// Its delay passed (the primary at zero; otherwise a hedge).
    Deadline,
    /// Every leg started before it had ended without a winner.
    Failover,
}

/// What happened to one race leg.
pub enum RaceOutcome {
    /// A complete response arrived `elapsed` after this leg started.
    Response {
        /// The parsed response.
        response: Response,
        /// Time from this leg's start to its complete response.
        elapsed: Duration,
    },
    /// Transport or protocol failure.
    Failed,
    /// The race ended before this leg started, or was decided while the
    /// leg was still in flight (check [`RaceResult::launched`] to tell the
    /// two apart).
    NotStarted,
}

/// The result of [`race`].
pub struct RaceResult {
    /// Index of the first leg that produced a response whose status is not
    /// in the disqualify list.
    pub winner: Option<usize>,
    /// Per-leg outcomes, index-aligned with the attempts.
    pub outcomes: Vec<RaceOutcome>,
    /// How each leg started; `None` for a leg that never did. A started
    /// leg can still end `NotStarted` when the race was decided while it
    /// was in flight — abandoned, not failed.
    pub launched: Vec<Option<Launch>>,
}

/// The next leg to start at `elapsed` into a race: a leg whose delay has
/// passed, else — when nothing is in flight — the first unstarted leg.
fn next_launch(
    attempts: &[RaceAttempt<'_>],
    launched: &[Option<Launch>],
    idle: bool,
    elapsed: Duration,
) -> Option<(usize, Launch)> {
    let unstarted = |i: &usize| launched[*i].is_none();
    (0..attempts.len())
        .filter(unstarted)
        .find(|&i| attempts[i].delay.is_some_and(|d| elapsed >= d))
        .map(|i| (i, Launch::Deadline))
        .or_else(|| {
            let first = (0..attempts.len()).find(unstarted);
            first.filter(|_| idle).map(|i| (i, Launch::Failover))
        })
}

/// Races one rendered request (`wire`) across legs on one poller. A leg
/// starts when its delay passes or by failover (see [`RaceAttempt`]), and
/// the first complete response with a status outside `disqualify` wins;
/// legs still in flight are abandoned and their connections close.
/// Disqualified responses are still reported in the outcomes so the
/// caller can relay the least-bad answer when nobody wins. `timeout`
/// bounds the whole race.
pub fn race(
    wire: &[u8],
    attempts: &[RaceAttempt<'_>],
    disqualify: &[u16],
    timeout: Duration,
) -> RaceResult {
    let mut outcomes: Vec<RaceOutcome> = attempts.iter().map(|_| RaceOutcome::NotStarted).collect();
    let mut launched = vec![None; attempts.len()];
    let mut exchanges: Vec<Option<Exchange>> = attempts.iter().map(|_| None).collect();
    let started = Instant::now();
    let mut events = Vec::new();
    let idle = |exchanges: &[Option<Exchange>]| exchanges.iter().all(Option::is_none);
    let winner = match Poller::new() {
        Err(_) => None,
        Ok(mut poller) => 'race: loop {
            let elapsed = started.elapsed();
            while let Some((i, how)) = next_launch(attempts, &launched, idle(&exchanges), elapsed) {
                launched[i] = Some(how);
                let leg = &attempts[i];
                let pooled = leg.pool.and_then(StreamPool::take);
                exchanges[i] =
                    Exchange::start(leg.addr, pooled, wire, timeout, &mut poller, i).ok();
                if exchanges[i].is_none() {
                    outcomes[i] = RaceOutcome::Failed;
                }
            }
            if idle(&exchanges) || elapsed >= timeout {
                break None;
            }
            // Sleep until the next unstarted leg's delay or the race's end.
            let until = attempts
                .iter()
                .zip(&launched)
                .filter_map(|(attempt, how)| attempt.delay.filter(|_| how.is_none()))
                .fold(timeout, Duration::min);
            if poller
                .wait(&mut events, Some(until.saturating_sub(elapsed)))
                .is_err()
            {
                break None;
            }
            for ev in &events {
                let slot = ev.token;
                let Some(ex) = exchanges.get_mut(slot).and_then(Option::as_mut) else {
                    continue;
                };
                let Some(outcome) = ex.step(ev, &mut poller) else {
                    continue;
                };
                let elapsed = ex.started.elapsed();
                let ex = exchanges[slot].take().expect("in flight");
                let Ok(response) = outcome else {
                    outcomes[slot] = RaceOutcome::Failed;
                    continue;
                };
                let usable = !disqualify.contains(&response.status);
                outcomes[slot] = RaceOutcome::Response { response, elapsed };
                if usable {
                    if let (true, Some(pool)) = (ex.reusable, attempts[slot].pool) {
                        pool.put(ex.stream);
                    }
                    break 'race Some(slot);
                }
            }
        },
    };
    if winner.is_none() {
        // Anything still in flight when the race gave up failed.
        for (outcome, _) in outcomes
            .iter_mut()
            .zip(&exchanges)
            .filter(|(_, e)| e.is_some())
        {
            *outcome = RaceOutcome::Failed;
        }
    }
    RaceResult {
        winner,
        outcomes,
        launched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_request, write_request_with, write_response};
    use std::io::BufReader;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const FAILOVER: [u16; 4] = [500, 502, 503, 504];

    /// A tiny threaded responder: answers every request with `status` after
    /// `delay`, then closes.
    fn responder(status: u16, delay: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    if let Ok(Some(_)) = read_request(&mut reader) {
                        std::thread::sleep(delay);
                        let mut w = stream;
                        let _ = write_response(&mut w, status, "application/json", b"{}", false);
                    }
                });
            }
        });
        addr
    }

    /// A keep-alive responder that counts accepted connections: it answers
    /// every request on a connection with `status` after `delay` and keeps
    /// the connection open until the client drops it, even when it says
    /// `Connection: close` (`keep_alive == false`).
    fn counting_responder(
        status: u16,
        delay: Duration,
        keep_alive: bool,
    ) -> (SocketAddr, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accepts = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&accepts);
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                counter.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut w = stream;
                    while let Ok(Some(_)) = read_request(&mut reader) {
                        std::thread::sleep(delay);
                        let body = b"{}";
                        if write_response(&mut w, status, "application/json", body, keep_alive)
                            .is_err()
                        {
                            break;
                        }
                    }
                });
            }
        });
        (addr, accepts)
    }

    /// An address nothing listens on: connects are refused.
    fn dead_addr() -> SocketAddr {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr");
        drop(l);
        addr
    }

    fn wire() -> Vec<u8> {
        let mut wire = Vec::new();
        write_request_with(
            &mut wire,
            "POST",
            "/analyze",
            &[("X-LIS-Request-Id", "r1")],
            b"{}",
        )
        .expect("render");
        wire
    }

    fn leg(addr: SocketAddr, delay: Option<Duration>) -> RaceAttempt<'static> {
        RaceAttempt {
            addr,
            delay,
            pool: None,
        }
    }

    #[test]
    fn probe_many_separates_healthy_from_dead_and_unhealthy() {
        let ok = responder(200, Duration::ZERO);
        let sick = responder(503, Duration::ZERO);
        // A bound-but-never-accepting port: refused or timed out.
        let dead = dead_addr();
        let healthy = probe_many(&[ok, sick, dead], Duration::from_secs(2));
        assert_eq!(healthy, vec![true, false, false]);
    }

    #[test]
    fn race_prefers_the_fast_leg_and_reports_the_laggard_unstarted() {
        let fast = responder(200, Duration::ZERO);
        let slow = responder(200, Duration::from_secs(5));
        let result = race(
            &wire(),
            &[
                leg(fast, Some(Duration::ZERO)),
                leg(slow, Some(Duration::from_secs(3))),
            ],
            &FAILOVER,
            Duration::from_secs(4),
        );
        assert_eq!(result.winner, Some(0));
        assert!(matches!(
            result.outcomes[0],
            RaceOutcome::Response { ref response, .. } if response.status == 200
        ));
        assert!(matches!(result.outcomes[1], RaceOutcome::NotStarted));
        assert_eq!(result.launched, vec![Some(Launch::Deadline), None]);
    }

    #[test]
    fn race_falls_to_the_hedge_when_the_primary_stalls_or_disqualifies() {
        let stalled = responder(503, Duration::ZERO);
        let healthy = responder(200, Duration::ZERO);
        let result = race(
            &wire(),
            &[
                leg(stalled, Some(Duration::ZERO)),
                leg(healthy, Some(Duration::from_millis(50))),
            ],
            &FAILOVER,
            Duration::from_secs(3),
        );
        assert_eq!(result.winner, Some(1));
        assert!(result.launched.iter().all(Option::is_some));
        // The disqualified primary answer is still available for relay.
        assert!(matches!(
            result.outcomes[0],
            RaceOutcome::Response { ref response, .. } if response.status == 503
        ));
    }

    #[test]
    fn race_fails_over_at_once_when_the_primary_is_refused() {
        let healthy = responder(200, Duration::ZERO);
        let started = Instant::now();
        let result = race(
            &wire(),
            &[
                leg(dead_addr(), Some(Duration::ZERO)),
                leg(healthy, Some(Duration::from_secs(10))),
            ],
            &FAILOVER,
            Duration::from_secs(30),
        );
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the runner-up waited for its hedge deadline: {:?}",
            started.elapsed()
        );
        assert_eq!(result.winner, Some(1));
        assert!(matches!(result.outcomes[0], RaceOutcome::Failed));
        assert_eq!(
            result.launched,
            vec![Some(Launch::Deadline), Some(Launch::Failover)]
        );
    }

    #[test]
    fn race_starts_a_leg_without_delay_only_after_earlier_legs_fail() {
        let step = Duration::from_millis(200);
        // The primary answers in time: the undelayed leg never starts.
        let (primary, _) = counting_responder(200, step, true);
        let (spare, spare_accepts) = counting_responder(200, Duration::ZERO, true);
        let result = race(
            &wire(),
            &[leg(primary, Some(Duration::ZERO)), leg(spare, None)],
            &FAILOVER,
            Duration::from_secs(10),
        );
        assert_eq!(result.winner, Some(0));
        assert_eq!(result.launched, vec![Some(Launch::Deadline), None]);
        assert_eq!(spare_accepts.load(Ordering::SeqCst), 0);

        // The primary disqualifies after `step`: only then does the spare
        // start, by failover, and win.
        let (sick, _) = counting_responder(503, step, true);
        let started = Instant::now();
        let result = race(
            &wire(),
            &[leg(sick, Some(Duration::ZERO)), leg(spare, None)],
            &FAILOVER,
            Duration::from_secs(10),
        );
        assert_eq!(result.winner, Some(1));
        assert_eq!(
            result.launched,
            vec![Some(Launch::Deadline), Some(Launch::Failover)]
        );
        let RaceOutcome::Response { elapsed, .. } = result.outcomes[1] else {
            panic!("the spare answered");
        };
        assert!(started.elapsed() >= step + elapsed);
        assert_eq!(spare_accepts.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn race_reuses_a_pooled_stream_unless_the_answer_closes() {
        let pool = StreamPool::new(4);
        let (addr, accepts) = counting_responder(200, Duration::ZERO, true);
        for _ in 0..2 {
            let legs = [RaceAttempt {
                addr,
                delay: Some(Duration::ZERO),
                pool: Some(&pool),
            }];
            let result = race(&wire(), &legs, &FAILOVER, Duration::from_secs(5));
            assert_eq!(result.winner, Some(0));
        }
        assert_eq!(accepts.load(Ordering::SeqCst), 1, "one connection, reused");

        // `Connection: close` keeps the stream out of the pool, even though
        // this responder leaves the socket open.
        let pool = StreamPool::new(4);
        let (addr, accepts) = counting_responder(200, Duration::ZERO, false);
        for _ in 0..2 {
            let legs = [RaceAttempt {
                addr,
                delay: Some(Duration::ZERO),
                pool: Some(&pool),
            }];
            let result = race(&wire(), &legs, &FAILOVER, Duration::from_secs(5));
            assert_eq!(result.winner, Some(0));
        }
        assert_eq!(accepts.load(Ordering::SeqCst), 2, "each race dialled anew");
    }
}
