//! The closed-loop load generator: one thread, one `poll(2)` loop, a few
//! keep-alive connections, each holding a fixed number of requests in
//! flight and sending the next one only when a response completes. The
//! generator never retries: a refused, failed or unanswered request is counted
//! and dropped.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// What the generator sends and where answers go.
pub trait Traffic {
    /// The next request's tag and wire bytes; `None` stops sending.
    fn next(&mut self) -> Option<(u64, Vec<u8>)>;
    /// Request `tag` was answered with `status` and `body`.
    fn answered(&mut self, tag: u64, status: u16, body: Vec<u8>);
}

/// Outcome counts and timings of one driven phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests written (attempted).
    pub sent: u64,
    /// Responses with status 200.
    pub ok: u64,
    /// 503 answers (shed by the pool or the sweep cap).
    pub shed: u64,
    /// 504 answers (the daemon's request deadline).
    pub timed_out: u64,
    /// Any other non-200 status.
    pub other_status: u64,
    /// Requests lost to a connection error or early close.
    pub transport: u64,
    /// Requests still unanswered when the drain grace ran out.
    pub unanswered: u64,
    /// Send → last byte, microseconds, for requests completed inside the
    /// measured window.
    pub latency_us: Vec<f64>,
    /// Send → first streamed row (the whole body for unstreamed answers),
    /// microseconds, same requests as `latency_us`.
    pub first_row_us: Vec<f64>,
    /// Completion time since the window opened, seconds, same requests.
    pub done_s: Vec<f64>,
    /// Length of the sending window.
    pub window: Duration,
    /// Time-weighted mean of requests in flight during the window.
    pub mean_in_flight: f64,
}

impl Phase {
    /// Requests that did not end in a 200.
    pub fn failed(&self) -> u64 {
        self.shed + self.timed_out + self.other_status + self.transport + self.unanswered
    }

    /// Responses completed inside the window, per second.
    pub fn throughput(&self) -> f64 {
        self.latency_us.len() as f64 / self.window.as_secs_f64()
    }
}

/// One step of an incremental HTTP/1.1 response read.
#[derive(Debug, PartialEq, Eq)]
pub enum Event {
    /// The first NDJSON row of a chunked body has fully arrived.
    FirstRow,
    /// A complete response.
    Done {
        /// HTTP status.
        status: u16,
        /// The (de-chunked) body.
        body: Vec<u8>,
    },
}

#[derive(Debug)]
enum State {
    Head,
    Sized {
        status: u16,
        len: usize,
    },
    Chunked {
        status: u16,
        body: Vec<u8>,
        row_sent: bool,
    },
}

/// Incremental response reader over the bytes of one connection.
#[derive(Debug)]
pub struct Reader {
    buf: Vec<u8>,
    pos: usize,
    state: State,
}

impl Default for Reader {
    fn default() -> Reader {
        Reader {
            buf: Vec::new(),
            pos: 0,
            state: State::Head,
        }
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Reader {
    /// Appends bytes read from the socket.
    pub fn push(&mut self, data: &[u8]) {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 1 << 16 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// The next event the buffered bytes complete, if any.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a malformed head or chunk frame.
    pub fn next_event(&mut self) -> io::Result<Option<Event>> {
        loop {
            let rest = &self.buf[self.pos..];
            match &mut self.state {
                State::Head => {
                    let Some(end) = find(rest, b"\r\n\r\n") else {
                        return Ok(None);
                    };
                    let head = std::str::from_utf8(&rest[..end]).map_err(|_| bad("head"))?;
                    let mut lines = head.split("\r\n");
                    let status: u16 = lines
                        .next()
                        .and_then(|l| l.split(' ').nth(1))
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("status line"))?;
                    let mut len = None;
                    let mut chunked = false;
                    for line in lines {
                        let (name, value) = line.split_once(':').ok_or_else(|| bad("header"))?;
                        let value = value.trim();
                        if name.eq_ignore_ascii_case("content-length") {
                            len = Some(value.parse().map_err(|_| bad("content-length"))?);
                        } else if name.eq_ignore_ascii_case("transfer-encoding") {
                            chunked = value.eq_ignore_ascii_case("chunked");
                        }
                    }
                    self.pos += end + 4;
                    self.state = if chunked {
                        State::Chunked {
                            status,
                            body: Vec::new(),
                            row_sent: false,
                        }
                    } else {
                        State::Sized {
                            status,
                            len: len.unwrap_or(0),
                        }
                    };
                }
                State::Sized { status, len } => {
                    if rest.len() < *len {
                        return Ok(None);
                    }
                    let event = Event::Done {
                        status: *status,
                        body: rest[..*len].to_vec(),
                    };
                    self.pos += *len;
                    self.state = State::Head;
                    return Ok(Some(event));
                }
                State::Chunked {
                    status,
                    body,
                    row_sent,
                } => {
                    if !*row_sent && body.iter().filter(|&&b| b == b'\n').count() >= 2 {
                        *row_sent = true;
                        return Ok(Some(Event::FirstRow));
                    }
                    let Some(eol) = find(rest, b"\r\n") else {
                        return Ok(None);
                    };
                    let size_text = std::str::from_utf8(&rest[..eol]).map_err(|_| bad("chunk"))?;
                    let size = usize::from_str_radix(size_text.trim(), 16)
                        .map_err(|_| bad("chunk size"))?;
                    if rest.len() < eol + 2 + size + 2 {
                        return Ok(None);
                    }
                    if size == 0 {
                        let event = Event::Done {
                            status: *status,
                            body: std::mem::take(body),
                        };
                        self.pos += eol + 4;
                        self.state = State::Head;
                        return Ok(Some(event));
                    }
                    body.extend_from_slice(&rest[eol + 2..eol + 2 + size]);
                    self.pos += eol + 2 + size + 2;
                }
            }
        }
    }
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t` (1024 CPUs).
type CpuSet = [u64; 16];

/// Pins the calling thread to the last CPU it may run on, so the scheduler
/// cannot stack the load generator on the daemon's event-loop thread, and
/// returns the previous set for [`unpin`]. `None` (and no change) with a
/// single allowed CPU or if the calls fail.
pub fn pin_to_last_cpu() -> Option<CpuSet> {
    let mut old: CpuSet = [0; 16];
    // SAFETY: `old` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), old.as_mut_ptr()) } != 0 {
        return None;
    }
    let allowed: u32 = old.iter().map(|w| w.count_ones()).sum();
    if allowed < 2 {
        return None;
    }
    let word = old.iter().rposition(|&w| w != 0)?;
    let mut pinned: CpuSet = [0; 16];
    pinned[word] = 1 << (63 - old[word].leading_zeros());
    // SAFETY: `pinned` is a live buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), pinned.as_ptr()) };
    (rc == 0).then_some(old)
}

/// Restores the CPU set [`pin_to_last_cpu`] replaced.
pub fn unpin(old: &CpuSet) {
    // SAFETY: `old` is a live buffer of exactly the size passed. A failure
    // leaves the thread pinned, which only slows what runs after.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), old.as_ptr()) };
}

/// Waits until one of `fds` is ready or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ms = timeout.as_millis().clamp(0, 50) as i32;
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // pollfd structs and `nfds` is its exact length; poll only writes the
    // `revents` fields within it.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

struct InFlight {
    tag: u64,
    sent: Instant,
    first_row: Option<Instant>,
}

struct Conn<'a> {
    stream: &'a mut TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    reader: Reader,
    in_flight: VecDeque<InFlight>,
    dead: bool,
}

impl Conn<'_> {
    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }
}

/// Drives `traffic` over `streams` with `depth` requests in flight per
/// connection. Sending stops when `traffic` runs dry or `window` ends;
/// answers are then awaited for up to `grace`, and whatever is still
/// outstanding counts as unanswered. Latency samples cover requests that
/// complete inside the window.
///
/// # Errors
///
/// Fails only if `poll(2)` or socket setup fails; per-connection errors are
/// counted as transport failures.
pub fn drive(
    streams: &mut [TcpStream],
    depth: usize,
    window: Duration,
    grace: Duration,
    traffic: &mut dyn Traffic,
) -> io::Result<Phase> {
    let mut phase = Phase::default();
    let mut conns = Vec::with_capacity(streams.len());
    for stream in streams.iter_mut() {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        conns.push(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            reader: Reader::default(),
            in_flight: VecDeque::new(),
            dead: false,
        });
    }
    let start = Instant::now();
    let window_end = start + window;
    let mut sending = true;
    let mut last = start;
    let mut in_flight_time = 0.0;
    let mut read_buf = vec![0u8; 1 << 16];
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    let mut drain_end = None;

    // Requests in flight since the last refill: what was held while the
    // loop waited, weighted by how long it waited.
    let mut held = 0usize;
    loop {
        let now = Instant::now();
        if last < window_end {
            in_flight_time += held as f64 * (now.min(window_end) - last).as_secs_f64();
        }
        last = now;
        if sending && now >= window_end {
            sending = false;
        }
        if sending {
            'fill: for conn in conns.iter_mut().filter(|c| !c.dead) {
                while conn.in_flight.len() < depth {
                    let Some((tag, bytes)) = traffic.next() else {
                        sending = false;
                        break 'fill;
                    };
                    conn.out.extend_from_slice(&bytes);
                    conn.in_flight.push_back(InFlight {
                        tag,
                        sent: Instant::now(),
                        first_row: None,
                    });
                    phase.sent += 1;
                }
                if conn.flush().is_err() {
                    conn.dead = true;
                }
            }
        }
        let outstanding: usize = conns
            .iter()
            .filter(|c| !c.dead)
            .map(|c| c.in_flight.len())
            .sum();
        held = outstanding;
        if !sending {
            if outstanding == 0 {
                break;
            }
            let end = *drain_end.get_or_insert(now.max(window_end) + grace);
            if now >= end {
                break;
            }
        }
        fds.clear();
        for conn in &conns {
            let mut events = POLLIN;
            if conn.out_pos < conn.out.len() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: if conn.dead {
                    -1
                } else {
                    conn.stream.as_raw_fd()
                },
                events,
                revents: 0,
            });
        }
        let until = if sending {
            window_end.saturating_duration_since(now)
        } else {
            drain_end.map_or(grace, |e: Instant| e.saturating_duration_since(now))
        };
        wait(&mut fds, until.max(Duration::from_millis(1)))?;
        for (conn, fd) in conns.iter_mut().zip(&fds) {
            if conn.dead || fd.revents == 0 {
                continue;
            }
            if conn.flush().is_err() {
                conn.dead = true;
                continue;
            }
            let mut closed = false;
            loop {
                match conn.stream.read(&mut read_buf) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(n) => conn.reader.push(&read_buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
            let arrived = Instant::now();
            loop {
                match conn.reader.next_event() {
                    Ok(None) => break,
                    Ok(Some(Event::FirstRow)) => {
                        if let Some(front) = conn.in_flight.front_mut() {
                            front.first_row = Some(arrived);
                        }
                    }
                    Ok(Some(Event::Done { status, body })) => {
                        let Some(req) = conn.in_flight.pop_front() else {
                            closed = true;
                            break;
                        };
                        match status {
                            200 => phase.ok += 1,
                            503 => phase.shed += 1,
                            504 => phase.timed_out += 1,
                            _ => phase.other_status += 1,
                        }
                        if arrived <= window_end {
                            let us = |t: Instant| (t - req.sent).as_secs_f64() * 1e6;
                            phase.latency_us.push(us(arrived));
                            phase
                                .first_row_us
                                .push(us(req.first_row.unwrap_or(arrived)));
                            phase.done_s.push((arrived - start).as_secs_f64());
                        }
                        traffic.answered(req.tag, status, body);
                    }
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
            if closed {
                conn.dead = true;
            }
        }
    }
    for conn in &conns {
        let lost = conn.in_flight.len() as u64;
        if conn.dead {
            phase.transport += lost;
        } else {
            phase.unanswered += lost;
        }
    }
    phase.window = window.min(Instant::now() - start);
    phase.mean_in_flight = in_flight_time / phase.window.as_secs_f64();
    for conn in conns {
        conn.stream.set_nonblocking(false)?;
    }
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(reader: &mut Reader) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(e) = reader.next_event().expect("well-formed") {
            out.push(e);
        }
        out
    }

    #[test]
    fn sized_responses_split_anywhere() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 503 Busy\r\ncontent-length: 2\r\n\r\n{}";
        for cut in 0..wire.len() {
            let mut r = Reader::default();
            r.push(&wire[..cut]);
            let mut got = events(&mut r);
            r.push(&wire[cut..]);
            got.extend(events(&mut r));
            assert_eq!(
                got,
                vec![
                    Event::Done {
                        status: 200,
                        body: b"hello".to_vec()
                    },
                    Event::Done {
                        status: 503,
                        body: b"{}".to_vec()
                    },
                ],
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn chunked_bodies_report_the_first_row() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nhdr\n\r\n6\r\nrow 1\n\r\n6\r\nrow 2\n\r\n0\r\n\r\n";
        let mut r = Reader::default();
        r.push(wire);
        assert_eq!(
            events(&mut r),
            vec![
                Event::FirstRow,
                Event::Done {
                    status: 200,
                    body: b"hdr\nrow 1\nrow 2\n".to_vec()
                }
            ]
        );
    }
}
