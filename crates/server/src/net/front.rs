//! The readiness event loop: one thread multiplexing every connection.
//!
//! This is the epoll front tier. It owns accept, incremental request
//! parsing (via [`super::conn`]), per-connection read deadlines, response
//! ordering for pipelined requests, write-queue draining with re-armed
//! write interest, and graceful drain. It does **no** application work:
//! complete requests go to a [`Handler`], which answers immediately
//! (control plane, cache hits, typed errors) or asynchronously through the
//! [`Completions`] channel (worker-pool jobs, streamed NDJSON).
//!
//! The loop answers its own protocol refusals, so no handler renders one:
//! the typed 400 for a protocol violation, the 408 for a missed read
//! deadline, the 429 for a connection over the cap and the 504 for a
//! pending answer past its deadline. Write faults come from the fault
//! plan in [`FrontConfig`].
//!
//! Responses are serialized in request arrival order no matter how the
//! handler answers them: each parsed request gets a sequence number, and
//! out-of-order completions park in a per-connection `BTreeMap` until
//! their turn. That is what makes keep-alive pipelining safe.

use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::error::ServerError;
use crate::fault::{FaultPlan, WriteFault, GARBAGE_BYTES};
use crate::http::{render_response_with, write_chunked_head, Request, LAST_CHUNK};
use crate::metrics::NetStats;

use super::conn::{read_available, request_progress, RequestProgress, WriteQueue};
use super::poller::{Event, Interest, Poller};

/// How long the loop sleeps at most, so the drain flag is observed within
/// this interval even on an idle server.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Unanswered requests allowed per connection before the loop stops
/// reading from it — natural pipelining backpressure.
const PIPELINE_LIMIT: usize = 128;

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKE: usize = 1;
const TOKEN_BASE: usize = 2;

/// Identifies one in-flight request: connection slot, the slot's
/// generation (slots are reused), and the request's sequence number on
/// that connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotKey {
    /// Connection slot index.
    pub conn: usize,
    /// Slot generation at dispatch time.
    pub gen: u64,
    /// Request sequence number on the connection (0-based).
    pub seq: u64,
}

/// A response the handler finished rendering (status + body), before the
/// loop frames it for the wire (`Connection` header, write faults).
#[derive(Debug)]
pub struct Rendered {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Extra response headers (e.g. the echoed `X-LIS-Request-Id`).
    pub extra_headers: Vec<(String, String)>,
    /// Whether write-side fault injection may mangle this response
    /// (analysis routes only).
    pub fault_eligible: bool,
    /// Close the connection after this response regardless of what the
    /// request asked (400/408/429 semantics).
    pub force_close: bool,
}

impl Rendered {
    /// A typed refusal the loop renders itself. The 400, 408 and 429 close
    /// the connection; the 504 answers one late request on a healthy
    /// connection, so it keeps it open and write faults may mangle it like
    /// the analysis answer it stands in for.
    fn refusal(e: &ServerError, extra_headers: Vec<(String, String)>) -> Rendered {
        let late = matches!(e, ServerError::Timeout { .. });
        Rendered {
            status: e.status(),
            content_type: "application/json".to_string(),
            body: e.to_json().to_string().into_bytes(),
            extra_headers,
            fault_eligible: late,
            force_close: !late,
        }
    }
}

/// What [`Handler::dispatch`] decided about one complete request.
pub enum Outcome {
    /// Answer now (control plane, cache hit, typed error).
    Respond(Rendered),
    /// A worker answers later through [`Completions`]; `timeout` arms a
    /// loop-side deadline answered with the typed 504 (see
    /// [`Handler::job_timeout`]).
    Pending {
        /// Deadline for the asynchronous answer, if any.
        timeout: Option<Duration>,
    },
}

/// An asynchronous answer for `key`.
pub enum Completion {
    /// The complete response.
    Full(Rendered),
    /// Start of a chunked stream (`/batch`, `/sweep`): status line +
    /// headers.
    StreamHead {
        /// HTTP status code.
        status: u16,
        /// `Content-Type` header value.
        content_type: String,
        /// Extra response headers.
        extra_headers: Vec<(String, String)>,
    },
    /// Stream payload already in chunked transfer encoding: one or more
    /// complete `<hex size>\r\n<data>\r\n` frames, as a
    /// [`crate::http::ChunkBatcher`] flushes them. The loop writes these
    /// bytes unchanged, so the producer alone decides frame boundaries;
    /// it must never send an empty frame (that would end the body).
    StreamChunk(Vec<u8>),
    /// End of the stream: the loop writes the terminating zero chunk.
    StreamEnd,
    /// The producer died mid-stream: the loop flushes what was already
    /// sent, then closes the connection *without* the terminating chunk,
    /// so the peer sees a truncated body instead of waiting forever.
    StreamAbort,
}

/// The sending side of the completion channel, cloned into worker jobs.
/// Every send nudges the event loop awake through a socketpair byte.
#[derive(Clone)]
pub struct Completions {
    tx: mpsc::Sender<(SlotKey, Completion)>,
    wake: Arc<UnixStream>,
}

impl Completions {
    /// Delivers one completion to the loop and wakes it.
    pub fn send(&self, key: SlotKey, completion: Completion) {
        let _ = self.tx.send((key, completion));
        // A full wake pipe means a wakeup is already pending.
        let _ = io::Write::write(&mut (&*self.wake), &[1u8]);
    }
}

/// Event-loop tuning, derived from the server/gateway config.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Concurrent-connection cap (429 beyond it).
    pub max_connections: usize,
    /// Wall-clock budget for one request to fully arrive (408 beyond it).
    pub read_deadline: Duration,
    /// The fault plan's `slow_read` parse delay, `write_chunk` write cap
    /// and write-fault draws, if a plan is armed; `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
    /// How long drain waits for in-flight connections before force-closing.
    pub drain_grace: Duration,
}

impl FrontConfig {
    fn slow_read(&self) -> Option<Duration> {
        self.faults.as_ref().and_then(|p| p.slow_read())
    }

    /// The most bytes one write may send.
    fn write_cap(&self) -> usize {
        let cap = self.faults.as_ref().and_then(|p| p.write_chunk());
        cap.unwrap_or(usize::MAX)
    }
}

/// Application logic the loop calls into. All methods run on the loop
/// thread; the handler moves slow work onto workers itself.
pub trait Handler {
    /// Routes one complete request.
    fn dispatch(&self, request: Request, key: SlotKey, completions: &Completions) -> Outcome;
    /// Records a refusal the loop answered itself after `elapsed`: the 408
    /// for a missed read deadline or the 429 for a connection over the
    /// cap. Protocol-violation 400s are not recorded.
    fn refused(&self, _error: &ServerError, _elapsed: Duration) {}
    /// A pending answer missed its deadline and the loop answers the typed
    /// 504 in its place: the handler drops its bookkeeping for `key` and
    /// returns the headers the 504 echoes.
    fn job_timeout(&self, _key: SlotKey) -> Vec<(String, String)> {
        Vec::new()
    }
    /// Whether the daemon is draining.
    fn shutting_down(&self) -> bool;
}

struct StreamHeadData {
    status: u16,
    content_type: String,
    extra_headers: Vec<(String, String)>,
}

enum Answer {
    Full(Rendered),
    Stream {
        head: Option<StreamHeadData>,
        keep_alive: bool,
        chunks: VecDeque<Vec<u8>>,
        ended: bool,
        aborted: bool,
    },
}

struct Conn {
    stream: TcpStream,
    gen: u64,
    /// Counted toward the cap/gauge (rejected connections are not).
    counted: bool,
    read_buf: Vec<u8>,
    write: WriteQueue,
    interest: Interest,
    next_seq: u64,
    next_write_seq: u64,
    answers: BTreeMap<u64, Answer>,
    /// seq → the request asked `Connection: close`.
    wants_close: std::collections::HashMap<u64, bool>,
    inflight: HashSet<u64>,
    awaiting_first_byte: bool,
    read_deadline_at: Option<Instant>,
    /// A `Timer::ReadDeadline` of this connection is in the heap. It is
    /// due at or before `read_deadline_at`, which only moves later.
    read_deadline_queued: bool,
    parse_gate_at: Option<Instant>,
    /// No more reads or parses; close once everything queued has flushed.
    poisoned: bool,
    peer_eof: bool,
}

impl Conn {
    /// Starts the read deadline at `at`, pushing a timer only when none of
    /// this connection's is pending: one that comes due before the
    /// deadline is pushed again at it (see `fire_timers`), so the heap
    /// holds at most one read deadline per connection however many
    /// requests it pipelines.
    fn arm_read_deadline(&mut self, slot: usize, at: Instant, timers: &mut Timers) {
        self.read_deadline_at = Some(at);
        if !self.read_deadline_queued {
            self.read_deadline_queued = true;
            let gen = self.gen;
            timers.push(std::cmp::Reverse((at, Timer::ReadDeadline { slot, gen })));
        }
    }

    fn unanswered(&self) -> usize {
        self.inflight.len() + self.answers.len()
    }

    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.poisoned && !self.peer_eof && self.unanswered() < PIPELINE_LIMIT,
            writable: !self.write.is_empty(),
        }
    }

    fn should_close(&self) -> bool {
        if !self.write.is_empty() {
            return false;
        }
        if self.poisoned {
            return self.answers.is_empty();
        }
        if self.peer_eof {
            return self.inflight.is_empty() && self.answers.is_empty();
        }
        false
    }

    fn quiescent(&self) -> bool {
        self.unanswered() == 0 && self.write.is_empty()
    }

    /// Queues a closing refusal as the next answer: it goes out once
    /// everything answered before it has flushed, and nothing more is read
    /// or parsed.
    fn refuse(&mut self, e: &ServerError) {
        self.answers.insert(
            self.next_seq,
            Answer::Full(Rendered::refusal(e, Vec::new())),
        );
        self.next_seq += 1;
        self.read_buf.clear();
        self.read_deadline_at = None;
        self.parse_gate_at = None;
        self.poisoned = true;
    }

    /// Moves completed answers, in sequence order, into the write queue.
    /// `faults` draws the write fault of each fault-eligible response.
    fn flush_answers(&mut self, draining: bool, faults: Option<&FaultPlan>) {
        loop {
            let seq = self.next_write_seq;
            let Some(answer) = self.answers.remove(&seq) else {
                return;
            };
            match answer {
                Answer::Full(r) => {
                    let wants_close = self.wants_close.remove(&seq).unwrap_or(false);
                    let keep_alive = !r.force_close && !wants_close && !draining;
                    let extras: Vec<(&str, &str)> = r
                        .extra_headers
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    let wire = render_response_with(
                        r.status,
                        &r.content_type,
                        &r.body,
                        keep_alive,
                        &extras,
                    );
                    let fault = match faults {
                        Some(plan) if r.fault_eligible => plan.write_fault(),
                        _ => WriteFault::None,
                    };
                    match fault {
                        WriteFault::None => self.write.push(wire),
                        WriteFault::Truncate => {
                            self.write.push(wire[..wire.len() / 2].to_vec());
                            self.poisoned = true;
                        }
                        WriteFault::Garbage => {
                            self.write.push(GARBAGE_BYTES.to_vec());
                            self.poisoned = true;
                        }
                    }
                    if !keep_alive {
                        self.poisoned = true;
                    }
                    self.next_write_seq += 1;
                }
                Answer::Stream {
                    mut head,
                    mut keep_alive,
                    mut chunks,
                    ended,
                    aborted,
                } => {
                    if let Some(h) = head.take() {
                        let wants_close = self.wants_close.remove(&seq).unwrap_or(false);
                        keep_alive = !wants_close && !draining;
                        let extras: Vec<(&str, &str)> = h
                            .extra_headers
                            .iter()
                            .map(|(k, v)| (k.as_str(), v.as_str()))
                            .collect();
                        let mut wire = Vec::new();
                        let _ = write_chunked_head(
                            &mut wire,
                            h.status,
                            &h.content_type,
                            keep_alive,
                            &extras,
                        );
                        self.write.push(wire);
                    }
                    // Chunks arrive framed by the producer: push them as-is.
                    while let Some(chunk) = chunks.pop_front() {
                        self.write.push(chunk);
                    }
                    if aborted {
                        // No terminating chunk: closing is the only honest
                        // signal that the body is incomplete.
                        self.poisoned = true;
                        self.next_write_seq += 1;
                    } else if ended {
                        self.write.push(LAST_CHUNK.to_vec());
                        if !keep_alive {
                            self.poisoned = true;
                        }
                        self.next_write_seq += 1;
                    } else {
                        // Still streaming: park the (headless) entry and
                        // wait for more chunks.
                        self.answers.insert(
                            seq,
                            Answer::Stream {
                                head: None,
                                keep_alive,
                                chunks,
                                ended,
                                aborted,
                            },
                        );
                        return;
                    }
                }
            }
            if self.poisoned {
                // A closing response ends the conversation; everything
                // queued behind it is dropped.
                self.answers.clear();
                self.inflight.clear();
                self.wants_close.clear();
                return;
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    ReadDeadline { slot: usize, gen: u64 },
    ParseGate { slot: usize, gen: u64 },
    JobTimeout(SlotKey, Duration),
}

/// Pending timers, earliest first.
type Timers = BinaryHeap<std::cmp::Reverse<(Instant, Timer)>>;

/// The event loop itself. Construct with [`EventLoop::new`], then call
/// [`EventLoop::run`]; it returns after the handler reports shutdown and
/// the drain completes.
pub struct EventLoop<H: Handler> {
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    completions_rx: mpsc::Receiver<(SlotKey, Completion)>,
    completions: Completions,
    handler: H,
    config: FrontConfig,
    stats: Arc<NetStats>,
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    pending_free: Vec<usize>,
    timers: Timers,
    next_gen: u64,
    drain_started: Option<Instant>,
}

impl<H: Handler> EventLoop<H> {
    /// Wraps a bound listener. The listener is switched to nonblocking.
    ///
    /// # Errors
    ///
    /// Propagates poller/socketpair creation and registration failures.
    pub fn new(
        listener: TcpListener,
        handler: H,
        config: FrontConfig,
        stats: Arc<NetStats>,
    ) -> io::Result<EventLoop<H>> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        let (tx, rx) = mpsc::channel();
        Ok(EventLoop {
            poller,
            listener,
            wake_rx,
            completions_rx: rx,
            completions: Completions {
                tx,
                wake: Arc::new(wake_tx),
            },
            handler,
            config,
            stats,
            slots: Vec::new(),
            free: Vec::new(),
            pending_free: Vec::new(),
            timers: BinaryHeap::new(),
            next_gen: 0,
            drain_started: None,
        })
    }

    /// Serves until the handler reports shutdown and every connection has
    /// drained (or the drain grace expires).
    ///
    /// # Errors
    ///
    /// Fatal accept/poll errors only; per-connection errors close that
    /// connection.
    pub fn run(mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        while !self.turn(&mut events)? {}
        Ok(())
    }

    /// One iteration of the loop: wait for readiness (or the next timer),
    /// handle it, fire due timers. Returns `true` once the drain is over.
    fn turn(&mut self, events: &mut Vec<Event>) -> io::Result<bool> {
        if self.handler.shutting_down() && self.drain_started.is_none() {
            self.begin_drain();
        }
        if let Some(started) = self.drain_started {
            let idle = self.slots.iter().all(Option::is_none);
            if idle || Instant::now() >= started + self.config.drain_grace {
                // Past the grace: force-close stragglers.
                for slot in 0..self.slots.len() {
                    self.close_slot(slot);
                }
                return Ok(true);
            }
        }
        let timeout = self.next_wait_timeout();
        self.poller.wait(events, Some(timeout))?;
        self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
        let batch: Vec<Event> = events.clone();
        for ev in batch {
            match ev.token {
                TOKEN_LISTENER => self.accept_ready()?,
                TOKEN_WAKE => {
                    let mut sink = Vec::new();
                    let _ = read_available(&mut (&self.wake_rx), &mut sink);
                }
                token => self.conn_event(token - TOKEN_BASE, ev),
            }
        }
        self.drain_completions();
        self.fire_timers();
        // Slot reuse is deferred one iteration so stale events in the
        // same batch cannot reach a fresh connection.
        let recycled = std::mem::take(&mut self.pending_free);
        self.free.extend(recycled);
        Ok(false)
    }

    fn next_wait_timeout(&self) -> Duration {
        let mut timeout = IDLE_POLL;
        if let Some(std::cmp::Reverse((due, _))) = self.timers.peek() {
            timeout = timeout.min(due.saturating_duration_since(Instant::now()));
        }
        timeout
    }

    fn begin_drain(&mut self) {
        self.drain_started = Some(Instant::now());
        self.poller.deregister(self.listener.as_raw_fd());
        // Idle keep-alive connections close immediately; in-flight ones
        // close after their pending responses flush (keep_alive renders
        // false while draining).
        for slot in 0..self.slots.len() {
            let close = match &mut self.slots[slot] {
                Some(conn) => {
                    if conn.quiescent() && conn.read_buf.is_empty() {
                        conn.poisoned = true;
                    }
                    conn.should_close()
                }
                None => false,
            };
            if close {
                self.close_slot(slot);
            }
        }
    }

    fn accept_ready(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.drain_started.is_some() {
                        drop(stream);
                        continue;
                    }
                    let open = self.stats.connections_open.load(Ordering::Acquire);
                    let rejected = open >= self.config.max_connections as i64;
                    if let Err(e) = stream
                        .set_nonblocking(true)
                        .and_then(|()| stream.set_nodelay(true))
                    {
                        // The peer vanished between accept and setup.
                        let _ = e;
                        continue;
                    }
                    let gen = self.next_gen;
                    self.next_gen += 1;
                    let mut conn = Conn {
                        stream,
                        gen,
                        counted: !rejected,
                        read_buf: Vec::new(),
                        write: WriteQueue::default(),
                        interest: Interest::READ,
                        next_seq: 0,
                        next_write_seq: 0,
                        answers: BTreeMap::new(),
                        wants_close: std::collections::HashMap::new(),
                        inflight: HashSet::new(),
                        awaiting_first_byte: true,
                        read_deadline_at: None,
                        read_deadline_queued: false,
                        parse_gate_at: None,
                        poisoned: false,
                        peer_eof: false,
                    };
                    if rejected {
                        // Typed 429, written on the loop, then close.
                        let e = ServerError::TooManyConnections {
                            limit: self.config.max_connections,
                        };
                        self.handler.refused(&e, Duration::ZERO);
                        conn.refuse(&e);
                        let faults = self.config.faults.as_deref();
                        conn.flush_answers(self.handler.shutting_down(), faults);
                    } else {
                        self.stats.connections_open.fetch_add(1, Ordering::AcqRel);
                    }
                    let slot = match self.free.pop() {
                        Some(slot) => {
                            self.slots[slot] = Some(conn);
                            slot
                        }
                        None => {
                            self.slots.push(Some(conn));
                            self.slots.len() - 1
                        }
                    };
                    let conn = self.slots[slot].as_mut().expect("just inserted");
                    let interest = conn.desired_interest();
                    conn.interest = interest;
                    if self
                        .poller
                        .register(conn.stream.as_raw_fd(), TOKEN_BASE + slot, interest)
                        .is_err()
                    {
                        self.close_slot(slot);
                        continue;
                    }
                    // A rejected connection may already be fully writable.
                    self.after_change(slot);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn conn_event(&mut self, slot: usize, ev: Event) {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if ev.hangup || (ev.readable && conn.desired_interest().readable) {
            match read_available(&mut conn.stream, &mut conn.read_buf) {
                Ok((n, eof)) => {
                    if eof {
                        conn.peer_eof = true;
                    }
                    if n > 0 && conn.awaiting_first_byte {
                        conn.awaiting_first_byte = false;
                        let now = Instant::now();
                        if let Some(delay) = self.config.slow_read() {
                            // The injected trickle: parsing is gated,
                            // and the read deadline starts only after
                            // the gate.
                            conn.parse_gate_at = Some(now + delay);
                            self.timers.push(std::cmp::Reverse((
                                now + delay,
                                Timer::ParseGate {
                                    slot,
                                    gen: conn.gen,
                                },
                            )));
                        } else {
                            let at = now + self.config.read_deadline;
                            conn.arm_read_deadline(slot, at, &mut self.timers);
                        }
                    }
                }
                Err(_) => {
                    self.close_slot(slot);
                    return;
                }
            }
        }
        if ev.writable {
            let cap = self.config.write_cap();
            let Some(conn) = self.slots[slot].as_mut() else {
                return;
            };
            if conn.write.drain(&mut &conn.stream, cap).is_err() {
                self.close_slot(slot);
                return;
            }
        }
        self.process_buffer(slot);
        self.after_change(slot);
    }

    /// Parses as many complete requests as the buffer and the pipeline
    /// limit allow, dispatching each.
    fn process_buffer(&mut self, slot: usize) {
        loop {
            let now = Instant::now();
            let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.poisoned {
                return;
            }
            if conn.unanswered() >= PIPELINE_LIMIT {
                return;
            }
            if conn.parse_gate_at.is_some_and(|t| now < t) {
                return;
            }
            if conn.read_buf.is_empty() {
                return;
            }
            match request_progress(&conn.read_buf) {
                RequestProgress::Empty => return,
                RequestProgress::Partial => {
                    if conn.peer_eof {
                        // EOF mid-request: close silently, as the blocking
                        // parser's UnexpectedEof would.
                        conn.read_buf.clear();
                        conn.poisoned = true;
                    }
                    return;
                }
                RequestProgress::Violation(e) => {
                    conn.refuse(&ServerError::BadRequest(e.to_string()));
                    return;
                }
                RequestProgress::Complete { request, consumed } => {
                    conn.read_buf.drain(..consumed);
                    conn.read_deadline_at = None;
                    conn.parse_gate_at = None;
                    let wants_close = request.wants_close();
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    let key = SlotKey {
                        conn: slot,
                        gen: conn.gen,
                        seq,
                    };
                    conn.wants_close.insert(seq, wants_close);
                    let depth = conn.unanswered() + 1;
                    self.stats.observe_depth(depth);
                    match self.handler.dispatch(*request, key, &self.completions) {
                        Outcome::Respond(r) => {
                            conn.answers.insert(seq, Answer::Full(r));
                        }
                        Outcome::Pending { timeout } => {
                            conn.inflight.insert(seq);
                            if let Some(after) = timeout {
                                let timer = Timer::JobTimeout(key, after);
                                self.timers.push(std::cmp::Reverse((now + after, timer)));
                            }
                        }
                    }
                    // More pipelined bytes? The next request's read
                    // deadline starts now (its first byte is already
                    // here), gated by the slow-read fault like the first.
                    if conn.read_buf.is_empty() {
                        conn.awaiting_first_byte = true;
                    } else if let Some(delay) = self.config.slow_read() {
                        conn.parse_gate_at = Some(now + delay);
                        let gen = conn.gen;
                        self.timers.push(std::cmp::Reverse((
                            now + delay,
                            Timer::ParseGate { slot, gen },
                        )));
                        return;
                    } else {
                        let at = now + self.config.read_deadline;
                        conn.arm_read_deadline(slot, at, &mut self.timers);
                    }
                }
            }
        }
    }

    /// Flush ready answers, drain the write queue, update interest, and
    /// close if the connection reached that state.
    fn after_change(&mut self, slot: usize) {
        // Flushing answers can unblock parsing (pipeline limit) and
        // parsing can produce answers, so pump until a fixed point.
        for _ in 0..PIPELINE_LIMIT + 2 {
            let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let before = (conn.next_write_seq, conn.write.is_empty());
            conn.flush_answers(self.handler.shutting_down(), self.config.faults.as_deref());
            let cap = self.config.write_cap();
            if conn.write.drain(&mut &conn.stream, cap).is_err() {
                self.close_slot(slot);
                return;
            }
            let after = (conn.next_write_seq, conn.write.is_empty());
            let could_parse = !conn.poisoned && !conn.read_buf.is_empty();
            if after == before && !could_parse {
                break;
            }
            if could_parse {
                self.process_buffer(slot);
            }
            if after == before {
                break;
            }
        }
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.should_close() {
            self.close_slot(slot);
            return;
        }
        let desired = conn.desired_interest();
        if desired != conn.interest {
            conn.interest = desired;
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.modify(fd, TOKEN_BASE + slot, desired);
        }
    }

    fn close_slot(&mut self, slot: usize) {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::take) else {
            return;
        };
        self.poller.deregister(conn.stream.as_raw_fd());
        if conn.counted {
            self.stats.connections_open.fetch_sub(1, Ordering::AcqRel);
        }
        self.pending_free.push(slot);
    }

    fn drain_completions(&mut self) {
        while let Ok((key, completion)) = self.completions_rx.try_recv() {
            let Some(conn) = self.slots.get_mut(key.conn).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != key.gen {
                continue;
            }
            match completion {
                Completion::Full(r) => {
                    if conn.inflight.remove(&key.seq) {
                        conn.answers.insert(key.seq, Answer::Full(r));
                    }
                }
                Completion::StreamHead {
                    status,
                    content_type,
                    extra_headers,
                } => {
                    if conn.inflight.contains(&key.seq) {
                        conn.answers.insert(
                            key.seq,
                            Answer::Stream {
                                head: Some(StreamHeadData {
                                    status,
                                    content_type,
                                    extra_headers,
                                }),
                                keep_alive: true,
                                chunks: VecDeque::new(),
                                ended: false,
                                aborted: false,
                            },
                        );
                    }
                }
                Completion::StreamChunk(data) => {
                    if let Some(Answer::Stream { chunks, .. }) = conn.answers.get_mut(&key.seq) {
                        chunks.push_back(data);
                    }
                }
                Completion::StreamEnd => {
                    if let Some(Answer::Stream { ended, .. }) = conn.answers.get_mut(&key.seq) {
                        *ended = true;
                        conn.inflight.remove(&key.seq);
                    }
                }
                Completion::StreamAbort => {
                    if let Some(Answer::Stream { aborted, .. }) = conn.answers.get_mut(&key.seq) {
                        *aborted = true;
                        conn.inflight.remove(&key.seq);
                    }
                }
            }
            self.after_change(key.conn);
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while let Some(std::cmp::Reverse((due, _))) = self.timers.peek() {
            if *due > now {
                return;
            }
            let std::cmp::Reverse((_, timer)) = self.timers.pop().expect("peeked");
            match timer {
                Timer::ReadDeadline { slot, gen } => {
                    let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
                        continue;
                    };
                    if conn.gen != gen {
                        continue;
                    }
                    conn.read_deadline_queued = false;
                    match conn.read_deadline_at {
                        None => continue,
                        // The deadline moved since this entry was pushed.
                        Some(at) if at > now => {
                            conn.arm_read_deadline(slot, at, &mut self.timers);
                            continue;
                        }
                        Some(_) => {}
                    }
                    // Slow loris: typed 408 after everything already
                    // answered flushes, then close.
                    let deadline = self.config.read_deadline;
                    let e = ServerError::SlowClient {
                        deadline_ms: deadline.as_millis() as u64,
                    };
                    self.handler.refused(&e, deadline);
                    conn.refuse(&e);
                    self.after_change(slot);
                }
                Timer::ParseGate { slot, gen } => {
                    let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
                        continue;
                    };
                    if conn.gen != gen || conn.parse_gate_at.is_none_or(|t| t > now) {
                        continue;
                    }
                    conn.parse_gate_at = None;
                    // The read deadline starts after the injected delay.
                    let at = now + self.config.read_deadline;
                    conn.arm_read_deadline(slot, at, &mut self.timers);
                    self.process_buffer(slot);
                    self.after_change(slot);
                }
                Timer::JobTimeout(key, after) => {
                    let Some(conn) = self.slots.get_mut(key.conn).and_then(Option::as_mut) else {
                        continue;
                    };
                    if conn.gen != key.gen || !conn.inflight.remove(&key.seq) {
                        continue;
                    }
                    let e = ServerError::Timeout {
                        timeout_ms: after.as_millis() as u64,
                    };
                    let rendered = Rendered::refusal(&e, self.handler.job_timeout(key));
                    conn.answers.insert(key.seq, Answer::Full(rendered));
                    self.after_change(key.conn);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, write_request};
    use std::io::{BufReader, Write};
    use std::sync::atomic::AtomicBool;

    /// Echoes the request path; `/slow` answers through the completion
    /// channel after a delay, so pipelined ordering is actually exercised;
    /// `/dies-mid-stream` starts a chunked stream from a job that panics
    /// after its first chunk.
    struct EchoHandler {
        shutdown: Arc<AtomicBool>,
    }

    /// A plain JSON answer with no extra headers and default flags.
    fn json(status: u16, body: Vec<u8>) -> Rendered {
        Rendered {
            status,
            content_type: "application/json".to_string(),
            body,
            extra_headers: Vec::new(),
            fault_eligible: false,
            force_close: false,
        }
    }

    impl Handler for EchoHandler {
        fn dispatch(&self, request: Request, key: SlotKey, completions: &Completions) -> Outcome {
            if request.path == "/shutdown" {
                self.shutdown.store(true, Ordering::Release);
                return Outcome::Respond(json(200, b"bye".to_vec()));
            }
            if request.path == "/slow" {
                let completions = completions.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(40));
                    completions.send(key, Completion::Full(json(200, b"slow".to_vec())));
                });
                return Outcome::Pending {
                    timeout: Some(Duration::from_secs(5)),
                };
            }
            if request.path == "/dies-mid-stream" {
                let completions = completions.clone();
                std::thread::spawn(move || {
                    let send = |c| completions.send(key, c);
                    let outcome = std::panic::catch_unwind(|| {
                        send(Completion::StreamHead {
                            status: 200,
                            content_type: "application/x-ndjson".to_string(),
                            extra_headers: Vec::new(),
                        });
                        send(Completion::StreamChunk(b"4\r\nrow\n\r\n".to_vec()));
                        panic!("{} (stream job)", crate::fault::INJECTED_PANIC_MARKER);
                    });
                    if outcome.is_err() {
                        send(Completion::StreamAbort);
                    }
                });
                return Outcome::Pending { timeout: None };
            }
            Outcome::Respond(json(200, request.path.into_bytes()))
        }

        fn shutting_down(&self) -> bool {
            self.shutdown.load(Ordering::Acquire)
        }
    }

    fn spawn_echo(
        write_chunk: Option<usize>,
        read_deadline: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handler = EchoHandler {
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        let config = FrontConfig {
            max_connections: 64,
            read_deadline,
            faults: write_chunk
                .map(|n| Arc::new(FaultPlan::parse(&format!("write_chunk:{n}")).expect("spec"))),
            drain_grace: Duration::from_secs(5),
        };
        let stats = Arc::new(NetStats::new());
        let event_loop = EventLoop::new(listener, handler, config, stats).expect("loop");
        let handle = std::thread::spawn(move || event_loop.run().expect("run"));
        (addr, handle)
    }

    fn shutdown(addr: std::net::SocketAddr) {
        let mut s = TcpStream::connect(addr).expect("connect");
        write_request(&mut s, "POST", "/shutdown", b"").expect("write");
        let _ = read_response(&mut BufReader::new(s));
    }

    #[test]
    fn pipelined_responses_come_back_in_request_order() {
        let (addr, handle) = spawn_echo(None, Duration::from_secs(5));
        let mut stream = TcpStream::connect(addr).expect("connect");
        // /slow answers ~40ms late; /a and /b are immediate. Order must
        // still be slow, a, b.
        let mut wire = Vec::new();
        write_request(&mut wire, "GET", "/slow", b"").unwrap();
        write_request(&mut wire, "GET", "/a", b"").unwrap();
        write_request(&mut wire, "GET", "/b", b"").unwrap();
        stream.write_all(&wire).expect("pipeline");
        let mut reader = BufReader::new(stream);
        for expected in [&b"slow"[..], b"/a", b"/b"] {
            let resp = read_response(&mut reader).expect("response");
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, expected);
        }
        shutdown(addr);
        handle.join().expect("loop exits");
    }

    #[test]
    fn short_writes_are_resumed_via_write_interest() {
        // Every writable event may move at most 7 bytes, so a response
        // crosses dozens of re-registrations and must still arrive whole.
        let (addr, handle) = spawn_echo(Some(7), Duration::from_secs(5));
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_request(&mut stream, "GET", "/partial-write-path", b"").expect("write");
        let mut reader = BufReader::new(stream);
        let resp = read_response(&mut reader).expect("response");
        assert_eq!(resp.body, b"/partial-write-path");
        shutdown(addr);
        handle.join().expect("loop exits");
    }

    #[test]
    fn read_deadline_answers_a_typed_408_and_closes() {
        let (addr, handle) = spawn_echo(None, Duration::from_millis(80));
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET /half").expect("trickle");
        let mut reader = BufReader::new(stream);
        let resp = read_response(&mut reader).expect("408");
        assert_eq!(resp.status, 408);
        shutdown(addr);
        handle.join().expect("loop exits");
    }

    #[test]
    fn pipelined_requests_keep_one_read_deadline_per_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handler = EchoHandler {
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        let config = FrontConfig {
            max_connections: 64,
            read_deadline: Duration::from_secs(60),
            faults: None,
            drain_grace: Duration::from_secs(5),
        };
        let mut event_loop =
            EventLoop::new(listener, handler, config, Arc::new(NetStats::new())).expect("loop");
        const REQUESTS: usize = 1_000;
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut wire = Vec::new();
            for i in 0..REQUESTS {
                write_request(&mut wire, "GET", &format!("/r{i}"), b"").unwrap();
            }
            stream.write_all(&wire).expect("pipeline");
            let mut reader = BufReader::new(stream);
            for i in 0..REQUESTS {
                let resp = read_response(&mut reader).expect("response");
                assert_eq!(resp.body, format!("/r{i}").as_bytes());
            }
        });
        let mut events = Vec::new();
        while !client.is_finished() {
            event_loop.turn(&mut events).expect("turn");
        }
        client.join().expect("every request answered in order");
        let deadlines = event_loop
            .timers
            .iter()
            .filter(|entry| matches!(entry.0 .1, Timer::ReadDeadline { .. }))
            .count();
        assert!(
            deadlines <= 1,
            "{deadlines} read deadlines pending for one connection"
        );
    }

    #[test]
    fn a_stream_whose_job_dies_is_closed_without_its_terminator() {
        crate::fault::silence_injected_panics();
        let (addr, handle) = spawn_echo(None, Duration::from_secs(5));
        let mut stream = TcpStream::connect(addr).expect("connect");
        // A pipelined follow-up must not be answered on the aborted stream.
        let mut wire = Vec::new();
        write_request(&mut wire, "GET", "/dies-mid-stream", b"").unwrap();
        write_request(&mut wire, "GET", "/after", b"").unwrap();
        stream.write_all(&wire).expect("pipeline");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut bytes = Vec::new();
        // EOF, not a hang: read_to_end returns once the loop closes.
        std::io::Read::read_to_end(&mut stream, &mut bytes).expect("EOF before the timeout");
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n4\r\nrow\n\r\n"), "{text}");
        let err = read_response(&mut BufReader::new(&bytes[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "a truncated body");
        shutdown(addr);
        handle.join().expect("loop exits");
    }
}
