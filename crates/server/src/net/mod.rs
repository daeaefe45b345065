//! The network tier: a vendored, zero-registry-deps readiness stack.
//!
//! Layers, bottom to top:
//!
//! * [`sys`] — raw `epoll`/`poll`/socket syscalls against the C library
//!   `std` already links (the only `unsafe` in the crate);
//! * [`poller`] — a safe level-triggered [`Poller`] (epoll on Linux,
//!   portable `poll(2)` elsewhere);
//! * [`conn`] — incremental HTTP parsing over growable buffers, a
//!   partial-write-safe [`WriteQueue`], and buffer/stream glue;
//! * [`front`] — the [`EventLoop`]: nonblocking accept, pipelined
//!   request/response ordering, loop-side deadlines and the typed
//!   refusals they end in, graceful drain;
//! * [`probe`] — thread-free concurrent health probes, and the request
//!   race (hedging, failover and pooled keep-alive streams) that carries
//!   every gateway forward.
//!
//! The loop is the only connection front of both daemons: a single thread
//! holds every keep-alive connection and hands complete requests to the
//! bounded worker pool, which is
//! the paper's own prescription — throughput is set by the slowest
//! feedback loop, so the slow edge (client I/O) must be decoupled from
//! the fast core (analysis workers).

pub mod conn;
pub mod front;
pub mod poller;
pub mod probe;
pub mod sys;

pub use conn::{
    read_available, request_progress, response_progress, RequestProgress, ResponseProgress,
    WriteQueue,
};
pub use front::{
    Completion, Completions, EventLoop, FrontConfig, Handler, Outcome, Rendered, SlotKey,
};
pub use poller::{Event, Interest, Poller};
pub use probe::{probe_many, race, Launch, RaceAttempt, RaceOutcome, RaceResult, StreamPool};
pub use sys::raise_nofile_limit;
