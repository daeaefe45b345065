//! Read replication and warm handoff between shards.
//!
//! Rendezvous routing gives every key a ranked shard order; the gateway
//! replicates each primary answer to the *runner-up* (the second-ranked
//! healthy shard), so a primary crash leaves a warm copy one failover hop
//! away instead of forcing a recomputation. Two mechanisms:
//!
//! * **Write-behind push** ([`Replicator::push`]): after relaying a
//!   deterministic answer (200 or 422), the gateway queues a
//!   `POST /store/put` to the runner-up carrying the content address from
//!   the shard's `X-LIS-Cache-Key` header. Pushes ride the same poller
//!   exchange machinery as health probes and hedge races
//!   ([`lis_server::net::race`]) on one background thread — the client's
//!   request never waits on replication.
//! * **Warm handoff** ([`warm_handoff`]): when a shard (re)joins — a
//!   respawned child or a recovered probe — the gateway streams the index
//!   diff from a healthy donor (`GET /store/index` on both sides, set
//!   difference) and copies the missing entries over
//!   (`POST /store/get` → `POST /store/put`), so the newcomer starts warm
//!   instead of cold.
//!
//! Replication is strictly best-effort: a dropped or failed push costs a
//! recomputation on failover, never a wrong answer — `/store/put` is
//! first-write-wins on the receiving shard, and bodies travel verbatim,
//! so a replicated answer stays byte-identical to the original.

use std::collections::{HashSet, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use lis_server::http::write_request_with;
use lis_server::net::{race, RaceAttempt, RaceOutcome};
use lis_server::wire::{obj, Json};
use lis_server::Client;

/// Queued replication jobs beyond this are dropped (and counted) instead
/// of buffering unboundedly behind a slow runner-up.
const QUEUE_CAP: usize = 4096;

/// Recently queued `(target, key)` pairs remembered to suppress duplicate
/// pushes of a hot key to the same shard.
const DEDUPE_CAP: usize = 4096;

/// Wall-clock budget for one `/store/put` push exchange.
const PUSH_TIMEOUT: Duration = Duration::from_secs(5);

/// Entry cap for one warm handoff — bounds how long a rejoining shard's
/// catch-up transfer can run.
const HANDOFF_LIMIT: usize = 4096;

/// Counters for the replication subsystem, rendered as
/// `lis_replication_*` series in the gateway's `/metrics`.
#[derive(Debug, Default)]
pub struct ReplicationStats {
    /// Answers successfully written back to a runner-up shard.
    pub pushes: AtomicU64,
    /// Push attempts that failed (transport error or a non-200 answer).
    pub push_failures: AtomicU64,
    /// Jobs dropped because the replication queue was full.
    pub dropped: AtomicU64,
    /// Warm handoffs completed for (re)joining shards.
    pub handoffs: AtomicU64,
    /// Entries transferred across all completed warm handoffs.
    pub handoff_entries: AtomicU64,
}

enum Job {
    Push {
        addr: SocketAddr,
        payload: String,
    },
    Handoff {
        donor: SocketAddr,
        target: SocketAddr,
    },
    Flush(SyncSender<()>),
}

/// Recently queued pushes, FIFO-bounded: a hot key answered many times in
/// a row replicates once per target, not once per request.
#[derive(Default)]
struct Recent {
    set: HashSet<(SocketAddr, String)>,
    order: VecDeque<(SocketAddr, String)>,
}

/// The write-behind replication worker: one background thread drains a
/// bounded queue of push and handoff jobs so the request path never
/// blocks on a replica round trip.
pub struct Replicator {
    sender: Option<Sender<Job>>,
    worker: Option<JoinHandle<()>>,
    stats: Arc<ReplicationStats>,
    recent: Mutex<Recent>,
    pending: Arc<AtomicUsize>,
}

impl Replicator {
    /// Starts the replication worker, counting into `stats`.
    pub fn new(stats: Arc<ReplicationStats>) -> Replicator {
        let (sender, jobs) = mpsc::channel::<Job>();
        let pending = Arc::new(AtomicUsize::new(0));
        let worker = {
            let stats = Arc::clone(&stats);
            let pending = Arc::clone(&pending);
            std::thread::spawn(move || worker_loop(&jobs, &stats, &pending))
        };
        Replicator {
            sender: Some(sender),
            worker: Some(worker),
            stats,
            recent: Mutex::new(Recent::default()),
            pending,
        }
    }

    /// Queues one answer for write-back to `target`'s store. `key` is the
    /// canonical hex cache key from the shard's `X-LIS-Cache-Key` header;
    /// `body` travels verbatim. Duplicate `(target, key)` pushes within
    /// the dedupe window are silently skipped; a full queue drops the job
    /// and counts it.
    pub fn push(&self, target: SocketAddr, key: &str, status: u16, body: &[u8]) {
        {
            let mut recent = self.recent.lock().expect("replication dedupe lock");
            if !recent.set.insert((target, key.to_string())) {
                return;
            }
            recent.order.push_back((target, key.to_string()));
            while recent.order.len() > DEDUPE_CAP {
                let oldest = recent.order.pop_front().expect("order tracks set");
                recent.set.remove(&oldest);
            }
        }
        let payload = obj([
            ("key", Json::str(key)),
            ("status", Json::num(f64::from(status))),
            (
                "body",
                Json::str(String::from_utf8_lossy(body).into_owned()),
            ),
        ])
        .to_string();
        self.enqueue(Job::Push {
            addr: target,
            payload,
        });
    }

    /// Queues a warm handoff: stream the store-index diff from `donor`
    /// into `target`, copying entries `target` is missing.
    pub fn schedule_handoff(&self, donor: SocketAddr, target: SocketAddr) {
        self.enqueue(Job::Handoff { donor, target });
    }

    fn enqueue(&self, job: Job) {
        if self.pending.load(Ordering::Acquire) >= QUEUE_CAP {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.pending.fetch_add(1, Ordering::AcqRel);
        if let Some(sender) = &self.sender {
            if sender.send(job).is_ok() {
                return;
            }
        }
        self.pending.fetch_sub(1, Ordering::AcqRel);
    }

    /// Blocks until every job queued before this call has been processed
    /// (test determinism: assert on counters only after a flush).
    pub fn flush(&self) {
        let (ack, done) = mpsc::sync_channel(1);
        if let Some(sender) = &self.sender {
            if sender.send(Job::Flush(ack)).is_ok() {
                let _ = done.recv();
            }
        }
    }

    /// Jobs queued but not yet processed.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        // Disconnect the channel so the worker drains what's queued and
        // exits, then reap it.
        drop(self.sender.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn worker_loop(jobs: &Receiver<Job>, stats: &ReplicationStats, pending: &AtomicUsize) {
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Push { addr, payload } => {
                if push_once(addr, &payload) {
                    stats.pushes.fetch_add(1, Ordering::Relaxed);
                } else {
                    stats.push_failures.fetch_add(1, Ordering::Relaxed);
                }
                pending.fetch_sub(1, Ordering::AcqRel);
            }
            Job::Handoff { donor, target } => {
                if let Ok(moved) = warm_handoff(donor, target, HANDOFF_LIMIT) {
                    stats.handoffs.fetch_add(1, Ordering::Relaxed);
                    stats
                        .handoff_entries
                        .fetch_add(moved as u64, Ordering::Relaxed);
                } else {
                    stats.push_failures.fetch_add(1, Ordering::Relaxed);
                }
                pending.fetch_sub(1, Ordering::AcqRel);
            }
            Job::Flush(ack) => {
                let _ = ack.send(());
            }
        }
    }
}

/// One `/store/put` exchange on the shared poller machinery. True iff the
/// target answered 200 in time.
fn push_once(addr: SocketAddr, payload: &str) -> bool {
    let mut wire = Vec::with_capacity(payload.len() + 128);
    write_request_with(&mut wire, "POST", "/store/put", &[], payload.as_bytes())
        .expect("rendering to a Vec cannot fail");
    let leg = RaceAttempt {
        addr,
        delay: Some(Duration::ZERO),
        pool: None,
    };
    let result = race(&wire, &[leg], &[], PUSH_TIMEOUT);
    matches!(
        result.outcomes.first(),
        Some(RaceOutcome::Response { response, .. }) if response.status == 200
    )
}

/// Reads a shard's `/store/index` (NDJSON, one `{"key": "..."}` per line)
/// into a key list. Unparseable lines are skipped.
fn index_keys(client: &mut Client) -> io::Result<Vec<String>> {
    let response = client.request("GET", "/store/index", b"")?;
    if response.status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("/store/index answered {}", response.status),
        ));
    }
    let text = String::from_utf8_lossy(&response.body);
    let mut keys = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Ok(doc) = Json::parse(line) {
            if let Some(key) = doc.get("key").and_then(Json::as_str) {
                keys.push(key.to_string());
            }
        }
    }
    Ok(keys)
}

/// Copies up to `limit` entries `target` is missing from `donor`'s store:
/// index both sides, diff, then `POST /store/get` → `POST /store/put`
/// per missing key. Returns the number of entries transferred. Entries
/// the donor can no longer produce (evicted or quarantined between the
/// index read and the get) are skipped, not errors.
///
/// # Errors
///
/// Transport errors talking to either shard.
pub fn warm_handoff(donor: SocketAddr, target: SocketAddr, limit: usize) -> io::Result<usize> {
    let mut from = Client::connect(donor)?;
    let mut to = Client::connect(target)?;
    let have: HashSet<String> = index_keys(&mut to)?.into_iter().collect();
    let mut moved = 0usize;
    for key in index_keys(&mut from)? {
        if moved >= limit {
            break;
        }
        if have.contains(&key) {
            continue;
        }
        let ask = obj([("key", Json::str(key.as_str()))]).to_string();
        let found = from.request("POST", "/store/get", ask.as_bytes())?;
        if found.status != 200 {
            continue;
        }
        let Ok(text) = std::str::from_utf8(&found.body) else {
            continue;
        };
        let Ok(doc) = Json::parse(text) else {
            continue;
        };
        if !matches!(doc.get("found"), Some(Json::Bool(true))) {
            continue;
        }
        let Some(status) = doc.get("status").and_then(Json::as_u64) else {
            continue;
        };
        let Some(body) = doc.get("body").and_then(Json::as_str) else {
            continue;
        };
        let put = obj([
            ("key", Json::str(key.as_str())),
            ("status", Json::num(status as f64)),
            ("body", Json::str(body)),
        ])
        .to_string();
        if to.request("POST", "/store/put", put.as_bytes())?.status == 200 {
            moved += 1;
        }
    }
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// An address nothing listens on: bind an ephemeral port, drop it.
    fn dead_addr() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        drop(listener);
        addr
    }

    #[test]
    fn failed_pushes_are_counted_and_duplicates_deduped() {
        let stats = Arc::new(ReplicationStats::default());
        let replicator = Replicator::new(Arc::clone(&stats));
        let target = dead_addr();
        replicator.push(target, "00-00", 200, b"{}");
        // Same (target, key): suppressed before it ever queues.
        replicator.push(target, "00-00", 200, b"{}");
        replicator.push(target, "00-01", 200, b"{}");
        replicator.flush();
        assert_eq!(stats.pushes.load(Ordering::Relaxed), 0);
        assert_eq!(stats.push_failures.load(Ordering::Relaxed), 2);
        assert_eq!(stats.dropped.load(Ordering::Relaxed), 0);
        assert_eq!(replicator.pending(), 0);
    }

    #[test]
    fn handoff_against_a_dead_donor_fails_soft() {
        let stats = Arc::new(ReplicationStats::default());
        let replicator = Replicator::new(Arc::clone(&stats));
        replicator.schedule_handoff(dead_addr(), dead_addr());
        replicator.flush();
        assert_eq!(stats.handoffs.load(Ordering::Relaxed), 0);
        assert_eq!(stats.push_failures.load(Ordering::Relaxed), 1);
    }
}
