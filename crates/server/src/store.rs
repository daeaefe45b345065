//! The durable, content-addressed result store behind
//! [`ResultCache`](crate::ResultCache).
//!
//! Carloni's observation makes persistence semantically free: a correct
//! analysis answer is a pure function of the canonical netlist and the
//! request kind, so the in-memory cache key ([`CacheKey`]) is already a
//! durable content address. This module spills finished responses to disk
//! under that address and warm-loads them on startup, converting a
//! SIGKILL + respawn from "recompute everything" into "serve warm".
//!
//! On-disk layout under the store directory:
//!
//! ```text
//! store/
//!   index.log              append-only record log, 32-byte checksummed
//!                          records, fsync'd on append
//!   entries/<xx>/<key>     one file per cached response body, written
//!                          tmp-then-rename (xx = first hash byte, hex)
//!   quarantine/            entries that failed validation, kept for
//!                          forensics instead of being trusted or deleted
//! ```
//!
//! Crash consistency is by write ordering, not locks:
//!
//! 1. The entry body is written to a `.tmp` file, fsync'd, and renamed
//!    into place **before** its index record is appended. An index record
//!    therefore never points at a missing or partial entry file.
//! 2. Index records carry a CRC32 over themselves; [`ResultStore::open`]
//!    replays the **longest checksummed prefix** of the log and truncates
//!    any torn tail a crash left behind.
//! 3. Entry bodies carry their own length + CRC32 in the index record;
//!    a mismatched body is quarantined (moved aside and counted), never
//!    returned.
//!
//! The store itself is synchronous. [`Spiller`] wraps it in a bounded
//! write-behind queue so cache inserts never wait on `fsync`; a drain
//! flushes the queue (see `DrainReport::spilled`).

use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::cache::{CacheKey, CachedResponse};
use crate::cpu::{ThreadCpu, ThreadRole};

/// Size of one index-log record, in bytes. Records are fixed-width, so a
/// truncation at byte `b` recovers exactly `b / RECORD_LEN` records —
/// the property the store's proptests pin down.
pub const RECORD_LEN: usize = 32;

/// First byte of every index record (torn/garbage tails fail this first).
pub const RECORD_MAGIC: u8 = 0xA5;

/// Record op: the keyed entry was inserted.
const OP_INSERT: u8 = 1;

/// Record op: the keyed entry was removed (GC or quarantine).
const OP_REMOVE: u8 = 2;

/// Pending spills beyond this are dropped (and counted) instead of
/// buffering unboundedly while the disk lags.
const SPILL_QUEUE_LIMIT: u64 = 4096;

/// CRC32 (IEEE, reflected) lookup table, built at compile time — the
/// workspace is fully offline, so the checksum is hand-rolled.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes` — the checksum guarding both index records and
/// entry bodies. Public so tests can author (and corrupt) store files.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Renders a cache key as the store's canonical hex spelling
/// (`<system 16 hex>-<request 16 hex>`), used for entry file names and
/// the `X-LIS-Cache-Key` response header.
pub fn key_hex(key: CacheKey) -> String {
    format!("{:016x}-{:016x}", key.system, key.request)
}

/// Parses the canonical hex spelling produced by [`key_hex`].
pub fn parse_key_hex(text: &str) -> Option<CacheKey> {
    let (system, request) = text.split_once('-')?;
    if system.len() != 16 || request.len() != 16 {
        return None;
    }
    Some(CacheKey {
        system: u64::from_str_radix(system, 16).ok()?,
        request: u64::from_str_radix(request, 16).ok()?,
    })
}

/// Index metadata for one stored entry: enough to validate the entry file
/// without trusting its content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// HTTP status of the original computation.
    pub status: u16,
    /// Exact body length in bytes.
    pub len: u32,
    /// CRC32 of the body bytes.
    pub crc: u32,
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4-byte slice"))
}

/// Encodes one fixed-width index record.
fn encode_record(op: u8, key: CacheKey, meta: EntryMeta) -> [u8; RECORD_LEN] {
    let mut rec = [0u8; RECORD_LEN];
    rec[0] = RECORD_MAGIC;
    rec[1] = op;
    rec[2..10].copy_from_slice(&key.system.to_le_bytes());
    rec[10..18].copy_from_slice(&key.request.to_le_bytes());
    rec[18..20].copy_from_slice(&meta.status.to_le_bytes());
    rec[20..24].copy_from_slice(&meta.len.to_le_bytes());
    rec[24..28].copy_from_slice(&meta.crc.to_le_bytes());
    let sum = crc32(&rec[..28]);
    rec[28..32].copy_from_slice(&sum.to_le_bytes());
    rec
}

/// Decodes one record that already passed the magic + CRC checks.
fn decode_record(rec: &[u8]) -> (u8, CacheKey, EntryMeta) {
    let key = CacheKey {
        system: read_u64(&rec[2..10]),
        request: read_u64(&rec[10..18]),
    };
    let meta = EntryMeta {
        status: u16::from_le_bytes(rec[18..20].try_into().expect("2-byte slice")),
        len: read_u32(&rec[20..24]),
        crc: read_u32(&rec[24..28]),
    };
    (rec[1], key, meta)
}

/// Whether a record slice is complete, magic-tagged, and checksummed.
fn record_valid(rec: &[u8]) -> bool {
    rec.len() >= RECORD_LEN && rec[0] == RECORD_MAGIC && crc32(&rec[..28]) == read_u32(&rec[28..32])
}

/// Best-effort directory fsync so a rename survives power loss, not just
/// SIGKILL. Failures are ignored: not every platform lets a directory be
/// opened for syncing, and the kill-based crash harness does not need it.
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

#[derive(Debug)]
struct StoreInner {
    log: File,
    index: HashMap<CacheKey, EntryMeta>,
    /// Insertion (FIFO eviction) order of the live keys.
    order: VecDeque<CacheKey>,
    /// Total body bytes of the live entries.
    bytes: u64,
}

/// The durable content-addressed store. Thread-safe; cheap to share via
/// `Arc`. All mutation is serialized under one mutex — the hot path stays
/// in RAM ([`ResultCache`]); the store only sees spills, warm loads, and
/// replication reads.
///
/// [`ResultCache`]: crate::cache::ResultCache
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    max_entries: usize,
    inner: Mutex<StoreInner>,
    spills: AtomicU64,
    disk_hits: AtomicU64,
    warm_loaded: AtomicU64,
    quarantined: AtomicU64,
    gc_evictions: AtomicU64,
    truncated_bytes: AtomicU64,
    write_errors: AtomicU64,
}

impl ResultStore {
    /// Opens (or creates) a store at `dir`, recovering the longest
    /// checksummed prefix of the index log, quarantining entries that fail
    /// validation, sweeping `.tmp` and orphaned entry files, and enforcing
    /// `max_entries` (0 = unbounded).
    ///
    /// Never panics on hostile on-disk state: torn tails are truncated,
    /// bad records stop the replay, and bad entries are quarantined with
    /// a counted metric.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating directories or opening the log.
    pub fn open(dir: impl Into<PathBuf>, max_entries: usize) -> io::Result<ResultStore> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("entries"))?;
        fs::create_dir_all(dir.join("quarantine"))?;
        let mut log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("index.log"))?;
        let mut raw = Vec::new();
        log.read_to_end(&mut raw)?;

        // Longest checksummed prefix: stop at the first torn/invalid record.
        let mut valid = 0usize;
        while valid + RECORD_LEN <= raw.len() && record_valid(&raw[valid..valid + RECORD_LEN]) {
            valid += RECORD_LEN;
        }
        let truncated = (raw.len() - valid) as u64;
        if truncated > 0 {
            log.set_len(valid as u64)?;
            log.sync_all()?;
        }
        log.seek(SeekFrom::End(0))?;

        // Replay the surviving records.
        let mut index: HashMap<CacheKey, EntryMeta> = HashMap::new();
        let mut order: VecDeque<CacheKey> = VecDeque::new();
        let mut bytes = 0u64;
        for rec in raw[..valid].chunks_exact(RECORD_LEN) {
            let (op, key, meta) = decode_record(rec);
            match op {
                OP_INSERT => {
                    if let Some(old) = index.insert(key, meta) {
                        bytes -= u64::from(old.len);
                    } else {
                        order.push_back(key);
                    }
                    bytes += u64::from(meta.len);
                }
                OP_REMOVE => {
                    if let Some(old) = index.remove(&key) {
                        bytes -= u64::from(old.len);
                        // Keep the order queue exact: a key removed and
                        // later reinserted must rejoin at the *back*, the
                        // same FIFO position the live store gave it.
                        order.retain(|k| *k != key);
                    }
                }
                // Unknown op with a valid checksum: a future format. Skip
                // the record rather than guessing.
                _ => {}
            }
        }
        // Collapse the order queue to one slot per surviving key (a
        // remove + reinsert leaves a stale position behind).
        let mut seen: HashSet<CacheKey> = HashSet::new();
        order.retain(|k| index.contains_key(k) && seen.insert(*k));

        let store = ResultStore {
            dir,
            max_entries,
            inner: Mutex::new(StoreInner {
                log,
                index,
                order,
                bytes,
            }),
            spills: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            warm_loaded: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            gc_evictions: AtomicU64::new(0),
            truncated_bytes: AtomicU64::new(truncated),
            write_errors: AtomicU64::new(0),
        };
        store.sweep_entry_files();
        store.validate_entries();
        store.enforce_capacity();
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry file for `key`.
    fn entry_path(&self, key: CacheKey) -> PathBuf {
        let shard = format!("{:02x}", key.system >> 56);
        self.dir.join("entries").join(shard).join(key_hex(key))
    }

    /// Deletes leftover `.tmp` files (crash mid-write) and entry files the
    /// recovered index does not reference (crash between rename and index
    /// append, or records lost to a truncated tail).
    fn sweep_entry_files(&self) {
        let inner = self.inner.lock().expect("store lock");
        let Ok(shards) = fs::read_dir(self.dir.join("entries")) else {
            return;
        };
        for shard in shards.flatten() {
            let Ok(files) = fs::read_dir(shard.path()) else {
                continue;
            };
            for file in files.flatten() {
                let name = file.file_name();
                let name = name.to_string_lossy();
                let keep = parse_key_hex(&name).is_some_and(|key| inner.index.contains_key(&key));
                if !keep {
                    let _ = fs::remove_file(file.path());
                }
            }
        }
    }

    /// Validates every indexed entry file against its recorded length and
    /// CRC; failures are quarantined (moved aside, logged as removes, and
    /// counted) so `open` never trusts a torn or tampered body.
    fn validate_entries(&self) {
        let indexed: Vec<(CacheKey, EntryMeta)> = {
            let inner = self.inner.lock().expect("store lock");
            inner.index.iter().map(|(k, m)| (*k, *m)).collect()
        };
        for (key, meta) in indexed {
            let ok = match fs::read(self.entry_path(key)) {
                Ok(body) => body.len() as u64 == u64::from(meta.len) && crc32(&body) == meta.crc,
                Err(_) => false,
            };
            if !ok {
                self.quarantine(key, meta);
            }
        }
    }

    /// Moves a failed entry into `quarantine/`, drops it from the index
    /// (appending a remove record), and counts it.
    fn quarantine(&self, key: CacheKey, meta: EntryMeta) {
        let mut inner = self.inner.lock().expect("store lock");
        // Only quarantine the exact entry we validated: a concurrent
        // re-insert under the same key must not be thrown away.
        if inner.index.get(&key) != Some(&meta) {
            return;
        }
        inner.index.remove(&key);
        inner.order.retain(|k| *k != key);
        inner.bytes -= u64::from(meta.len);
        let rec = encode_record(OP_REMOVE, key, meta);
        let _ = inner.log.write_all(&rec);
        let _ = inner.log.sync_data();
        let from = self.entry_path(key);
        if from.exists() {
            let to = self.dir.join("quarantine").join(key_hex(key));
            if fs::rename(&from, &to).is_err() {
                let _ = fs::remove_file(&from);
            }
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// FIFO-evicts entries beyond `max_entries` (no-op when unbounded).
    fn enforce_capacity(&self) {
        if self.max_entries == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("store lock");
        let mut removals: Vec<u8> = Vec::new();
        let mut victims: Vec<CacheKey> = Vec::new();
        while inner.index.len() > self.max_entries {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            if let Some(meta) = inner.index.remove(&oldest) {
                inner.bytes -= u64::from(meta.len);
                removals.extend_from_slice(&encode_record(OP_REMOVE, oldest, meta));
                victims.push(oldest);
                self.gc_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !removals.is_empty() {
            let _ = inner.log.write_all(&removals);
            let _ = inner.log.sync_data();
        }
        drop(inner);
        for key in victims {
            let _ = fs::remove_file(self.entry_path(key));
        }
    }

    /// Durably inserts one response under `key`: entry file first
    /// (tmp + fsync + rename), index record second (append + fsync), then
    /// GC beyond capacity. Idempotent for identical content.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the store's in-memory index is only updated
    /// after the bytes are durable, so a failed insert leaves no phantom.
    pub fn insert(&self, key: CacheKey, status: u16, body: &[u8]) -> io::Result<()> {
        let len = u32::try_from(body.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "body too large for store"))?;
        let meta = EntryMeta {
            status,
            len,
            crc: crc32(body),
        };
        let mut inner = self.inner.lock().expect("store lock");
        if inner.index.get(&key) == Some(&meta) {
            return Ok(());
        }
        // Entry body becomes durable before the index references it.
        let path = self.entry_path(key);
        let parent = path.parent().expect("entry path has a parent");
        fs::create_dir_all(parent)?;
        let tmp = parent.join(format!("{}.tmp", key_hex(key)));
        {
            let mut file = File::create(&tmp)?;
            file.write_all(body)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        sync_dir(parent);
        inner.log.write_all(&encode_record(OP_INSERT, key, meta))?;
        inner.log.sync_data()?;
        let mut delta = i64::from(meta.len);
        if let Some(old) = inner.index.insert(key, meta) {
            delta -= i64::from(old.len);
        } else {
            inner.order.push_back(key);
        }
        inner.bytes = inner.bytes.saturating_add_signed(delta);
        self.spills.fetch_add(1, Ordering::Relaxed);
        drop(inner);
        self.enforce_capacity();
        Ok(())
    }

    /// Reads and CRC-verifies one entry without touching the hit counter;
    /// a failed verification quarantines the entry and returns `None`.
    fn read_verified(&self, key: CacheKey) -> Option<CachedResponse> {
        let meta = *self.inner.lock().expect("store lock").index.get(&key)?;
        match fs::read(self.entry_path(key)) {
            Ok(body) if body.len() as u64 == u64::from(meta.len) && crc32(&body) == meta.crc => {
                Some(CachedResponse {
                    status: meta.status,
                    body,
                })
            }
            _ => {
                self.quarantine(key, meta);
                None
            }
        }
    }

    /// Looks up one entry by content address, counting a disk hit on
    /// success. Torn or tampered entries are quarantined, never returned.
    pub fn get(&self, key: CacheKey) -> Option<CachedResponse> {
        let response = self.read_verified(key)?;
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        Some(response)
    }

    /// Reads every live entry in insertion order for the startup warm
    /// load, counting them as warm-loaded rather than as disk hits.
    pub fn warm_entries(&self) -> Vec<(CacheKey, Arc<CachedResponse>)> {
        let keys: Vec<CacheKey> = {
            let inner = self.inner.lock().expect("store lock");
            inner.order.iter().copied().collect()
        };
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(response) = self.read_verified(key) {
                self.warm_loaded.fetch_add(1, Ordering::Relaxed);
                out.push((key, Arc::new(response)));
            }
        }
        out
    }

    /// Live keys in insertion order (the `/store/index` document).
    pub fn keys(&self) -> Vec<CacheKey> {
        let inner = self.inner.lock().expect("store lock");
        inner.order.iter().copied().collect()
    }

    /// Whether `key` is live in the index.
    pub fn contains(&self, key: CacheKey) -> bool {
        self.inner
            .lock()
            .expect("store lock")
            .index
            .contains_key(&key)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store lock").index.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total body bytes across live entries.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().expect("store lock").bytes
    }

    /// Entries spilled to disk since open.
    pub fn spills(&self) -> u64 {
        self.spills.load(Ordering::Relaxed)
    }

    /// Lookups served from disk since open (warm loads excluded).
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Entries handed to the RAM cache by [`ResultStore::warm_entries`].
    pub fn warm_loaded(&self) -> u64 {
        self.warm_loaded.load(Ordering::Relaxed)
    }

    /// Entries quarantined after failing validation.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Entries evicted by the bounded-size GC.
    pub fn gc_evictions(&self) -> u64 {
        self.gc_evictions.load(Ordering::Relaxed)
    }

    /// Torn index-log tail bytes truncated by the last `open`.
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes.load(Ordering::Relaxed)
    }

    /// Background spill writes that failed with an I/O error.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Counts one failed background spill (called by [`Spiller`]).
    fn count_write_error(&self) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
    }
}

enum SpillMsg {
    Write(CacheKey, Arc<CachedResponse>),
    Barrier(mpsc::SyncSender<()>),
}

/// A bounded write-behind queue in front of a [`ResultStore`]: cache
/// inserts enqueue here and never wait on `fsync`; [`Spiller::flush`]
/// drains the queue durably (the `POST /shutdown` drain path).
#[derive(Debug)]
pub struct Spiller {
    store: Arc<ResultStore>,
    tx: Mutex<Option<mpsc::Sender<SpillMsg>>>,
    pending: Arc<AtomicU64>,
    dropped: AtomicU64,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for SpillMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillMsg::Write(key, _) => write!(f, "Write({})", key_hex(*key)),
            SpillMsg::Barrier(_) => write!(f, "Barrier"),
        }
    }
}

impl Spiller {
    /// Starts the background spill worker, a thread named `lis-spiller`
    /// registered in `cpu` under [`ThreadRole::Spiller`]. `write_delay` is
    /// the fault plan's `spill_delay` pacing: sleep this long before each
    /// write so drain tests can observe a non-empty queue.
    pub fn new(
        store: Arc<ResultStore>,
        write_delay: Option<Duration>,
        cpu: &Arc<ThreadCpu>,
    ) -> Spiller {
        let (tx, rx) = mpsc::channel::<SpillMsg>();
        let pending = Arc::new(AtomicU64::new(0));
        let worker = {
            let store = Arc::clone(&store);
            let pending = Arc::clone(&pending);
            let cpu = Arc::clone(cpu);
            let spawned = std::thread::Builder::new()
                .name("lis-spiller".to_string())
                .spawn(move || {
                    let _cpu = cpu.register(ThreadRole::Spiller);
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            SpillMsg::Write(key, response) => {
                                if let Some(delay) = write_delay {
                                    std::thread::sleep(delay);
                                }
                                if store.insert(key, response.status, &response.body).is_err() {
                                    store.count_write_error();
                                }
                                pending.fetch_sub(1, Ordering::AcqRel);
                            }
                            SpillMsg::Barrier(ack) => {
                                let _ = ack.send(());
                            }
                        }
                    }
                });
            spawned.expect("spawn spiller")
        };
        Spiller {
            store,
            tx: Mutex::new(Some(tx)),
            pending,
            dropped: AtomicU64::new(0),
            worker: Mutex::new(Some(worker)),
        }
    }

    /// The wrapped store (for reads, stats, and the peer routes).
    pub fn store(&self) -> &Arc<ResultStore> {
        &self.store
    }

    /// Enqueues one write-through spill. Beyond `SPILL_QUEUE_LIMIT`
    /// pending writes the spill is dropped and counted — the RAM cache
    /// still holds the entry, so only durability (not correctness) lags.
    pub fn spill(&self, key: CacheKey, response: Arc<CachedResponse>) {
        if self.pending.load(Ordering::Acquire) >= SPILL_QUEUE_LIMIT {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let tx = self.tx.lock().expect("spiller lock");
        if let Some(tx) = tx.as_ref() {
            self.pending.fetch_add(1, Ordering::AcqRel);
            if tx.send(SpillMsg::Write(key, response)).is_err() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    /// Blocks until every spill enqueued so far is durable on disk.
    /// Returns the number of writes that were still pending when the
    /// flush began — the entries a RAM-only drain would have lost.
    pub fn flush(&self) -> usize {
        let pending_now = self.pending.load(Ordering::Acquire) as usize;
        let barrier = {
            let tx = self.tx.lock().expect("spiller lock");
            let Some(tx) = tx.as_ref() else {
                return 0;
            };
            let (ack_tx, ack_rx) = mpsc::sync_channel::<()>(1);
            if tx.send(SpillMsg::Barrier(ack_tx)).is_err() {
                return 0;
            }
            ack_rx
        };
        let _ = barrier.recv();
        pending_now
    }

    /// Spills dropped because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes still waiting in the queue.
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }
}

impl Drop for Spiller {
    fn drop(&mut self) {
        // Drain before the worker goes away: a dropped spiller must not
        // silently lose enqueued writes.
        self.flush();
        *self.tx.lock().expect("spiller lock") = None;
        if let Some(worker) = self.worker.lock().expect("spiller lock").take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A fresh, empty scratch directory, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let dir = std::env::temp_dir().join(format!(
                "lis-store-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("scratch dir");
            Scratch(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn key(n: u64) -> CacheKey {
        CacheKey {
            system: n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            request: n ^ 0xdead_beef,
        }
    }

    fn body(n: u64) -> Vec<u8> {
        format!("{{\"answer\":{n}}}").into_bytes()
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn key_hex_round_trips() {
        let k = CacheKey {
            system: 0x0123_4567_89ab_cdef,
            request: 0xfedc_ba98_7654_3210,
        };
        assert_eq!(parse_key_hex(&key_hex(k)), Some(k));
        assert_eq!(parse_key_hex("nonsense"), None);
        assert_eq!(parse_key_hex("0-0"), None, "short hex rejected");
    }

    #[test]
    fn insert_get_and_reopen_round_trip() {
        let scratch = Scratch::new("roundtrip");
        let store = ResultStore::open(scratch.path(), 0).unwrap();
        for n in 0..16 {
            store.insert(key(n), 200, &body(n)).unwrap();
        }
        assert_eq!(store.len(), 16);
        assert_eq!(store.get(key(3)).unwrap().body, body(3));
        assert_eq!(store.disk_hits(), 1);
        drop(store);

        let reopened = ResultStore::open(scratch.path(), 0).unwrap();
        assert_eq!(reopened.len(), 16);
        assert_eq!(reopened.quarantined(), 0);
        assert_eq!(reopened.truncated_bytes(), 0);
        for n in 0..16 {
            let got = reopened.get(key(n)).expect("entry survives reopen");
            assert_eq!(got.status, 200);
            assert_eq!(got.body, body(n), "byte-identical after reopen");
        }
    }

    #[test]
    fn insert_is_idempotent_and_overwrites_changed_content() {
        let scratch = Scratch::new("idem");
        let store = ResultStore::open(scratch.path(), 0).unwrap();
        store.insert(key(1), 200, &body(1)).unwrap();
        store.insert(key(1), 200, &body(1)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.spills(), 1, "identical re-insert is a no-op");
        store.insert(key(1), 422, b"different").unwrap();
        assert_eq!(store.get(key(1)).unwrap().status, 422);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn gc_is_fifo_bounded_and_survives_reopen() {
        let scratch = Scratch::new("gc");
        let store = ResultStore::open(scratch.path(), 4).unwrap();
        for n in 0..10 {
            store.insert(key(n), 200, &body(n)).unwrap();
        }
        assert_eq!(store.len(), 4);
        assert_eq!(store.gc_evictions(), 6);
        for n in 0..6 {
            assert!(store.get(key(n)).is_none(), "entry {n} evicted");
        }
        for n in 6..10 {
            assert_eq!(store.get(key(n)).unwrap().body, body(n));
        }
        drop(store);
        let reopened = ResultStore::open(scratch.path(), 4).unwrap();
        assert_eq!(reopened.len(), 4, "GC state replays from the log");
        for n in 0..6 {
            assert!(reopened.get(key(n)).is_none());
        }
    }

    #[test]
    fn torn_log_tail_recovers_the_longest_checksummed_prefix() {
        let scratch = Scratch::new("tail");
        let store = ResultStore::open(scratch.path(), 0).unwrap();
        for n in 0..8 {
            store.insert(key(n), 200, &body(n)).unwrap();
        }
        drop(store);
        let log_path = scratch.path().join("index.log");
        let full = fs::read(&log_path).unwrap();
        assert_eq!(full.len(), 8 * RECORD_LEN);
        // Cut mid-record: the torn record must vanish, the prefix survive.
        for cut in [8 * RECORD_LEN - 1, 7 * RECORD_LEN + 1, 5 * RECORD_LEN] {
            fs::write(&log_path, &full[..cut]).unwrap();
            let reopened = ResultStore::open(scratch.path(), 0).unwrap();
            let expect = cut / RECORD_LEN;
            assert_eq!(reopened.len(), expect, "cut at {cut}");
            assert_eq!(
                reopened.truncated_bytes(),
                (cut % RECORD_LEN) as u64,
                "cut at {cut}"
            );
            for n in 0..expect as u64 {
                assert_eq!(reopened.get(key(n)).unwrap().body, body(n));
            }
            drop(reopened);
            // Entry files past the cut were swept as orphans; restoring the
            // full log would resurrect dangling records, so rebuild instead.
            let _ = fs::remove_dir_all(scratch.path());
            let rebuild = ResultStore::open(scratch.path(), 0).unwrap();
            for n in 0..8 {
                rebuild.insert(key(n), 200, &body(n)).unwrap();
            }
        }
    }

    #[test]
    fn garbage_appended_to_the_log_is_truncated() {
        let scratch = Scratch::new("garbage");
        let store = ResultStore::open(scratch.path(), 0).unwrap();
        store.insert(key(1), 200, &body(1)).unwrap();
        drop(store);
        let log_path = scratch.path().join("index.log");
        let mut raw = fs::read(&log_path).unwrap();
        raw.extend_from_slice(b"\xff\xfe garbage that is not a record at all");
        fs::write(&log_path, &raw).unwrap();
        let reopened = ResultStore::open(scratch.path(), 0).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened.truncated_bytes() > 0);
        assert_eq!(reopened.get(key(1)).unwrap().body, body(1));
        drop(reopened);
        // The truncation was persisted: a third open sees a clean log.
        let third = ResultStore::open(scratch.path(), 0).unwrap();
        assert_eq!(third.truncated_bytes(), 0);
    }

    #[test]
    fn corrupted_entry_bodies_are_quarantined_not_returned() {
        let scratch = Scratch::new("quarantine");
        let store = ResultStore::open(scratch.path(), 0).unwrap();
        store.insert(key(1), 200, &body(1)).unwrap();
        store.insert(key(2), 200, &body(2)).unwrap();
        let victim = store.entry_path(key(1));
        drop(store);
        fs::write(&victim, b"{\"answer\":1}").unwrap(); // same-length tamper
        {
            let mut raw = fs::read(&victim).unwrap();
            raw[0] ^= 0x20;
            fs::write(&victim, &raw).unwrap();
        }
        let reopened = ResultStore::open(scratch.path(), 0).unwrap();
        assert_eq!(reopened.quarantined(), 1);
        assert!(
            reopened.get(key(1)).is_none(),
            "tampered entry never served"
        );
        assert_eq!(reopened.get(key(2)).unwrap().body, body(2));
        assert!(
            scratch
                .path()
                .join("quarantine")
                .join(key_hex(key(1)))
                .exists(),
            "quarantined file kept for forensics"
        );
        drop(reopened);
        // The quarantine appended a remove record: the next open is clean.
        let third = ResultStore::open(scratch.path(), 0).unwrap();
        assert_eq!(third.len(), 1);
        assert_eq!(third.quarantined(), 0);
    }

    #[test]
    fn tmp_and_orphan_entry_files_are_swept_on_open() {
        let scratch = Scratch::new("sweep");
        let store = ResultStore::open(scratch.path(), 0).unwrap();
        store.insert(key(1), 200, &body(1)).unwrap();
        let shard_dir = store.entry_path(key(1)).parent().unwrap().to_path_buf();
        drop(store);
        let tmp = shard_dir.join(format!("{}.tmp", key_hex(key(9))));
        fs::write(&tmp, b"half-written").unwrap();
        let orphan = shard_dir.join(key_hex(key(8)));
        fs::write(&orphan, b"renamed but never indexed").unwrap();
        let reopened = ResultStore::open(scratch.path(), 0).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(!tmp.exists(), "tmp file swept");
        assert!(!orphan.exists(), "orphan entry swept");
        assert_eq!(reopened.get(key(1)).unwrap().body, body(1));
    }

    #[test]
    fn warm_entries_returns_everything_in_insertion_order() {
        let scratch = Scratch::new("warm");
        let store = ResultStore::open(scratch.path(), 0).unwrap();
        for n in 0..5 {
            store.insert(key(n), 200, &body(n)).unwrap();
        }
        drop(store);
        let reopened = ResultStore::open(scratch.path(), 0).unwrap();
        let warm = reopened.warm_entries();
        assert_eq!(warm.len(), 5);
        assert_eq!(reopened.warm_loaded(), 5);
        assert_eq!(reopened.disk_hits(), 0, "warm load is not a disk hit");
        for (n, (k, response)) in warm.iter().enumerate() {
            assert_eq!(*k, key(n as u64), "insertion order preserved");
            assert_eq!(response.body, body(n as u64));
        }
    }

    #[test]
    fn spiller_flush_makes_pending_writes_durable() {
        let scratch = Scratch::new("spiller");
        let store = Arc::new(ResultStore::open(scratch.path(), 0).unwrap());
        let spiller = Spiller::new(Arc::clone(&store), None, &Arc::default());
        for n in 0..20 {
            spiller.spill(
                key(n),
                Arc::new(CachedResponse {
                    status: 200,
                    body: body(n),
                }),
            );
        }
        spiller.flush();
        assert_eq!(store.len(), 20);
        assert_eq!(spiller.pending(), 0);
        drop(spiller);
        let reopened = ResultStore::open(scratch.path(), 0).unwrap();
        assert_eq!(reopened.len(), 20);
    }

    #[test]
    fn spiller_flush_reports_the_writes_a_ram_only_drain_would_lose() {
        let scratch = Scratch::new("spiller-slow");
        let store = Arc::new(ResultStore::open(scratch.path(), 0).unwrap());
        // Slow worker: the queue is observably non-empty at flush time.
        let spiller = Spiller::new(
            Arc::clone(&store),
            Some(Duration::from_millis(30)),
            &Arc::default(),
        );
        for n in 0..3 {
            spiller.spill(
                key(n),
                Arc::new(CachedResponse {
                    status: 200,
                    body: body(n),
                }),
            );
        }
        let spilled = spiller.flush();
        assert!(
            (1..=3).contains(&spilled),
            "flush reports pending writes, saw {spilled}"
        );
        assert_eq!(store.len(), 3, "flush drained everything durably");
    }

    #[test]
    fn drop_drains_the_spiller() {
        let scratch = Scratch::new("spiller-drop");
        let store = Arc::new(ResultStore::open(scratch.path(), 0).unwrap());
        let spiller = Spiller::new(
            Arc::clone(&store),
            Some(Duration::from_millis(10)),
            &Arc::default(),
        );
        spiller.spill(
            key(1),
            Arc::new(CachedResponse {
                status: 200,
                body: body(1),
            }),
        );
        drop(spiller);
        assert_eq!(store.len(), 1, "drop flushes before joining the worker");
    }
}
