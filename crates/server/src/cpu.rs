//! CPU time per thread role, read from `/proc` when `/metrics` is scraped.
//!
//! By the bottleneck law a closed daemon's throughput is at most
//! `min(1/D_loop, W/D_worker)`, for the CPU demand `D` of each role per
//! request and `W` workers. End-to-end timing on a shared host is too noisy
//! to resolve a change in one role's demand; per-role CPU seconds are not.
//!
//! Each daemon thread registers itself once, on start
//! ([`ThreadCpu::register`]), under its role and kernel thread id. A scrape
//! reads `utime + stime` of every registered thread from
//! `/proc/self/task/<tid>/stat`; nothing is read per request. A thread
//! that exits adds its last reading to its role's retired total, so each
//! counter only ever rises. Roles come from registration rather than from
//! thread names because one process may host several daemons (the test
//! suites do), and a name does not say which daemon a thread serves.
//! Where `/proc` cannot be read every counter stays at 0.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// What a registered thread does for the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadRole {
    /// The event loop: accept, framing, the exact-bytes cache, writes.
    Loop,
    /// A worker-pool thread: decode, cache probes, solving, rendering.
    Worker,
    /// The durable store's background writer (`--store` only).
    Spiller,
}

impl ThreadRole {
    /// Every role, in exposition order.
    pub const ALL: [ThreadRole; 3] = [ThreadRole::Loop, ThreadRole::Worker, ThreadRole::Spiller];

    /// The `role` label of `lis_thread_cpu_seconds_total`.
    pub fn label(self) -> &'static str {
        match self {
            ThreadRole::Loop => "loop",
            ThreadRole::Worker => "worker",
            ThreadRole::Spiller => "spiller",
        }
    }

    fn slot(self) -> usize {
        self as usize
    }
}

/// The registry of one daemon's threads and the CPU its exited threads used.
#[derive(Debug, Default)]
pub struct ThreadCpu {
    live: Mutex<Vec<(ThreadRole, u32)>>,
    retired_ticks: [AtomicU64; 3],
}

/// A thread's registration; dropping it (on that thread) retires it.
#[derive(Debug)]
pub struct Registration {
    cpu: Arc<ThreadCpu>,
    role: ThreadRole,
    tid: Option<u32>,
}

impl ThreadCpu {
    /// Registers the calling thread under `role` until the returned
    /// guard drops, which must happen on the same thread.
    pub fn register(self: &Arc<Self>, role: ThreadRole) -> Registration {
        let tid = current_tid();
        if let Some(tid) = tid {
            self.live.lock().expect("thread cpu lock").push((role, tid));
        }
        Registration {
            cpu: Arc::clone(self),
            role,
            tid,
        }
    }

    /// CPU seconds used so far by each role's threads, live and exited,
    /// indexed like [`ThreadRole::ALL`].
    pub fn seconds(&self) -> [f64; 3] {
        let mut ticks: [u64; 3] =
            std::array::from_fn(|r| self.retired_ticks[r].load(Ordering::Relaxed));
        // Held across the reads so that a thread retiring meanwhile is
        // counted once: either live here or in its retired total.
        let live = self.live.lock().expect("thread cpu lock");
        for &(role, tid) in live.iter() {
            ticks[role.slot()] += task_cpu_ticks(tid).unwrap_or(0);
        }
        drop(live);
        let per_second = crate::net::sys::clock_ticks_per_second() as f64;
        ticks.map(|t| t as f64 / per_second)
    }

    /// Appends `lis_thread_cpu_seconds_total`, one sample per role.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# TYPE lis_thread_cpu_seconds_total counter");
        for (role, seconds) in ThreadRole::ALL.iter().zip(self.seconds()) {
            let _ = writeln!(
                out,
                "lis_thread_cpu_seconds_total{{role=\"{}\"}} {seconds}",
                role.label()
            );
        }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        let Some(tid) = self.tid else {
            return;
        };
        // Every update leaves the list valid, so a poisoned lock is
        // still usable, and a drop must not panic.
        let mut live = self.cpu.live.lock().unwrap_or_else(PoisonError::into_inner);
        let last = task_cpu_ticks(tid).unwrap_or(0);
        self.cpu.retired_ticks[self.role.slot()].fetch_add(last, Ordering::Relaxed);
        if let Some(at) = live.iter().position(|&(_, t)| t == tid) {
            live.swap_remove(at);
        }
    }
}

/// The calling thread's kernel id, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`).
fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// `utime + stime` of one of this process's threads, in clock ticks.
fn task_cpu_ticks(tid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    stat_cpu_ticks(&stat)
}

/// `utime + stime` (fields 14 and 15) of a `/proc/*/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from its closing parenthesis.
pub fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let (_, rest) = stat.rsplit_once(')')?;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_past_the_command_name() {
        let stat = "4242 (lis worker) 1) S 1 4242 4242 0 -1 4194624 100 0 0 0 \
                    37 5 0 0 30 10 1 0 1234 0 0";
        assert_eq!(stat_cpu_ticks(stat), Some(42));
        assert_eq!(stat_cpu_ticks("4242 (lis) S 1"), None);
    }

    #[test]
    fn a_burning_thread_raises_its_role_and_keeps_it_after_exit() {
        if current_tid().is_none() {
            return; // No /proc: every counter reads 0 by design.
        }
        let cpu = Arc::new(ThreadCpu::default());
        let ticks_per_second = crate::net::sys::clock_ticks_per_second();
        let burner = {
            let cpu = Arc::clone(&cpu);
            std::thread::spawn(move || {
                let _registered = cpu.register(ThreadRole::Worker);
                let tid = current_tid().expect("tid");
                // Burn until the kernel has charged this thread 0.1 s.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
                let mut x = 1u64;
                while task_cpu_ticks(tid).unwrap_or(0) < ticks_per_second / 10
                    && std::time::Instant::now() < deadline
                {
                    for _ in 0..100_000 {
                        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005) ^ 1);
                    }
                }
            })
        };
        burner.join().expect("burner");
        let [looped, worked, spilled] = cpu.seconds();
        assert!(cpu.live.lock().unwrap().is_empty(), "the burner retired");
        assert!(worked >= 0.1, "worker role read {worked} s");
        assert_eq!((looped, spilled), (0.0, 0.0));
    }
}
