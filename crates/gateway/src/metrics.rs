//! Gateway observability, rendered in the same Prometheus text format as
//! the shard daemons, through the same helpers: scalar series go through
//! [`lis_server::metrics::render_readings`] and latency through
//! [`lis_server::metrics::Histogram`], so dashboards treat both tiers
//! uniformly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lis_server::metrics::{render_readings, status_slot, Histogram, STATUSES};
use lis_server::NetStats;

use crate::replicate::ReplicationStats;
use crate::table::ShardTable;

/// Counters and histograms for the gateway tier.
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    /// Finished client requests by status.
    requests: [AtomicU64; STATUSES.len()],
    /// Failovers: race legs started because every earlier-started leg had
    /// failed (transport error or a 5xx), not by their deadline.
    pub failovers: AtomicU64,
    /// Hedges: race legs past the primary started by their deadline (the
    /// hedge deadline expired with the primary still in flight).
    pub hedges_launched: AtomicU64,
    /// Hedges whose answer won the race.
    pub hedges_won: AtomicU64,
    /// Shard health transitions healthy → ejected.
    pub ejections: AtomicU64,
    /// Dead child shards respawned by the supervisor.
    pub respawns: AtomicU64,
    /// Replication counters, shared with the write-behind replicator.
    pub replication: Arc<ReplicationStats>,
    /// End-to-end latency as seen at the gateway (routing + hop included).
    pub latency: Histogram,
    /// Network-front gauges/counters (open connections, pipeline depth,
    /// readiness wakeups), shared with the event loop.
    pub net: Arc<NetStats>,
}

impl GatewayMetrics {
    /// Creates a zeroed registry.
    pub fn new() -> GatewayMetrics {
        GatewayMetrics::default()
    }

    /// Counts one finished client request.
    pub fn record_request(&self, status: u16, elapsed: std::time::Duration) {
        self.requests[status_slot(status)].fetch_add(1, Ordering::Relaxed);
        self.latency.observe(elapsed);
    }

    /// Requests counted for one status (test observability).
    pub fn requests_for(&self, status: u16) -> u64 {
        self.requests[status_slot(status)].load(Ordering::Relaxed)
    }

    /// Total requests across all statuses.
    pub fn requests_total(&self) -> u64 {
        self.requests
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Renders the exposition, including per-shard series read live from
    /// the table at scrape time.
    pub fn render(&self, table: &ShardTable) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# TYPE lis_gateway_requests_total counter");
        for (s, status) in STATUSES.iter().enumerate() {
            let n = self.requests[s].load(Ordering::Relaxed);
            if n > 0 {
                let _ = writeln!(out, "lis_gateway_requests_total{{status=\"{status}\"}} {n}");
            }
        }
        let replication = &self.replication;
        let readings = [
            ("lis_gateway_failovers_total", &self.failovers),
            ("lis_gateway_hedges_launched_total", &self.hedges_launched),
            ("lis_gateway_hedges_won_total", &self.hedges_won),
            ("lis_gateway_shard_ejections_total", &self.ejections),
            ("lis_gateway_shard_respawns_total", &self.respawns),
            ("lis_replication_pushes_total", &replication.pushes),
            (
                "lis_replication_push_failures_total",
                &replication.push_failures,
            ),
            ("lis_replication_dropped_total", &replication.dropped),
            ("lis_replication_handoffs_total", &replication.handoffs),
            (
                "lis_replication_handoff_entries_total",
                &replication.handoff_entries,
            ),
        ]
        .map(|(name, cell)| (name, "counter", cell.load(Ordering::Relaxed)));
        render_readings(&mut out, &readings);
        let _ = writeln!(out, "# TYPE lis_gateway_shard_healthy gauge");
        for shard in table.shards() {
            let _ = writeln!(
                out,
                "lis_gateway_shard_healthy{{shard=\"{}\"}} {}",
                shard.name,
                u8::from(shard.is_healthy())
            );
        }
        let _ = writeln!(out, "# TYPE lis_gateway_shard_requests_total counter");
        for shard in table.shards() {
            let _ = writeln!(
                out,
                "lis_gateway_shard_requests_total{{shard=\"{}\"}} {}",
                shard.name,
                shard.requests.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(out, "# TYPE lis_gateway_shard_failures_total counter");
        for shard in table.shards() {
            let _ = writeln!(
                out,
                "lis_gateway_shard_failures_total{{shard=\"{}\"}} {}",
                shard.name,
                shard.failures.load(Ordering::Relaxed)
            );
        }
        self.latency.render(&mut out, "lis_gateway_request_seconds");
        self.net.render_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Shard;
    use lis_server::parse_metric;
    use std::sync::Arc;
    use std::time::Duration;

    fn table() -> ShardTable {
        let addr = "127.0.0.1:1".parse().unwrap();
        ShardTable::new(vec![
            Arc::new(Shard::new("s0", addr)),
            Arc::new(Shard::new("s1", addr)),
        ])
    }

    #[test]
    fn render_is_valid_prometheus_text() {
        let m = GatewayMetrics::new();
        let t = table();
        m.record_request(200, Duration::from_micros(120));
        m.record_request(502, Duration::from_millis(1));
        m.failovers.fetch_add(2, Ordering::Relaxed);
        t.shards()[1].mark_failure(1);
        t.shards()[1].requests.fetch_add(5, Ordering::Relaxed);
        m.replication.pushes.fetch_add(7, Ordering::Relaxed);
        let text = m.render(&t);
        assert!(text.contains("lis_gateway_requests_total{status=\"200\"} 1"));
        assert_eq!(
            parse_metric(&text, "lis_replication_pushes_total"),
            Some(7.0)
        );
        assert_eq!(
            parse_metric(&text, "lis_replication_handoffs_total"),
            Some(0.0)
        );
        assert!(text.contains("lis_gateway_requests_total{status=\"502\"} 1"));
        assert_eq!(
            parse_metric(&text, "lis_gateway_failovers_total"),
            Some(2.0)
        );
        assert!(text.contains("lis_gateway_shard_healthy{shard=\"s0\"} 1"));
        assert!(text.contains("lis_gateway_shard_healthy{shard=\"s1\"} 0"));
        assert!(text.contains("lis_gateway_shard_requests_total{shard=\"s1\"} 5"));
        assert!(text.contains("lis_gateway_request_seconds_count 2"));
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line {line:?}"
            );
        }
    }

    #[test]
    fn unknown_statuses_count_as_500() {
        let m = GatewayMetrics::new();
        m.record_request(299, Duration::ZERO);
        assert_eq!(m.requests_for(500), 1);
        assert_eq!(m.requests_total(), 1);
    }
}
