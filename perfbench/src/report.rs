//! The metric catalogue and the one-line JSON result.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("first_row_ms", "ms"),
    ("setup_s", "s"),
    ("server_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("net.rtt_us", "us"),
    ("http.read_request_us", "us"),
    ("http.render_response_us", "us"),
    ("net.wakeups_per_req", "count"),
    ("net.pipeline_depth_mean", "count"),
    ("wire.json_parse_us", "us"),
    ("jobs.decode_us", "us"),
    ("core.parse_netlist_us", "us"),
    ("core.canonical_hash_us", "us"),
    ("core.explain_us", "us"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("pool.queue_wait_us", "us"),
    ("pool.queue_depth_mean", "count"),
    ("pool.shed_total", "count"),
    ("mcm.howard_random_us", "us"),
    ("mcm.karp_random_us", "us"),
    ("mcm.howard_ring_us", "us"),
    ("mcm.karp_ring_us", "us"),
    ("mcm.warm_hit_ratio", "ratio"),
    ("qs.solve_us", "us"),
    ("jobs.execute_us", "us"),
    ("jobs.render_us", "us"),
    ("wire.serialize_us", "us"),
    ("sweep.plan_us", "us"),
    ("sweep.us_per_point", "us"),
    ("sweep.first_row_us", "us"),
    ("http.chunk_push_us", "us"),
    ("ledger.unattributed_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"))
}

/// Metric values in the order they were added.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Adds a catalogued metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.values.push((name, value));
    }

    /// A value added earlier (0 if absent).
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Names added so far.
    pub fn names(&self) -> Vec<&'static str> {
        self.values.iter().map(|&(n, _)| n).collect()
    }

    /// The result line. Non-finite values (a ratio over nothing) are
    /// written as 0 so the line stays valid JSON.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value)) in self.values.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit_of(name)
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_server::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_charset() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?}");
            assert!(seen.insert(*name), "duplicate metric {name:?}");
        }
        for w in crate::workload::Workload::ALL {
            assert!(valid_name(w.name()), "bad workload name {:?}", w.name());
        }
        assert!(!valid_name("latency p50"));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("rate:rps"));
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        for w in json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
        {
            let name = w.get("name").and_then(Json::as_str).expect("workload name");
            assert!(
                crate::workload::Workload::parse(name).is_some(),
                "unknown workload {name:?}"
            );
        }
    }

    #[test]
    fn the_result_line_is_json_with_every_value() {
        let mut r = Report::new();
        r.add("throughput_rps", 1234.5);
        r.add("setup_s", 0.25);
        let line = r.to_json(true, 10, 0);
        let json = Json::parse(&line).expect("valid JSON");
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(10));
        let m = json.get("metrics").expect("metrics");
        assert_eq!(
            m.get("throughput_rps")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(1234.5)
        );
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
        assert_eq!(r.names(), vec!["throughput_rps", "setup_s"]);
    }
}
