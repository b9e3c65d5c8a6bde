//! Metrics registry: counters, gauges, and log₂-bucket histograms.
//!
//! [`Metrics::from_report`] snapshots one run into a registry — message and
//! byte counters, bandwidth/blocked-time gauges, and fixed-bucket latency
//! histograms — and [`Metrics::to_json`] renders it as a versioned JSON
//! document. Buckets are `[2^(k-1), 2^k)` nanoseconds, so two runs land in
//! identical buckets regardless of sample order: the registry is as
//! deterministic as the simulation itself.

use std::collections::BTreeMap;

use cm5_sim::SimReport;

use crate::schema::schema_field;
use crate::span::SpanStore;

/// Number of log₂ buckets: values are u64 nanoseconds, so 64 bit positions
/// plus a dedicated zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Fixed log₂-bucket histogram over u64 samples (nanoseconds).
///
/// Bucket 0 holds exact zeros; bucket `k ≥ 1` holds `[2^(k-1), 2^k)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Sample counts per bucket.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample recorded (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)`.
    pub fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Record one sample. The sum saturates: one simulated makespan can
    /// sit near the u64-nanosecond horizon on its own.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Mean sample value (0.0 when empty — never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(bucket index, count)`, ascending.
    pub fn nonzero(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// A named-metric registry snapshotted from one simulation run.
///
/// `BTreeMap` keys keep every rendering deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Monotonic counts.
    pub counters: BTreeMap<&'static str, u64>,
    /// Point-in-time values.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Log₂-bucket distributions (nanosecond samples).
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// Snapshot a finished run.
    ///
    /// Histograms need the report recorded with
    /// [`cm5_sim::Simulation::record_trace`]; without a trace they are
    /// present but empty.
    pub fn from_report(report: &SimReport) -> Metrics {
        let spans = SpanStore::from_report(report);
        Metrics::from_spans(report, &spans)
    }

    /// [`Metrics::from_report`] over a pre-built span store.
    pub fn from_spans(report: &SimReport, spans: &SpanStore) -> Metrics {
        let mut m = Metrics::default();
        m.counters.insert("messages", report.messages);
        m.counters.insert("payload_bytes", report.payload_bytes);
        m.counters.insert("wire_bytes", report.wire_bytes);
        m.counters.insert("root_crossings", report.root_crossings);
        m.counters.insert("collectives", report.collectives);
        m.counters.insert("trace_events", report.trace.len() as u64);
        m.counters
            .insert("solver_recomputes", spans.solver_events.len() as u64);
        m.counters
            .insert("rate_samples", report.rate_samples.len() as u64);

        m.gauges
            .insert("makespan_us", report.makespan.as_micros_f64());
        m.gauges.insert(
            "effective_bandwidth_mb_s",
            report.effective_bandwidth() / 1e6,
        );
        m.gauges
            .insert("mean_blocked_fraction", report.mean_blocked_fraction());

        let mut latency = Histogram::default();
        for msg in &spans.messages {
            latency.record(msg.to.since(msg.from).as_nanos());
        }
        m.histograms.insert("message_latency_ns", latency);
        let mut blocked = Histogram::default();
        for b in &spans.blocked {
            blocked.record(b.to.since(b.from).as_nanos());
        }
        m.histograms.insert("blocked_time_ns", blocked);
        m
    }

    /// Render as a versioned JSON document (`cm5-metrics/1`).
    ///
    /// Histograms serialize sparsely: only non-empty buckets, as
    /// `[bucket, count]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  ");
        out.push_str(&schema_field("metrics", 1));
        out.push_str(",\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{k}\": {v}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{k}\": {v:.6}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{k}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.max
            ));
            for (i, (bucket, count)) in h.nonzero().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{bucket}, {count}]"));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm5_sim::{MachineParams, Op, Simulation, ANY_TAG};

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(1023), 10);
        assert_eq!(Histogram::bucket(1024), 11);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_count_sum_max() {
        let mut h = Histogram::default();
        for v in [0, 1, 5, 5, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1035);
        assert_eq!(h.max, 1024);
        assert_eq!(h.mean(), 207.0);
        assert_eq!(h.nonzero(), vec![(0, 1), (1, 1), (3, 2), (11, 1)]);
        assert_eq!(Histogram::default().mean(), 0.0, "empty mean is 0, not NaN");
    }

    #[test]
    fn report_snapshot_has_all_families() {
        let n = 4;
        let mut p = vec![Vec::new(); n];
        for i in 1..n {
            p[0].push(Op::Recv {
                from: i,
                tag: ANY_TAG,
            });
            p[i].push(Op::Send {
                to: 0,
                bytes: 1_000,
                tag: ANY_TAG,
            });
        }
        let report = Simulation::new(n, MachineParams::cm5_1992())
            .record_trace(true)
            .record_rates(true)
            .run_ops(&p)
            .unwrap();
        let m = Metrics::from_report(&report);
        assert_eq!(m.counters["messages"], 3);
        assert!(m.counters["solver_recomputes"] > 0);
        assert!(m.gauges["makespan_us"] > 0.0);
        assert!(m.gauges["effective_bandwidth_mb_s"] > 0.0);
        assert!(m.gauges["mean_blocked_fraction"] > 0.0);
        assert!(m.gauges["mean_blocked_fraction"] <= 1.0);
        assert_eq!(m.histograms["message_latency_ns"].count, 3);
        assert!(m.histograms["blocked_time_ns"].count > 0);

        let json = m.to_json();
        assert!(json.contains("\"schema\":\"cm5-metrics/1\""));
        assert!(json.contains("\"messages\": 3"));
        assert!(json.contains("\"message_latency_ns\""));
    }
}
