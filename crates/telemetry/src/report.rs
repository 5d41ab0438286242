//! The mergeable telemetry summary and its stable JSON export.

use std::fmt;

use crate::hist::Histogram;

/// Latency summary of one replica (or any merge of replicas): the three
/// histograms plus the total number of flight events recorded.
///
/// Merging is associative and commutative (it folds histogram counts and
/// sums), so reports can be aggregated per replica group, per cluster, or
/// across engines in any order with identical results.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Total lifecycle events recorded (including ring-overwritten ones).
    pub events_recorded: u64,
    /// Submission at the origin → delivery at the origin.
    pub submit_deliver: Histogram,
    /// Entry into the local promotion sequence → local delivery.
    pub promote_stable: Histogram,
    /// Admission into the local causal graph → local delivery (the paper's
    /// stability lag: how long an operation stays tentative).
    pub stability_lag: Histogram,
}

impl TelemetryReport {
    /// True when nothing was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.events_recorded == 0
            && self.submit_deliver.is_empty()
            && self.promote_stable.is_empty()
            && self.stability_lag.is_empty()
    }

    /// Folds `other` into `self` (associative and commutative).
    pub fn merge(&mut self, other: &TelemetryReport) {
        self.events_recorded += other.events_recorded;
        self.submit_deliver.merge(&other.submit_deliver);
        self.promote_stable.merge(&other.promote_stable);
        self.stability_lag.merge(&other.stability_lag);
    }

    /// Writes the stable JSON object (sorted keys, integers only) into
    /// `out`.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"events_recorded\":{},", self.events_recorded);
        out.push_str("\"promote_stable\":");
        self.promote_stable.write_json(out);
        out.push_str(",\"stability_lag\":");
        self.stability_lag.write_json(out);
        out.push_str(",\"submit_deliver\":");
        self.submit_deliver.write_json(out);
        out.push('}');
    }

    /// The stable JSON export. Integer-only and timestamp-free: two
    /// identical deterministic runs export byte-identical strings.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Renders the text metrics exposition a live node serves to scrapers:
    /// one `name{labels} value` line per metric, labelled with the replica
    /// index.
    pub fn to_exposition(&self, replica: u32) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ec_events_recorded{{replica=\"{replica}\"}} {}",
            self.events_recorded
        );
        let histograms = [
            ("submit_deliver", &self.submit_deliver),
            ("promote_stable", &self.promote_stable),
            ("stability_lag", &self.stability_lag),
        ];
        for (name, hist) in histograms {
            let _ = writeln!(
                out,
                "ec_{name}_count{{replica=\"{replica}\"}} {}",
                hist.count()
            );
            let _ = writeln!(out, "ec_{name}_max{{replica=\"{replica}\"}} {}", hist.max());
            for (label, per_mille) in [("0.5", 500), ("0.9", 900), ("0.99", 990), ("0.999", 999)] {
                let _ = writeln!(
                    out,
                    "ec_{name}{{replica=\"{replica}\",quantile=\"{label}\"}} {}",
                    hist.quantile(per_mille)
                );
            }
        }
        out
    }
}

impl fmt::Display for TelemetryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "submit→deliver p50/p99 {}/{} (n={}), promote→deliver p50/p99 {}/{}, \
             stability lag p50/p99 {}/{}, {} events",
            self.submit_deliver.quantile(500),
            self.submit_deliver.quantile(990),
            self.submit_deliver.count(),
            self.promote_stable.quantile(500),
            self.promote_stable.quantile(990),
            self.stability_lag.quantile(500),
            self.stability_lag.quantile(990),
            self.events_recorded,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_commutative() {
        let mut a = TelemetryReport::default();
        a.submit_deliver.record(4);
        a.events_recorded = 2;
        let mut b = TelemetryReport::default();
        b.submit_deliver.record(9);
        b.stability_lag.record(1);
        b.events_recorded = 3;
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.events_recorded, 5);
        assert_eq!(ab.submit_deliver.count(), 2);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = TelemetryReport::default();
        r.submit_deliver.record(3);
        r.events_recorded = 1;
        let json = r.to_json();
        assert!(json.starts_with("{\"events_recorded\":1,\"promote_stable\":{"));
        assert!(json.contains("\"submit_deliver\":{\"count\":1"));
        assert!(!json.contains('.'));
        assert!(TelemetryReport::default().is_empty());
        assert!(!r.is_empty());
    }

    #[test]
    fn display_summarizes_quantiles() {
        let mut r = TelemetryReport::default();
        r.submit_deliver.record(10);
        r.events_recorded = 1;
        let line = r.to_string();
        assert!(line.contains("submit→deliver p50/p99 10/10 (n=1)"));
        assert!(line.contains("1 events"));
    }
}
