//! Reads the program's own counters: one parser for the Prometheus text
//! a daemon returns from `metrics {"format":"prometheus"}` and for the
//! same text rendered in process, so a series is looked up by its
//! exposition name and a renamed or removed series reads as absent
//! instead of breaking the build.

use std::collections::BTreeMap;

/// One scrape: series name (labels included, exactly as exposed) → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses exposition text; comment, blank and malformed lines are skipped.
    pub fn parse(text: &str) -> Scrape {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The value is the last space-separated token; label values
            // of this program never contain spaces, but split from the
            // right anyway so a future one cannot shift the value.
            let Some((name, value)) = line.rsplit_once(' ') else { continue };
            if let Ok(value) = value.parse::<f64>() {
                series.insert(name.trim().to_string(), value);
            }
        }
        Scrape(series)
    }

    /// The in-process tap, through the same text and parser.
    pub fn in_process() -> Scrape {
        Scrape::parse(&dstage_obs::metrics::render_prometheus())
    }

    pub fn get(&self, series: &str) -> Option<f64> {
        self.0.get(series).copied()
    }

    /// `self − earlier`, series by series (absent earlier = 0).
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape(self.0.iter().map(|(k, v)| (k.clone(), v - earlier.get(k).unwrap_or(0.0))).collect())
    }

    /// A series' value, 0 when the program does not expose it.
    pub fn count(&self, series: &str) -> f64 {
        self.get(series).unwrap_or(0.0)
    }

    /// `numerator / denominator`, 0 when the denominator is 0 or absent.
    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let d = self.count(denominator);
        if d == 0.0 {
            0.0
        } else {
            self.count(numerator) / d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP dstage_service_decisions_total Admission decisions made
# TYPE dstage_service_decisions_total counter
dstage_service_decisions_total 42
# TYPE dstage_service_verb_latency_us histogram
dstage_service_verb_latency_us_bucket{verb=\"submit\",le=\"50\"} 3
dstage_service_verb_latency_us_bucket{verb=\"submit\",le=\"+Inf\"} 40
dstage_service_verb_latency_us_sum{verb=\"submit\"} 12345
dstage_service_displaced_queue_depth -1

garbage line without a number
";

    #[test]
    fn parses_counters_labels_and_negative_gauges() {
        let s = Scrape::parse(TEXT);
        assert_eq!(s.get("dstage_service_decisions_total"), Some(42.0));
        assert_eq!(
            s.get("dstage_service_verb_latency_us_bucket{verb=\"submit\",le=\"+Inf\"}"),
            Some(40.0)
        );
        assert_eq!(s.get("dstage_service_displaced_queue_depth"), Some(-1.0));
        assert_eq!(s.get("garbage line without a"), None);
        assert_eq!(s.get("missing"), None);
        assert_eq!(s.count("missing"), 0.0);
    }

    #[test]
    fn deltas_and_ratios() {
        let before = Scrape::parse("a 10\nb 4\n");
        let after = Scrape::parse("a 25\nb 4\nc 7\n");
        let delta = after.since(&before);
        assert_eq!(delta.get("a"), Some(15.0));
        assert_eq!(delta.get("b"), Some(0.0));
        assert_eq!(delta.get("c"), Some(7.0));
        assert_eq!(delta.ratio("c", "a"), 7.0 / 15.0);
        assert_eq!(delta.ratio("a", "b"), 0.0);
    }

    #[test]
    fn the_in_process_tap_parses_with_the_same_code() {
        let s = Scrape::in_process();
        assert!(s.get("dstage_path_trees_total").is_some());
        assert!(s.get("dstage_resources_commits_total").is_some());
    }
}
