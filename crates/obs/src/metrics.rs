//! The fixed metric inventory and its Prometheus text exposition.
//!
//! Every metric is declared once, as one row of the `metrics!` table
//! below: its static, kind and bucket bounds, Prometheus family name,
//! optional label, and `# HELP` text (given on a family's first row
//! only). The table expands to the `pub static`s and to the rows
//! [`render_prometheus`] and [`reset_all`] iterate over, so a metric
//! cannot be declared without being exported. A family's layer (`service`,
//! `resources`, `path`, `core`, `sim`) is the word after `dstage_` in its
//! name.
//!
//! Instrumented crates increment the statics directly — no registration,
//! no lookup, no allocation on the hot path. The exposition renders the
//! table in declaration order, so equal states always produce
//! byte-identical text.

use std::fmt::Write;

use crate::instruments::{Counter, Gauge, Histogram};

/// Upper bucket bounds shared by every latency/wall-time histogram, in
/// microseconds.
pub const LATENCY_BOUNDS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

/// Upper bucket bounds for the admission-slack histogram, milliseconds
/// (1 s up to 24 h).
pub const SLACK_BOUNDS_MS: [u64; 10] =
    [1_000, 5_000, 15_000, 60_000, 300_000, 900_000, 3_600_000, 14_400_000, 43_200_000, 86_400_000];

/// The instrument behind one exported series.
#[derive(Clone, Copy)]
enum Instrument {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// One exported series: a row of the `metrics!` table.
struct Series {
    family: &'static str,
    /// Set on a family's first series only, which renders the family's
    /// `# HELP` and `# TYPE` lines.
    help: Option<&'static str>,
    label: Option<(&'static str, &'static str)>,
    instrument: Instrument,
}

/// Expands the table: one documented `pub static` per row, and the rows
/// in declaration order as `SERIES`.
macro_rules! metrics {
    ($(
        $(#[$attr:meta])*
        $name:ident: $kind:ident $(($bounds:expr))? = $family:literal
            $({$key:literal = $value:literal})? $(, $help:literal)?;
    )*) => {
        $(
            #[doc = concat!(
                "Exported as `", $family, $("{", $key, "=\"", $value, "\"}",)? "`",
                $(", help `", $help, "`",)? "."
            )]
            $(#[$attr])*
            pub static $name: $kind = $kind::new($(&$bounds)?);
        )*
        static SERIES: &[Series] = &[$(Series {
            family: $family,
            help: metrics!(@some $($help)?),
            label: metrics!(@some $(($key, $value))?),
            instrument: Instrument::$kind(&$name),
        }),*];
    };
    (@some) => { None };
    (@some $value:expr) => { Some($value) };
}

metrics! {
    // --- service layer (admission engine + daemon dispatch) -----------

    /// One per non-deduplicated submission.
    SERVICE_DECISIONS: Counter = "dstage_service_decisions_total",
        "Admission decisions made (admitted + refused)";
    SERVICE_ADMITTED: Counter = "dstage_service_admitted_total", "Submissions admitted";
    SERVICE_REFUSED: Counter = "dstage_service_refused_total", "Submissions refused";
    /// Each group also counts one decision per destination.
    SERVICE_P2MP_GROUPS: Counter = "dstage_service_p2mp_groups_total",
        "Point-to-multipoint submission groups processed";
    SERVICE_INJECTIONS: Counter = "dstage_service_injections_total",
        "Disturbance injections processed";
    /// Counted before repair triage.
    SERVICE_DISPLACED: Counter = "dstage_service_displaced_total",
        "Requests displaced by disturbances (repairs + evictions)";
    SERVICE_REPAIRS: Counter = "dstage_service_repairs_total",
        "Displaced requests re-admitted on a surviving route";
    SERVICE_EVICTIONS: Counter = "dstage_service_evictions_total",
        "Displaced requests with no surviving route";
    SERVICE_DISPLACED_DEPTH: Gauge = "dstage_service_displaced_queue_depth",
        "Depth of the displaced queue at the most recent repair";
    /// Also counts `submit_p2mp`; the `metrics` verb's `latency` object
    /// reads it.
    SERVICE_VERB_SUBMIT_US: Histogram(LATENCY_BOUNDS_US) = "dstage_service_verb_latency_us"
        {"verb" = "submit"}, "Wall latency of request dispatch by verb, microseconds";
    SERVICE_VERB_QUERY_US: Histogram(LATENCY_BOUNDS_US) = "dstage_service_verb_latency_us"
        {"verb" = "query"};
    SERVICE_VERB_INJECT_US: Histogram(LATENCY_BOUNDS_US) = "dstage_service_verb_latency_us"
        {"verb" = "inject"};
    SERVICE_VERB_SNAPSHOT_US: Histogram(LATENCY_BOUNDS_US) = "dstage_service_verb_latency_us"
        {"verb" = "snapshot"};
    /// Also counts the other introspection verbs: `trace`, `checkpoint`
    /// and `shutdown`.
    SERVICE_VERB_METRICS_US: Histogram(LATENCY_BOUNDS_US) = "dstage_service_verb_latency_us"
        {"verb" = "metrics"};
    SERVICE_VERB_OPTIMIZE_US: Histogram(LATENCY_BOUNDS_US) = "dstage_service_verb_latency_us"
        {"verb" = "optimize"};
    SERVICE_OPT_SWAP_ATTEMPTS: Counter = "dstage_service_opt_swap_attempts_total",
        "Evict-and-readmit swaps attempted by the optimizer";
    SERVICE_OPT_SWAPS_ACCEPTED: Counter = "dstage_service_opt_swaps_accepted_total",
        "Optimizer swaps that improved E[S] and were kept";
    /// The candidate still did not fit.
    SERVICE_OPT_TRIALS_ROLLED_BACK: Counter = "dstage_service_opt_trials_rolled_back_total",
        "Optimizer trials that unbooked a victim and put it back";
    /// Cancelled by a repair, or a victim's route taken out by a trial.
    SERVICE_TRANSFERS_RELEASED: Counter = "dstage_service_transfers_released_total",
        "Committed reservations released in place by a repair or an optimizer trial";
    /// By a repair or an optimizer trial.
    SERVICE_ITEMS_REDERIVED: Counter = "dstage_service_items_rederived_total",
        "Items whose tables were re-derived from their committed transfers";
    /// Wide buckets: scenarios span minutes to days.
    SERVICE_ADMIT_SLACK_MS: Histogram(SLACK_BOUNDS_MS) = "dstage_service_admit_slack_ms",
        "Deadline slack at admission (deadline minus ETA), milliseconds";
    SERVICE_WAL_APPENDS: Counter = "dstage_service_wal_appends_total",
        "Records appended to the write-ahead decision log";
    /// Frame headers included.
    SERVICE_WAL_BYTES: Counter = "dstage_service_wal_bytes_total",
        "Bytes appended to the write-ahead decision log";
    /// One per `fdatasync`.
    SERVICE_WAL_FSYNCS: Counter = "dstage_service_wal_fsyncs_total",
        "fsync calls issued against the write-ahead log";
    SERVICE_WAL_FSYNC_US: Histogram(LATENCY_BOUNDS_US) = "dstage_service_wal_fsync_us",
        "Wall time of each WAL fsync, microseconds";
    /// The `checkpoint` verb and the `--checkpoint-every` trigger.
    SERVICE_CHECKPOINTS: Counter = "dstage_service_checkpoints_total",
        "Engine checkpoints written (manual and periodic)";
    SERVICE_RECOVERY_REPLAYED: Counter = "dstage_service_recovery_replayed_total",
        "Decision-log records replayed from the WAL during recovery";
    SERVICE_RECOVERY_TRUNCATED: Counter = "dstage_service_recovery_truncated_total",
        "Torn or corrupt WAL records truncated during recovery";
    SERVICE_RECOVERY_WALL_US: Histogram(LATENCY_BOUNDS_US) = "dstage_service_recovery_wall_us",
        "Wall time of each recovery (checkpoint load + WAL replay), microseconds";

    // --- resources layer (ledger, busy intervals, capacity timelines) -

    RESOURCES_PROBES: Counter = "dstage_resources_probes_total",
        "Reservation probes (earliest_transfer calls)";
    /// The probe loop re-seeds the link gap search at a later
    /// storage-feasible start.
    RESOURCES_PROBE_RESTARTS: Counter = "dstage_resources_probe_restarts_total",
        "Probe restarts forced by storage contention";
    RESOURCES_GAP_ITERATIONS: Counter = "dstage_resources_gap_iterations_total",
        "Gap-search loop iterations (earliest_gap)";
    RESOURCES_PEAK_SCANS: Counter = "dstage_resources_peak_scans_total",
        "Capacity-peak scans (peak_usage calls)";
    RESOURCES_COMMITS: Counter = "dstage_resources_commits_total",
        "Transfers committed into the ledger";

    // --- path layer (earliest-arrival Dijkstra) -----------------------

    PATH_TREES: Counter = "dstage_path_trees_total", "Earliest-arrival trees computed";
    /// Served without a search because `paths_hold` returned true.
    PATH_TREES_VALIDATED: Counter = "dstage_path_trees_validated_total",
        "Cached trees served after validating the paths read";
    /// One ledger probe each, outside any search.
    PATH_HOPS_REPROBED: Counter = "dstage_path_hops_reprobed_total",
        "Cached-tree hops probed again by read-side validation";
    /// One ledger probe each; with [`PATH_HOPS_REPROBED`] they add up to
    /// [`RESOURCES_PROBES`] for pure-path workloads.
    PATH_RELAXATIONS: Counter = "dstage_path_relaxations_total",
        "Edge relaxations issued as ledger probes";
    /// Includes every edge the label or lower-bound prunes discarded.
    PATH_EDGE_SCANS: Counter = "dstage_path_edge_scans_total",
        "Outgoing edges considered, including pruned ones";
    /// The bound is the unloaded-network crossing time.
    PATH_LB_PRUNES: Counter = "dstage_path_lb_prunes_total",
        "Edges discarded by the static lower bound before probing";
    PATH_HEAP_PUSHES: Counter = "dstage_path_heap_pushes_total",
        "Queue pushes (sources plus label improvements)";
    PATH_STALE_POPS: Counter = "dstage_path_stale_pops_total",
        "Stale queue entries popped and skipped";
    /// Per tree, the machines a search settled before its destinations.
    PATH_SETTLED: Counter = "dstage_path_settled_total",
        "Machines settled by searches (queue pops that were not stale)";

    // --- core layer (heuristic selection rounds) ----------------------

    CORE_ITEMS_SKIPPED_CLEAN: Counter = "dstage_core_items_skipped_clean_total",
        "Selection-round item visits skipped: nothing consumed enters the read paths";
    /// The item's cached enumeration is empty.
    CORE_ITEMS_SKIPPED_DEAD: Counter = "dstage_core_items_skipped_dead_total",
        "Selection-round item visits skipped: no destination can come into reach";
    /// The tree was built, or its item's pending set changed.
    CORE_STEPS_REBUILT: Counter = "dstage_core_steps_rebuilt_total",
        "Candidate-step enumerations read off a tree afresh";
    /// Its committed receivers became the tree's sources: one search
    /// fewer than dropping it.
    CORE_TREES_KEPT: Counter = "dstage_core_trees_kept_total",
        "Commits that kept their item's tree, committed receivers staged as sources";

    // --- sim layer (sweep executor) -----------------------------------

    SIM_WORK_UNITS: Counter = "dstage_sim_work_units_total", "Sweep work units executed";
    SIM_WORK_UNIT_WALL_US: Histogram(LATENCY_BOUNDS_US) = "dstage_sim_work_unit_wall_us",
        "Per-work-unit wall time, microseconds";
    SIM_QUEUE_WAIT_US: Histogram(LATENCY_BOUNDS_US) = "dstage_sim_queue_wait_us",
        "Pool queue wait before a worker picked the unit up, microseconds";
}

/// Zeroes every instrument in the inventory (test/profile isolation).
pub fn reset_all() {
    for series in SERIES {
        match series.instrument {
            Instrument::Counter(c) => c.reset(),
            Instrument::Gauge(g) => g.reset(),
            Instrument::Histogram(h) => h.reset(),
        }
    }
}

/// Renders the inventory as Prometheus text exposition (format 0.0.4).
///
/// `# HELP`/`# TYPE` headers are emitted once per family; series render
/// in declaration order, so equal instrument states yield byte-identical
/// text.
#[must_use]
pub fn render_prometheus() -> String {
    let mut out = String::with_capacity(16 * 1024);
    for series in SERIES {
        render_series(&mut out, series).expect("writing to a String cannot fail");
    }
    out
}

fn render_series(out: &mut String, series: &Series) -> std::fmt::Result {
    let name = series.family;
    if let Some(help) = series.help {
        let kind = match series.instrument {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        };
        write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n")?;
    }
    let labels = |le: Option<&str>| {
        let pairs: Vec<String> = (series.label.into_iter())
            .chain(le.map(|le| ("le", le)))
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        if pairs.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", pairs.join(","))
        }
    };
    match series.instrument {
        Instrument::Counter(c) => writeln!(out, "{name}{} {}", labels(None), c.get()),
        Instrument::Gauge(g) => writeln!(out, "{name}{} {}", labels(None), g.get()),
        Instrument::Histogram(h) => {
            let snap = h.snapshot();
            let mut cumulative = 0;
            for (i, count) in snap.buckets.iter().enumerate() {
                cumulative += count;
                let le = snap.bounds.get(i).map_or_else(|| "+Inf".to_string(), u64::to_string);
                writeln!(out, "{name}_bucket{} {cumulative}", labels(Some(&le)))?;
            }
            writeln!(out, "{name}_sum{} {}", labels(None), snap.sum)?;
            writeln!(out, "{name}_count{} {}", labels(None), snap.count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_spans_five_layers_with_enough_series() {
        let layers: BTreeSet<&str> = SERIES
            .iter()
            .map(|s| s.family.strip_prefix("dstage_").and_then(|n| n.split('_').next()).unwrap())
            .collect();
        assert_eq!(
            layers.into_iter().collect::<Vec<_>>(),
            vec!["core", "path", "resources", "service", "sim"]
        );
        // Distinct series = (family, label) pairs; the acceptance bar is
        // at least 12 across all five layers.
        let series: BTreeSet<(&str, Option<(&str, &str)>)> =
            SERIES.iter().map(|s| (s.family, s.label)).collect();
        assert!(series.len() >= 12, "only {} series", series.len());
        assert_eq!(series.len(), SERIES.len(), "duplicate (family, label) rows");
    }

    #[test]
    fn each_family_is_contiguous_and_only_its_first_row_carries_help() {
        let mut families = BTreeSet::new();
        for (i, series) in SERIES.iter().enumerate() {
            let first = i == 0 || SERIES[i - 1].family != series.family;
            assert_eq!(series.help.is_some(), first, "{}: HELP on first row only", series.family);
            assert!(!first || families.insert(series.family), "{} is split", series.family);
        }
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_well_formed() {
        let _serial = crate::test_lock();
        let a = render_prometheus();
        let b = render_prometheus();
        assert_eq!(a, b);
        assert!(a.contains("# TYPE dstage_service_decisions_total counter"));
        assert!(a.contains("# TYPE dstage_service_verb_latency_us histogram"));
        assert!(a.contains("dstage_service_verb_latency_us_bucket{verb=\"submit\",le=\"50\"}"));
        assert!(a.contains("dstage_sim_work_unit_wall_us_bucket{le=\"+Inf\"}"));
        assert!(a.contains("dstage_path_heap_pushes_total"));
        assert!(a.contains("dstage_resources_gap_iterations_total"));
        // HELP/TYPE emitted once per family, not once per labeled series.
        assert_eq!(a.matches("# TYPE dstage_service_verb_latency_us histogram").count(), 1);
    }

    #[test]
    fn histogram_buckets_render_cumulatively() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        SIM_QUEUE_WAIT_US.reset();
        SIM_QUEUE_WAIT_US.record(10);
        SIM_QUEUE_WAIT_US.record(60);
        let text = render_prometheus();
        assert!(text.contains("dstage_sim_queue_wait_us_bucket{le=\"50\"} 1"));
        assert!(text.contains("dstage_sim_queue_wait_us_bucket{le=\"100\"} 2"));
        assert!(text.contains("dstage_sim_queue_wait_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("dstage_sim_queue_wait_us_count 2"));
        SIM_QUEUE_WAIT_US.reset();
    }
}
