//! The fixed metric inventory and its Prometheus text exposition.
//!
//! Every metric the system records is a `static` here, grouped by the
//! five instrumented layers (`service`, `resources`, `path`, `core`,
//! `sim`).
//! Instrumented crates increment the statics directly — no registration,
//! no lookup, no allocation on the hot path. [`render_prometheus`]
//! renders the whole table in declaration order, so equal states always
//! produce byte-identical exposition text.

use crate::instruments::{Counter, Gauge, Histogram};

/// Upper bucket bounds shared by every latency/wall-time histogram, in
/// microseconds.
pub const LATENCY_BOUNDS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

// --- service layer (admission engine + daemon dispatch) ---------------

/// Admission decisions made (one per non-deduplicated submission).
pub static SERVICE_DECISIONS: Counter = Counter::new();
/// Submissions admitted.
pub static SERVICE_ADMITTED: Counter = Counter::new();
/// Submissions refused.
pub static SERVICE_REFUSED: Counter = Counter::new();
/// Point-to-multipoint submission groups processed (each group also
/// counts one decision per destination).
pub static SERVICE_P2MP_GROUPS: Counter = Counter::new();
/// Disturbance injections processed.
pub static SERVICE_INJECTIONS: Counter = Counter::new();
/// Requests displaced by disturbances (before repair triage).
pub static SERVICE_DISPLACED: Counter = Counter::new();
/// Displaced requests re-admitted on a surviving route.
pub static SERVICE_REPAIRS: Counter = Counter::new();
/// Displaced requests no surviving route could satisfy.
pub static SERVICE_EVICTIONS: Counter = Counter::new();
/// Depth of the displaced queue at the most recent repair.
pub static SERVICE_DISPLACED_DEPTH: Gauge = Gauge::new();
/// Wall latency of `submit` dispatches; the `metrics` verb's `latency`
/// object reads it.
pub static SERVICE_VERB_SUBMIT_US: Histogram = Histogram::new(&LATENCY_BOUNDS_US);
/// Wall latency of `query` dispatches.
pub static SERVICE_VERB_QUERY_US: Histogram = Histogram::new(&LATENCY_BOUNDS_US);
/// Wall latency of `inject` dispatches.
pub static SERVICE_VERB_INJECT_US: Histogram = Histogram::new(&LATENCY_BOUNDS_US);
/// Wall latency of `snapshot` dispatches.
pub static SERVICE_VERB_SNAPSHOT_US: Histogram = Histogram::new(&LATENCY_BOUNDS_US);
/// Wall latency of `metrics` and `trace` dispatches.
pub static SERVICE_VERB_METRICS_US: Histogram = Histogram::new(&LATENCY_BOUNDS_US);
/// Wall latency of `optimize` dispatches.
pub static SERVICE_VERB_OPTIMIZE_US: Histogram = Histogram::new(&LATENCY_BOUNDS_US);
/// Evict-and-readmit swaps attempted by the optimizer.
pub static SERVICE_OPT_SWAP_ATTEMPTS: Counter = Counter::new();
/// Optimizer swaps that improved `E[S]` and were kept.
pub static SERVICE_OPT_SWAPS_ACCEPTED: Counter = Counter::new();
/// Optimizer trials whose victim was unbooked and then put back because
/// the candidate still did not fit.
pub static SERVICE_OPT_TRIALS_ROLLED_BACK: Counter = Counter::new();
/// Committed reservations released in place: cancelled by a repair, or a
/// victim's route taken out by an optimizer trial.
pub static SERVICE_TRANSFERS_RELEASED: Counter = Counter::new();
/// Items whose tables were re-derived from their committed transfers (by a
/// repair or an optimizer trial).
pub static SERVICE_ITEMS_REDERIVED: Counter = Counter::new();
/// Deadline slack at admission (`deadline − ETA`), milliseconds. Wide
/// buckets: scenarios span minutes to days.
pub static SERVICE_ADMIT_SLACK_MS: Histogram = Histogram::new(&SLACK_BOUNDS_MS);
/// Records appended to the write-ahead decision log.
pub static SERVICE_WAL_APPENDS: Counter = Counter::new();
/// Bytes appended to the write-ahead decision log (frame headers
/// included).
pub static SERVICE_WAL_BYTES: Counter = Counter::new();
/// fsync (fdatasync) calls issued against the write-ahead log.
pub static SERVICE_WAL_FSYNCS: Counter = Counter::new();
/// Wall time of each WAL fsync.
pub static SERVICE_WAL_FSYNC_US: Histogram = Histogram::new(&LATENCY_BOUNDS_US);
/// Checkpoints written (manual `checkpoint` verb + periodic triggers).
pub static SERVICE_CHECKPOINTS: Counter = Counter::new();
/// Decision-log records replayed from the WAL during recovery.
pub static SERVICE_RECOVERY_REPLAYED: Counter = Counter::new();
/// Torn or corrupt WAL records truncated during recovery.
pub static SERVICE_RECOVERY_TRUNCATED: Counter = Counter::new();
/// Wall time of each recovery (checkpoint load + WAL replay).
pub static SERVICE_RECOVERY_WALL_US: Histogram = Histogram::new(&LATENCY_BOUNDS_US);

/// Upper bucket bounds for the admission-slack histogram, milliseconds
/// (1 s up to 24 h).
pub const SLACK_BOUNDS_MS: [u64; 10] =
    [1_000, 5_000, 15_000, 60_000, 300_000, 900_000, 3_600_000, 14_400_000, 43_200_000, 86_400_000];

// --- resources layer (ledger, busy intervals, capacity timelines) -----

/// Reservation probes (`NetworkLedger::earliest_transfer` calls).
pub static RESOURCES_PROBES: Counter = Counter::new();
/// Probe restarts forced by storage contention (the probe loop re-seeding
/// the link gap search at a later storage-feasible start).
pub static RESOURCES_PROBE_RESTARTS: Counter = Counter::new();
/// Gap-search loop iterations (`BusyIntervals::earliest_gap`).
pub static RESOURCES_GAP_ITERATIONS: Counter = Counter::new();
/// Capacity-peak scans (`CapacityTimeline::peak_usage` calls).
pub static RESOURCES_PEAK_SCANS: Counter = Counter::new();
/// Transfers committed into the ledger.
pub static RESOURCES_COMMITS: Counter = Counter::new();

// --- path layer (earliest-arrival Dijkstra) ---------------------------

/// Earliest-arrival trees computed.
pub static PATH_TREES: Counter = Counter::new();
/// Cached trees served without a search after their read paths were
/// validated (`paths_hold` returned true).
pub static PATH_TREES_VALIDATED: Counter = Counter::new();
/// Hops of cached trees probed again by that validation (one
/// `earliest_transfer` call each, outside any search).
pub static PATH_HOPS_REPROBED: Counter = Counter::new();
/// Edge relaxations issued as ledger probes (one `earliest_transfer` call
/// each; with `dstage_path_hops_reprobed_total` they add up to
/// `dstage_resources_probes_total` for pure-path workloads).
pub static PATH_RELAXATIONS: Counter = Counter::new();
/// Outgoing edges considered by the search, including every edge the
/// label or lower-bound prunes discarded before probing.
pub static PATH_EDGE_SCANS: Counter = Counter::new();
/// Edges discarded by the static lower bound (unloaded-network crossing
/// time) before any ledger probe.
pub static PATH_LB_PRUNES: Counter = Counter::new();
/// Queue pushes (sources plus label improvements).
pub static PATH_HEAP_PUSHES: Counter = Counter::new();
/// Stale queue entries popped and skipped.
pub static PATH_STALE_POPS: Counter = Counter::new();

// --- core layer (heuristic selection rounds) --------------------------

/// Item visits of a selection round answered without looking at the tree:
/// nothing consumed since the last check enters a machine on the item's
/// read paths.
pub static CORE_ITEMS_SKIPPED_CLEAN: Counter = Counter::new();
/// Item visits of a selection round answered without looking at the tree:
/// the item's cached enumeration is empty, and consumption cannot bring a
/// destination into reach.
pub static CORE_ITEMS_SKIPPED_DEAD: Counter = Counter::new();
/// Candidate-step enumerations read off a tree afresh (the tree was built,
/// or its item's pending set changed).
pub static CORE_STEPS_REBUILT: Counter = Counter::new();

// --- sim layer (sweep executor) ---------------------------------------

/// Work units executed by the sweep pool.
pub static SIM_WORK_UNITS: Counter = Counter::new();
/// Per-work-unit wall time.
pub static SIM_WORK_UNIT_WALL_US: Histogram = Histogram::new(&LATENCY_BOUNDS_US);
/// Time a work unit waited in the pool queue before a worker picked it
/// up.
pub static SIM_QUEUE_WAIT_US: Histogram = Histogram::new(&LATENCY_BOUNDS_US);

/// What kind of instrument a [`MetricDef`] points at.
#[derive(Debug, Clone, Copy)]
pub enum MetricKind {
    /// A monotone counter.
    Counter(&'static Counter),
    /// A point-in-time gauge.
    Gauge(&'static Gauge),
    /// A fixed-bucket histogram.
    Histogram(&'static Histogram),
}

/// One row of the metric inventory.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Prometheus family name (series sharing a family share the name and
    /// differ by `label`).
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// Instrumented layer: `service`, `resources`, `path`, or `sim`.
    pub layer: &'static str,
    /// Optional `key="value"` label distinguishing series in a family.
    pub label: Option<(&'static str, &'static str)>,
    /// The instrument backing the row.
    pub kind: MetricKind,
}

/// The complete inventory, in exposition order.
#[must_use]
pub fn registry() -> &'static [MetricDef] {
    use MetricKind::{Counter, Gauge, Histogram};
    static REGISTRY: &[MetricDef] = &[
        MetricDef {
            name: "dstage_service_decisions_total",
            help: "Admission decisions made (admitted + refused)",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_DECISIONS),
        },
        MetricDef {
            name: "dstage_service_admitted_total",
            help: "Submissions admitted",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_ADMITTED),
        },
        MetricDef {
            name: "dstage_service_refused_total",
            help: "Submissions refused",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_REFUSED),
        },
        MetricDef {
            name: "dstage_service_p2mp_groups_total",
            help: "Point-to-multipoint submission groups processed",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_P2MP_GROUPS),
        },
        MetricDef {
            name: "dstage_service_injections_total",
            help: "Disturbance injections processed",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_INJECTIONS),
        },
        MetricDef {
            name: "dstage_service_displaced_total",
            help: "Requests displaced by disturbances (repairs + evictions)",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_DISPLACED),
        },
        MetricDef {
            name: "dstage_service_repairs_total",
            help: "Displaced requests re-admitted on a surviving route",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_REPAIRS),
        },
        MetricDef {
            name: "dstage_service_evictions_total",
            help: "Displaced requests with no surviving route",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_EVICTIONS),
        },
        MetricDef {
            name: "dstage_service_displaced_queue_depth",
            help: "Depth of the displaced queue at the most recent repair",
            layer: "service",
            label: None,
            kind: Gauge(&SERVICE_DISPLACED_DEPTH),
        },
        MetricDef {
            name: "dstage_service_verb_latency_us",
            help: "Wall latency of request dispatch by verb, microseconds",
            layer: "service",
            label: Some(("verb", "submit")),
            kind: Histogram(&SERVICE_VERB_SUBMIT_US),
        },
        MetricDef {
            name: "dstage_service_verb_latency_us",
            help: "Wall latency of request dispatch by verb, microseconds",
            layer: "service",
            label: Some(("verb", "query")),
            kind: Histogram(&SERVICE_VERB_QUERY_US),
        },
        MetricDef {
            name: "dstage_service_verb_latency_us",
            help: "Wall latency of request dispatch by verb, microseconds",
            layer: "service",
            label: Some(("verb", "inject")),
            kind: Histogram(&SERVICE_VERB_INJECT_US),
        },
        MetricDef {
            name: "dstage_service_verb_latency_us",
            help: "Wall latency of request dispatch by verb, microseconds",
            layer: "service",
            label: Some(("verb", "snapshot")),
            kind: Histogram(&SERVICE_VERB_SNAPSHOT_US),
        },
        MetricDef {
            name: "dstage_service_verb_latency_us",
            help: "Wall latency of request dispatch by verb, microseconds",
            layer: "service",
            label: Some(("verb", "metrics")),
            kind: Histogram(&SERVICE_VERB_METRICS_US),
        },
        MetricDef {
            name: "dstage_service_verb_latency_us",
            help: "Wall latency of request dispatch by verb, microseconds",
            layer: "service",
            label: Some(("verb", "optimize")),
            kind: Histogram(&SERVICE_VERB_OPTIMIZE_US),
        },
        MetricDef {
            name: "dstage_service_opt_swap_attempts_total",
            help: "Evict-and-readmit swaps attempted by the optimizer",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_OPT_SWAP_ATTEMPTS),
        },
        MetricDef {
            name: "dstage_service_opt_swaps_accepted_total",
            help: "Optimizer swaps that improved E[S] and were kept",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_OPT_SWAPS_ACCEPTED),
        },
        MetricDef {
            name: "dstage_service_opt_trials_rolled_back_total",
            help: "Optimizer trials that unbooked a victim and put it back",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_OPT_TRIALS_ROLLED_BACK),
        },
        MetricDef {
            name: "dstage_service_transfers_released_total",
            help: "Committed reservations released in place by a repair or an optimizer trial",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_TRANSFERS_RELEASED),
        },
        MetricDef {
            name: "dstage_service_items_rederived_total",
            help: "Items whose tables were re-derived from their committed transfers",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_ITEMS_REDERIVED),
        },
        MetricDef {
            name: "dstage_service_admit_slack_ms",
            help: "Deadline slack at admission (deadline minus ETA), milliseconds",
            layer: "service",
            label: None,
            kind: Histogram(&SERVICE_ADMIT_SLACK_MS),
        },
        MetricDef {
            name: "dstage_service_wal_appends_total",
            help: "Records appended to the write-ahead decision log",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_WAL_APPENDS),
        },
        MetricDef {
            name: "dstage_service_wal_bytes_total",
            help: "Bytes appended to the write-ahead decision log",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_WAL_BYTES),
        },
        MetricDef {
            name: "dstage_service_wal_fsyncs_total",
            help: "fsync calls issued against the write-ahead log",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_WAL_FSYNCS),
        },
        MetricDef {
            name: "dstage_service_wal_fsync_us",
            help: "Wall time of each WAL fsync, microseconds",
            layer: "service",
            label: None,
            kind: Histogram(&SERVICE_WAL_FSYNC_US),
        },
        MetricDef {
            name: "dstage_service_checkpoints_total",
            help: "Engine checkpoints written (manual and periodic)",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_CHECKPOINTS),
        },
        MetricDef {
            name: "dstage_service_recovery_replayed_total",
            help: "Decision-log records replayed from the WAL during recovery",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_RECOVERY_REPLAYED),
        },
        MetricDef {
            name: "dstage_service_recovery_truncated_total",
            help: "Torn or corrupt WAL records truncated during recovery",
            layer: "service",
            label: None,
            kind: Counter(&SERVICE_RECOVERY_TRUNCATED),
        },
        MetricDef {
            name: "dstage_service_recovery_wall_us",
            help: "Wall time of each recovery (checkpoint load + WAL replay), microseconds",
            layer: "service",
            label: None,
            kind: Histogram(&SERVICE_RECOVERY_WALL_US),
        },
        MetricDef {
            name: "dstage_resources_probes_total",
            help: "Reservation probes (earliest_transfer calls)",
            layer: "resources",
            label: None,
            kind: Counter(&RESOURCES_PROBES),
        },
        MetricDef {
            name: "dstage_resources_probe_restarts_total",
            help: "Probe restarts forced by storage contention",
            layer: "resources",
            label: None,
            kind: Counter(&RESOURCES_PROBE_RESTARTS),
        },
        MetricDef {
            name: "dstage_resources_gap_iterations_total",
            help: "Gap-search loop iterations (earliest_gap)",
            layer: "resources",
            label: None,
            kind: Counter(&RESOURCES_GAP_ITERATIONS),
        },
        MetricDef {
            name: "dstage_resources_peak_scans_total",
            help: "Capacity-peak scans (peak_usage calls)",
            layer: "resources",
            label: None,
            kind: Counter(&RESOURCES_PEAK_SCANS),
        },
        MetricDef {
            name: "dstage_resources_commits_total",
            help: "Transfers committed into the ledger",
            layer: "resources",
            label: None,
            kind: Counter(&RESOURCES_COMMITS),
        },
        MetricDef {
            name: "dstage_path_trees_total",
            help: "Earliest-arrival trees computed",
            layer: "path",
            label: None,
            kind: Counter(&PATH_TREES),
        },
        MetricDef {
            name: "dstage_path_trees_validated_total",
            help: "Cached trees served after validating the paths read",
            layer: "path",
            label: None,
            kind: Counter(&PATH_TREES_VALIDATED),
        },
        MetricDef {
            name: "dstage_path_hops_reprobed_total",
            help: "Cached-tree hops probed again by read-side validation",
            layer: "path",
            label: None,
            kind: Counter(&PATH_HOPS_REPROBED),
        },
        MetricDef {
            name: "dstage_path_relaxations_total",
            help: "Edge relaxations issued as ledger probes",
            layer: "path",
            label: None,
            kind: Counter(&PATH_RELAXATIONS),
        },
        MetricDef {
            name: "dstage_path_edge_scans_total",
            help: "Outgoing edges considered, including pruned ones",
            layer: "path",
            label: None,
            kind: Counter(&PATH_EDGE_SCANS),
        },
        MetricDef {
            name: "dstage_path_lb_prunes_total",
            help: "Edges discarded by the static lower bound before probing",
            layer: "path",
            label: None,
            kind: Counter(&PATH_LB_PRUNES),
        },
        MetricDef {
            name: "dstage_path_heap_pushes_total",
            help: "Queue pushes (sources plus label improvements)",
            layer: "path",
            label: None,
            kind: Counter(&PATH_HEAP_PUSHES),
        },
        MetricDef {
            name: "dstage_path_stale_pops_total",
            help: "Stale queue entries popped and skipped",
            layer: "path",
            label: None,
            kind: Counter(&PATH_STALE_POPS),
        },
        MetricDef {
            name: "dstage_core_items_skipped_clean_total",
            help: "Selection-round item visits skipped: nothing consumed enters the read paths",
            layer: "core",
            label: None,
            kind: Counter(&CORE_ITEMS_SKIPPED_CLEAN),
        },
        MetricDef {
            name: "dstage_core_items_skipped_dead_total",
            help: "Selection-round item visits skipped: no destination can come into reach",
            layer: "core",
            label: None,
            kind: Counter(&CORE_ITEMS_SKIPPED_DEAD),
        },
        MetricDef {
            name: "dstage_core_steps_rebuilt_total",
            help: "Candidate-step enumerations read off a tree afresh",
            layer: "core",
            label: None,
            kind: Counter(&CORE_STEPS_REBUILT),
        },
        MetricDef {
            name: "dstage_sim_work_units_total",
            help: "Sweep work units executed",
            layer: "sim",
            label: None,
            kind: Counter(&SIM_WORK_UNITS),
        },
        MetricDef {
            name: "dstage_sim_work_unit_wall_us",
            help: "Per-work-unit wall time, microseconds",
            layer: "sim",
            label: None,
            kind: Histogram(&SIM_WORK_UNIT_WALL_US),
        },
        MetricDef {
            name: "dstage_sim_queue_wait_us",
            help: "Pool queue wait before a worker picked the unit up, microseconds",
            layer: "sim",
            label: None,
            kind: Histogram(&SIM_QUEUE_WAIT_US),
        },
    ];
    REGISTRY
}

/// Zeroes every instrument in the inventory (test/profile isolation).
pub fn reset_all() {
    for def in registry() {
        match def.kind {
            MetricKind::Counter(c) => c.reset(),
            MetricKind::Gauge(g) => g.reset(),
            MetricKind::Histogram(h) => h.reset(),
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
    let mut out = String::with_capacity(4096);
    let mut last_family = "";
    for def in registry() {
        if def.name != last_family {
            let kind = match def.kind {
                MetricKind::Counter(_) => "counter",
                MetricKind::Gauge(_) => "gauge",
                MetricKind::Histogram(_) => "histogram",
            };
            out.push_str(&format!(
                "# HELP {} {}\n# TYPE {} {}\n",
                def.name, def.help, def.name, kind
            ));
            last_family = def.name;
        }
        let label = |extra: Option<(&str, String)>| -> String {
            let mut parts = Vec::new();
            if let Some((k, v)) = def.label {
                parts.push(format!("{k}=\"{v}\""));
            }
            if let Some((k, v)) = extra {
                parts.push(format!("{k}=\"{v}\""));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };
        match def.kind {
            MetricKind::Counter(c) => {
                out.push_str(&format!("{}{} {}\n", def.name, label(None), c.get()));
            }
            MetricKind::Gauge(g) => {
                out.push_str(&format!("{}{} {}\n", def.name, label(None), g.get()));
            }
            MetricKind::Histogram(h) => {
                let snap = h.snapshot();
                let mut cumulative = 0u64;
                for (i, &count) in snap.buckets.iter().enumerate() {
                    cumulative += count;
                    let le =
                        snap.bounds.get(i).map_or_else(|| "+Inf".to_string(), ToString::to_string);
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        def.name,
                        label(Some(("le", le))),
                        cumulative
                    ));
                }
                out.push_str(&format!("{}_sum{} {}\n", def.name, label(None), snap.sum));
                out.push_str(&format!("{}_count{} {}\n", def.name, label(None), snap.count));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_spans_five_layers_with_enough_series() {
        let defs = registry();
        let layers: BTreeSet<&str> = defs.iter().map(|d| d.layer).collect();
        assert_eq!(
            layers.into_iter().collect::<Vec<_>>(),
            vec!["core", "path", "resources", "service", "sim"]
        );
        // Distinct series = (family, label) pairs; the acceptance bar is
        // at least 12 across all five layers.
        let series: BTreeSet<(&str, Option<(&str, &str)>)> =
            defs.iter().map(|d| (d.name, d.label)).collect();
        assert!(series.len() >= 12, "only {} series", series.len());
        assert_eq!(series.len(), defs.len(), "duplicate (family, label) rows");
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
