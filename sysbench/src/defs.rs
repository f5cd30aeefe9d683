//! The metric tables: every name the benchmark prints, with unit,
//! direction and (end to end) the bound `compare` applies.
//! `BENCHMARK.json` is rendered from these tables (`dstage-bench manifest`).

use crate::inputs::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a run's figure is taken from the values of its passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// The best pass (lowest or highest, by the metric's direction). For
    /// timings: every pass does the same work, and what a shared host adds
    /// to it is one-sided and comes in bursts of 5 to 30 s (README,
    /// Repeatability), so the least disturbed pass is the steadiest
    /// estimate of what the program costs.
    Best,
    /// The median: for outputs, which interference does not bias.
    Median,
    /// The maximum: peak memory.
    Max,
}

/// An end-to-end metric: measured with tracing off, from outside the
/// program, on the workloads listed.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub fold: Fold,
    /// Share of the baseline's median by which the median may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
    /// `None`: every workload, and so part of `BENCHMARK.json`.
    pub only_on: Option<&'static [Workload]>,
}

impl EndToEnd {
    pub fn applies_to(&self, workload: Workload) -> bool {
        self.only_on.is_none_or(|list| list.contains(&workload))
    }
}

const fn everywhere(
    name: &'static str,
    unit: &'static str,
    better: Better,
    fold: Fold,
    bound: f64,
) -> EndToEnd {
    EndToEnd { name, unit, better, fold, bound, only_on: None }
}

pub const END_TO_END: [EndToEnd; 10] = [
    everywhere("setup_s", "s", Better::Lower, Fold::Best, 0.25),
    everywhere("op_p50_us", "us", Better::Lower, Fold::Best, 0.25),
    everywhere("op_tail_us", "us", Better::Lower, Fold::Best, 0.25),
    everywhere("ops_per_s", "1/s", Better::Higher, Fold::Best, 0.25),
    everywhere("pass_s", "s", Better::Lower, Fold::Best, 0.25),
    everywhere("satisfied_share", "fraction", Better::Higher, Fold::Median, 0.05),
    everywhere("peak_rss_mb", "MB", Better::Lower, Fold::Max, 0.10),
    EndToEnd {
        name: "repair_p50_ms",
        unit: "ms",
        better: Better::Lower,
        fold: Fold::Best,
        bound: 0.25,
        only_on: Some(&[Workload::ServeGrid]),
    },
    EndToEnd {
        name: "optimize_ms",
        unit: "ms",
        better: Better::Lower,
        fold: Fold::Best,
        bound: 0.25,
        only_on: Some(&[Workload::ServeGrid]),
    },
    EndToEnd {
        name: "recover_records_per_s",
        unit: "1/s",
        better: Better::Higher,
        fold: Fold::Best,
        bound: 0.25,
        only_on: Some(&[Workload::ServeDurable]),
    },
];

/// `failed_share` is reported beside the table above; its bound is
/// absolute: any failed operation fails the run.
pub const FAILED_SHARE: &str = "failed_share";

/// A per-layer metric of the traced run. No bound: these explain an
/// end-to-end number, they are never the number.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher as Up, Lower as Down};

pub const PER_LAYER: [PerLayer; 62] = [
    layer("workload.generate_ms", "ms", Down),
    layer("model.scenario_build_us", "us", Down),
    layer("resources.commit_ns", "ns", Down),
    layer("resources.probe_ns", "ns", Down),
    layer("resources.probes", "count", Down),
    layer("resources.commits", "count", Down),
    layer("resources.gap_iterations_per_probe", "count", Down),
    layer("resources.peak_scans_per_probe", "count", Down),
    layer("resources.probe_restart_share", "fraction", Down),
    layer("path.tree_ns", "ns", Down),
    layer("path.tree_ns_heap", "ns", Down),
    layer("path.trees", "count", Down),
    layer("path.relaxations_per_tree", "count", Down),
    layer("path.edge_scans_per_tree", "count", Down),
    layer("path.prune_share", "fraction", Up),
    layer("path.repair_share", "fraction", Up),
    layer("path.bucket_advances_per_tree", "count", Down),
    layer("path.stale_pop_share", "fraction", Down),
    layer("core.run_ms.partial", "ms", Down),
    layer("core.run_ms.full_one", "ms", Down),
    layer("core.run_ms.full_all", "ms", Down),
    layer("core.run_ns_per_tree", "ns", Down),
    layer("core.iterations", "count", Down),
    layer("core.run_ms_repair_off", "ms", Down),
    layer("sim.work_units", "count", Down),
    layer("sim.unit_p50_ms", "ms", Down),
    layer("sim.queue_wait_p50_us", "us", Down),
    layer("sim.parallel_efficiency", "fraction", Up),
    layer("service.protocol.parse_ns", "ns", Down),
    layer("service.protocol.render_ns", "ns", Down),
    layer("service.engine.submit_us_p50", "us", Down),
    layer("service.engine.submit_us_p99", "us", Down),
    layer("service.engine.submit_slope_us_per_admit", "us", Down),
    layer("service.engine.commits_replayed_per_decision", "count", Down),
    layer("service.engine.trees_per_decision", "count", Down),
    layer("service.engine.probes_per_decision", "count", Down),
    layer("service.engine.inject_ms_p50", "ms", Down),
    layer("service.engine.displaced_per_inject", "count", Down),
    layer("service.engine.evicted_share", "fraction", Down),
    layer("service.engine.optimize_ms", "ms", Down),
    layer("service.engine.swap_attempts", "count", Down),
    layer("service.engine.query_us", "us", Down),
    layer("service.engine.snapshot_ms", "ms", Down),
    layer("service.engine.counters_us", "us", Down),
    layer("service.batch.epochs", "count", Down),
    layer("service.batch.mean_epoch_size", "count", Up),
    layer("service.batch.conflict_retry_share", "fraction", Down),
    layer("service.batch.fallbacks", "count", Down),
    layer("service.wal.append_ns", "ns", Down),
    layer("service.wal.fsync_us_p50", "us", Down),
    layer("service.wal.bytes_per_record", "count", Down),
    layer("service.wal.scan_records_per_s", "1/s", Up),
    layer("service.durability.stage_us", "us", Down),
    layer("service.durability.commit_us", "us", Down),
    layer("service.durability.recover_records_per_s", "1/s", Up),
    layer("service.durability.checkpoint_write_ms", "ms", Down),
    layer("service.durability.checkpoint_load_ms", "ms", Down),
    layer("service.durability.checkpoint_bytes", "count", Down),
    layer("service.server.floor_rtt_us", "us", Down),
    layer("service.server.spawn_ms", "ms", Down),
    layer("obs.tap_overhead_pct", "%", Down),
    layer("trace.overhead_pct", "%", Down),
];

/// Why each workload exists, one line each (also `BENCHMARK.json`'s `why`).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::ServePaper => {
            "paper-scale daemon: 4 catalogs, every distinct pair (~4,850 submits + queries); decisions are short, so socket, parse and dispatch are a visible share of the round trip"
        }
        Workload::ServeGrid => {
            "one daemon on a 10x10 grid: 600 submits (~90% admitted), then 20 link outages and 3 optimize passes; history-heavy, the replay grows per decision, service.engine is all of the round trip"
        }
        Workload::ServeDurable => {
            "2 paper catalogs with --data-dir --durability interval:25, SIGKILL, WAL recovery, checkpoint, SIGKILL, checkpoint restart; the only workload with WAL, group commit and recovery on the path"
        }
        Workload::SweepPaper => {
            "no service: 3 paper cases x 3 heuristics x 11 E-U ratios (99 heuristic::run calls) over the sim executor at threads = nproc; the paper's own evaluation on 12-machine graphs"
        }
        Workload::PlanGrid => {
            "no service, one thread: full-one C4 plans 120 requests on a 32x32 grid (1,024 machines); the regime where bucket queue, tree repair and lower-bound prune must earn their keep"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.map(Workload::name))
            .chain([FAILED_SHARE])
            .collect();
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let unit_ok = |u: &str| {
            u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(Workload::ALL.iter().all(|w| why(*w).len() <= 200 && !why(*w).contains('\n')));
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
