//! The paper's evaluation artifacts, one function per experiment id (see
//! DESIGN.md §4 for the index).
//!
//! Every experiment consumes a shared [`Harness`] (results are cached
//! across experiments — Figure 2 reuses the `Cost₄` series of Figures
//! 3–5) and returns an [`ExperimentReport`] of tables, an optional ASCII
//! plot, and CSV payloads. The sweep fans out in one place, the case
//! loop: the harness (for a missing series) and the own-generator
//! experiments (for their per-case values) both call [`run_indexed`], and
//! every mean sums the per-case values in case order.

use dstage_core::cost::CostCriterion;
use dstage_core::heuristic::{run, Heuristic, HeuristicConfig};
use dstage_dynamic::{simulate, Event, EventKind, EventLog, OnlinePolicy};
use dstage_model::scenario::Scenario;
use dstage_model::time::SimDuration;

use crate::executor::run_indexed;
use crate::report::{ascii_plot, Series, Table};
use crate::runner::{Harness, SchedulerKind, Weighting};
use crate::stats::Stats;
use crate::sweep::EuRatioPoint;

/// A rendered experiment: tables plus optional plot plus CSV files.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (`fig2` … `exec`), used for file names.
    pub id: &'static str,
    /// Human-readable description.
    pub title: String,
    /// Result tables.
    pub tables: Vec<Table>,
    /// ASCII plots (already rendered).
    pub plots: Vec<String>,
}

impl ExperimentReport {
    /// Renders everything as one text block.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!("# {} — {}\n\n", self.id, self.title);
        for plot in &self.plots {
            out.push_str(plot);
            out.push('\n');
        }
        for table in &self.tables {
            out.push_str(&table.to_ascii());
            out.push('\n');
        }
        out
    }

    /// The CSV payloads `(file_name, contents)` of all tables.
    #[must_use]
    pub fn csv_files(&self) -> Vec<(String, String)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let name = if self.tables.len() == 1 {
                    format!("{}.csv", self.id)
                } else {
                    format!("{}_{}.csv", self.id, i)
                };
                (name, t.to_csv())
            })
            .collect()
    }
}

/// The mean-weighted-sum series of one heuristic/criterion pairing over
/// the full E-U sweep.
fn sweep_series(
    harness: &Harness,
    heuristic: Heuristic,
    criterion: CostCriterion,
    weighting: Weighting,
) -> Vec<f64> {
    EuRatioPoint::PAPER_SWEEP
        .iter()
        .map(|&p| {
            harness.mean_weighted_sum(SchedulerKind::Pairing(heuristic, criterion, p), weighting)
        })
        .collect()
}

/// The sweep point where a pairing peaks (used by the text experiments).
fn best_point(
    harness: &Harness,
    heuristic: Heuristic,
    criterion: CostCriterion,
    weighting: Weighting,
) -> EuRatioPoint {
    let series = sweep_series(harness, heuristic, criterion, weighting);
    let (idx, _) = series
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("means are finite"))
        .expect("sweep is non-empty");
    EuRatioPoint::PAPER_SWEEP[idx]
}

/// The mean of `value` over `items`, summed in slice order (so a series
/// computed on any number of threads averages to the same bits).
fn mean<T>(items: &[T], value: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(value).sum::<f64>() / items.len() as f64
}

fn x_labels() -> Vec<String> {
    EuRatioPoint::PAPER_SWEEP.iter().map(|p| p.label()).collect()
}

fn sweep_table(title: &str, series: &[Series]) -> Table {
    let mut columns = vec!["series".to_string()];
    columns.extend(x_labels());
    let mut table = Table::new(title, columns);
    for s in series {
        let mut row = vec![s.label.clone()];
        row.extend(s.values.iter().map(|v| format!("{v:.1}")));
        table.push_row(row);
    }
    table
}

/// **Figure 2**: bounds, both random lower bounds, and the best criterion
/// (`Cost₄`) of each heuristic, versus the E-U ratio (1,10,100 weighting).
pub fn fig2(harness: &Harness) -> ExperimentReport {
    let weighting = Weighting::W1_10_100;
    let n = EuRatioPoint::PAPER_SWEEP.len();
    let bounds = harness.bounds(weighting);
    let ub_mean = bounds.iter().map(|b| b.upper_bound as f64).sum::<f64>() / bounds.len() as f64;
    let ps_mean =
        bounds.iter().map(|b| b.possible_satisfy as f64).sum::<f64>() / bounds.len() as f64;
    let flat = |label: &str, v: f64| Series { label: label.into(), values: vec![v; n] };

    let single = harness.mean_weighted_sum(SchedulerKind::SingleDijkstraRandom, weighting);
    let random = harness.mean_weighted_sum(SchedulerKind::RandomDijkstra, weighting);

    let mut series = vec![flat("upper_bound", ub_mean), flat("possible_satisfy", ps_mean)];
    for h in Heuristic::ALL {
        series.push(Series {
            label: format!("{h}/C4"),
            values: sweep_series(harness, h, CostCriterion::C4, weighting),
        });
    }
    series.push(flat("random_Dijkstra", random));
    series.push(flat("single_Dij_random", single));

    ExperimentReport {
        id: "fig2",
        title: "Heuristics' best cost criterion (C4) vs bounds, 1,10,100 weighting".into(),
        plots: vec![ascii_plot(
            "Figure 2: mean weighted sum of satisfied priorities vs log10(E-U ratio)",
            &x_labels(),
            &series,
            16,
        )],
        tables: vec![sweep_table(
            "Figure 2 series (mean weighted sum over the test cases)",
            &series,
        )],
    }
}

fn criterion_figure(id: &'static str, heuristic: Heuristic, harness: &Harness) -> ExperimentReport {
    let weighting = Weighting::W1_10_100;
    let series: Vec<Series> = heuristic
        .criteria()
        .iter()
        .map(|&c| Series {
            label: c.label().to_string(),
            values: sweep_series(harness, heuristic, c, weighting),
        })
        .collect();
    let title = format!(
        "{} heuristic, cost criteria {} vs E-U ratio, 1,10,100 weighting",
        heuristic,
        heuristic.criteria().iter().map(|c| c.label()).collect::<Vec<_>>().join("/"),
    );
    ExperimentReport {
        id,
        title: title.clone(),
        plots: vec![ascii_plot(
            &format!("{id}: mean weighted sum vs log10(E-U ratio) [{heuristic}]"),
            &x_labels(),
            &series,
            16,
        )],
        tables: vec![sweep_table(&title, &series)],
    }
}

/// **Figure 3**: the partial path heuristic under all four criteria.
pub fn fig3(harness: &Harness) -> ExperimentReport {
    criterion_figure("fig3", Heuristic::PartialPath, harness)
}

/// **Figure 4**: the full path/one destination heuristic under all four
/// criteria.
pub fn fig4(harness: &Harness) -> ExperimentReport {
    criterion_figure("fig4", Heuristic::FullPathOneDestination, harness)
}

/// **Figure 5**: the full path/all destinations heuristic under C2–C4.
pub fn fig5(harness: &Harness) -> ExperimentReport {
    criterion_figure("fig5", Heuristic::FullPathAllDestinations, harness)
}

/// **weights** (§5.4 text): per-priority-class satisfied counts under the
/// 1,5,10 and 1,10,100 weightings — the heavier weighting must satisfy
/// more high-priority and fewer medium/low requests.
pub fn weights(harness: &Harness) -> ExperimentReport {
    let mut table = Table::new(
        "Mean satisfied requests per priority class (heuristics with C4 at their best E-U point)",
        vec![
            "heuristic".into(),
            "weighting".into(),
            "best x".into(),
            "low".into(),
            "medium".into(),
            "high".into(),
            "weighted sum".into(),
        ],
    );
    for h in Heuristic::ALL {
        for weighting in Weighting::ALL {
            let point = best_point(harness, h, CostCriterion::C4, weighting);
            let results =
                harness.results(SchedulerKind::Pairing(h, CostCriterion::C4, point), weighting);
            let n = results.len() as f64;
            let mean_class = |lvl: usize| {
                results.iter().map(|r| r.evaluation.satisfied_by_priority[lvl] as f64).sum::<f64>()
                    / n
            };
            let mean_w = results.iter().map(|r| r.evaluation.weighted_sum as f64).sum::<f64>() / n;
            table.push_row(vec![
                h.to_string(),
                weighting.label().to_string(),
                point.label(),
                format!("{:.1}", mean_class(0)),
                format!("{:.1}", mean_class(1)),
                format!("{:.1}", mean_class(2)),
                format!("{mean_w:.1}"),
            ]);
        }
    }
    ExperimentReport {
        id: "weights",
        title: "1,5,10 vs 1,10,100 priority weighting (§5.4)".into(),
        tables: vec![table],
        plots: vec![],
    }
}

/// **prio_first** (§5.4 text / §6): every heuristic/criterion pair at its
/// best E-U point versus the simplified priority-first scheme, on weighted
/// sum and highest-priority deliveries.
pub fn prio_first(harness: &Harness) -> ExperimentReport {
    let weighting = Weighting::W1_10_100;
    let pf = harness.results(SchedulerKind::PriorityFirst, weighting);
    let n = pf.len() as f64;
    let pf_mean = pf.iter().map(|r| r.evaluation.weighted_sum as f64).sum::<f64>() / n;
    let pf_high = pf.iter().map(|r| r.evaluation.satisfied_by_priority[2] as f64).sum::<f64>() / n;

    let mut table = Table::new(
        format!(
            "Heuristic/criterion pairs (best E-U point) vs priority-first \
             (pf mean weighted sum {pf_mean:.1}, mean high satisfied {pf_high:.1})"
        ),
        vec![
            "pair".into(),
            "best x".into(),
            "mean weighted".into(),
            "vs pf".into(),
            "cases >= pf".into(),
            "mean high satisfied".into(),
            "high vs pf".into(),
        ],
    );
    for h in Heuristic::ALL {
        for &c in h.criteria() {
            let point = best_point(harness, h, c, weighting);
            let results = harness.results(SchedulerKind::Pairing(h, c, point), weighting);
            let mean = results.iter().map(|r| r.evaluation.weighted_sum as f64).sum::<f64>() / n;
            let high =
                results.iter().map(|r| r.evaluation.satisfied_by_priority[2] as f64).sum::<f64>()
                    / n;
            let better = results
                .iter()
                .zip(pf.iter())
                .filter(|(r, p)| r.evaluation.weighted_sum >= p.evaluation.weighted_sum)
                .count();
            table.push_row(vec![
                format!("{h}/{c}"),
                point.label(),
                format!("{mean:.1}"),
                format!("{:+.1}", mean - pf_mean),
                format!("{better}/{}", results.len()),
                format!("{high:.1}"),
                format!("{:+.1}", high - pf_high),
            ]);
        }
    }
    ExperimentReport {
        id: "prio_first",
        title: "Heuristics vs the simplified priority-first scheme (§5.4)".into(),
        tables: vec![table],
        plots: vec![],
    }
}

/// **minmax** (§5.4 text, companion report \[17\]): spread over the individual test
/// cases for each heuristic with `Cost₄` at its best E-U point.
pub fn minmax(harness: &Harness) -> ExperimentReport {
    let weighting = Weighting::W1_10_100;
    let mut table = Table::new(
        "Weighted-sum spread over the test cases (C4, best E-U point)",
        vec![
            "heuristic".into(),
            "best x".into(),
            "mean".into(),
            "min".into(),
            "max".into(),
            "std dev".into(),
        ],
    );
    for h in Heuristic::ALL {
        let point = best_point(harness, h, CostCriterion::C4, weighting);
        let results =
            harness.results(SchedulerKind::Pairing(h, CostCriterion::C4, point), weighting);
        let samples: Vec<u64> = results.iter().map(|r| r.evaluation.weighted_sum).collect();
        let stats = Stats::from_u64(&samples);
        table.push_row(vec![
            h.to_string(),
            point.label(),
            format!("{:.1}", stats.mean),
            format!("{:.0}", stats.min),
            format!("{:.0}", stats.max),
            format!("{:.1}", stats.std_dev),
        ]);
    }
    ExperimentReport {
        id: "minmax",
        title: "Min/max over individual test cases (companion report)".into(),
        tables: vec![table],
        plots: vec![],
    }
}

/// **exec** (§5.4 text, companion report \[17\]): execution time, Dijkstra-run counts,
/// and mean links traversed per satisfied request, per heuristic/criterion
/// at E-U ratio 1. Full path/all destinations must need the fewest
/// Dijkstra runs (§4.7).
pub fn exec(harness: &Harness) -> ExperimentReport {
    let weighting = Weighting::W1_10_100;
    let point = EuRatioPoint::Log10(0);
    let mut table = Table::new(
        "Execution metrics per heuristic/criterion (E-U ratio 1)",
        vec![
            "pair".into(),
            "mean time [ms]".into(),
            "mean Dijkstra runs".into(),
            "mean cache hits".into(),
            "mean transfers".into(),
            "mean links/delivery".into(),
        ],
    );
    for h in Heuristic::ALL {
        for &c in h.criteria() {
            let results = harness.results(SchedulerKind::Pairing(h, c, point), weighting);
            let n = results.len() as f64;
            let mean = |f: &dyn Fn(&crate::runner::CaseResult) -> f64| -> f64 {
                results.iter().map(f).sum::<f64>() / n
            };
            table.push_row(vec![
                format!("{h}/{c}"),
                format!("{:.1}", mean(&|r| r.metrics.elapsed.as_secs_f64() * 1_000.0)),
                format!("{:.0}", mean(&|r| r.metrics.dijkstra_runs as f64)),
                format!("{:.0}", mean(&|r| r.metrics.cache_hits as f64)),
                format!("{:.0}", mean(&|r| r.metrics.transfers_committed as f64)),
                format!("{:.2}", mean(&|r| r.evaluation.mean_hops_per_delivery)),
            ]);
        }
    }
    ExperimentReport {
        id: "exec",
        title: "Execution time, Dijkstra runs, links traversed (companion report)".into(),
        tables: vec![table],
        plots: vec![],
    }
}

/// **congestion** (the paper's §6 future-work knob, plus a reproduction
/// diagnostic): how the C1/C3/C4 criteria compare as the request load is
/// scaled. `Cost₄`'s multi-destination awareness is exactly what pays off
/// as the network gets more oversubscribed, so its margin over `Cost₁`
/// must grow with congestion.
///
/// Runs its own scaled generator configs, so it does not share the main
/// harness; `cases` scenarios per congestion level, fanned out over
/// `threads` workers.
pub fn congestion(
    base: &dstage_workload::GeneratorConfig,
    cases: usize,
    threads: usize,
) -> ExperimentReport {
    use dstage_core::cost::EuWeights;

    const CRITERIA: [CostCriterion; 3] = [CostCriterion::C1, CostCriterion::C3, CostCriterion::C4];
    let weighting = Weighting::W1_10_100;
    let weights = weighting.weights();
    let eu = EuWeights::from_log10_ratio(2.0);
    let mut table = Table::new(
        "Mean weighted sum vs request-load multiplier (full_one, E-U ratio 10^2)",
        vec![
            "congestion".into(),
            "mean requests".into(),
            "C1".into(),
            "C3".into(),
            "C4".into(),
            "C4 - C1".into(),
        ],
    );
    for factor in [0.5, 1.0, 2.0, 4.0] {
        let config = base.clone().with_congestion(factor);
        let per_case = run_indexed(cases, threads, |seed| {
            let s = dstage_workload::generate(&config, seed as u64);
            let sums = CRITERIA.map(|criterion| {
                let cfg = HeuristicConfig {
                    criterion,
                    eu,
                    priority_weights: weights.clone(),
                    caching: true,
                };
                run(&s, Heuristic::FullPathOneDestination, &cfg)
                    .schedule
                    .evaluate(&s, &weights)
                    .weighted_sum as f64
            });
            (s.request_count() as f64, sums)
        });
        let mean_requests = mean(&per_case, |c| c.0);
        let [c1, c3, c4] = [0, 1, 2].map(|k| mean(&per_case, |c| c.1[k]));
        table.push_row(vec![
            format!("{factor}x"),
            format!("{mean_requests:.0}"),
            format!("{c1:.1}"),
            format!("{c3:.1}"),
            format!("{c4:.1}"),
            format!("{:+.1}", c4 - c1),
        ]);
    }
    ExperimentReport {
        id: "congestion",
        title: "Criterion comparison under varying network congestion (§6 future work)".into(),
        tables: vec![table],
        plots: vec![],
    }
}

/// **extensions**: the `C3Floor` extension criterion (§5.4's "future cost
/// criteria might be designed to capture the original intent" of the
/// ratio criterion) against the paper's `C3` and the best point of `C4`,
/// for each heuristic.
pub fn extensions(harness: &Harness) -> ExperimentReport {
    let weighting = Weighting::W1_10_100;
    let point = EuRatioPoint::Log10(0); // C3/C3Floor are ratio-independent
    let mut table = Table::new(
        "Ratio criteria vs the floored extension (mean weighted sum; C4 at its best point)",
        vec!["heuristic".into(), "C3".into(), "C3f (extension)".into(), "C4 @ best x".into()],
    );
    for h in Heuristic::ALL {
        let c3 = harness
            .mean_weighted_sum(SchedulerKind::Pairing(h, CostCriterion::C3, point), weighting);
        let c3f = harness
            .mean_weighted_sum(SchedulerKind::Pairing(h, CostCriterion::C3Floor, point), weighting);
        let best = best_point(harness, h, CostCriterion::C4, weighting);
        let c4 = harness
            .mean_weighted_sum(SchedulerKind::Pairing(h, CostCriterion::C4, best), weighting);
        table.push_row(vec![
            h.to_string(),
            format!("{c3:.1}"),
            format!("{c3f:.1}"),
            format!("{c4:.1} @ {}", best.label()),
        ]);
    }
    ExperimentReport {
        id: "extensions",
        title: "Extension criterion C3Floor vs C3 and C4 (§5.4 future-criteria suggestion)".into(),
        tables: vec![table],
        plots: vec![],
    }
}

/// **schedulers**: the extended scheduler matrix — the paper's three
/// heuristics plus the deadline-headroom extensions (`alap`, `rcd`)
/// under `Cost₄` across the full E-U sweep, against the upper bound.
/// The headroom schedulers trade peak E-U tuning for robustness to
/// arrival order, so their curves sit near (not above) the paper trio on
/// the static batch workload; their payoff is measured by the admission
/// tests and the chaos harness.
pub fn schedulers(harness: &Harness) -> ExperimentReport {
    let weighting = Weighting::W1_10_100;
    let n = EuRatioPoint::PAPER_SWEEP.len();
    let bounds = harness.bounds(weighting);
    let ub_mean = bounds.iter().map(|b| b.upper_bound as f64).sum::<f64>() / bounds.len() as f64;
    let mut series = vec![Series { label: "upper_bound".into(), values: vec![ub_mean; n] }];
    for h in Heuristic::EXTENDED {
        series.push(Series {
            label: format!("{h}/C4"),
            values: sweep_series(harness, h, CostCriterion::C4, weighting),
        });
    }
    ExperimentReport {
        id: "schedulers",
        title: "All five schedulers (C4) vs the upper bound, 1,10,100 weighting".into(),
        plots: vec![ascii_plot(
            "schedulers: mean weighted sum vs log10(E-U ratio), extended matrix",
            &x_labels(),
            &series,
            16,
        )],
        tables: vec![sweep_table(
            "Extended scheduler matrix (mean weighted sum over the test cases)",
            &series,
        )],
    }
}

/// **optimizer**: the anytime evict-and-rerun post-pass on versus off,
/// per scheduler, with the residual gap to `upper_bound` before and
/// after. The climb only adopts strict `E[S]` improvements, so the
/// "optimized" column is ≥ "base" case by case (asserted in tests), and
/// the gap delta is what the swap budget bought.
///
/// Runs its own generator like `congestion` (the trials re-run the full
/// heuristic, so the case count is deliberately small).
pub fn optimizer(
    base: &dstage_workload::GeneratorConfig,
    cases: usize,
    budget: u64,
    threads: usize,
) -> ExperimentReport {
    use dstage_core::bounds::upper_bound;

    let config = HeuristicConfig::paper_best();
    let weights = &config.priority_weights;
    let scenarios: Vec<_> =
        (0..cases as u64).map(|seed| dstage_workload::generate(base, seed)).collect();
    let ub_mean = mean(&scenarios, |s| upper_bound(s, weights) as f64);
    let mut table = Table::new(
        format!(
            "Evict-and-rerun post-pass, swap budget {budget} \
             (mean upper bound {ub_mean:.1}, E-U ratio 1, 1,10,100 weighting)"
        ),
        vec![
            "scheduler".into(),
            "base E[S]".into(),
            "optimized E[S]".into(),
            "gap before".into(),
            "gap after".into(),
            "gap closed".into(),
            "mean swaps".into(),
        ],
    );
    for h in Heuristic::EXTENDED {
        let per_case = run_indexed(cases, threads, |i| {
            let scenario = &scenarios[i];
            let base_sum =
                run(scenario, h, &config).schedule.evaluate(scenario, weights).weighted_sum;
            let outcome = dstage_sched::optimize_schedule(scenario, h, &config, budget);
            (base_sum as f64, outcome.evaluation.weighted_sum as f64, outcome.accepted as f64)
        });
        let base_mean = mean(&per_case, |c| c.0);
        let opt_mean = mean(&per_case, |c| c.1);
        table.push_row(vec![
            h.to_string(),
            format!("{base_mean:.1}"),
            format!("{opt_mean:.1}"),
            format!("{:.1}", ub_mean - base_mean),
            format!("{:.1}", ub_mean - opt_mean),
            format!("{:+.1}", opt_mean - base_mean),
            format!("{:.1}", mean(&per_case, |c| c.2)),
        ]);
    }
    ExperimentReport {
        id: "optimizer",
        title: "Anytime optimizer post-pass: E[S]-vs-upper_bound gap deltas".into(),
        tables: vec![table],
        plots: vec![],
    }
}

/// One case of the copy-loss experiments.
struct CopyLossCase {
    /// Weighted sum of the static, fault-free schedule.
    offline_sum: u64,
    /// Deliveries destroyed while their deadlines were still ahead.
    losses: usize,
    /// Of those, the requests the online re-plan satisfied again.
    recovered: usize,
    /// Online weighted sum as a percentage of the static one.
    kept_pct: f64,
}

/// Schedules `scenario` statically under `policy`, destroys the
/// destination copies of its `n_losses` earliest deliveries one minute
/// after arrival (with `kill_sources`, every initial source of the item
/// too), and re-plans online with [`simulate`].
fn copy_loss_case(
    scenario: &Scenario,
    policy: &OnlinePolicy,
    n_losses: usize,
    kill_sources: bool,
) -> CopyLossCase {
    let weights = &policy.config.priority_weights;
    let offline = run(scenario, policy.heuristic, &policy.config);
    let offline_sum = offline.schedule.evaluate(scenario, weights).weighted_sum;
    let mut deliveries: Vec<_> = offline.schedule.deliveries().to_vec();
    deliveries.sort_by_key(|d| d.at);
    let mut events = Vec::new();
    let mut victims = Vec::new();
    for d in deliveries.iter().take(n_losses) {
        let req = scenario.request(d.request);
        let loss_at = d.at + SimDuration::from_mins(1);
        if loss_at > req.deadline() {
            continue; // already safe: data survived to its deadline
        }
        victims.push(d.request);
        events.push(Event::new(
            loss_at,
            EventKind::CopyLoss { item: req.item(), machine: req.destination() },
        ));
        if kill_sources {
            for src in scenario.item(req.item()).sources() {
                events.push(Event::new(
                    loss_at,
                    EventKind::CopyLoss { item: req.item(), machine: src.machine },
                ));
            }
        }
    }
    let log = EventLog::new(scenario, events).expect("ids from the scenario");
    let outcome = simulate(scenario, &log, policy);
    let online_sum = outcome.executed.evaluate(scenario, weights).weighted_sum;
    CopyLossCase {
        offline_sum,
        losses: victims.len(),
        recovered: victims.iter().filter(|&&r| outcome.executed.delivery_of(r).is_some()).count(),
        kept_pct: 100.0 * online_sum as f64 / offline_sum.max(1) as f64,
    }
}

/// **fault_tolerance**: quantifies §4.4's redundancy rationale — copies
/// are retained on intermediate machines for γ after the latest deadline
/// precisely so that "a link, an intermediate node, or a destination"
/// losing its copy can be healed. We schedule each scenario statically,
/// destroy the earliest deliveries' destination copies shortly after they
/// arrive, re-plan online, and measure how many of the lost requests are
/// re-satisfied, as a function of γ.
pub fn fault_tolerance(
    base: &dstage_workload::GeneratorConfig,
    cases: usize,
    threads: usize,
) -> ExperimentReport {
    const LOSSES_PER_CASE: usize = 5;
    let policy = OnlinePolicy::paper_best();
    let mut tables = Vec::new();
    // Two severities: losing only the destination copy (the original
    // sources can always re-send), and losing the destination copy *and*
    // every initial source of the item (a storage location going
    // off-line, §1) — then only staged intermediate copies can heal.
    for (kill_sources, caption) in [
        (false, "destination copy lost (sources intact)"),
        (true, "destination copy and all initial sources lost (intermediate copies only)"),
    ] {
        let mut table = Table::new(
            format!(
                "Re-delivery after destroying the {LOSSES_PER_CASE} earliest deliveries \
                 per case — {caption}"
            ),
            vec![
                "gamma [min]".into(),
                "losses".into(),
                "re-satisfied".into(),
                "recovery rate".into(),
                "weighted sum kept [%]".into(),
            ],
        );
        for gamma_mins in [0u64, 6, 12] {
            let config = dstage_workload::GeneratorConfig {
                gc_delay: SimDuration::from_mins(gamma_mins),
                ..base.clone()
            };
            let per_case = run_indexed(cases, threads, |seed| {
                let scenario = dstage_workload::generate(&config, seed as u64);
                copy_loss_case(&scenario, &policy, LOSSES_PER_CASE, kill_sources)
            });
            let losses_total: usize = per_case.iter().map(|c| c.losses).sum();
            let recovered_total: usize = per_case.iter().map(|c| c.recovered).sum();
            let rate =
                if losses_total == 0 { 1.0 } else { recovered_total as f64 / losses_total as f64 };
            table.push_row(vec![
                gamma_mins.to_string(),
                losses_total.to_string(),
                recovered_total.to_string(),
                format!("{:.0}%", rate * 100.0),
                format!("{:.1}", mean(&per_case, |c| c.kept_pct)),
            ]);
        }
        tables.push(table);
    }
    ExperimentReport {
        id: "fault_tolerance",
        title: "Copy-loss recovery vs garbage-collection delay γ (§4.4 rationale)".into(),
        tables,
        plots: vec![],
    }
}

/// **families**: every scheduler × every scenario family × fault mix in
/// one sweep. The paper's study stays inside the uniform random §5.3
/// generator; this experiment ranges the extended scheduler matrix over
/// the structured families too — satcom (trunk bottleneck), the
/// inter-datacenter WAN (fat diurnal links, DDCCast-style P2MP groups
/// whose destinations share staged upstream copies), the grid mesh, and
/// the Even/Medina/Rosén adversarial line — first fault-free, then under
/// a fixed copy-loss mix (the earliest deliveries destroyed shortly
/// after arrival, re-planned online with each scheduler).
///
/// Runs its own generators, so it does not share the main harness;
/// `cases` seeds per family, fanned out over `threads` workers.
pub fn families(cases: usize, small: bool, threads: usize) -> ExperimentReport {
    use dstage_workload::Family;

    const LOSSES_PER_CASE: usize = 3;
    let policies = Heuristic::EXTENDED
        .map(|heuristic| OnlinePolicy { heuristic, config: HeuristicConfig::paper_best() });

    let mut header = vec!["family".into(), "mean requests".into(), "mean p2mp groups".into()];
    header.extend(Heuristic::EXTENDED.iter().map(ToString::to_string));
    let mut clean = Table::new("Mean weighted sum by scheduler and family (fault-free)", header);

    let mut header = vec!["family".into()];
    header.extend(Heuristic::EXTENDED.iter().map(ToString::to_string));
    let mut faulted = Table::new(
        format!(
            "Weighted sum kept [%] after destroying the {LOSSES_PER_CASE} earliest \
             deliveries per case (online re-plan per scheduler)"
        ),
        header,
    );

    for family in Family::ALL {
        let per_case = run_indexed(cases, threads, |seed| {
            let scenario = if small {
                family.generate_small(seed as u64)
            } else {
                family.generate(seed as u64)
            };
            let by_scheduler =
                policies.each_ref().map(|p| copy_loss_case(&scenario, p, LOSSES_PER_CASE, false));
            (scenario.request_count() as f64, scenario.p2mp_groups().len() as f64, by_scheduler)
        });
        let mut clean_row = vec![
            family.to_string(),
            format!("{:.0}", mean(&per_case, |c| c.0)),
            format!("{:.0}", mean(&per_case, |c| c.1)),
        ];
        let mut faulted_row = vec![family.to_string()];
        for k in 0..policies.len() {
            clean_row.push(format!("{:.1}", mean(&per_case, |c| c.2[k].offline_sum as f64)));
            faulted_row.push(format!("{:.1}", mean(&per_case, |c| c.2[k].kept_pct)));
        }
        clean.push_row(clean_row);
        faulted.push_row(faulted_row);
    }

    ExperimentReport {
        id: "families",
        title: "Scheduler matrix across scenario families, fault-free and under copy loss".into(),
        tables: vec![clean, faulted],
        plots: vec![],
    }
}

/// Runs every experiment in paper order.
pub fn all(harness: &Harness) -> Vec<ExperimentReport> {
    vec![
        fig2(harness),
        fig3(harness),
        fig4(harness),
        fig5(harness),
        weights(harness),
        prio_first(harness),
        minmax(harness),
        exec(harness),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_workload::GeneratorConfig;

    fn tiny_harness() -> Harness {
        Harness::new(&GeneratorConfig::small(), 2)
    }

    #[test]
    fn fig2_has_seven_series_and_eleven_points() {
        let h = tiny_harness();
        let r = fig2(&h);
        assert_eq!(r.tables.len(), 1);
        assert_eq!(r.tables[0].rows.len(), 7);
        assert_eq!(r.tables[0].columns.len(), 12); // label + 11 points
        assert_eq!(r.plots.len(), 1);
    }

    #[test]
    fn criterion_figures_have_expected_rows() {
        let h = tiny_harness();
        assert_eq!(fig3(&h).tables[0].rows.len(), 4);
        assert_eq!(fig4(&h).tables[0].rows.len(), 4);
        assert_eq!(fig5(&h).tables[0].rows.len(), 3);
    }

    #[test]
    fn weights_table_covers_heuristics_and_weightings() {
        let h = tiny_harness();
        let r = weights(&h);
        assert_eq!(r.tables[0].rows.len(), 6); // 3 heuristics x 2 weightings
    }

    #[test]
    fn prio_first_covers_all_eleven_pairs() {
        let h = tiny_harness();
        let r = prio_first(&h);
        assert_eq!(r.tables[0].rows.len(), 11); // 4 + 4 + 3
    }

    #[test]
    fn exec_and_minmax_render() {
        let h = tiny_harness();
        assert_eq!(minmax(&h).tables[0].rows.len(), 3);
        assert_eq!(exec(&h).tables[0].rows.len(), 11);
    }

    #[test]
    fn schedulers_reports_all_five() {
        let h = tiny_harness();
        let r = schedulers(&h);
        assert_eq!(r.tables[0].rows.len(), 6); // upper bound + 5 schedulers
        assert_eq!(r.tables[0].columns.len(), 12);
        for heuristic in Heuristic::EXTENDED {
            assert!(
                r.tables[0].rows.iter().any(|row| row[0] == format!("{heuristic}/C4")),
                "{heuristic} missing from the extended matrix"
            );
        }
    }

    #[test]
    fn optimizer_reports_every_scheduler_and_never_regresses() {
        let base = GeneratorConfig::small();
        let r = optimizer(&base, 2, 4, 1);
        assert_eq!(r.tables[0].rows.len(), 5);
        // The acceptance guarantee, case by case: the post-pass never
        // decreases E[S] on any sweep case.
        let config = HeuristicConfig::paper_best();
        for seed in 0..2u64 {
            let scenario = dstage_workload::generate(&base, seed);
            for h in Heuristic::EXTENDED {
                let plain = run(&scenario, h, &config)
                    .schedule
                    .evaluate(&scenario, &config.priority_weights)
                    .weighted_sum;
                let best = dstage_sched::optimize_schedule(&scenario, h, &config, 4);
                assert!(
                    best.evaluation.weighted_sum >= plain,
                    "{h} regressed on seed {seed}: {} < {plain}",
                    best.evaluation.weighted_sum
                );
            }
        }
    }

    #[test]
    fn report_text_and_csv_render() {
        let h = tiny_harness();
        let r = fig5(&h);
        let text = r.to_text();
        assert!(text.contains("fig5"));
        let csvs = r.csv_files();
        assert_eq!(csvs.len(), 1);
        assert!(csvs[0].0.ends_with(".csv"));
        assert!(csvs[0].1.lines().count() >= 4);
    }
}
