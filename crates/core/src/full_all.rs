//! The full path/all destinations heuristic (§4.7).
//!
//! Builds on full path/one destination: when a step wins, the current
//! shortest paths to **all** of the item's satisfiable destinations that
//! share the step's next machine (`Drq[i, r]`) are committed at once, with
//! shared tree edges reserved only once. This needs the fewest executions
//! of Dijkstra's algorithm of the three heuristics — the motivation the
//! paper gives for it — at the price of committing to several paths from
//! one (possibly soon stale) plan.

use crate::heuristic::{best_choice, HeuristicConfig};
use crate::state::SchedulerState;

/// One iteration of the full path/all destinations main loop; `false`
/// when no request can make progress.
pub(crate) fn step(state: &mut SchedulerState<'_>, config: &HeuristicConfig) -> bool {
    let Some(choice) = best_choice(state, config) else { return false };
    state.note_iteration();
    let scenario = state.scenario();
    let machines: Vec<_> =
        choice.step.satisfiable().map(|d| scenario.request(d.request).destination()).collect();
    debug_assert!(!machines.is_empty());
    state.commit_paths(choice.step.item, &machines);
    true
}

#[cfg(test)]
mod tests {
    use crate::cost::{CostCriterion, EuWeights};
    use crate::heuristic::{run, Heuristic, HeuristicConfig};
    use dstage_model::request::PriorityWeights;
    use dstage_workload::small::{contended_link, fan_out, two_hop_chain};

    fn config(criterion: CostCriterion) -> HeuristicConfig {
        HeuristicConfig {
            criterion,
            eu: EuWeights::from_log10_ratio(0.0),
            priority_weights: PriorityWeights::paper_1_10_100(),
            caching: true,
        }
    }

    #[test]
    fn satisfies_everything_on_an_uncontended_chain() {
        let s = two_hop_chain();
        for criterion in CostCriterion::MULTI_DESTINATION {
            let out = run(&s, Heuristic::FullPathAllDestinations, &config(criterion));
            let derived = out.schedule.validate(&s).unwrap();
            assert_eq!(derived.len(), s.request_count(), "criterion {criterion}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot use Cost1")]
    fn rejects_c1() {
        let s = two_hop_chain();
        let _ = run(&s, Heuristic::FullPathAllDestinations, &config(CostCriterion::C1));
    }

    #[test]
    fn needs_fewest_dijkstra_runs() {
        let s = fan_out();
        let cfg = config(CostCriterion::C4);
        let all = run(&s, Heuristic::FullPathAllDestinations, &cfg);
        let one = run(&s, Heuristic::FullPathOneDestination, &cfg);
        let partial = run(&s, Heuristic::PartialPath, &cfg);
        assert!(all.metrics.dijkstra_runs <= one.metrics.dijkstra_runs);
        assert!(one.metrics.dijkstra_runs <= partial.metrics.dijkstra_runs);
        // And it still satisfies everything on this easy scenario.
        assert_eq!(all.schedule.deliveries().len(), s.request_count());
    }

    #[test]
    fn deterministic_across_runs() {
        let s = contended_link();
        let a = run(&s, Heuristic::FullPathAllDestinations, &config(CostCriterion::C3));
        let b = run(&s, Heuristic::FullPathAllDestinations, &config(CostCriterion::C3));
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn validates_on_contended_scenarios() {
        let s = contended_link();
        for criterion in CostCriterion::MULTI_DESTINATION {
            let out = run(&s, Heuristic::FullPathAllDestinations, &config(criterion));
            out.schedule.validate(&s).unwrap();
        }
    }
}
