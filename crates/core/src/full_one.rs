//! The full path/one destination heuristic (§4.6).
//!
//! The partial path heuristic tends to reselect the same request hop after
//! hop; worse, a partial path that later gets blocked has consumed
//! resources other items needed. This heuristic exploits/avoids both: once
//! a step wins the cost competition, **every hop** of the item's current
//! shortest path to the step's chosen destination is committed before the
//! search runs again.
//!
//! For `Cost₁` the winning destination is named by the cost itself; for
//! the per-step criteria (C2–C4) the most urgent satisfiable destination
//! of the winning step is scheduled (its "lowest cost destination").

use crate::heuristic::{best_choice, lowest_cost_destination, HeuristicConfig};
use crate::state::SchedulerState;

/// One iteration of the full path/one destination main loop; `false`
/// when no request can make progress.
pub(crate) fn step(state: &mut SchedulerState<'_>, config: &HeuristicConfig) -> bool {
    let Some(choice) = best_choice(state, config) else { return false };
    state.note_iteration();
    let destination = choice.destination.or_else(|| lowest_cost_destination(config, &choice.step));
    let Some(request) = destination else {
        // Unreachable: steps always contain a satisfiable destination.
        debug_assert!(false, "winning step had no satisfiable destination");
        return false;
    };
    let machine = state.scenario().request(request).destination();
    state.commit_path(choice.step.item, machine);
    true
}

#[cfg(test)]
mod tests {
    use crate::cost::{CostCriterion, EuWeights};
    use crate::heuristic::{run, Heuristic, HeuristicConfig};
    use dstage_model::ids::RequestId;
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
        for criterion in CostCriterion::ALL {
            let out = run(&s, Heuristic::FullPathOneDestination, &config(criterion));
            let derived = out.schedule.validate(&s).unwrap();
            assert_eq!(derived.len(), s.request_count(), "criterion {criterion}");
        }
    }

    #[test]
    fn fewer_iterations_than_partial() {
        let s = fan_out();
        let full = run(&s, Heuristic::FullPathOneDestination, &config(CostCriterion::C4));
        let partial = run(&s, Heuristic::PartialPath, &config(CostCriterion::C4));
        assert!(full.metrics.iterations <= partial.metrics.iterations);
        // Same satisfied set on this easy scenario.
        assert_eq!(full.schedule.deliveries().len(), partial.schedule.deliveries().len());
    }

    #[test]
    fn high_priority_request_wins_contention() {
        let s = contended_link();
        let out = run(&s, Heuristic::FullPathOneDestination, &config(CostCriterion::C4));
        out.schedule.validate(&s).unwrap();
        assert!(out.schedule.delivery_of(RequestId::new(0)).is_some());
    }

    #[test]
    fn whole_path_committed_per_iteration() {
        let s = two_hop_chain();
        let out = run(&s, Heuristic::FullPathOneDestination, &config(CostCriterion::C4));
        // The chain scenario needs multi-hop paths; with full paths the
        // number of iterations is the number of scheduled destinations,
        // not the number of transfers.
        assert!(out.metrics.iterations < out.metrics.transfers_committed);
    }

    #[test]
    fn deterministic_across_runs() {
        let s = contended_link();
        let a = run(&s, Heuristic::FullPathOneDestination, &config(CostCriterion::C1));
        let b = run(&s, Heuristic::FullPathOneDestination, &config(CostCriterion::C1));
        assert_eq!(a.schedule, b.schedule);
    }
}
