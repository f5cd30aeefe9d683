//! The partial path heuristic (§4.5).
//!
//! Each iteration: run (or reuse) the shortest-path search per item,
//! enumerate the valid next communication steps, pick the lowest-cost one,
//! and commit **one hop** — the transfer to the next machine only — making
//! that machine an additional source of the item. Partially built paths
//! that later become blocked are left in place (the copies may still help,
//! and removing them would force a global re-plan, as the paper argues).

use crate::heuristic::{best_choice, HeuristicConfig};
use crate::state::SchedulerState;

/// One iteration of the partial path main loop; `false` when no request
/// can make progress.
pub(crate) fn step(state: &mut SchedulerState<'_>, config: &HeuristicConfig) -> bool {
    let Some(choice) = best_choice(state, config) else { return false };
    state.note_iteration();
    state.commit_hop(choice.step.item, choice.step.hop);
    true
}

#[cfg(test)]
mod tests {
    use crate::cost::{CostCriterion, EuWeights};
    use crate::heuristic::{run, Heuristic, HeuristicConfig};
    use dstage_model::ids::RequestId;
    use dstage_model::request::PriorityWeights;
    use dstage_workload::small::{contended_link, two_hop_chain};

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
            let out = run(&s, Heuristic::PartialPath, &config(criterion));
            let derived = out.schedule.validate(&s).expect("schedule must replay");
            assert_eq!(derived.len(), s.request_count(), "criterion {criterion} missed requests");
        }
    }

    #[test]
    fn prefers_the_high_priority_request_under_contention() {
        let s = contended_link();
        let out = run(&s, Heuristic::PartialPath, &config(CostCriterion::C4));
        out.schedule.validate(&s).unwrap();
        // The high-priority request (id 0) wins the contended link.
        assert!(out.schedule.delivery_of(RequestId::new(0)).is_some());
    }

    #[test]
    fn one_hop_per_iteration() {
        let s = two_hop_chain();
        let out = run(&s, Heuristic::PartialPath, &config(CostCriterion::C4));
        assert_eq!(out.metrics.iterations, out.metrics.transfers_committed);
    }

    #[test]
    fn deterministic_across_runs() {
        let s = contended_link();
        let a = run(&s, Heuristic::PartialPath, &config(CostCriterion::C2));
        let b = run(&s, Heuristic::PartialPath, &config(CostCriterion::C2));
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn caching_ablation_identical_schedules() {
        let s = contended_link();
        for criterion in CostCriterion::ALL {
            let mut cfg = config(criterion);
            let with_cache = run(&s, Heuristic::PartialPath, &cfg);
            cfg.caching = false;
            let without = run(&s, Heuristic::PartialPath, &cfg);
            assert_eq!(with_cache.schedule, without.schedule, "criterion {criterion}");
            assert_eq!(without.metrics.cache_hits, 0);
            assert!(with_cache.metrics.dijkstra_runs <= without.metrics.dijkstra_runs);
        }
    }
}
