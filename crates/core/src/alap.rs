//! The as-late-as-possible heuristic (`alap`, extension).
//!
//! Selection is identical to full path/one destination: each iteration
//! the cost criterion picks a winning step and a destination. Placement
//! differs — the chosen path is committed against the *latest* feasible
//! gaps before the destination's deadline (DDCCast-style backward
//! chaining) instead of the earliest ones. Early link capacity stays
//! free, preserving headroom for requests that have not arrived yet; in
//! the static sweep this trades delivery earliness (never satisfaction)
//! for contention relief, and in the online service it reduces the
//! eviction pressure of disturbances.

use crate::heuristic::{best_choice, lowest_cost_destination, HeuristicConfig};
use crate::state::SchedulerState;

/// One iteration of the as-late-as-possible main loop; `false` when no
/// request can make progress.
pub(crate) fn step(state: &mut SchedulerState<'_>, config: &HeuristicConfig) -> bool {
    let Some(choice) = best_choice(state, config) else { return false };
    state.note_iteration();
    let destination = choice.destination.or_else(|| lowest_cost_destination(config, &choice.step));
    let Some(request) = destination else {
        // Unreachable: steps always contain a satisfiable destination.
        debug_assert!(false, "winning step had no satisfiable destination");
        return false;
    };
    let req = state.scenario().request(request);
    state.commit_path_latest(choice.step.item, req.destination(), req.deadline());
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
        for criterion in CostCriterion::ALL {
            let out = run(&s, Heuristic::Alap, &config(criterion));
            let derived = out.schedule.validate(&s).unwrap();
            assert_eq!(derived.len(), s.request_count(), "criterion {criterion}");
        }
    }

    #[test]
    fn deliveries_hug_their_deadlines() {
        let s = two_hop_chain();
        let early = run(&s, Heuristic::FullPathOneDestination, &config(CostCriterion::C4));
        let late = run(&s, Heuristic::Alap, &config(CostCriterion::C4));
        assert_eq!(early.schedule.deliveries().len(), late.schedule.deliveries().len());
        for d in late.schedule.deliveries() {
            let deadline = s.request(d.request).deadline();
            let early_at = early.schedule.delivery_of(d.request).unwrap().at;
            assert!(d.at <= deadline);
            assert!(d.at >= early_at, "latest placement cannot beat earliest");
        }
        // At least one delivery actually moved toward its deadline.
        assert!(
            late.schedule
                .deliveries()
                .iter()
                .any(|d| d.at > early.schedule.delivery_of(d.request).unwrap().at),
            "alap placed nothing later than full_one"
        );
    }

    #[test]
    fn satisfies_no_fewer_than_zero_on_contention() {
        let s = contended_link();
        let out = run(&s, Heuristic::Alap, &config(CostCriterion::C4));
        out.schedule.validate(&s).unwrap();
        assert!(!out.schedule.deliveries().is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let s = fan_out();
        let a = run(&s, Heuristic::Alap, &config(CostCriterion::C2));
        let b = run(&s, Heuristic::Alap, &config(CostCriterion::C2));
        assert_eq!(a.schedule, b.schedule);
    }
}
