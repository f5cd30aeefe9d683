//! The rapidly-close-to-deadline heuristic (`rcd`, extension).
//!
//! Instead of running the cost competition, each iteration picks the
//! candidate step whose tightest satisfiable destination has the least
//! deadline slack (`deadline − A_T`) and commits that destination's full
//! path. Near-deadline work is placed while it is still feasible; loose
//! requests wait, absorbing whatever capacity is left. The cost criterion
//! and E-U weights of the shared configuration are ignored — slack *is*
//! the criterion.

use dstage_model::ids::RequestId;
use dstage_model::time::SimDuration;

use crate::heuristic::HeuristicConfig;
use crate::state::SchedulerState;

/// One iteration of the rapidly-close-to-deadline main loop; `false` when
/// no request can make progress.
pub(crate) fn step(state: &mut SchedulerState<'_>, _config: &HeuristicConfig) -> bool {
    // The (slack, request) winner per step, then the global minimum.
    // Ties keep enumeration order (items by id, steps by receiving
    // machine then link), matching the other heuristics' determinism.
    let mut best: Option<(SimDuration, RequestId)> = None;
    for step in state.all_candidate_steps() {
        for d in step.satisfiable() {
            let slack = d.deadline.saturating_since(d.arrival);
            // Strictly-tighter only: equal slack keeps the earlier
            // enumerated step/destination.
            if best.is_none_or(|(s, _)| slack < s) {
                best = Some((slack, d.request));
            }
        }
    }
    let Some((_, request)) = best else { return false };
    let request = state.scenario().request(request);
    let (item, machine) = (request.item(), request.destination());
    state.note_iteration();
    state.commit_path(item, machine);
    true
}

#[cfg(test)]
mod tests {
    use crate::cost::{CostCriterion, EuWeights};
    use crate::heuristic::{run, Heuristic, HeuristicConfig};
    use dstage_model::request::PriorityWeights;
    use dstage_workload::small::{contended_link, fan_out, two_hop_chain};

    fn config() -> HeuristicConfig {
        HeuristicConfig {
            criterion: CostCriterion::C4,
            eu: EuWeights::from_log10_ratio(0.0),
            priority_weights: PriorityWeights::paper_1_10_100(),
            caching: true,
        }
    }

    #[test]
    fn satisfies_everything_on_an_uncontended_chain() {
        let s = two_hop_chain();
        let out = run(&s, Heuristic::Rcd, &config());
        let derived = out.schedule.validate(&s).unwrap();
        assert_eq!(derived.len(), s.request_count());
    }

    #[test]
    fn tightest_deadline_is_served_first() {
        let s = fan_out();
        let out = run(&s, Heuristic::Rcd, &config());
        out.schedule.validate(&s).unwrap();
        // The request with the least slack must be delivered (it was
        // placed before anything could crowd it out).
        let tightest = s
            .requests()
            .min_by_key(|(_, r)| r.deadline())
            .map(|(id, _)| id)
            .expect("scenario has requests");
        assert!(out.schedule.delivery_of(tightest).is_some());
    }

    #[test]
    fn deterministic_across_runs() {
        let s = contended_link();
        let a = run(&s, Heuristic::Rcd, &config());
        let b = run(&s, Heuristic::Rcd, &config());
        assert_eq!(a.schedule, b.schedule);
    }
}
