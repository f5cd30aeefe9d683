//! An exact reference scheduler for tiny instances.
//!
//! The paper notes that "finding optimal solutions to data staging tasks
//! with realistic parameter values are intractable problems" (§5.1), so
//! its evaluation relies on bounds. For *tiny* instances, though, an
//! exhaustive search is feasible and gives the heuristics something
//! sharper than `possible_satisfy` to be measured against.
//!
//! [`best_order_schedule`] explores, with branch-and-bound, every order
//! in which full shortest paths can be committed to pending requests
//! (including leaving any subset unserved). This is optimal **within the
//! class of full-path-sequencing policies** — the class all three
//! heuristics and the priority-first scheme belong to — not over every
//! conceivable transfer-level schedule; that distinction is documented
//! here and in DESIGN.md.

use dstage_model::ids::{MachineId, RequestId};
use dstage_model::request::PriorityWeights;
use dstage_model::scenario::Scenario;

use crate::schedule::Schedule;
use crate::state::SchedulerState;

/// Upper limit on the number of requests [`best_order_schedule`] accepts;
/// the search visits up to `e · n!` commit orders.
pub const MAX_EXACT_REQUESTS: usize = 8;

/// The result of the exhaustive order search.
#[derive(Debug, Clone)]
pub struct ExactOutcome {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its weighted sum under the search's weighting.
    pub weighted_sum: u64,
    /// Number of branch-and-bound nodes explored.
    pub nodes_explored: u64,
}

/// Exhaustively searches all commit orders of full shortest paths and
/// returns the best schedule under `weights`.
///
/// # Panics
///
/// Panics if the scenario has more than [`MAX_EXACT_REQUESTS`] requests —
/// the search is factorial and exists only as a test/reference oracle for
/// tiny instances.
///
/// # Examples
///
/// ```
/// use dstage_core::exact::best_order_schedule;
/// use dstage_model::request::PriorityWeights;
/// use dstage_workload::small::contended_link;
///
/// let scenario = contended_link();
/// let exact = best_order_schedule(&scenario, &PriorityWeights::paper_1_10_100());
/// // Only one of the two contending requests can make its deadline, so
/// // the optimum takes the high-priority one: weight 100.
/// assert_eq!(exact.weighted_sum, 100);
/// ```
#[must_use]
pub fn best_order_schedule(scenario: &Scenario, weights: &PriorityWeights) -> ExactOutcome {
    assert!(
        scenario.request_count() <= MAX_EXACT_REQUESTS,
        "exhaustive search accepts at most {MAX_EXACT_REQUESTS} requests \
         (got {}); it is a reference oracle for tiny instances",
        scenario.request_count()
    );
    let mut best: Option<(u64, Schedule)> = None;
    let mut nodes = 0u64;
    let state = SchedulerState::new(scenario);
    search(scenario, weights, state, 0, &mut best, &mut nodes);
    let (weighted_sum, schedule) = best.expect("search always records the empty schedule");
    ExactOutcome { schedule, weighted_sum, nodes_explored: nodes }
}

fn current_weight(
    scenario: &Scenario,
    weights: &PriorityWeights,
    state: &SchedulerState<'_>,
) -> u64 {
    scenario
        .requests()
        .filter(|&(id, _)| state.is_delivered(id))
        .map(|(_, r)| weights.weight(r.priority()))
        .sum()
}

fn search(
    scenario: &Scenario,
    weights: &PriorityWeights,
    mut state: SchedulerState<'_>,
    achieved_floor: u64,
    best: &mut Option<(u64, Schedule)>,
    nodes: &mut u64,
) {
    *nodes += 1;
    let achieved = current_weight(scenario, weights, &state).max(achieved_floor);

    // Candidate next commits: pending requests whose current shortest
    // path meets the deadline.
    let mut candidates: Vec<RequestId> = Vec::new();
    let mut optimistic = achieved;
    for item in scenario.item_ids() {
        let pending: Vec<RequestId> = state.pending_requests(item).collect();
        if pending.is_empty() {
            continue;
        }
        let destinations: Vec<MachineId> =
            pending.iter().map(|&r| scenario.request(r).destination()).collect();
        let tree = state.tree(item, &destinations);
        for req_id in pending {
            let req = scenario.request(req_id);
            if tree.arrival(req.destination()) <= req.deadline() {
                candidates.push(req_id);
                optimistic += weights.weight(req.priority());
            }
        }
    }

    // Record this node as a leaf if it improves the incumbent.
    let improves = best.as_ref().is_none_or(|(incumbent, _)| achieved > *incumbent);
    if improves {
        let (schedule, _) = state.clone().into_outcome();
        *best = Some((achieved, schedule));
    }

    // Bound: even satisfying every remaining candidate cannot beat the
    // incumbent (which is now at least `achieved`).
    if let Some((incumbent, _)) = best {
        if optimistic <= *incumbent {
            return;
        }
    }

    for req_id in candidates {
        if state.is_delivered(req_id) {
            continue; // an earlier sibling commit may have delivered it
        }
        let req = scenario.request(req_id);
        let mut child = state.clone();
        // Re-check satisfiability in the child (cheap, uses the cache).
        let arrival = child.tree(req.item(), &[req.destination()]).arrival(req.destination());
        if arrival > req.deadline() {
            continue;
        }
        child.commit_path(req.item(), req.destination());
        search(scenario, weights, child, achieved, best, nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::{run, Heuristic, HeuristicConfig};
    use dstage_workload::small::{contended_link, fan_out, impossible_request, two_hop_chain};

    fn weights() -> PriorityWeights {
        PriorityWeights::paper_1_10_100()
    }

    #[test]
    fn exact_satisfies_everything_when_uncontended() {
        let s = two_hop_chain();
        let exact = best_order_schedule(&s, &weights());
        exact.schedule.validate(&s).unwrap();
        assert_eq!(exact.schedule.deliveries().len(), s.request_count());
        // 100 (high) + 10 (medium) + 1 (low).
        assert_eq!(exact.weighted_sum, 111);
    }

    #[test]
    fn exact_picks_the_heavy_request_under_contention() {
        let s = contended_link();
        let exact = best_order_schedule(&s, &weights());
        exact.schedule.validate(&s).unwrap();
        assert_eq!(exact.weighted_sum, 100);
        assert_eq!(exact.schedule.deliveries().len(), 1);
    }

    #[test]
    fn exact_skips_impossible_requests() {
        let s = impossible_request();
        let exact = best_order_schedule(&s, &weights());
        assert_eq!(exact.weighted_sum, 1); // only the easy low request
    }

    #[test]
    fn heuristics_never_beat_the_exact_reference() {
        for s in [two_hop_chain(), contended_link(), fan_out(), impossible_request()] {
            let exact = best_order_schedule(&s, &weights());
            for h in Heuristic::ALL {
                let out = run(&s, h, &HeuristicConfig::paper_best());
                let eval = out.schedule.evaluate(&s, &weights());
                assert!(
                    eval.weighted_sum <= exact.weighted_sum,
                    "{h} ({}) beat the exact reference ({})",
                    eval.weighted_sum,
                    exact.weighted_sum
                );
            }
        }
    }

    #[test]
    fn heuristics_reach_the_optimum_on_the_small_scenarios() {
        // On these easy instances the paper pairing is actually optimal.
        for s in [two_hop_chain(), contended_link(), fan_out()] {
            let exact = best_order_schedule(&s, &weights());
            let out = run(&s, Heuristic::FullPathOneDestination, &HeuristicConfig::paper_best());
            assert_eq!(out.schedule.evaluate(&s, &weights()).weighted_sum, exact.weighted_sum);
        }
    }

    #[test]
    fn node_count_is_bounded() {
        let s = fan_out();
        let exact = best_order_schedule(&s, &weights());
        // 4 requests: far fewer than e*4! nodes after pruning.
        assert!(exact.nodes_explored <= 70, "explored {}", exact.nodes_explored);
    }
}
