//! Upper bounds on achievable performance (§5.2).
//!
//! * [`upper_bound`] — the *loose* bound: the total weighted sum of all
//!   requests, as if every request could be satisfied.
//! * [`possible_satisfy`] — the tighter bound: the weighted sum over
//!   requests that could be satisfied *if each were the only request in
//!   the system* (some requests fail even alone, for lack of bandwidth or
//!   storage).

use dstage_model::ids::RequestId;
use dstage_model::request::PriorityWeights;
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use dstage_path::{earliest_arrival_paths, ItemQuery, Landmarks};
use dstage_resources::ledger::NetworkLedger;

/// The loose upper bound: Σ `W[Priority[j,k]]` over **all** requests.
#[must_use]
pub fn upper_bound(scenario: &Scenario, weights: &PriorityWeights) -> u64 {
    scenario.requests().map(|(_, r)| weights.weight(r.priority())).sum()
}

/// The result of the alone-in-the-system analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PossibleSatisfy {
    /// Σ weights over the individually satisfiable requests.
    pub weighted_sum: u64,
    /// The requests satisfiable when alone in the system.
    pub satisfiable: Vec<RequestId>,
}

/// The tighter upper bound (`possible_satisfy` in Figure 2): for each
/// request, checks whether the item could reach the destination by its
/// deadline on the pristine network, with only that request's staging
/// holds in force.
#[must_use]
pub fn possible_satisfy(scenario: &Scenario, weights: &PriorityWeights) -> PossibleSatisfy {
    let network = scenario.network();
    let m = network.machine_count();
    // Pristine ledger: only the initial source copies are placed.
    let mut ledger = NetworkLedger::new(network);
    for (_, item) in scenario.items() {
        for src in item.sources() {
            ledger.force_storage(src.machine, item.size(), src.available_at, scenario.horizon());
        }
    }

    let landmarks = Landmarks::new(network);
    let mut satisfiable = Vec::new();
    let mut weighted_sum = 0u64;
    for (req_id, req) in scenario.requests() {
        let item = scenario.item(req.item());
        let sources: Vec<_> = item.sources().iter().map(|s| (s.machine, s.available_at)).collect();
        // Alone in the system, the item's GC clock runs off this single
        // request's deadline.
        let gc: SimTime = (req.deadline() + scenario.gc_delay()).min(scenario.horizon());
        let mut hold = vec![gc; m];
        hold[req.destination().index()] = scenario.horizon();
        let tree = earliest_arrival_paths(
            &ItemQuery {
                network,
                ledger: &ledger,
                size: item.size(),
                sources: &sources,
                hold_until: &hold,
                horizon: scenario.horizon(),
            },
            &landmarks,
            &[req.destination()],
        );
        if tree.arrival(req.destination()) <= req.deadline() {
            satisfiable.push(req_id);
            weighted_sum += weights.weight(req.priority());
        }
    }
    PossibleSatisfy { weighted_sum, satisfiable }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_workload::small::{contended_link, impossible_request, two_hop_chain};

    #[test]
    fn upper_bound_sums_all_weights() {
        let s = two_hop_chain();
        let w = PriorityWeights::paper_1_10_100();
        let expected: u64 = s.requests().map(|(_, r)| w.weight(r.priority())).sum();
        assert_eq!(upper_bound(&s, &w), expected);
        assert!(expected > 0);
    }

    #[test]
    fn possible_satisfy_accepts_feasible_chain() {
        let s = two_hop_chain();
        let w = PriorityWeights::paper_1_10_100();
        let ps = possible_satisfy(&s, &w);
        assert_eq!(ps.satisfiable.len(), s.request_count());
        assert_eq!(ps.weighted_sum, upper_bound(&s, &w));
    }

    #[test]
    fn possible_satisfy_excludes_impossible_requests() {
        let s = impossible_request();
        let w = PriorityWeights::paper_1_10_100();
        let ps = possible_satisfy(&s, &w);
        // The scenario contains one request that cannot be satisfied even
        // alone (deadline shorter than the minimum transfer time) and one
        // that can.
        assert_eq!(ps.satisfiable.len(), s.request_count() - 1);
        assert!(ps.weighted_sum < upper_bound(&s, &w));
    }

    #[test]
    fn possible_satisfy_ignores_contention() {
        // Under contention, each request is still individually fine, so
        // possible_satisfy equals the loose bound even though no schedule
        // achieves it.
        let s = contended_link();
        let w = PriorityWeights::paper_1_10_100();
        let ps = possible_satisfy(&s, &w);
        assert_eq!(ps.weighted_sum, upper_bound(&s, &w));
    }
}
