//! Deadline-headroom scheduling subsystem.
//!
//! The headroom-aware schedulers themselves — `alap` (latest-feasible
//! placement, DDCCast-style) and `rcd` (close-to-deadline admission) —
//! live in `dstage_core` beside the paper's three heuristics, because
//! they share the candidate-step and placement machinery of
//! [`dstage_core::state::SchedulerState`]. This crate owns the layer on
//! top: an *anytime evict-and-rerun local search* that improves any base
//! schedule by trading satisfied low-weight requests for refused
//! higher-weight ones.
//!
//! [`optimize_schedule`] wraps a static heuristic run (the `figures
//! optimizer` post-pass); [`optimize_with`] is the generic climb and
//! accepts any planner that can re-plan with a set of requests excluded.
//! The live admission daemon implements the same climb natively, as
//! evict-and-readmit trials on its live schedule. The climb only ever
//! *adopts* strict improvements of the weighted satisfied sum `E[S]`, so
//! interrupting it at any budget leaves a schedule no worse than the base
//! plan.
//!
//! # Examples
//!
//! ```
//! use dstage_core::heuristic::{run, Heuristic, HeuristicConfig};
//! use dstage_sched::optimize_schedule;
//! use dstage_workload::small::contended_link;
//!
//! let scenario = contended_link();
//! let config = HeuristicConfig::paper_best();
//! let base = run(&scenario, Heuristic::PartialPath, &config);
//! let best = optimize_schedule(&scenario, Heuristic::PartialPath, &config, 8);
//! let weights = &config.priority_weights;
//! assert!(best.evaluation.weighted_sum >= base.schedule.evaluate(&scenario, weights).weighted_sum);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;

use dstage_core::heuristic::{drive_state, Heuristic, HeuristicConfig};
use dstage_core::schedule::{Evaluation, Schedule};
use dstage_core::state::SchedulerState;
use dstage_model::ids::RequestId;
use dstage_model::request::PriorityWeights;
use dstage_model::scenario::Scenario;

/// The result of an optimization pass.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The best schedule found (the base plan when nothing improved).
    pub schedule: Schedule,
    /// Its evaluation under the pass's priority weighting.
    pub evaluation: Evaluation,
    /// Requests the kept swaps excluded from planning, in adoption order.
    pub evicted: Vec<RequestId>,
    /// Evict-and-rerun trials spent.
    pub attempted: u64,
    /// Trials that strictly improved `E[S]` and were kept.
    pub accepted: u64,
}

/// Runs `heuristic` on `scenario` and hill-climbs the result with up to
/// `budget` evict-and-rerun trials.
///
/// # Panics
///
/// Panics where the underlying heuristic does (the full path/all
/// destinations + `Cost₁` pairing).
#[must_use]
pub fn optimize_schedule(
    scenario: &Scenario,
    heuristic: Heuristic,
    config: &HeuristicConfig,
    budget: u64,
) -> OptimizeOutcome {
    optimize_with(scenario, &config.priority_weights, budget, |excluded| {
        // Each eviction trial re-plans from a FRESH state: no ledger
        // reservation is ever released mid-run, which is what keeps the
        // tree cache's consumption-only validation argument sound. Do not
        // "optimize" this into reusing a state across trials.
        let mut state = SchedulerState::with_caching(scenario, config.caching);
        for &r in excluded {
            state.set_request_active(r, false);
        }
        drive_state(&mut state, heuristic, config);
        state.into_outcome().0
    })
}

/// The anytime hill climb over an arbitrary re-planner.
///
/// `plan` must return the schedule the planner produces when the given
/// requests are excluded (treated as if never submitted); it is first
/// called with no exclusions to establish the base plan. Each trial
/// excludes one *victim* — a satisfied request strictly lighter than some
/// refused request — and re-plans; the exclusion is kept iff the weighted
/// satisfied sum strictly improves. Candidates are tried heaviest first,
/// victims lightest first, ids breaking ties, and the victim set is
/// re-derived after every adopted swap, so equal inputs climb equal paths
/// (determinism). The climb stops at the trial `budget` or at a local
/// optimum, whichever comes first.
///
/// The result is never worse than the base plan: only strict improvements
/// are adopted.
pub fn optimize_with(
    scenario: &Scenario,
    weights: &PriorityWeights,
    budget: u64,
    mut plan: impl FnMut(&[RequestId]) -> Schedule,
) -> OptimizeOutcome {
    let mut excluded: Vec<RequestId> = Vec::new();
    let mut best = plan(&excluded);
    let mut best_eval = best.evaluate(scenario, weights);
    let mut attempted = 0u64;
    let mut accepted = 0u64;
    'climb: loop {
        // Refused requests, heaviest first (ties: lowest id) — the ones
        // worth making room for.
        let mut refused: Vec<(u64, RequestId)> = scenario
            .requests()
            .filter(|&(id, r)| {
                !excluded.contains(&id) && best.delivery_of(id).is_none_or(|d| d.at > r.deadline())
            })
            .map(|(id, r)| (weights.weight(r.priority()), id))
            .collect();
        refused.sort_by_key(|&(w, id)| (Reverse(w), id));
        let adopted_before = accepted;
        for (want, _candidate) in refused {
            // Victims: satisfied requests strictly lighter than the
            // candidate, lightest first — evicting heavier or equal work
            // could never improve the sum.
            let mut victims: Vec<(u64, RequestId)> = scenario
                .requests()
                .filter(|&(id, r)| {
                    !excluded.contains(&id)
                        && best.delivery_of(id).is_some_and(|d| d.at <= r.deadline())
                })
                .map(|(id, r)| (weights.weight(r.priority()), id))
                .filter(|&(w, _)| w < want)
                .collect();
            victims.sort_unstable();
            for (_, victim) in victims {
                if attempted >= budget {
                    break 'climb;
                }
                attempted += 1;
                let mut trial_excluded = excluded.clone();
                trial_excluded.push(victim);
                let trial = plan(&trial_excluded);
                let trial_eval = trial.evaluate(scenario, weights);
                if trial_eval.weighted_sum > best_eval.weighted_sum {
                    excluded = trial_excluded;
                    best = trial;
                    best_eval = trial_eval;
                    accepted += 1;
                    // The satisfied set changed; re-derive everything.
                    continue 'climb;
                }
            }
        }
        if accepted == adopted_before {
            break; // a full sweep adopted nothing — local optimum
        }
    }
    OptimizeOutcome {
        schedule: best,
        evaluation: best_eval,
        evicted: excluded,
        attempted,
        accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_core::heuristic::run;
    use dstage_core::schedule::Delivery;
    use dstage_model::time::SimTime;
    use dstage_workload::small::{contended_link, fan_out, two_hop_chain};

    fn config() -> HeuristicConfig {
        HeuristicConfig::paper_best()
    }

    #[test]
    fn never_decreases_any_heuristic_on_the_small_scenarios() {
        for scenario in [two_hop_chain(), fan_out(), contended_link()] {
            for heuristic in Heuristic::EXTENDED {
                let config = config();
                let base = run(&scenario, heuristic, &config)
                    .schedule
                    .evaluate(&scenario, &config.priority_weights);
                let best = optimize_schedule(&scenario, heuristic, &config, 6);
                assert!(
                    best.evaluation.weighted_sum >= base.weighted_sum,
                    "{heuristic:?} got worse: {} < {}",
                    best.evaluation.weighted_sum,
                    base.weighted_sum
                );
            }
        }
    }

    #[test]
    fn adopts_a_strictly_improving_swap() {
        // A perverse planner that satisfies only the LOW request until the
        // climb excludes it, then satisfies the HIGH one — the climb must
        // discover the 1 → 100 trade in a single trial.
        let scenario = contended_link();
        let high = RequestId::new(0);
        let low = RequestId::new(1);
        let deliver = |id: RequestId| {
            Schedule::from_parts(
                Vec::new(),
                vec![Delivery { request: id, at: SimTime::from_secs(10), hops: 1 }],
            )
        };
        let weights = config().priority_weights;
        let outcome = optimize_with(&scenario, &weights, 8, |excluded| {
            if excluded.contains(&low) {
                deliver(high)
            } else {
                deliver(low)
            }
        });
        assert_eq!((outcome.attempted, outcome.accepted), (1, 1));
        assert_eq!(outcome.evicted, vec![low]);
        assert_eq!(outcome.evaluation.weighted_sum, 100);
        assert!(outcome.schedule.delivery_of(high).is_some());
    }

    #[test]
    fn budget_zero_returns_the_base_plan() {
        let scenario = contended_link();
        let config = config();
        let base = run(&scenario, Heuristic::PartialPath, &config);
        let outcome = optimize_schedule(&scenario, Heuristic::PartialPath, &config, 0);
        assert_eq!((outcome.attempted, outcome.accepted), (0, 0));
        assert!(outcome.evicted.is_empty());
        assert_eq!(outcome.schedule, base.schedule);
    }

    #[test]
    fn light_refusals_spend_no_budget_on_hopeless_trials() {
        // contended_link: the heuristics satisfy the HIGH request and
        // refuse the LOW one — which has no lighter victims, so the climb
        // terminates without a single trial.
        let scenario = contended_link();
        let config = config();
        let outcome = optimize_schedule(&scenario, Heuristic::FullPathOneDestination, &config, 50);
        assert_eq!(outcome.attempted, 0);
        assert_eq!(outcome.evaluation.weighted_sum, 100);
    }

    #[test]
    fn deterministic_across_runs() {
        let scenario = fan_out();
        let config = config();
        let a = optimize_schedule(&scenario, Heuristic::Alap, &config, 8);
        let b = optimize_schedule(&scenario, Heuristic::Alap, &config, 8);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!((a.attempted, a.accepted), (b.attempted, b.accepted));
        assert_eq!(a.evicted, b.evicted);
    }
}
