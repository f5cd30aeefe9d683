//! The evict-and-readmit hill climb — one climb for the daemon's
//! `optimize` verb and for `figures optimizer`. A trial unbooks a lighter
//! victim's route and settles one refused candidate on what that frees,
//! re-planning nobody else (the residual-capacity
//! admission of the online transfer schedulers in PAPERS.md, DDCCast among
//! them). It is kept iff nobody else loses a
//! delivery, so `E[S]` strictly improves; otherwise everything goes back.

use std::cmp::Reverse;

use dstage_core::bookings::Bookings;
use dstage_core::heuristic::CommitRule;
use dstage_core::schedule::{Delivery, Schedule, Transfer};
use dstage_model::ids::{DataItemId, RequestId};
use dstage_model::request::{PriorityWeights, Request};
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;

use crate::repair::replay_order;
use crate::{LiveSchedule, OnlinePolicy};

/// What the climb reads and edits of one request, as its caller keeps it.
pub trait Standing: Sized {
    /// The route it holds while promised a delivery, else `None`.
    fn route(&self) -> Option<&[Transfer]>;
    /// Promised `delivery` over `route`.
    fn promised(delivery: Delivery, route: Vec<Transfer>) -> Self;
    /// A kept swap's victim: promised nothing, holding nothing.
    fn evicted() -> Self;
    /// Where its delivery lands after its item was re-derived.
    fn set_delivery(&mut self, delivery: Option<Delivery>);
}

/// An offline plan's standing: the route a satisfied request holds.
impl Standing for Option<Vec<Transfer>> {
    fn route(&self) -> Option<&[Transfer]> {
        self.as_deref()
    }

    fn promised(_: Delivery, route: Vec<Transfer>) -> Self {
        Some(route)
    }

    fn evicted() -> Self {
        None
    }

    fn set_delivery(&mut self, _: Option<Delivery>) {}
}

/// One kept swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Swap {
    /// The readmitted candidate's key.
    pub key: u64,
    /// The request that gave up its route.
    pub evicted: RequestId,
    /// The request the candidate became.
    pub admitted: RequestId,
}

/// What one [`LiveSchedule::climb`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Climbed {
    /// Trials spent.
    pub attempted: u64,
    /// The swaps kept, in order.
    pub swaps: Vec<Swap>,
    /// Trials that unbooked a victim and put it back.
    pub rolled_back: u64,
    /// Transfers the trials unbooked.
    pub released: u64,
    /// Item tables the trials re-derived.
    pub rederived: u64,
}

impl<'a> LiveSchedule<'a> {
    /// Anytime evict-and-readmit hill climb. `standings` has one entry per
    /// request, by id. `candidates` are refused requests under the caller's
    /// keys (the daemon's log index, an offline plan's request id), tried
    /// heaviest first (then by key), each against the promised requests
    /// strictly lighter than it, lightest first (then by id). `admit` makes
    /// a candidate a request of the bookings (adding it, or naming one already
    /// there) or refuses it. A kept swap evicts the victim, promises the
    /// candidate (pushed when it is new), spends the candidate and restarts
    /// the sweep. The climb stops after `budget` trials or at a local
    /// optimum.
    pub fn climb<S: Standing>(
        &mut self,
        rule: CommitRule,
        weights: &PriorityWeights,
        standings: &mut Vec<S>,
        mut candidates: Vec<(u64, Request)>,
        budget: u64,
        mut admit: impl FnMut(&mut Bookings<'a>, u64, Request) -> Option<RequestId>,
    ) -> Climbed {
        candidates
            .sort_by_key(|&(key, request)| (Reverse(weights.weight(request.priority())), key));
        let mut climbed = Climbed::default();
        'climb: loop {
            let scenario = self.bookings().scenario();
            let mut victims: Vec<(u64, RequestId)> = (standings.iter().enumerate())
                .filter(|(_, standing)| standing.route().is_some())
                .map(|(id, _)| RequestId::new(id as u32))
                .map(|id| (weights.weight(scenario.request(id).priority()), id))
                .collect();
            victims.sort_unstable();
            for at in 0..candidates.len() {
                let candidate = candidates[at];
                let weight = weights.weight(candidate.1.priority());
                // Evicting heavier work could only lose weight.
                for &(_, victim) in victims.iter().take_while(|&&(w, _)| w < weight) {
                    if climbed.attempted >= budget {
                        break 'climb;
                    }
                    climbed.attempted += 1;
                    let trial =
                        self.try_swap(rule, standings, candidate, victim, &mut climbed, &mut admit);
                    let Some(admitted) = trial else { continue };
                    debug_assert_eq!(self.divergence(), None);
                    climbed.swaps.push(Swap { key: candidate.0, evicted: victim, admitted });
                    candidates.remove(at);
                    continue 'climb;
                }
            }
            break; // a full sweep kept nothing — local optimum
        }
        climbed
    }

    /// Whether `victim`'s route can go: re-derives `item`'s tables without
    /// it and checks that no other transfer is skipped and no other
    /// promised request of the item loses its delivery. If one does, the
    /// tables are re-derived back from the committed transfers. Nothing is
    /// unbooked.
    fn without_route<S: Standing>(
        &mut self,
        standings: &[S],
        victim: RequestId,
        item: DataItemId,
    ) -> bool {
        let route = standings[victim.index()].route().expect("victims are promised");
        let skipped = self.rederive_sorted(item, route);
        let bookings = self.bookings();
        let kept = skipped.is_empty()
            && (bookings.scenario().requests_for(item).iter()).all(|&id| {
                id == victim || standings[id.index()].route().is_none() || bookings.is_delivered(id)
            });
        if !kept {
            self.rederive(item);
        }
        kept
    }

    /// Re-derives `item`'s tables from its committed transfers but
    /// `except`, in replay order; returns the ones skipped.
    fn rederive_sorted(&mut self, item: DataItemId, except: &[Transfer]) -> Vec<Transfer> {
        let mut theirs: Vec<Transfer> = (self.committed().iter())
            .filter(|t| t.item == item && !except.contains(t))
            .copied()
            .collect();
        theirs.sort_by_key(replay_order);
        self.bookings_mut().rederive_item(item, &theirs)
    }

    /// One trial: unbooks the victim's route, decides the candidate on
    /// what that frees, and keeps the swap (returning the readmitted
    /// request) or puts everything back.
    fn try_swap<S: Standing>(
        &mut self,
        rule: CommitRule,
        standings: &mut Vec<S>,
        (key, request): (u64, Request),
        victim: RequestId,
        climbed: &mut Climbed,
        admit: &mut impl FnMut(&mut Bookings<'a>, u64, Request) -> Option<RequestId>,
    ) -> Option<RequestId> {
        let evicting = self.bookings().scenario().request(victim).item();
        let admitting = request.item();
        // The candidate decides on the two items' tables in replay order:
        // the victim's without its route (and back if that fails), then the
        // candidate's.
        climbed.rederived += 2;
        if !self.without_route(standings, victim, evicting) {
            return None;
        }
        if admitting != evicting {
            self.rederive_sorted(admitting, &[]);
        }
        let was = std::mem::replace(&mut standings[victim.index()], S::evicted());
        let route = was.route().expect("victims are promised").to_vec();
        climbed.released += route.len() as u64;
        let bookings = self.bookings_mut();
        for t in &route {
            bookings.unbook(t);
        }
        let savepoint = bookings.savepoint(admitting);
        let settled = match admit(bookings, key, request) {
            Some(id) => self.settle(id, savepoint, rule),
            None => {
                bookings.rollback(savepoint);
                None
            }
        };
        let Some((delivery, admitted)) = settled else {
            climbed.rolled_back += 1;
            climbed.rederived += 2;
            for t in &route {
                self.bookings_mut().rebook(t);
            }
            standings[victim.index()] = was;
            self.rederive(evicting);
            self.rederive(admitting);
            return None;
        };
        // Kept: what preceded the admission is normalised as a repair does
        // before it re-routes, the admission booked on top of it.
        self.forget(&route);
        let promised: Vec<bool> = standings.iter().map(|s| s.route().is_some()).collect();
        let normalised = self.normalise(&promised, &admitted);
        climbed.rederived += normalised.rederived as u64;
        for (id, found) in normalised.deliveries {
            debug_assert!(found.is_some(), "a kept swap cost {id} its delivery");
            standings[id.index()].set_delivery(found);
        }
        let id = delivery.request;
        let kept = S::promised(delivery, admitted);
        match standings.get_mut(id.index()) {
            Some(standing) => *standing = kept,
            None => standings.push(kept),
        }
        Some(id)
    }

    /// The committed transfers, in the order committed, with the deliveries
    /// the bookings read off them once normalised.
    pub fn schedule(&mut self) -> Schedule {
        let (transfers, requests) =
            (self.committed().to_vec(), self.bookings().scenario().request_count());
        self.normalise(&vec![false; requests], &[]);
        let bookings = self.bookings();
        let deliveries =
            bookings.scenario().request_ids().filter_map(|id| bookings.delivery_of(id));
        Schedule::from_parts(transfers, deliveries.collect())
    }
}

/// Runs the climb on `plan`, a static schedule of `scenario`, replayed
/// into a live schedule: the requests it
/// leaves unsatisfied are the candidates, and each transfer is held by
/// the lowest-id satisfied request whose delivery chain uses it.
///
/// # Panics
///
/// Panics if `plan` does not book on a fresh ledger of `scenario`.
#[must_use]
pub fn climb_plan<'s>(
    scenario: &'s Scenario,
    plan: &Schedule,
    policy: &OnlinePolicy,
    budget: u64,
) -> (LiveSchedule<'s>, Climbed) {
    let bookings = Bookings::new(scenario);
    let mut live =
        LiveSchedule::replayed(bookings, plan.transfers(), Vec::new(), Vec::new(), SimTime::ZERO)
            .expect("a plan books on a fresh ledger");
    let mut routes = plan_routes(scenario, plan);
    let candidates = (scenario.requests().zip(&routes))
        .filter(|(_, route)| route.is_none())
        .map(|((id, request), _)| (id.index() as u64, *request))
        .collect();
    let refused = |_: &mut Bookings<'s>, key, _| Some(RequestId::new(key as u32));
    let (rule, weights) = (policy.heuristic.commit_rule(), &policy.config.priority_weights);
    let climbed = live.climb(rule, weights, &mut routes, candidates, budget, refused);
    (live, climbed)
}

/// The route each request holds in `plan`: the transfers of its delivery
/// chain that no lower-id request's chain uses, or `None` when the plan
/// does not deliver it by its deadline. A chain runs back from the
/// delivering arrival, to an initial source in time where there is one,
/// else to the earliest arrival there in time (ties in [`replay_order`]).
fn plan_routes(scenario: &Scenario, plan: &Schedule) -> Vec<Option<Vec<Transfer>>> {
    let mut transfers = plan.transfers().to_vec();
    transfers.sort_by_key(replay_order);
    let mut held = vec![false; transfers.len()];
    let mut routes = Vec::with_capacity(scenario.request_count());
    for (id, request) in scenario.requests() {
        let Some(delivery) = plan.delivery_of(id).filter(|d| d.at <= request.deadline()) else {
            routes.push(None);
            continue;
        };
        let (item, mut at, mut by) = (request.item(), request.destination(), delivery.at);
        let sources = scenario.item(item).sources();
        let mut route = Vec::new();
        while !sources.iter().any(|s| s.machine == at && s.available_at <= by) {
            let into = |i: &usize| {
                let t = &transfers[*i];
                t.item == item && t.to == at && t.arrival <= by
            };
            // A transfer held already is on a lower-id chain, which runs
            // on from there the same way.
            let first =
                (0..transfers.len()).filter(into).min_by_key(|&i| (transfers[i].arrival, i));
            let Some(i) = first.filter(|&i| !held[i]) else { break };
            held[i] = true;
            route.push(transfers[i]);
            (at, by) = (transfers[i].from, transfers[i].start);
        }
        routes.push(Some(route));
    }
    routes
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstage_core::heuristic::{drive_state, run, Heuristic, HeuristicConfig};
    use dstage_core::planner::Planner;
    use dstage_model::ids::MachineId;
    use dstage_workload::small::{contended_link, fan_out, two_hop_chain};

    fn policy(heuristic: Heuristic) -> OnlinePolicy {
        OnlinePolicy { heuristic, config: HeuristicConfig::paper_best() }
    }

    fn weighted_sum(scenario: &Scenario, schedule: &Schedule) -> u64 {
        schedule.evaluate(scenario, &HeuristicConfig::paper_best().priority_weights).weighted_sum
    }

    #[test]
    fn never_decreases_any_heuristic_on_the_small_scenarios() {
        for scenario in [two_hop_chain(), fan_out(), contended_link()] {
            for heuristic in Heuristic::EXTENDED {
                let policy = policy(heuristic);
                let plan = run(&scenario, heuristic, &policy.config).schedule;
                let (mut live, _) = climb_plan(&scenario, &plan, &policy, 6);
                let best = live.schedule();
                assert!(weighted_sum(&scenario, &best) >= weighted_sum(&scenario, &plan));
                assert!(best.validate(&scenario).is_ok(), "{heuristic:?}");
                assert_eq!(live.divergence(), None, "{heuristic:?}");
            }
        }
    }

    #[test]
    fn adopts_a_strictly_improving_swap() {
        // A plan that delivers only the LOW request: planned with the HIGH
        // one switched off. Its route frees the one link, and the climb
        // must trade 1 for 100 in a single trial.
        let scenario = contended_link();
        let (high, low) = (RequestId::new(0), RequestId::new(1));
        let policy = policy(Heuristic::FullPathOneDestination);
        let mut bookings = Bookings::new(&scenario);
        bookings.set_request_active(high, false);
        let mut planner = Planner::new(&bookings);
        drive_state(&mut planner, &mut bookings, policy.heuristic, &policy.config);
        let plan = bookings.into_schedule();
        assert_eq!(weighted_sum(&scenario, &plan), 1);
        let (mut live, climbed) = climb_plan(&scenario, &plan, &policy, 8);
        assert_eq!(climbed.attempted, 1);
        assert_eq!(climbed.swaps, vec![Swap { key: 0, evicted: low, admitted: high }]);
        let best = live.schedule();
        assert_eq!(weighted_sum(&scenario, &best), 100);
        assert!(best.delivery_of(high).is_some() && best.delivery_of(low).is_none());
        assert_eq!(live.divergence(), None);
    }

    #[test]
    fn budget_zero_returns_the_base_plan() {
        let scenario = contended_link();
        let policy = policy(Heuristic::PartialPath);
        let plan = run(&scenario, policy.heuristic, &policy.config).schedule;
        let (mut live, climbed) = climb_plan(&scenario, &plan, &policy, 0);
        assert_eq!(climbed, Climbed::default());
        assert_eq!(live.committed(), plan.transfers());
        assert_eq!(
            live.schedule().evaluate(&scenario, &policy.config.priority_weights),
            plan.evaluate(&scenario, &policy.config.priority_weights)
        );
    }

    #[test]
    fn light_refusals_spend_no_budget_on_hopeless_trials() {
        // The heuristics deliver the HIGH request and refuse the LOW one,
        // which has no lighter victim: no trial at all.
        let scenario = contended_link();
        let policy = policy(Heuristic::FullPathOneDestination);
        let plan = run(&scenario, policy.heuristic, &policy.config).schedule;
        let (mut live, climbed) = climb_plan(&scenario, &plan, &policy, 50);
        assert_eq!(climbed.attempted, 0);
        assert_eq!(weighted_sum(&scenario, &live.schedule()), 100);
    }

    #[test]
    fn deterministic_across_runs() {
        let scenario = fan_out();
        let policy = policy(Heuristic::Alap);
        let plan = run(&scenario, policy.heuristic, &policy.config).schedule;
        let (mut a, climbed_a) = climb_plan(&scenario, &plan, &policy, 8);
        let (mut b, climbed_b) = climb_plan(&scenario, &plan, &policy, 8);
        assert_eq!(a.schedule(), b.schedule());
        assert_eq!(climbed_a, climbed_b);
    }

    #[test]
    fn a_shared_hop_is_held_by_the_lowest_id_request() {
        // fan_out under full path/all destinations: one `src → hub` copy of
        // item 0 feeds every leaf.
        let scenario = fan_out();
        let policy = policy(Heuristic::FullPathAllDestinations);
        let plan = run(&scenario, policy.heuristic, &policy.config).schedule;
        let routes = plan_routes(&scenario, &plan);
        let held: Vec<&Transfer> = routes.iter().flatten().flatten().collect();
        assert_eq!(held.len(), plan.transfers().len(), "each transfer is held once");
        assert!(plan.transfers().iter().all(|t| held.contains(&t)));
        let first = scenario.requests_for(DataItemId::new(0))[0];
        let hub = routes[first.index()].as_ref().expect("delivered");
        assert!(hub.iter().any(|t| t.from == MachineId::new(0)), "{hub:?}");
    }
}
