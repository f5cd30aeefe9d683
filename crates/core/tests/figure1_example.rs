//! The paper's worked example (§4.8, built on the Figure 1 system):
//! transferring `Rq[0]` from `M[0]` to the next machine `M[3]`, with
//! destinations `M[7]`, `M[8]`, `M[9]`:
//!
//! * deadlines: 10 for `M[7]`, 15 for `M[8]`, 5 for `M[9]` (abstract time
//!   units — seconds here);
//! * shortest-path arrival estimates: 12, 11, 8;
//! * hence `Sat[0,3](0) = 0`, `Sat[0,3](1) = 1`, `Sat[0,3](2) = 0`.
//!
//! We rebuild a network realizing exactly those arrivals and check the
//! candidate-step machinery and every cost criterion against hand
//! calculations.

use dstage_core::bookings::Bookings;
use dstage_core::cost::{cost_c1, step_cost, CostCriterion, DestinationCost, EuWeights};
use dstage_core::planner::Planner;
use dstage_model::prelude::*;

fn m(i: u32) -> MachineId {
    MachineId::new(i)
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Bandwidth such that the 1800-byte item (14400 bits) takes exactly
/// `secs` seconds — 14400 divides evenly by every duration used here, so
/// arrivals land on whole seconds.
fn bw_for(secs: u64) -> BitsPerSec {
    BitsPerSec::new(14_400 / secs)
}

/// M0 holds Rq[0]; all three destination paths go through M3 (the paper's
/// "next machine"), with per-branch speeds tuned to arrive at 12 / 11 / 8.
fn figure1_scenario() -> Scenario {
    let mut b = NetworkBuilder::new();
    for i in 0..10 {
        b.add_machine(Machine::new(format!("M{i}"), Bytes::from_mib(1)));
    }
    let win = SimTime::from_hours(2);
    // M0 -> M3 takes 2 s.
    b.add_link(VirtualLink::new(m(0), m(3), SimTime::ZERO, win, bw_for(2)));
    // Branches from M3: arrivals 2 + 10 = 12, 2 + 9 = 11, 2 + 6 = 8.
    b.add_link(VirtualLink::new(m(3), m(7), SimTime::ZERO, win, bw_for(10)));
    b.add_link(VirtualLink::new(m(3), m(8), SimTime::ZERO, win, bw_for(9)));
    b.add_link(VirtualLink::new(m(3), m(9), SimTime::ZERO, win, bw_for(6)));
    Scenario::builder(b.build())
        .add_item(DataItem::new(
            "Rq0",
            Bytes::new(1_800),
            vec![DataSource::new(m(0), SimTime::ZERO)],
        ))
        .add_request(Request::new(DataItemId::new(0), m(7), t(10), Priority::HIGH))
        .add_request(Request::new(DataItemId::new(0), m(8), t(15), Priority::HIGH))
        .add_request(Request::new(DataItemId::new(0), m(9), t(5), Priority::HIGH))
        .build()
        .unwrap()
}

#[test]
fn arrivals_match_the_papers_numbers() {
    let scenario = figure1_scenario();
    let bookings = Bookings::new(&scenario);
    let mut planner = Planner::new(&bookings);
    let tree = planner.tree(&bookings, DataItemId::new(0), &[m(3), m(7), m(8), m(9)]);
    assert_eq!(tree.arrival(m(3)), t(2));
    assert_eq!(tree.arrival(m(7)), t(12));
    assert_eq!(tree.arrival(m(8)), t(11));
    assert_eq!(tree.arrival(m(9)), t(8));
}

#[test]
fn drq_groups_all_three_destinations_behind_m3() {
    let scenario = figure1_scenario();
    let bookings = Bookings::new(&scenario);
    let mut planner = Planner::new(&bookings);
    let steps = planner.candidate_steps(&bookings, DataItemId::new(0));
    assert_eq!(steps.len(), 1, "all paths share the first hop M0 -> M3");
    let step = &steps[0];
    assert_eq!(step.hop.from, m(0));
    assert_eq!(step.hop.to, m(3));
    assert_eq!(step.destinations.len(), 3, "Drq[0,3] = {{M7, M8, M9}}");
    // Sat values exactly as in the paper.
    let sat: Vec<bool> = step.destinations.iter().map(|d| d.satisfiable).collect();
    assert_eq!(sat, vec![false, true, false]);
}

#[test]
fn cost_criteria_match_hand_calculations() {
    // Ingredients: only M8 is satisfiable; Efp = W[high] = 100,
    // Urgency = -(15 - 11) = -4 s.
    let scenario = figure1_scenario();
    let bookings = Bookings::new(&scenario);
    let step = Planner::new(&bookings).candidate_steps(&bookings, DataItemId::new(0))[0].clone();
    let w = PriorityWeights::paper_1_10_100();
    let dcs: Vec<DestinationCost> = step
        .destinations
        .iter()
        .map(|d| {
            let req = scenario.request(d.request);
            DestinationCost::new(d.arrival, req.deadline(), w.weight(req.priority()))
        })
        .collect();
    let eu = EuWeights::new(2.0, 3.0);
    // C1 for the satisfiable destination: -2*100 - 3*(-4) = -188.
    assert_eq!(cost_c1(eu, dcs[1]), -188.0);
    // Unsatisfiable destinations cost 0 under C1.
    assert_eq!(cost_c1(eu, dcs[0]), 0.0);
    assert_eq!(cost_c1(eu, dcs[2]), 0.0);
    // C2: efp sum 100, max urgency -4 => -2*100 - 3*(-4) = -188.
    assert_eq!(step_cost(CostCriterion::C2, eu, &dcs), -188.0);
    // C4: same sums with a single satisfiable destination => -188.
    assert_eq!(step_cost(CostCriterion::C4, eu, &dcs), -188.0);
    // C3: 100 / -4 = -25 (weights ignored).
    assert_eq!(step_cost(CostCriterion::C3, eu, &dcs), -25.0);
    // C3Floor: urgency floored at -60 => 100 / -60.
    let c3f = step_cost(CostCriterion::C3Floor, eu, &dcs);
    assert!((c3f - (100.0 / -60.0)).abs() < 1e-12);
}

#[test]
fn scheduling_delivers_exactly_the_satisfiable_request() {
    use dstage_core::heuristic::{run, Heuristic, HeuristicConfig};
    let scenario = figure1_scenario();
    for h in Heuristic::ALL {
        let out = run(&scenario, h, &HeuristicConfig::paper_best());
        out.schedule.validate(&scenario).unwrap();
        assert!(out.schedule.delivery_of(RequestId::new(1)).is_some(), "{h}: M8 satisfiable");
        assert!(out.schedule.delivery_of(RequestId::new(0)).is_none(), "{h}: M7 misses by 2 s");
        assert!(out.schedule.delivery_of(RequestId::new(2)).is_none(), "{h}: M9 misses by 3 s");
        // The delivery uses the two-hop staged path via M3.
        assert_eq!(out.schedule.delivery_of(RequestId::new(1)).unwrap().at, t(11));
    }
}
