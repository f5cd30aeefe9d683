//! Property-based tests for the online simulator: random disturbance
//! mixes over small scenarios must preserve the core invariants, and the
//! one live schedule `simulate` edits must decide exactly what a fresh
//! replay at every boundary decides.

use dstage_core::heuristic::{drive_state, run, Heuristic, HeuristicConfig};
use dstage_core::schedule::{Schedule, Transfer};
use dstage_core::state::SchedulerState;
use dstage_dynamic::{
    filter_consistent, final_deliveries, replay_state, simulate, Event, EventKind, EventLog,
    OnlineOutcome, OnlinePolicy,
};
use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use dstage_workload::small::{contended_link, fan_out, two_hop_chain};
use dstage_workload::Family;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum WhichScenario {
    Chain,
    Contended,
    FanOut,
}

fn scenario_for(which: WhichScenario) -> dstage_model::scenario::Scenario {
    match which {
        WhichScenario::Chain => two_hop_chain(),
        WhichScenario::Contended => contended_link(),
        WhichScenario::FanOut => fan_out(),
    }
}

fn which_strategy() -> impl Strategy<Value = WhichScenario> {
    prop_oneof![
        Just(WhichScenario::Chain),
        Just(WhichScenario::Contended),
        Just(WhichScenario::FanOut),
    ]
}

/// Random events with ids clamped into the scenario's ranges.
fn events_for(
    scenario: &dstage_model::scenario::Scenario,
    raw: &[(u64, u8, usize, usize)],
) -> EventLog {
    let mut released = vec![false; scenario.request_count()];
    let mut events = Vec::new();
    for &(at_s, kind, a, b) in raw {
        let at = SimTime::from_secs(at_s % 3_600);
        match kind % 3 {
            0 if scenario.request_count() > 0 => {
                let r = RequestId::new((a % scenario.request_count()) as u32);
                if !released[r.index()] {
                    released[r.index()] = true;
                    events.push(Event::new(at, EventKind::Release(r)));
                }
            }
            1 if scenario.network().link_count() > 0 => {
                let l = VirtualLinkId::new((a % scenario.network().link_count()) as u32);
                events.push(Event::new(at, EventKind::LinkOutage(l)));
            }
            2 if scenario.item_count() > 0 => {
                let item = DataItemId::new((a % scenario.item_count()) as u32);
                let machine = MachineId::new((b % scenario.network().machine_count()) as u32);
                events.push(Event::new(at, EventKind::CopyLoss { item, machine }));
            }
            _ => {}
        }
    }
    EventLog::new(scenario, events).expect("ids clamped into range")
}

/// The online loop as a fresh state per boundary: the executed transfers
/// so far filtered against the disturbances, replayed into a new state as
/// of the boundary, and the heuristic driven on it — the definition the
/// live schedule `simulate` edits in place must agree with.
fn replanned_from_scratch(
    scenario: &Scenario,
    events: &EventLog,
    policy: &OnlinePolicy,
) -> OnlineOutcome {
    let mut releases = vec![SimTime::ZERO; scenario.request_count()];
    for e in events.events() {
        if let EventKind::Release(r) = e.kind {
            releases[r.index()] = e.at;
        }
    }
    let mut boundaries = vec![SimTime::ZERO];
    boundaries.extend(events.boundaries());
    boundaries.dedup();
    let (mut outages, mut losses, mut kept, mut cancelled) = (vec![], vec![], vec![], vec![]);
    for (i, &now) in boundaries.iter().enumerate() {
        for e in events.events().iter().filter(|e| e.at == now) {
            match e.kind {
                EventKind::LinkOutage(l) => outages.push((l, now)),
                EventKind::CopyLoss { item, machine } => losses.push((item, machine, now)),
                EventKind::Release(_) => {}
            }
        }
        let (valid, invalidated) = filter_consistent(scenario, kept, &outages, &losses);
        kept = valid;
        cancelled.extend(invalidated);
        let mut state = SchedulerState::with_caching(scenario, policy.config.caching);
        for (r, &release) in releases.iter().enumerate() {
            if release > now {
                state.set_request_active(RequestId::new(r as u32), false);
            }
        }
        replay_state(&mut state, &kept, &outages, &losses, now).expect("executed transfers book");
        drive_state(&mut state, policy.heuristic, &policy.config);
        let next = boundaries.get(i + 1).copied();
        for t in state.into_outcome().0.transfers() {
            if !kept.contains(t) && next.is_none_or(|boundary| t.start < boundary) {
                kept.push(*t);
            }
        }
    }
    let deliveries = final_deliveries(scenario, &kept, &losses);
    OnlineOutcome {
        executed: Schedule::from_parts(kept, deliveries),
        cancelled,
        replans: boundaries.len() as u64,
    }
}

/// Random disturbances aimed at a static run of `policy` on `scenario`,
/// so that they cost something: an outage while one of its transfers is
/// in flight, the loss of a copy one of them staged, or a request released
/// partway to its deadline.
fn disturbances_for(
    scenario: &Scenario,
    policy: &OnlinePolicy,
    raw: &[(u8, usize, u64)],
) -> EventLog {
    let plan = run(scenario, policy.heuristic, &policy.config).schedule;
    let mut released = vec![false; scenario.request_count()];
    let mut events = Vec::new();
    for &(kind, pick, permille) in raw {
        let between = |from: SimTime, to: SimTime| {
            let span = to.as_millis().saturating_sub(from.as_millis());
            SimTime::from_millis(from.as_millis() + span * permille / 1_000)
        };
        let request = RequestId::new((pick % scenario.request_count()) as u32);
        match (kind % 3, plan.transfers().get(pick % plan.transfers().len().max(1))) {
            (1, Some(t)) => {
                events.push(Event::new(between(t.start, t.arrival), EventKind::LinkOutage(t.link)));
            }
            (2, Some(t)) => {
                let lost = EventKind::CopyLoss { item: t.item, machine: t.to };
                let deadline = scenario.request(request).deadline();
                events.push(Event::new(between(t.arrival, deadline.max(t.arrival)), lost));
            }
            _ if !released[request.index()] => {
                released[request.index()] = true;
                let deadline = scenario.request(request).deadline();
                events.push(Event::new(
                    between(SimTime::ZERO, deadline),
                    EventKind::Release(request),
                ));
            }
            _ => {}
        }
    }
    EventLog::new(scenario, events).expect("ids drawn from the scenario")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_live_schedule_decides_what_a_fresh_replay_per_boundary_decides(
        family in prop_oneof![Just(Family::Paper), Just(Family::Grid), Just(Family::Line)],
        heuristic in prop_oneof![
            Just(Heuristic::EXTENDED[0]),
            Just(Heuristic::EXTENDED[1]),
            Just(Heuristic::EXTENDED[2]),
            Just(Heuristic::EXTENDED[3]),
            Just(Heuristic::EXTENDED[4]),
        ],
        seed in 0u64..1_000,
        raw in prop::collection::vec((0u8..3, 0usize..1_024, 0u64..1_000), 0..10),
    ) {
        let scenario = family.generate_small(seed);
        prop_assume!(scenario.request_count() > 0);
        let policy = OnlinePolicy { heuristic, config: HeuristicConfig::paper_best() };
        let log = disturbances_for(&scenario, &policy, &raw);
        // Debug builds also hold the live state to a full replay at every
        // boundary, before the drive.
        let live = simulate(&scenario, &log, &policy);
        let fresh = replanned_from_scratch(&scenario, &log, &policy);
        prop_assert_eq!(live.executed, fresh.executed);
        prop_assert_eq!(live.cancelled, fresh.cancelled);
        prop_assert_eq!(live.replans, fresh.replans);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn executed_schedules_always_replay(
        which in which_strategy(),
        raw in prop::collection::vec((0u64..3_600, 0u8..3, 0usize..64, 0usize..64), 0..10),
    ) {
        let scenario = scenario_for(which);
        let log = events_for(&scenario, &raw);
        let outcome = simulate(&scenario, &log, &OnlinePolicy::paper_best());
        // Every executed transfer respects the model on the original
        // network (outages only removed capacity).
        outcome.executed.validate(&scenario).expect("executed schedule must replay");
    }

    #[test]
    fn cancelled_and_executed_partition_commits(
        which in which_strategy(),
        raw in prop::collection::vec((0u64..3_600, 0u8..3, 0usize..64, 0usize..64), 0..10),
    ) {
        let scenario = scenario_for(which);
        let log = events_for(&scenario, &raw);
        let outcome = simulate(&scenario, &log, &OnlinePolicy::paper_best());
        let executed: Vec<&Transfer> = outcome.executed.transfers().iter().collect();
        for c in &outcome.cancelled {
            prop_assert!(!executed.contains(&c), "transfer in both sets: {c:?}");
        }
        // No duplicate executed transfers.
        for (i, a) in executed.iter().enumerate() {
            for b in &executed[i + 1..] {
                prop_assert_ne!(*a, *b, "duplicate executed transfer");
            }
        }
    }

    #[test]
    fn replans_equal_boundaries(
        which in which_strategy(),
        raw in prop::collection::vec((0u64..3_600, 0u8..3, 0usize..64, 0usize..64), 0..10),
    ) {
        let scenario = scenario_for(which);
        let log = events_for(&scenario, &raw);
        let outcome = simulate(&scenario, &log, &OnlinePolicy::paper_best());
        let mut expected = 1 + log.boundaries().len() as u64;
        if log.boundaries().first() == Some(&SimTime::ZERO) {
            expected -= 1; // time-0 events merge into the initial plan
        }
        prop_assert_eq!(outcome.replans, expected);
    }

    #[test]
    fn deliveries_meet_deadlines_and_are_unique(
        which in which_strategy(),
        raw in prop::collection::vec((0u64..3_600, 0u8..3, 0usize..64, 0usize..64), 0..10),
    ) {
        let scenario = scenario_for(which);
        let log = events_for(&scenario, &raw);
        let outcome = simulate(&scenario, &log, &OnlinePolicy::paper_best());
        let mut seen = std::collections::HashSet::new();
        for d in outcome.executed.deliveries() {
            let req = scenario.request(d.request);
            prop_assert!(d.at <= req.deadline());
            prop_assert!(seen.insert(d.request), "request delivered twice");
        }
    }
}
