//! Property-based tests for the online simulator: random disturbance
//! mixes over small scenarios must preserve the core invariants, and the
//! one live schedule `simulate` edits must decide exactly what a fresh
//! replay at every boundary decides — with the cancellations and the
//! deliveries of that replay worked out here, over plain vectors, by a
//! fold that shares no code with the scheduling state. A request routed
//! alone, as the admission daemon routes every one, is placed by its
//! commit rule exactly where each heuristic's drive under each cost
//! criterion and E-U ratio would place it.

use std::cmp::Reverse;

use dstage_core::bookings::{Bookings, Savepoint};
use dstage_core::cost::{CostCriterion, EuWeights};
use dstage_core::heuristic::{drive_state, run, CommitRule, Heuristic, HeuristicConfig};
use dstage_core::planner::Planner;
use dstage_core::schedule::{Delivery, Schedule, Transfer};
use dstage_dynamic::{
    replay_state, simulate, Event, EventKind, EventLog, LiveSchedule, OnlineOutcome, OnlinePolicy,
};
use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::request::{PriorityWeights, Request};
use dstage_model::scenario::Scenario;
use dstage_model::time::{SimDuration, SimTime};
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

/// A copy lost at `(item, machine)` at an instant.
type Loss = (DataItemId, MachineId, SimTime);

/// One copy of an item: where it is, since when, and how many links it
/// crossed from an initial source.
#[derive(Debug, Clone, Copy)]
struct Held {
    item: DataItemId,
    machine: MachineId,
    arrival: SimTime,
    hops: u32,
}

/// Whether a loss took `held` between its arrival and `until`.
fn lost(held: &Held, losses: &[Loss], until: SimTime) -> bool {
    (losses.iter()).any(|&(item, machine, at)| {
        (item, machine) == (held.item, held.machine) && held.arrival <= at && at <= until
    })
}

/// The copy rule, naively. `transfers` are taken by start, then arrival,
/// then link; one stands when its link is not down before its arrival and
/// its sending machine holds a copy that arrived by its start and survives
/// to it, and its copy is one link deeper than the shallowest such copy.
/// Returns the standing transfers in that order, the cancelled ones, and
/// every copy: the initial sources, then the standing arrivals in order.
fn cascade(
    scenario: &Scenario,
    mut transfers: Vec<Transfer>,
    outages: &[(VirtualLinkId, SimTime)],
    losses: &[Loss],
) -> (Vec<Transfer>, Vec<Transfer>, Vec<Held>) {
    transfers.sort_by_key(|t| (t.start, t.arrival, t.link));
    let mut held: Vec<Held> = (scenario.item_ids())
        .flat_map(|item| {
            let sources = scenario.item(item).sources().iter();
            sources.map(move |src| Held {
                item,
                machine: src.machine,
                arrival: src.available_at,
                hops: 0,
            })
        })
        .collect();
    let (mut standing, mut cancelled) = (Vec::new(), Vec::new());
    for t in transfers {
        let down = outages.iter().any(|&(link, at)| link == t.link && at < t.arrival);
        let from = (held.iter())
            .filter(|h| (h.item, h.machine) == (t.item, t.from) && h.arrival <= t.start)
            .filter(|h| !lost(h, losses, t.start))
            .map(|h| h.hops)
            .min();
        match from {
            Some(hops) if !down => {
                held.push(Held { item: t.item, machine: t.to, arrival: t.arrival, hops: hops + 1 });
                standing.push(t);
            }
            _ => cancelled.push(t),
        }
    }
    (standing, cancelled, held)
}

/// Each request's delivery: the first of `held` at its destination by its
/// deadline that survives to the deadline.
fn deliveries(scenario: &Scenario, held: &[Held], losses: &[Loss]) -> Vec<Delivery> {
    (scenario.requests())
        .filter_map(|(id, request)| {
            let (item, at, deadline) = (request.item(), request.destination(), request.deadline());
            (held.iter())
                .filter(|h| (h.item, h.machine) == (item, at) && h.arrival <= deadline)
                .find(|h| !lost(h, losses, deadline))
                .map(|h| Delivery { request: id, at: h.arrival, hops: h.hops })
        })
        .collect()
}

/// The online loop as a fresh state per boundary: the executed transfers
/// so far cut down by [`cascade`], replayed into a new state as of the
/// boundary, and the heuristic driven on it — the definition the live
/// schedule `simulate` edits in place must agree with.
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
        let (standing, invalidated, _) = cascade(scenario, kept, &outages, &losses);
        kept = standing;
        cancelled.extend(invalidated);
        let mut state = Bookings::new(scenario);
        for (r, &release) in releases.iter().enumerate() {
            if release > now {
                state.set_request_active(RequestId::new(r as u32), false);
            }
        }
        replay_state(&mut state, &kept, &outages, &losses, now).expect("executed transfers book");
        let mut planner = Planner::with_caching(&state, policy.config.caching);
        drive_state(&mut planner, &mut state, policy.heuristic, &policy.config);
        let next = boundaries.get(i + 1).copied();
        for t in state.into_schedule().transfers() {
            if !kept.contains(t) && next.is_none_or(|boundary| t.start < boundary) {
                kept.push(*t);
            }
        }
    }
    let (_, invalid, held) = cascade(scenario, kept.clone(), &outages, &losses);
    assert_eq!(invalid, [], "a re-plan books only what stands");
    let deliveries = deliveries(scenario, &held, &losses);
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

/// What a decision under `rule` is held to: every heuristic whose commit
/// rule it is, under every cost criterion it can use (C1–C4 and C3f) at E-U
/// ratios 10⁻³, 10⁰, 10² and 10⁵.
fn drives_of(rule: CommitRule) -> Vec<(Heuristic, HeuristicConfig)> {
    let mut drives = Vec::new();
    for heuristic in Heuristic::EXTENDED.into_iter().filter(|h| h.commit_rule() == rule) {
        for criterion in CostCriterion::ALL.into_iter().chain(CostCriterion::EXTENSIONS) {
            if heuristic.check_criterion(criterion).is_err() {
                continue;
            }
            for x in [-3.0, 0.0, 2.0, 5.0] {
                let eu = EuWeights::from_log10_ratio(x);
                let config = HeuristicConfig { criterion, eu, ..HeuristicConfig::paper_best() };
                drives.push((heuristic, config));
            }
        }
    }
    drives
}

/// The daemon's decision loop in miniature, over one live schedule: asks
/// are appended and settled one at a time, disturbances repaired and the
/// requests they displace settled again, heaviest first. Every settle is
/// held, on a copy of the state taken before it, to each drive of
/// [`drives_of`] with the request the one active.
struct Admission {
    live: LiveSchedule<'static>,
    rule: CommitRule,
    drives: Vec<(Heuristic, HeuristicConfig)>,
    /// Per request: still promised a delivery.
    promised: Vec<bool>,
    met: Met,
}

/// How many settles met each edge case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Met {
    /// Served by a copy already at the destination.
    zero_hop: usize,
    /// Refused with the destination out of reach.
    unreachable: usize,
    /// Of those, refused with a deadline of `SimTime::MAX`, which the
    /// unreachable arrival equals.
    unreachable_at_the_end: usize,
    /// Refused with the earliest arrival past the deadline.
    late: usize,
    /// Delivered at the deadline itself.
    just_in_time: usize,
}

impl Met {
    fn add(&mut self, other: Met) {
        self.zero_hop += other.zero_hop;
        self.unreachable += other.unreachable;
        self.unreachable_at_the_end += other.unreachable_at_the_end;
        self.late += other.late;
        self.just_in_time += other.just_in_time;
    }
}

impl Admission {
    fn new(mut catalog: Scenario, rule: CommitRule) -> Self {
        while catalog.pop_request().is_some() {}
        Admission {
            live: LiveSchedule::new(Bookings::owning(catalog)),
            rule,
            drives: drives_of(rule),
            promised: Vec::new(),
            met: Met::default(),
        }
    }

    fn scenario(&self) -> &Scenario {
        self.live.bookings().scenario()
    }

    /// Settles `id` and checks it against every drive.
    fn settle(
        &mut self,
        id: RequestId,
        savepoint: Savepoint,
    ) -> Result<Option<Vec<Transfer>>, TestCaseError> {
        let before = self.live.bookings().clone();
        let request = *before.scenario().request(id);
        let (item, to) = (request.item(), request.destination());
        let tree = Planner::new(&before).tree(&before, item, &[to]).clone();
        let arrival = tree.is_reachable(to).then(|| tree.arrival(to));
        if before.is_delivered(id) {
            self.met.zero_hop += 1;
        } else if arrival.is_none() {
            self.met.unreachable += 1;
            self.met.unreachable_at_the_end += usize::from(request.deadline() == SimTime::MAX);
        } else if arrival > Some(request.deadline()) {
            self.met.late += 1;
        }
        let settled = self.live.settle(id, savepoint, self.rule);
        if settled.as_ref().is_some_and(|(delivery, _)| delivery.at == request.deadline()) {
            self.met.just_in_time += 1;
        }
        for (heuristic, config) in &self.drives {
            let mut state = before.clone();
            for other in state.scenario().request_ids() {
                state.set_request_active(other, other == id);
            }
            drive_state(&mut Planner::new(&state), &mut state, *heuristic, config);
            let drove = state.delivery_of(id).map(|d| (d, state.take_transfers()));
            prop_assert_eq!(
                &drove,
                &settled,
                "{} under {} at {:?}, request {}",
                heuristic,
                config.criterion,
                config.eu,
                id
            );
        }
        Ok(settled.map(|(_, route)| route))
    }

    /// Appends `ask` as the engine does — moving the horizon out to its
    /// item's collection — and settles it; an ask whose collection is past
    /// the end of time, or that the state refuses to append, is dropped.
    fn submit(&mut self, ask: Request) -> Result<(), TestCaseError> {
        let savepoint = self.live.bookings().savepoint(ask.item());
        let state = self.live.bookings_mut();
        let Some(collected) = ask.deadline().checked_add(state.scenario().gc_delay()) else {
            return Ok(());
        };
        let Ok(id) = state.add_request(ask) else { return Ok(()) };
        if collected > state.scenario().horizon() && state.set_horizon(collected).is_err() {
            state.rollback(savepoint);
            return Ok(());
        }
        if let Some(route) = self.settle(id, savepoint)? {
            self.live.commit(&route);
            self.promised.push(true);
        }
        Ok(())
    }

    /// The earliest arrival `ask` would get, appended; `None` when it
    /// cannot be appended or cannot be reached.
    fn earliest_arrival(&self, ask: Request) -> Option<SimTime> {
        let mut state = self.live.bookings().clone();
        state.add_request(ask).ok()?;
        let collected = ask.deadline() + state.scenario().gc_delay();
        state.set_horizon(collected.max(state.scenario().horizon())).ok()?;
        let tree = Planner::new(&state).tree(&state, ask.item(), &[ask.destination()]).clone();
        tree.is_reachable(ask.destination()).then(|| tree.arrival(ask.destination()))
    }

    /// Applies `kind` at `at` (never before the clock), repairs, and
    /// settles the displaced requests heaviest first, then by id.
    fn inject(&mut self, at: SimTime, kinds: Vec<EventKind>) -> Result<(), TestCaseError> {
        let at = at.max(self.live.now());
        for kind in kinds {
            self.live.apply(Event::new(at, kind));
        }
        self.live.advance(at);
        let (_, normalised) = self.live.repair(&self.promised);
        let weights = PriorityWeights::paper_1_10_100();
        let mut displaced: Vec<RequestId> = (normalised.deliveries.iter())
            .filter(|(_, delivery)| delivery.is_none())
            .map(|&(id, _)| id)
            .collect();
        let scenario = self.scenario();
        displaced.sort_by_key(|&id| (Reverse(weights.weight(scenario.request(id).priority())), id));
        for id in displaced {
            let savepoint = self.live.bookings().savepoint(self.scenario().request(id).item());
            match self.settle(id, savepoint)? {
                Some(route) => self.live.commit(&route),
                None => self.promised[id.index()] = false,
            }
        }
        prop_assert_eq!(self.live.divergence(), None);
        Ok(())
    }
}

/// `catalog`'s network and items under γ = 0, the one garbage-collection
/// delay under which a deadline of `SimTime::MAX` is not past the end of
/// time.
fn without_gc(catalog: &Scenario) -> Scenario {
    let mut builder = Scenario::builder(catalog.network().clone())
        .gc_delay(SimDuration::ZERO)
        .horizon(catalog.horizon());
    for (_, item) in catalog.items() {
        builder = builder.add_item(item.clone());
    }
    builder.build().expect("the catalog validated its network and items")
}

/// Drives one admission stream, over `catalog` or, `zero_gc`, over it
/// under γ = 0: `raw` picks, per operation, an ask of the catalog as it
/// is, one served by a copy another route staged, one whose deadline is
/// its earliest arrival or a millisecond before it, an outage of a
/// committed transfer's link in flight, the loss of a staged copy, an
/// outage of every link into a destination before its ask (as it is or
/// due at `SimTime::MAX`), or an ask due at `SimTime::MAX`.
fn admission_stream(
    catalog: Scenario,
    zero_gc: bool,
    rule: CommitRule,
    raw: &[(u8, usize, u64)],
) -> Result<Admission, TestCaseError> {
    let asks: Vec<Request> = catalog.requests().map(|(_, request)| *request).collect();
    let catalog = if zero_gc { without_gc(&catalog) } else { catalog };
    let mut admission = Admission::new(catalog, rule);
    for &(op, pick, permille) in raw {
        let ask = asks[pick % asks.len()];
        let at_the_end = Request::new(ask.item(), ask.destination(), SimTime::MAX, ask.priority());
        let committed = admission.live.committed();
        let staged = committed.get(pick % committed.len().max(1)).copied();
        let between = |from: SimTime, to: SimTime| {
            let span = to.as_millis().saturating_sub(from.as_millis());
            SimTime::from_millis(from.as_millis() + span * permille / 1_000)
        };
        match (op % 7, staged) {
            (1, Some(t)) => {
                let deadline = t.arrival + SimDuration::from_millis(permille * 60_000);
                admission.submit(Request::new(t.item, t.to, deadline, ask.priority()))?;
            }
            (2, _) => {
                let Some(arrival) = admission.earliest_arrival(ask) else { continue };
                let early = SimDuration::from_millis(permille % 2);
                let deadline =
                    SimTime::from_millis(arrival.as_millis().saturating_sub(early.as_millis()));
                admission.submit(Request::new(
                    ask.item(),
                    ask.destination(),
                    deadline,
                    ask.priority(),
                ))?;
            }
            (3, Some(t)) => {
                admission
                    .inject(between(t.start, t.arrival), vec![EventKind::LinkOutage(t.link)])?;
            }
            (4, Some(t)) => {
                let lost = EventKind::CopyLoss { item: t.item, machine: t.to };
                admission.inject(between(t.arrival, ask.deadline().max(t.arrival)), vec![lost])?;
            }
            (5, _) => {
                let network = admission.scenario().network();
                let cut =
                    network.incoming(ask.destination()).iter().map(|&l| EventKind::LinkOutage(l));
                admission.inject(admission.live.now(), cut.collect())?;
                admission.submit(if permille % 2 == 0 { ask } else { at_the_end })?;
            }
            (6, _) => admission.submit(at_the_end)?,
            _ => admission.submit(ask)?,
        }
    }
    Ok(admission)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn settle_is_a_drive_of_the_one_request(
        family in prop_oneof![Just(Family::Paper), Just(Family::Grid), Just(Family::Line)],
        rule in prop_oneof![Just(CommitRule::Earliest), Just(CommitRule::Latest)],
        seed in 0u64..1_000,
        zero_gc in prop_oneof![Just(false), Just(true)],
        raw in prop::collection::vec((0u8..7, 0usize..1_024, 0u64..1_000), 1..16),
    ) {
        let catalog = family.generate_small(seed);
        prop_assume!(catalog.request_count() > 0);
        admission_stream(catalog, zero_gc, rule, &raw)?;
    }
}

/// Every edge case of a settle comes up in the streams the property draws,
/// under each rule: a request a staged copy already serves, a destination
/// out of reach (once with a deadline of `SimTime::MAX`), an earliest
/// arrival past the deadline and one on it.
#[test]
fn the_admission_streams_meet_every_edge_case() {
    let mut draw = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move |below: u64| {
        draw = draw.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (draw >> 33) % below
    };
    for rule in [CommitRule::Earliest, CommitRule::Latest] {
        let mut met = Met::default();
        for family in [Family::Paper, Family::Grid, Family::Line] {
            for seed in 0..8 {
                let raw: Vec<(u8, usize, u64)> =
                    (0..16).map(|_| (next(7) as u8, next(1_024) as usize, next(1_000))).collect();
                let zero_gc = seed % 2 == 0;
                let admission = admission_stream(family.generate_small(seed), zero_gc, rule, &raw)
                    .unwrap_or_else(|e| panic!("{family:?} {rule:?} seed {seed}: {e:?}"));
                met.add(admission.met);
            }
        }
        let Met { zero_hop, unreachable, unreachable_at_the_end, late, just_in_time } = met;
        assert!(
            zero_hop > 0
                && unreachable > 0
                && unreachable_at_the_end > 0
                && late > 0
                && just_in_time > 0,
            "{rule:?}: {met:?}"
        );
    }
}
