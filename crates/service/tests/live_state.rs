//! The live admission state against the replay that defines it.
//!
//! The engine decides every submission on one long-lived scheduling state
//! and edits that state where reservations are removed — a repair, an
//! optimizer trial. These tests hold it to the state `replay_state` builds
//! from the engine's whole history: after every record the two agree
//! (`live_state_divergence`) and the snapshot is a valid schedule by a
//! check that shares no code with the ledger (`support/oracle.rs`); a
//! refusal, of a candidate or of an optimizer trial, leaves nothing behind;
//! a release spares blocked time; the holds a later request lengthens
//! retroactively are refused exactly where they do not fit; and the
//! decisions are the ones recorded on the commit that replayed per decision.

use dstage_core::cost::{CostCriterion, EuWeights};
use dstage_core::heuristic::{Heuristic, HeuristicConfig};
use dstage_model::prelude::*;
use dstage_service::engine::AdmissionEngine;
use dstage_service::protocol::{
    InjectArgs, InjectKind, P2mpSubmitArgs, SubmitArgs, SubmitResponse,
};
use dstage_workload::grid::{generate_grid, GridConfig};
use dstage_workload::small::fan_out;
use dstage_workload::{generate, Family, GeneratorConfig};
use proptest::prelude::*;
use serde::Value;

#[path = "support/oracle.rs"]
mod oracle;

/// The heuristic configuration matching `stage-serve`'s defaults.
fn config() -> HeuristicConfig {
    HeuristicConfig {
        criterion: CostCriterion::C4,
        eu: EuWeights::from_log10_ratio(2.0),
        priority_weights: PriorityWeights::paper_1_10_100(),
        caching: true,
    }
}

/// Sebastiano Vigna's splitmix64: the streams below are a function of
/// their seed alone.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn submit(engine: &mut AdmissionEngine, args: &SubmitArgs) -> SubmitResponse {
    engine.submit(args).expect("no idempotency keys in these streams")
}

fn ask(item: &str, destination: u32, deadline_ms: u64) -> SubmitArgs {
    SubmitArgs {
        item: item.to_string(),
        destination,
        deadline_ms,
        priority: 1,
        idempotency_key: None,
    }
}

// ---------------------------------------------------------------------
// (a) Lockstep: live state ≡ replayed state after every record.
// ---------------------------------------------------------------------

/// Drives `ops` randomized records — submits (deadlines up to a quarter
/// past the horizon, so it moves; destinations one past the last machine,
/// so some are malformed), point-to-multipoint submits, link outages,
/// copy losses, a submit between two outages (so the second repair finds
/// reservations out of replay order), optimizer passes — and checks the
/// invariant and the oracle after each.
fn lockstep(heuristic: Heuristic, family: usize, catalog_seed: u64, ops_seed: u64) {
    let catalog = match family {
        0 => Family::Grid.generate_small(catalog_seed),
        1 => Family::Line.generate_small(catalog_seed),
        _ => generate(&GeneratorConfig::small(), catalog_seed),
    };
    let mut rng = SplitMix64(ops_seed);
    let mut engine = AdmissionEngine::new(&catalog, heuristic, config());
    let items: Vec<String> = engine.item_names().map(str::to_string).collect();
    let pick_item = |rng: &mut SplitMix64| items[rng.below(items.len() as u64) as usize].clone();
    let machines = engine.machine_count() as u64;
    let links = catalog.network().link_count() as u64;
    let horizon = catalog.horizon().as_millis();
    let mut clock = 0u64;
    let random_submit = |engine: &mut AdmissionEngine, rng: &mut SplitMix64| {
        let args = SubmitArgs {
            priority: rng.below(3) as u8,
            ..ask(&pick_item(rng), rng.below(machines + 1) as u32, rng.below(horizon * 5 / 4) + 1)
        };
        submit(engine, &args);
    };
    let outage = |engine: &mut AdmissionEngine, rng: &mut SplitMix64, clock: &mut u64| {
        *clock += rng.below(horizon / 16);
        let kind = InjectKind::LinkOutage { link: rng.below(links) as u32 };
        engine.inject(&InjectArgs { kind, at_ms: *clock }).expect("a known link");
    };
    for op in 0..32 {
        let roll = rng.below(100);
        let what = if roll < 56 {
            random_submit(&mut engine, &mut rng);
            "submit"
        } else if roll < 62 {
            outage(&mut engine, &mut rng, &mut clock);
            random_submit(&mut engine, &mut rng);
            outage(&mut engine, &mut rng, &mut clock);
            "outage, submit, outage"
        } else if roll < 72 {
            let mut destinations: Vec<u32> =
                (0..1 + rng.below(3)).map(|_| rng.below(machines) as u32).collect();
            destinations.sort_unstable();
            destinations.dedup();
            let args = P2mpSubmitArgs {
                item: pick_item(&mut rng),
                destinations,
                deadline_ms: rng.below(horizon) + 1,
                priority: rng.below(3) as u8,
                idempotency_key: None,
            };
            engine.submit_p2mp(&args).expect("a well-formed group");
            "p2mp submit"
        } else if roll < 82 {
            outage(&mut engine, &mut rng, &mut clock);
            "link outage"
        } else if roll < 92 {
            clock += rng.below(horizon / 16);
            let kind = InjectKind::CopyLoss {
                item: pick_item(&mut rng),
                machine: rng.below(machines) as u32,
            };
            engine.inject(&InjectArgs { kind, at_ms: clock }).expect("a known copy");
            "copy loss"
        } else {
            engine.optimize(3);
            "optimize"
        };
        let when = format!(
            "{heuristic} on family {family} seed {catalog_seed}/{ops_seed}: after op {op} ({what})"
        );
        assert_eq!(engine.live_state_divergence(), None, "{when}");
        oracle::assert_sound(&engine.snapshot(), &catalog, &when);
        assert_eq!(engine.journal_len(), 0, "the journal outlived the decision");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lockstep_partial(family in 0usize..3, catalog in 0u64..48, ops in 0u64..u64::MAX) {
        lockstep(Heuristic::PartialPath, family, catalog, ops);
    }

    #[test]
    fn lockstep_full_one(family in 0usize..3, catalog in 0u64..48, ops in 0u64..u64::MAX) {
        lockstep(Heuristic::FullPathOneDestination, family, catalog, ops);
    }

    #[test]
    fn lockstep_full_all(family in 0usize..3, catalog in 0u64..48, ops in 0u64..u64::MAX) {
        lockstep(Heuristic::FullPathAllDestinations, family, catalog, ops);
    }

    #[test]
    fn lockstep_alap(family in 0usize..3, catalog in 0u64..48, ops in 0u64..u64::MAX) {
        lockstep(Heuristic::Alap, family, catalog, ops);
    }

    #[test]
    fn lockstep_rcd(family in 0usize..3, catalog in 0u64..48, ops in 0u64..u64::MAX) {
        lockstep(Heuristic::Rcd, family, catalog, ops);
    }
}

// ---------------------------------------------------------------------
// (b), (c) Refusals, retroactive holds, a moving horizon.
// ---------------------------------------------------------------------

/// `m0 → m1 → {m2, m3, m4}` over 1 byte/ms links, items `alpha` and
/// `beta` (10 KB each, so 10 s a hop) on `m0`, `γ` = 60 s, horizon 2 h.
/// The relay `m1` stores `relay_bytes`. The link to `m4` opens only at
/// 2 h 30 min — after the catalog's horizon.
fn relay_catalog(relay_bytes: u64) -> Scenario {
    let mut b = NetworkBuilder::new();
    for (i, capacity) in [1 << 20, relay_bytes, 1 << 20, 1 << 20, 1 << 20].into_iter().enumerate() {
        b.add_machine(Machine::new(format!("m{i}"), Bytes::new(capacity)));
    }
    let m = MachineId::new;
    for (from, to, opens) in [(0, 1, 0), (1, 2, 0), (1, 3, 0), (1, 4, 150)] {
        b.add_link(VirtualLink::new(
            m(from),
            m(to),
            SimTime::from_mins(opens),
            SimTime::from_hours(4),
            BitsPerSec::new(8_000),
        ));
    }
    let item = |name: &str| {
        DataItem::new(name, Bytes::new(10_000), vec![DataSource::new(m(0), SimTime::ZERO)])
    };
    Scenario::builder(b.build())
        .gc_delay(SimDuration::from_secs(60))
        .add_item(item("alpha"))
        .add_item(item("beta"))
        .build()
        .expect("the relay catalog is valid by construction")
}

/// The fields of a checkpoint but the decision log, by name: admitted
/// requests, their routes and deliveries, the committed reservations, the
/// disturbances.
fn fields(engine: &AdmissionEngine) -> Vec<(String, String)> {
    let Value::Object(fields) = engine.checkpoint_value() else {
        panic!("a checkpoint is an object")
    };
    let text = |value: &Value| serde_json::to_string(value).expect("serializable");
    fields.iter().filter(|(name, _)| name != "log").map(|(n, v)| (n.clone(), text(v))).collect()
}

/// [`fields`] as one value. With `live_state_divergence() == None` on both
/// sides, equal values here mean equal live states.
fn without_log(engine: &AdmissionEngine) -> String {
    format!("{:?}", fields(engine))
}

/// `alpha` to `m2` by 100 s stages a copy on the relay until 160 s; `beta`
/// to `m3` by 400 s then crosses the relay — when it has room.
fn relay_engine(relay_bytes: u64) -> AdmissionEngine {
    let mut engine = AdmissionEngine::new(
        &relay_catalog(relay_bytes),
        Heuristic::FullPathOneDestination,
        config(),
    );
    let first = submit(&mut engine, &ask("alpha", 2, 100_000));
    assert_eq!((first.decision.as_str(), first.eta_ms), ("admitted", Some(20_000)));
    let second = submit(&mut engine, &ask("beta", 3, 400_000));
    assert_eq!(second.decision, "admitted");
    engine
}

#[test]
fn a_later_deadline_is_refused_only_where_the_longer_hold_does_not_fit() {
    // The relay holds one item at a time: `beta` waits for `alpha`'s copy
    // to be collected at 160 s, and sits there until 460 s.
    let mut tight = relay_engine(10_000);
    assert_eq!(tight.query(1).unwrap().route[0].start_ms, 160_000);
    let before = without_log(&tight);
    // A second request for `alpha`, by 300 s, would be served from the
    // relay's copy over the idle `m1 → m3` link — but it keeps that copy
    // until 360 s, where `beta` already fills the relay.
    let refused = submit(&mut tight, &ask("alpha", 3, 300_000));
    assert_eq!(refused.decision, "rejected");
    assert_eq!(
        refused.reason.as_deref(),
        Some("storage on M1 cannot hold `alpha` until 360000 ms")
    );
    assert_eq!(without_log(&tight), before, "the refusal left residue");
    assert_eq!(tight.live_state_divergence(), None);
    // By 95 s the hold does not grow, and the same route is admitted.
    let early = submit(&mut tight, &ask("alpha", 3, 95_000));
    assert_eq!((early.decision.as_str(), early.new_transfers), ("admitted", Some(1)));

    // With room for both on the relay the later deadline is no problem.
    let mut roomy = relay_engine(20_000);
    let admitted = submit(&mut roomy, &ask("alpha", 3, 300_000));
    assert_eq!((admitted.decision.as_str(), admitted.new_transfers), ("admitted", Some(1)));
    assert_eq!(roomy.live_state_divergence(), None);
}

#[test]
fn a_deadline_past_the_horizon_moves_it_and_a_refusal_moves_it_back() {
    let mut engine = relay_engine(20_000);
    let opens = SimTime::from_mins(150).as_millis();
    // `m4` can be fed only after the catalog's horizon, until which its
    // copy would be held: a request for it is routable only because its
    // deadline (plus γ) moves the horizon — every source and destination
    // then keeps its copy that much longer. Five seconds after the link
    // opens is too early for a 10 s hop: the horizon moved for nothing
    // and has to move back.
    let before = without_log(&engine);
    let refused = submit(&mut engine, &ask("alpha", 4, opens + 5_000));
    assert_eq!(refused.decision, "rejected");
    assert!(refused.reason.unwrap().contains("unreachable"));
    assert_eq!(without_log(&engine), before, "the refusal left residue");
    assert_eq!(engine.live_state_divergence(), None);
    let admitted = submit(&mut engine, &ask("beta", 4, opens + 3_000_000));
    assert_eq!(admitted.decision, "admitted");
    assert_eq!(admitted.eta_ms, Some(opens + 10_000), "delivered past the catalog's horizon");
    assert_eq!(engine.live_state_divergence(), None);
    // With the horizon where the last admission left it, the first ask,
    // given time, is served from the relay's copy of `alpha` — whose hold
    // it lengthens, all the way from 160 s.
    let late = submit(&mut engine, &ask("alpha", 4, opens + 40_000));
    assert_eq!((late.decision.as_str(), late.new_transfers), ("admitted", Some(1)));
    assert_eq!(engine.live_state_divergence(), None);
    // A fresh engine moves its horizon at the same records.
    let snapshot = engine.snapshot();
    let Some(Value::Array(log)) = snapshot.get("log") else { panic!("no log") };
    let mut fresh =
        AdmissionEngine::new(&relay_catalog(20_000), Heuristic::FullPathOneDestination, config());
    for record in log {
        fresh.replay_record(record).expect("a recorded operation");
    }
    assert_eq!(
        serde_json::to_string(&fresh.snapshot()).unwrap(),
        serde_json::to_string(&snapshot).unwrap()
    );
}

#[test]
fn refused_candidates_leave_no_residue() {
    let mut engine = relay_engine(10_000);
    let before = without_log(&engine);
    let refusals = [
        (ask("gamma", 2, 100_000), "unknown data item"),
        (ask("alpha", 9, 100_000), "unknown machine"),
        (ask("alpha", 0, 100_000), "both source and destination"),
        (ask("alpha", 2, 200_000), "the candidate are duplicates"),
        (ask("beta", 2, 170_000), "unreachable"),
        (ask("alpha", 3, 300_000), "storage on M1"),
        (ask("alpha", 3, u64::MAX), "past the end of time"),
        (SubmitArgs { priority: 7, ..ask("alpha", 3, 95_000) }, "out of range"),
    ];
    for (args, reason) in refusals {
        let response = submit(&mut engine, &args);
        assert_eq!(response.decision, "rejected", "{args:?}");
        let text = response.reason.expect("a refusal carries its reason");
        assert!(text.contains(reason), "{args:?}: {text}");
        assert_eq!(without_log(&engine), before, "{args:?} left residue");
        assert_eq!(engine.live_state_divergence(), None, "{args:?}");
        assert_eq!(engine.journal_len(), 0);
    }
}

// ---------------------------------------------------------------------
// (d) A destination that already holds a staged copy.
// ---------------------------------------------------------------------

#[test]
fn a_staged_destination_is_served_by_its_first_copy_in_commit_order() {
    // fan_out: m0 → hub(m1) → {m2, m3, m4}. Latest placement stages the
    // hub copy for a loose deadline late; a tight deadline then needs a
    // second, earlier one.
    let mut engine = AdmissionEngine::new(&fan_out(), Heuristic::Alap, config());
    let item = engine.item_names().next().unwrap().to_string();
    assert_eq!(submit(&mut engine, &ask(&item, 2, 1_800_000)).decision, "admitted");
    assert_eq!(submit(&mut engine, &ask(&item, 3, 60_000)).decision, "admitted");
    let first_copy = engine.query(0).unwrap().route[0].arrival_ms;
    let second_copy = engine.query(1).unwrap().route[0].arrival_ms;
    assert!(second_copy < first_copy, "the tight request staged its own, earlier hub copy");
    // The hub itself asks: nothing to route, and the promise is the copy
    // committed first — not the earlier one.
    let served = submit(&mut engine, &ask(&item, 1, 3_600_000));
    assert_eq!(served.decision, "admitted");
    assert_eq!(served.new_transfers, Some(0));
    assert_eq!((served.eta_ms, served.hops), (Some(first_copy), Some(1)));
    assert!(engine.query(2).unwrap().route.is_empty());
    // Too early for the first copy but not for the second: still served,
    // by the first copy *in time*.
    let mut engine = AdmissionEngine::new(&fan_out(), Heuristic::Alap, config());
    submit(&mut engine, &ask(&item, 2, 1_800_000));
    submit(&mut engine, &ask(&item, 3, 60_000));
    let served = submit(&mut engine, &ask(&item, 1, second_copy + 1));
    assert_eq!((served.eta_ms, served.new_transfers), (Some(second_copy), Some(0)));
    assert_eq!(engine.live_state_divergence(), None);
}

// ---------------------------------------------------------------------
// Release in place: repairs and optimizer trials edit the live state.
// ---------------------------------------------------------------------

fn outage(engine: &mut AdmissionEngine, link: u32, at_ms: u64) -> (u64, u64) {
    let args = InjectArgs { kind: InjectKind::LinkOutage { link }, at_ms };
    let done = engine.inject(&args).expect("a known link");
    (done.cancelled_transfers, done.displaced)
}

#[test]
fn a_replay_order_that_puts_a_later_copy_second_keeps_both_booked() {
    // Latest placement stages the hub copy for the loose deadline late, at
    // [1780 s, 1790 s); the tight deadline then books a second, earlier
    // one. An unrelated outage puts `committed` in replay order: early
    // copy first. The replay used to skip the late one there — an equally
    // early copy was on the hub already — and offer its window again.
    let catalog = fan_out();
    let mut engine = AdmissionEngine::new(&catalog, Heuristic::Alap, config());
    let items: Vec<String> = engine.item_names().map(str::to_string).collect();
    submit(&mut engine, &ask(&items[0], 2, 1_800_000));
    submit(&mut engine, &ask(&items[0], 3, 60_000));
    let late = engine.query(0).unwrap().route[0].clone();
    assert_eq!((late.link, late.start_ms, late.arrival_ms), (0, 1_780_000, 1_790_000));
    assert_eq!(outage(&mut engine, 3, 1), (0, 0));
    assert_eq!(engine.live_state_divergence(), None);
    // The second item (5 s a hop) to m3 by 1795 s would, placed latest,
    // cross the first link over [1785 s, 1790 s): inside that window.
    let other = submit(&mut engine, &ask(&items[1], 3, 1_795_000));
    assert_eq!(other.decision, "admitted");
    let hub_hop = engine.query(2).unwrap().route[0].clone();
    assert_eq!((hub_hop.link, hub_hop.arrival_ms), (0, late.start_ms), "offered a booked window");
    oracle::assert_sound(&engine.snapshot(), &catalog, "after the re-sorting inject");
}

#[test]
fn a_cancelled_transfer_frees_its_window_but_for_the_blocked_part() {
    // `alpha` crosses m0 → m1 over [0, 10 s) and m1 → m2 over [10 s, 20 s).
    let mut engine = relay_engine(40_000);
    // An outage elsewhere moves `now` to 15 s; losing the relay's copy at
    // 10 s then cancels the second hop, whose window lies across `now`:
    // [10 s, 15 s) stays blocked, [15 s, 20 s) is free again — as in the
    // replay, which never booked it.
    assert_eq!(outage(&mut engine, 3, 15_000), (0, 0));
    let lost = InjectKind::CopyLoss { item: "alpha".to_string(), machine: 1 };
    let done = engine.inject(&InjectArgs { kind: lost, at_ms: 10_000 }).unwrap();
    assert_eq!((done.cancelled_transfers, done.repaired), (1, 1));
    assert_eq!(engine.live_state_divergence(), None, "a window lying across `now`");
    oracle::assert_sound(&engine.snapshot(), &relay_catalog(40_000), "after the loss");
    // An outage of the first link at 5 s, with `now` long past: the hops it
    // cancels there lie across the outage's start or after it, and before
    // `now` — all of their windows stay blocked; the hops the cascade
    // cancels on the other links lie before `now` as well.
    let mut engine = relay_engine(40_000);
    assert_eq!(outage(&mut engine, 3, 60_000), (0, 0));
    assert_eq!(outage(&mut engine, 0, 5_000), (4, 2));
    assert_eq!(engine.live_state_divergence(), None, "a window lying across an outage");
    oracle::assert_sound(&engine.snapshot(), &relay_catalog(40_000), "after both outages");
}

#[test]
fn an_inject_that_cancels_nothing_records_the_disturbance_and_nothing_else() {
    let mut engine = relay_engine(20_000);
    // The first repair also puts `committed` in replay order.
    assert_eq!(outage(&mut engine, 3, 40_000), (0, 0));
    let before = fields(&engine);
    assert_eq!(outage(&mut engine, 2, 50_000), (0, 0));
    let changed: Vec<String> = (before.iter().zip(fields(&engine)))
        .filter(|(was, is)| **was != *is)
        .map(|(was, _)| was.0.clone())
        .collect();
    assert_eq!(changed, ["now_ms", "outages"]);
    // The state took the two blocks and nothing else: it is the replay of
    // the same reservations with them.
    assert_eq!(engine.live_state_divergence(), None);
    assert_eq!(engine.journal_len(), 0);
}

#[test]
fn a_refused_optimizer_pass_leaves_the_engine_as_it_was() {
    let grid = generate_grid(
        &GridConfig { rows: 10, cols: 10, items: 400, requests: 2_000, ..GridConfig::default() },
        7,
    );
    let mut engine = AdmissionEngine::new(&grid, Heuristic::FullPathOneDestination, config());
    for args in distinct_pair_stream(&grid, 2007, 300) {
        submit(&mut engine, &args);
    }
    let mut rng = SplitMix64(22);
    for at_ms in (1..=5).map(|i| i * 200_000) {
        outage(&mut engine, rng.below(grid.network().link_count() as u64) as u32, at_ms);
    }
    assert_eq!(engine.live_state_divergence(), None);
    for budget in [1, 8, 64] {
        let before = without_log(&engine);
        let pass = engine.optimize(budget);
        assert!(pass.attempted > 0 && pass.swapped == 0, "{budget}: {pass:?}");
        assert_eq!(without_log(&engine), before, "budget {budget}: a refused trial left residue");
        assert_eq!(engine.live_state_divergence(), None, "budget {budget}");
        assert_eq!(engine.journal_len(), 0);
    }
    oracle::assert_sound(&engine.snapshot(), &grid, "after three refused passes");
}

// ---------------------------------------------------------------------
// Bounded growth: the journal does not outlive a decision.
// ---------------------------------------------------------------------

#[test]
fn the_journal_stays_empty_over_five_thousand_submits() {
    // A decision journals what it books and drops it when it ends, so the
    // bound on what is held between decisions is: nothing.
    let catalog = Family::Grid.generate_small(3);
    let mut engine = AdmissionEngine::new(&catalog, Heuristic::FullPathOneDestination, config());
    let items: Vec<String> = engine.item_names().map(str::to_string).collect();
    let machines = engine.machine_count() as u64;
    let horizon = catalog.horizon().as_millis();
    let mut rng = SplitMix64(5_000);
    let mut admitted = 0;
    for _ in 0..5_000 {
        let args = ask(
            &items[rng.below(items.len() as u64) as usize],
            rng.below(machines) as u32,
            rng.below(horizon) + 1,
        );
        admitted += usize::from(submit(&mut engine, &args).decision == "admitted");
        assert_eq!(engine.journal_len(), 0);
    }
    assert!(admitted > 8, "the stream exercises admissions, not only refusals");
    assert_eq!(engine.live_state_divergence(), None);
}

// ---------------------------------------------------------------------
// (e) The decisions are the parent's.
// ---------------------------------------------------------------------

/// Every `(item, destination)` pair of `catalog` whose destination is not
/// a source of the item, in a seeded shuffle (the first `limit`), with a
/// deadline uniform between the catalog's earliest and latest generated
/// deadline and a uniform priority.
fn distinct_pair_stream(catalog: &Scenario, seed: u64, limit: usize) -> Vec<SubmitArgs> {
    let mut rng = SplitMix64(seed);
    let deadlines = || catalog.requests().map(|(_, r)| r.deadline().as_millis());
    let earliest = deadlines().min().expect("generated catalogs carry requests");
    let latest = deadlines().max().expect("generated catalogs carry requests");
    let mut pairs = Vec::new();
    for (id, item) in catalog.items() {
        for machine in catalog.network().machine_ids() {
            if !item.has_source(machine) {
                pairs.push((id, machine));
            }
        }
    }
    rng.shuffle(&mut pairs);
    pairs.truncate(limit);
    pairs
        .into_iter()
        .map(|(item, machine)| {
            let deadline_ms = earliest + rng.below(latest - earliest + 1);
            let priority = rng.below(3) as u8;
            SubmitArgs {
                priority,
                ..ask(catalog.item(item).name(), machine.index() as u32, deadline_ms)
            }
        })
        .collect()
}

fn fnv1a(hash: &mut u64, text: &str) {
    for byte in text.bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// One digest over every submission's `(decision, request, eta_ms, hops,
/// new_transfers)` and the final snapshot's `schedule` and `ledger`; the
/// admitted count; and the refusals for a hold that cannot be lengthened.
fn pin(catalog: &Scenario, stream: &[SubmitArgs]) -> (u64, usize, usize) {
    let mut engine = AdmissionEngine::new(catalog, Heuristic::FullPathOneDestination, config());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut hold_refusals = 0;
    for args in stream {
        let r = submit(&mut engine, args);
        fnv1a(
            &mut hash,
            &format!(
                "{}|{:?}|{:?}|{:?}|{:?};",
                r.decision, r.request, r.eta_ms, r.hops, r.new_transfers
            ),
        );
        hold_refusals += usize::from(r.reason.is_some_and(|why| why.starts_with("storage on M")));
    }
    let snapshot = engine.snapshot();
    for part in ["schedule", "ledger"] {
        let value = snapshot.get(part).expect("a snapshot carries its schedule and ledger");
        fnv1a(&mut hash, &serde_json::to_string(value).expect("serializable"));
    }
    assert_eq!(engine.live_state_divergence(), None);
    (hash, engine.admitted_count(), hold_refusals)
}

/// The constants were recorded by this very function on the parent commit
/// (`7f63626`, where every decision replayed the whole history), counting
/// its `internal: committed reservation failed to replay` refusals where
/// this counts `storage on M…` ones: the same twelve submissions.
#[test]
fn decisions_are_the_ones_the_per_decision_replay_made() {
    for (g, pinned) in [(0, (0xe242_7f71_cb56_cb38, 230, 0)), (1, (0xd400_8038_f957_f06a, 317, 12))]
    {
        let catalog = generate(&GeneratorConfig::paper(), g);
        let stream = distinct_pair_stream(&catalog, 2000 + g, usize::MAX);
        assert_eq!(pin(&catalog, &stream), pinned, "paper#{g}, {} submits", stream.len());
    }
    let grid = generate_grid(
        &GridConfig { rows: 10, cols: 10, items: 400, requests: 2_000, ..GridConfig::default() },
        7,
    );
    let stream = distinct_pair_stream(&grid, 2007, 600);
    assert_eq!(pin(&grid, &stream), (0x329a_35bb_a0bd_dc18, 566, 0), "grid 10x10");
}
