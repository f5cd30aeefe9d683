//! Lockstep equivalence of the tree-cache modes (DESIGN.md §3).
//!
//! Two pairs of bookings and a planner — one planner caching with
//! read-side validation and steps kept with their tree, one keeping
//! nothing (the from-scratch reference) — are driven through the same randomized sequence of
//! commits (a hop, paths, a latest-slot path), evictions (copy losses),
//! link outages, past-blocking, stale re-admissions, late and withheld
//! requests and commits to machines nobody asked for — and through the
//! releases of the climb's trials and the repair loop: a decision rolled
//! back to its savepoint after a drive, a committed hop unbooked and
//! rebooked around a read, and a loss whose re-derivation cuts transfers
//! off, which are then unbooked. A commit of a
//! tree's own hops keeps that tree, its receivers staged as sources,
//! while a destination it was validated for is pending; the latest-slot
//! commit, whose copies arrive after the tree's labels, must drop it.
//! Before every step their candidate enumerations must agree, and equal
//! the uncached state's steps taken item by item over every item id; the
//! final schedules must be equal. This pins
//! the "resources are only consumed" argument across *every* mutation
//! path the dynamic layer and the daemon exercise; the two ways a read
//! can leave the set of destinations a cached tree was last validated for
//! (a request appended to an item whose tree survives, a direct commit to
//! an arbitrary machine); and the three ways an item's pending set can
//! change under a tree that stays cached, with the steps read off it (a
//! request withheld or released, a late request whose hold row is pinned,
//! a loss at a delivered destination) — on draws where most items offer
//! steps and on an oversubscribed one where most are dead until such a
//! change revives them. A second draw has the daemon's shape: one request
//! active at a time, a different one from op to op.

use dstage_core::bookings::Bookings;
use dstage_core::planner::{CandidateStep, Planner};
use dstage_core::schedule::Transfer;
use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::request::{Priority, Request};
use dstage_model::scenario::Scenario;
use dstage_model::time::SimTime;
use dstage_workload::grid::{generate_grid, GridConfig};
use dstage_workload::Family;
use proptest::prelude::*;

/// One mode under test: bookings and the planner that reads them.
struct Mode<'s> {
    plan: Planner,
    books: Bookings<'s>,
}

impl<'s> Mode<'s> {
    fn new(scenario: &'s Scenario, caching: bool) -> Self {
        let books = Bookings::new(scenario);
        Mode { plan: Planner::with_caching(&books, caching), books }
    }
}

/// Both modes' enumerations, which must agree — with each other and with
/// the uncached state's steps taken item by item over every item id, a
/// reference that does not know which items a round visits.
fn enumerations(
    cached: &mut Mode<'_>,
    uncached: &mut Mode<'_>,
) -> Result<Vec<CandidateStep>, TestCaseError> {
    let steps: Vec<CandidateStep> =
        cached.plan.all_candidate_steps(&cached.books).cloned().collect();
    let reference: Vec<CandidateStep> =
        uncached.plan.all_candidate_steps(&uncached.books).cloned().collect();
    prop_assert_eq!(&steps, &reference);
    let mut per_item = Vec::new();
    for item in uncached.books.scenario().item_ids() {
        per_item.extend_from_slice(uncached.plan.candidate_steps(&uncached.books, item));
    }
    prop_assert_eq!(&steps, &per_item);
    Ok(steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_and_uncached_modes_stay_in_lockstep(
        family in 0usize..8,
        seed in 0u64..8,
        ops in prop::collection::vec((0u8..22, 0usize..64, 0u64..900), 1..40),
    ) {
        lockstep(family, seed, &ops, false)?;
    }

    /// The daemon's shape: every request withheld but one, and the one
    /// that is active changes from op to op, so that nearly every item a
    /// round could visit has nothing pending.
    #[test]
    fn one_active_request_at_a_time_stays_in_lockstep(
        family in 0usize..8,
        seed in 0u64..8,
        ops in prop::collection::vec((0u8..22, 0usize..64, 0u64..900), 1..40),
    ) {
        lockstep(family, seed, &ops, true)?;
    }
}

/// Drives both modes through `ops` on the draw `family` and `seed` pick;
/// with `one_active`, only the request an op names is active before it.
fn lockstep(
    family: usize,
    seed: u64,
    ops: &[(u8, usize, u64)],
    one_active: bool,
) -> Result<(), TestCaseError> {
    // The small paper, grid and line families, where nearly every
    // machine is somebody's destination; a 4×4 grid with two requests
    // per item, where most of a tree is read by nobody; and a 3×3 grid
    // of slow links with deadlines minutes after availability, where
    // most requests cannot be met from the start or after a commit or
    // two — items whose every pending destination is out of reach.
    let sparse = GridConfig { rows: 4, cols: 4, items: 6, requests: 12, ..GridConfig::default() };
    let oversubscribed = GridConfig {
        rows: 3,
        cols: 3,
        items: 8,
        requests: 32,
        bandwidth: 60_000..=240_000,
        deadline_offset_mins: 1..=12,
        ..GridConfig::default()
    };
    let scenario = match family {
        0 => Family::Paper.generate_small(seed),
        1 => Family::Grid.generate_small(seed),
        2 => Family::Line.generate_small(seed),
        3..=5 => generate_grid(&sparse, seed),
        _ => generate_grid(&oversubscribed, seed),
    };
    let items = scenario.item_count();
    let machines = scenario.network().machine_count();
    let links = scenario.network().link_count();

    let mut cached = Mode::new(&scenario, true);
    let mut uncached = Mode::new(&scenario, false);

    // A request due at the horizon pins its item's hold row at the
    // horizon on every machine: later requests for three items in four
    // change no hold from the start, so their cached trees survive
    // them. The fourth gets there with its first late request.
    let horizon = scenario.horizon();
    for (i, item) in scenario.item_ids().enumerate().filter(|(i, _)| i % 4 != 3) {
        let far = MachineId::new(((seed as usize + i) % machines) as u32);
        let pin = Request::new(item, far, horizon, Priority::LOW);
        prop_assert_eq!(cached.books.add_request(pin), uncached.books.add_request(pin));
    }

    let mut now = SimTime::ZERO;
    let mut withheld: Vec<RequestId> = Vec::new();
    // Every transfer booked so far, in booking order: what the releases
    // below unbook, rebook and re-derive from.
    let mut booked: Vec<Transfer> = Vec::new();
    for &(op, pick, time) in ops {
        let taken = cached.books.take_transfers();
        prop_assert_eq!(&taken, &uncached.books.take_transfers());
        booked.extend(taken);
        if one_active {
            let count = cached.books.scenario().request_count();
            let chosen = RequestId::new(((pick + time as usize) % count) as u32);
            for request in cached.books.scenario().request_ids().collect::<Vec<_>>() {
                let active = request == chosen;
                if cached.books.is_request_active(request) != active {
                    for state in [&mut cached, &mut uncached] {
                        state.books.set_request_active(request, active);
                    }
                }
            }
        }
        let steps = enumerations(&mut cached, &mut uncached)?;
        match op {
            // Commit a candidate step — the common case, so several
            // selector values map here. Even ops commit the single
            // hop; odd ops commit whole paths to the step's
            // destinations (both commit surfaces journal).
            0..=3 => {
                if steps.is_empty() {
                    continue;
                }
                let step = steps[pick % steps.len()].clone();
                if op % 2 == 0 {
                    for state in [&mut cached, &mut uncached] {
                        state.plan.commit_hop(&mut state.books, step.item, step.hop);
                    }
                } else {
                    let dests: Vec<MachineId> = step
                        .destinations
                        .iter()
                        .map(|d| cached.books.scenario().request(d.request).destination())
                        .collect();
                    let n = cached.plan.commit_paths(&mut cached.books, step.item, &dests);
                    prop_assert_eq!(
                        n,
                        uncached.plan.commit_paths(&mut uncached.books, step.item, &dests)
                    );
                }
            }
            // Eviction: a copy loss at a random machine, as the
            // dynamic layer's disturbance replay issues it.
            4 => {
                let item = DataItemId::new((pick % items) as u32);
                let machine = MachineId::new((time as usize % machines) as u32);
                let removed = cached.books.remove_copies(item, machine, now);
                prop_assert_eq!(removed, uncached.books.remove_copies(item, machine, now));
            }
            // Link outage from the current instant.
            5 => {
                let link = VirtualLinkId::new((pick % links) as u32);
                for state in [&mut cached, &mut uncached] {
                    state.books.apply_link_outage(link, now);
                }
            }
            // Advance the clock and wall off the past (replanning).
            6 => {
                now = now.max(SimTime::from_secs(time));
                for state in [&mut cached, &mut uncached] {
                    state.books.block_past(now);
                }
            }
            // A recorded reservation booked again, as a replay and the
            // baselines book them: a step's hop as a transfer — success
            // must agree across modes.
            7 => {
                if steps.is_empty() {
                    continue;
                }
                let step = &steps[pick % steps.len()];
                let t = Transfer::along(step.item, step.hop);
                let ok = cached.books.book_transfer(&t).is_ok();
                prop_assert_eq!(ok, uncached.books.book_transfer(&t).is_ok());
            }
            // A late request, as the daemon appends them: a new
            // destination for an item whose tree may be cached.books. Where
            // it moves the item's hold row the tree is dropped; where
            // the row is pinned the tree stays and is read for a
            // machine it was not being validated for.
            8..=10 => {
                let item = DataItemId::new((pick % items) as u32);
                let machine = MachineId::new((time as usize % machines) as u32);
                let deadline = if op == 8 { SimTime::from_secs(8 * time) } else { horizon };
                let request = Request::new(item, machine, deadline, Priority::new(pick as u8 % 3));
                let added = cached.books.add_request(request);
                prop_assert_eq!(&added, &uncached.books.add_request(request));
            }
            // Release or withhold a request, as the dynamic layer and
            // the daemon do: a released one is a destination its
            // item's cached tree was not being validated for.
            11 => {
                let count = cached.books.scenario().request_count();
                let request = RequestId::new((time as usize % count) as u32);
                for state in [&mut cached, &mut uncached] {
                    state.books.set_request_active(request, pick % 2 == 0);
                }
            }
            // A direct commit to a machine that need be nobody's
            // pending destination (the exact reference and the
            // baselines do this): its path was never validated.
            12..=13 => {
                let item = DataItemId::new((pick % items) as u32);
                let machine = MachineId::new((time as usize % machines) as u32);
                if !uncached.plan.tree(&uncached.books, item, &[machine]).is_reachable(machine) {
                    continue;
                }
                let n = cached.plan.commit_path(&mut cached.books, item, machine);
                prop_assert_eq!(n, uncached.plan.commit_path(&mut uncached.books, item, machine));
            }
            // Withhold a request a step was just offered for: its
            // item's tree, and the steps read off it, are certainly
            // cached, and nothing the tree was searched on moves.
            14 => {
                if steps.is_empty() {
                    continue;
                }
                let step = &steps[pick % steps.len()];
                let request = step.destinations[time as usize % step.destinations.len()].request;
                withheld.push(request);
                for state in [&mut cached, &mut uncached] {
                    state.books.set_request_active(request, false);
                }
            }
            // ... and release the one withheld last: an item that went
            // dead with it comes back.
            15 => {
                let Some(request) = withheld.pop() else { continue };
                for state in [&mut cached, &mut uncached] {
                    state.books.set_request_active(request, true);
                }
            }
            // A late request due at the horizon for an item whose hold
            // row is pinned there: the row cannot move, so the tree
            // stays and only the pending set grows.
            16 => {
                let pinned = pick % items;
                let item = DataItemId::new((pinned - usize::from(pinned % 4 == 3)) as u32);
                let machine = MachineId::new((time as usize % machines) as u32);
                let request = Request::new(item, machine, horizon, Priority::new(pick as u8 % 3));
                prop_assert_eq!(
                    &cached.books.add_request(request),
                    &uncached.books.add_request(request)
                );
            }
            // A latest-slot commit (the alap rule) to one of a step's
            // satisfiable destinations, by its deadline.
            18 => {
                if steps.is_empty() {
                    continue;
                }
                let step = &steps[pick % steps.len()];
                let satisfiable: Vec<_> = step.satisfiable().collect();
                let outlook = satisfiable[time as usize % satisfiable.len()];
                let machine = cached.books.scenario().request(outlook.request).destination();
                let n = cached.plan.commit_path_latest(
                    &mut cached.books,
                    step.item,
                    machine,
                    outlook.deadline,
                );
                prop_assert_eq!(
                    n,
                    uncached.plan.commit_path_latest(
                        &mut uncached.books,
                        step.item,
                        machine,
                        outlook.deadline
                    )
                );
            }
            // A decision taken back, as the daemon refuses one and a
            // climb trial that fails: a savepoint on a step's item, a
            // late request for it with the horizon moved out to its
            // collection, up to two commits of the item's own steps, a
            // read of every item, and the rollback.
            19 => {
                if steps.is_empty() {
                    continue;
                }
                let item = steps[pick % steps.len()].item;
                let savepoint = cached.books.savepoint(item);
                prop_assert_eq!(
                    format!("{savepoint:?}"),
                    format!("{:?}", uncached.books.savepoint(item))
                );
                if pick % 2 == 0 {
                    let machine = MachineId::new((time as usize % machines) as u32);
                    let deadline = SimTime::from_secs(8 * time);
                    let request = Request::new(item, machine, deadline, Priority::LOW);
                    let added = cached.books.add_request(request);
                    prop_assert_eq!(&added, &uncached.books.add_request(request));
                    let collected = deadline + cached.books.scenario().gc_delay();
                    if added.is_ok() && collected > cached.books.scenario().horizon() {
                        let moved = cached.books.set_horizon(collected);
                        prop_assert_eq!(moved, uncached.books.set_horizon(collected));
                    }
                }
                for _ in 0..2 {
                    let own: Vec<CandidateStep> =
                        cached.plan.candidate_steps(&cached.books, item).to_vec();
                    prop_assert_eq!(&own[..], uncached.plan.candidate_steps(&uncached.books, item));
                    let Some(step) = own.first() else { break };
                    let dests: Vec<MachineId> = (step.satisfiable())
                        .map(|d| cached.books.scenario().request(d.request).destination())
                        .collect();
                    let n = cached.plan.commit_paths(&mut cached.books, item, &dests);
                    prop_assert_eq!(
                        n,
                        uncached.plan.commit_paths(&mut uncached.books, item, &dests)
                    );
                }
                enumerations(&mut cached, &mut uncached)?;
                cached.books.rollback(savepoint.clone());
                uncached.books.rollback(savepoint);
            }
            // A climb trial's release: a booked transfer unbooked and its
            // item re-derived without it, every item read on what that
            // frees, then the transfer rebooked and the item re-derived
            // with it again.
            20 => {
                if booked.is_empty() {
                    continue;
                }
                let t = booked[pick % booked.len()];
                let others: Vec<Transfer> =
                    booked.iter().filter(|b| b.item == t.item && **b != t).copied().collect();
                let all: Vec<Transfer> =
                    booked.iter().filter(|b| b.item == t.item).copied().collect();
                for state in [&mut cached, &mut uncached] {
                    state.books.unbook(&t);
                    state.books.rederive_item(t.item, &others);
                }
                enumerations(&mut cached, &mut uncached)?;
                for state in [&mut cached, &mut uncached] {
                    state.books.rebook(&t);
                    state.books.rederive_item(t.item, &all);
                }
            }
            // The repair loop after a loss: a copy of a booked transfer's
            // item lost at its receiver on arrival, the item re-derived
            // from its booked transfers, and the ones that skips unbooked
            // and forgotten.
            21 => {
                if booked.is_empty() {
                    continue;
                }
                let t = booked[pick % booked.len()];
                let removed = cached.books.remove_copies(t.item, t.to, t.arrival);
                prop_assert_eq!(removed, uncached.books.remove_copies(t.item, t.to, t.arrival));
                let theirs: Vec<Transfer> =
                    booked.iter().filter(|b| b.item == t.item).copied().collect();
                let skipped = cached.books.rederive_item(t.item, &theirs);
                prop_assert_eq!(&skipped, &uncached.books.rederive_item(t.item, &theirs));
                for state in [&mut cached, &mut uncached] {
                    for s in &skipped {
                        state.books.unbook(s);
                    }
                }
                booked.retain(|b| !skipped.contains(b));
            }
            // A loss at a delivered destination, at or after the
            // delivery: the request is pending again. One time in
            // three a loss at the horizon comes first: it takes the
            // copy off the record but (the deadline being earlier)
            // leaves the request delivered, so that the second loss
            // removes nothing and reopens it all the same.
            _ => {
                let delivered: Vec<RequestId> = cached
                    .books
                    .scenario()
                    .request_ids()
                    .filter(|&r| cached.books.is_delivered(r))
                    .collect();
                if delivered.is_empty() {
                    continue;
                }
                let id = delivered[pick % delivered.len()];
                let request = *cached.books.scenario().request(id);
                let at = cached.books.delivery_of(id).expect("delivered").at;
                let (item, machine) = (request.item(), request.destination());
                let instants = match time % 3 {
                    0 => vec![at],
                    1 => vec![request.deadline()],
                    _ => vec![horizon, request.deadline()],
                };
                for lost_at in instants {
                    let removed = cached.books.remove_copies(item, machine, lost_at);
                    prop_assert_eq!(removed, uncached.books.remove_copies(item, machine, lost_at));
                    enumerations(&mut cached, &mut uncached)?;
                }
            }
        }
    }

    enumerations(&mut cached, &mut uncached)?;
    prop_assert_eq!(&cached.books.take_transfers(), &uncached.books.take_transfers());
    prop_assert_eq!(&cached.books.into_schedule(), &uncached.books.into_schedule());
    Ok(())
}
