//! Lockstep equivalence of the tree-cache modes (DESIGN.md §3).
//!
//! Two `SchedulerState`s — caching with read-side validation and steps
//! kept with their tree, and no caching at all (the from-scratch
//! reference) — are driven through the same randomized
//! sequence of commits, evictions (copy losses), link outages,
//! past-blocking, stale re-admissions, late and withheld requests and
//! commits to machines nobody asked for. Before every step their candidate
//! enumerations must agree, and the final schedules must be equal. This
//! pins the "resources are only consumed" argument across *every* mutation
//! path the dynamic layer and the daemon exercise; the two ways a read can
//! leave the set of destinations a cached tree was last validated for (a
//! request appended to an item whose tree survives, a direct commit to an
//! arbitrary machine); and the three ways an item's pending set can change
//! under a tree that stays cached, with the steps read off it (a request
//! withheld or released, a late request whose hold row is pinned, a loss
//! at a delivered destination) — on draws where most items offer steps and
//! on an oversubscribed one where most are dead until such a change
//! revives them.

use dstage_core::schedule::Transfer;
use dstage_core::state::{CandidateStep, SchedulerState};
use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::request::{Priority, Request};
use dstage_model::time::SimTime;
use dstage_workload::grid::{generate_grid, GridConfig};
use dstage_workload::Family;
use proptest::prelude::*;

/// Both modes' enumerations, which must agree.
fn enumerations(
    cached: &mut SchedulerState<'_>,
    uncached: &mut SchedulerState<'_>,
) -> Result<Vec<CandidateStep>, TestCaseError> {
    let steps: Vec<CandidateStep> = cached.all_candidate_steps().cloned().collect();
    let reference: Vec<CandidateStep> = uncached.all_candidate_steps().cloned().collect();
    prop_assert_eq!(&steps, &reference);
    Ok(steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_and_uncached_modes_stay_in_lockstep(
        family in 0usize..8,
        seed in 0u64..8,
        ops in prop::collection::vec((0u8..18, 0usize..64, 0u64..900), 1..40),
    ) {
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

        let mut cached = SchedulerState::with_caching(&scenario, true);
        let mut uncached = SchedulerState::with_caching(&scenario, false);

        // A request due at the horizon pins its item's hold row at the
        // horizon on every machine: later requests for three items in four
        // change no hold from the start, so their cached trees survive
        // them. The fourth gets there with its first late request.
        let horizon = scenario.horizon();
        for (i, item) in scenario.item_ids().enumerate().filter(|(i, _)| i % 4 != 3) {
            let far = MachineId::new(((seed as usize + i) % machines) as u32);
            let pin = Request::new(item, far, horizon, Priority::LOW);
            prop_assert_eq!(cached.add_request(pin), uncached.add_request(pin));
        }

        let mut now = SimTime::ZERO;
        let mut withheld: Vec<RequestId> = Vec::new();
        for &(op, pick, time) in &ops {
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
                            state.commit_hop(step.item, step.hop);
                        }
                    } else {
                        let dests: Vec<MachineId> = step
                            .destinations
                            .iter()
                            .map(|d| cached.scenario().request(d.request).destination())
                            .collect();
                        let n = cached.commit_paths(step.item, &dests);
                        prop_assert_eq!(n, uncached.commit_paths(step.item, &dests));
                    }
                }
                // Eviction: a copy loss at a random machine, as the
                // dynamic layer's disturbance replay issues it.
                4 => {
                    let item = DataItemId::new((pick % items) as u32);
                    let machine = MachineId::new((time as usize % machines) as u32);
                    let removed = cached.remove_copies(item, machine, now);
                    prop_assert_eq!(removed, uncached.remove_copies(item, machine, now));
                }
                // Link outage from the current instant.
                5 => {
                    let link = VirtualLinkId::new((pick % links) as u32);
                    for state in [&mut cached, &mut uncached] {
                        state.apply_link_outage(link, now);
                    }
                }
                // Advance the clock and wall off the past (replanning).
                6 => {
                    now = now.max(SimTime::from_secs(time));
                    for state in [&mut cached, &mut uncached] {
                        state.block_past(now);
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
                    let ok = cached.book_transfer(&t).is_ok();
                    prop_assert_eq!(ok, uncached.book_transfer(&t).is_ok());
                }
                // A late request, as the daemon appends them: a new
                // destination for an item whose tree may be cached. Where
                // it moves the item's hold row the tree is dropped; where
                // the row is pinned the tree stays and is read for a
                // machine it was not being validated for.
                8..=10 => {
                    let item = DataItemId::new((pick % items) as u32);
                    let machine = MachineId::new((time as usize % machines) as u32);
                    let deadline = if op == 8 { SimTime::from_secs(8 * time) } else { horizon };
                    let request =
                        Request::new(item, machine, deadline, Priority::new(pick as u8 % 3));
                    let added = cached.add_request(request);
                    prop_assert_eq!(&added, &uncached.add_request(request));
                }
                // Release or withhold a request, as the dynamic layer and
                // the daemon do: a released one is a destination its
                // item's cached tree was not being validated for.
                11 => {
                    let count = cached.scenario().request_count();
                    let request = RequestId::new((time as usize % count) as u32);
                    for state in [&mut cached, &mut uncached] {
                        state.set_request_active(request, pick % 2 == 0);
                    }
                }
                // A direct commit to a machine that need be nobody's
                // pending destination (the exact reference and the
                // baselines do this): its path was never validated.
                12..=13 => {
                    let item = DataItemId::new((pick % items) as u32);
                    let machine = MachineId::new((time as usize % machines) as u32);
                    if !uncached.tree(item, &[machine]).is_reachable(machine) {
                        continue;
                    }
                    let n = cached.commit_path(item, machine);
                    prop_assert_eq!(n, uncached.commit_path(item, machine));
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
                        state.set_request_active(request, false);
                    }
                }
                // ... and release the one withheld last: an item that went
                // dead with it comes back.
                15 => {
                    let Some(request) = withheld.pop() else { continue };
                    for state in [&mut cached, &mut uncached] {
                        state.set_request_active(request, true);
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
                    prop_assert_eq!(&cached.add_request(request), &uncached.add_request(request));
                }
                // A loss at a delivered destination, at or after the
                // delivery: the request is pending again. One time in
                // three a loss at the horizon comes first: it takes the
                // copy off the record but (the deadline being earlier)
                // leaves the request delivered, so that the second loss
                // removes nothing and reopens it all the same.
                _ => {
                    let delivered: Vec<RequestId> = cached
                        .scenario()
                        .request_ids()
                        .filter(|&r| cached.is_delivered(r))
                        .collect();
                    if delivered.is_empty() {
                        continue;
                    }
                    let id = delivered[pick % delivered.len()];
                    let request = *cached.scenario().request(id);
                    let at = cached.delivery_of(id).expect("delivered").at;
                    let (item, machine) = (request.item(), request.destination());
                    let instants = match time % 3 {
                        0 => vec![at],
                        1 => vec![request.deadline()],
                        _ => vec![horizon, request.deadline()],
                    };
                    for lost_at in instants {
                        let removed = cached.remove_copies(item, machine, lost_at);
                        prop_assert_eq!(removed, uncached.remove_copies(item, machine, lost_at));
                        enumerations(&mut cached, &mut uncached)?;
                    }
                }
            }
        }

        enumerations(&mut cached, &mut uncached)?;
        let (cached_schedule, _) = cached.into_outcome();
        let (uncached_schedule, _) = uncached.into_outcome();
        prop_assert_eq!(&cached_schedule, &uncached_schedule);
    }
}
