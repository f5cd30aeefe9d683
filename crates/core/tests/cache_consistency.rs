//! Lockstep equivalence of the tree-cache modes (DESIGN.md §3).
//!
//! Two `SchedulerState`s — caching with read-side validation and
//! incremental repair, and no caching at all (the from-scratch reference)
//! — are driven through the same randomized sequence of commits, evictions
//! (copy losses), link outages, past-blocking, stale re-admissions, late
//! and withheld requests and commits to machines nobody asked for. Before
//! every step their candidate enumerations must agree, and the final
//! schedules must be equal. This pins the "resources are only consumed" argument across
//! *every* mutation path the dynamic layer and the daemon exercise, and
//! the two ways a read can leave the set of destinations a cached tree was
//! last validated for: a request appended to an item whose tree survives,
//! and a direct commit to an arbitrary machine.

use dstage_core::state::SchedulerState;
use dstage_model::ids::{DataItemId, MachineId, RequestId, VirtualLinkId};
use dstage_model::request::{Priority, Request};
use dstage_model::time::SimTime;
use dstage_workload::grid::{generate_grid, GridConfig};
use dstage_workload::Family;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_and_uncached_modes_stay_in_lockstep(
        family in 0usize..6,
        seed in 0u64..8,
        ops in prop::collection::vec((0u8..14, 0usize..64, 0u64..900), 1..40),
    ) {
        // The small paper, grid and line families, where nearly every
        // machine is somebody's destination — and a 4×4 grid with two
        // requests per item, where most of a tree is read by nobody.
        let sparse = GridConfig { rows: 4, cols: 4, items: 6, requests: 12, ..GridConfig::default() };
        let scenario = match family {
            0 => Family::Paper.generate_small(seed),
            1 => Family::Grid.generate_small(seed),
            2 => Family::Line.generate_small(seed),
            _ => generate_grid(&sparse, seed),
        };
        let items = scenario.item_count();
        let machines = scenario.network().machine_count();
        let links = scenario.network().link_count();

        let mut repairing = SchedulerState::with_caching(&scenario, true);
        let mut uncached = SchedulerState::with_caching(&scenario, false);

        // A request due at the horizon pins its item's hold row at the
        // horizon on every machine: later requests for three items in four
        // change no hold from the start, so their cached trees survive
        // them. The fourth gets there with its first late request.
        let horizon = scenario.horizon();
        for (i, item) in scenario.item_ids().enumerate().filter(|(i, _)| i % 4 != 3) {
            let far = MachineId::new(((seed as usize + i) % machines) as u32);
            let pin = Request::new(item, far, horizon, Priority::LOW);
            prop_assert_eq!(repairing.add_request(pin), uncached.add_request(pin));
        }

        let mut now = SimTime::ZERO;
        for &(op, pick, time) in &ops {
            let steps = repairing.all_candidate_steps();
            prop_assert_eq!(&steps, &uncached.all_candidate_steps());
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
                        for state in [&mut repairing, &mut uncached] {
                            state.commit_hop(step.item, step.hop);
                        }
                    } else {
                        let dests: Vec<MachineId> = step
                            .destinations
                            .iter()
                            .map(|d| repairing.scenario().request(d.request).destination())
                            .collect();
                        let n = repairing.commit_paths(step.item, &dests);
                        prop_assert_eq!(n, uncached.commit_paths(step.item, &dests));
                    }
                }
                // Eviction: a copy loss at a random machine, as the
                // dynamic layer's disturbance replay issues it.
                4 => {
                    let item = DataItemId::new((pick % items) as u32);
                    let machine = MachineId::new((time as usize % machines) as u32);
                    let removed = repairing.remove_copies(item, machine, now);
                    prop_assert_eq!(removed, uncached.remove_copies(item, machine, now));
                }
                // Link outage from the current instant.
                5 => {
                    let link = VirtualLinkId::new((pick % links) as u32);
                    for state in [&mut repairing, &mut uncached] {
                        state.apply_link_outage(link, now);
                    }
                }
                // Advance the clock and wall off the past (replanning).
                6 => {
                    now = now.max(SimTime::from_secs(time));
                    for state in [&mut repairing, &mut uncached] {
                        state.block_past(now);
                    }
                }
                // Re-admission of a stale hop: plan from the current tree,
                // then try the commit — success must agree across modes.
                7 => {
                    if steps.is_empty() {
                        continue;
                    }
                    let step = steps[pick % steps.len()].clone();
                    let ok = repairing.try_commit_stale_hop(step.item, step.hop);
                    prop_assert_eq!(ok, uncached.try_commit_stale_hop(step.item, step.hop));
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
                    let added = repairing.add_request(request);
                    prop_assert_eq!(&added, &uncached.add_request(request));
                }
                // Release or withhold a request, as the dynamic layer and
                // the daemon do: a released one is a destination its
                // item's cached tree was not being validated for.
                11 => {
                    let count = repairing.scenario().request_count();
                    let request = RequestId::new((time as usize % count) as u32);
                    for state in [&mut repairing, &mut uncached] {
                        state.set_request_active(request, pick % 2 == 0);
                    }
                }
                // A direct commit to a machine that need be nobody's
                // pending destination (the exact reference and the
                // baselines do this): its path was never validated.
                _ => {
                    let item = DataItemId::new((pick % items) as u32);
                    let machine = MachineId::new((time as usize % machines) as u32);
                    if !uncached.tree(item).is_reachable(machine) {
                        continue;
                    }
                    let n = repairing.commit_path(item, machine);
                    prop_assert_eq!(n, uncached.commit_path(item, machine));
                }
            }
        }

        let steps = repairing.all_candidate_steps();
        prop_assert_eq!(&steps, &uncached.all_candidate_steps());
        let (repaired_schedule, _) = repairing.into_outcome();
        let (uncached_schedule, _) = uncached.into_outcome();
        prop_assert_eq!(&repaired_schedule, &uncached_schedule);
    }
}
