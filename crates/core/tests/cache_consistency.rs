//! Lockstep equivalence of the tree-cache modes (DESIGN.md §3).
//!
//! Two `SchedulerState`s — caching with incremental repair, and no
//! caching at all (the from-scratch reference) — are driven through the
//! same randomized sequence of commits, evictions (copy losses), link
//! outages, past-blocking, and stale re-admissions. At every step their
//! candidate enumerations must agree, and the final schedules must be
//! equal. This pins the "resources are only consumed" invalidation
//! argument across *every* mutation path the dynamic layer exercises,
//! not just the commit-driven ones the unit tests cover.

use dstage_core::state::SchedulerState;
use dstage_model::ids::{DataItemId, MachineId, VirtualLinkId};
use dstage_model::time::SimTime;
use dstage_workload::{generate, GeneratorConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_and_uncached_modes_stay_in_lockstep(
        seed in 0u64..8,
        ops in prop::collection::vec((0u8..8, 0usize..64, 0u64..900), 1..20),
    ) {
        let scenario = generate(&GeneratorConfig::small(), seed);
        let items = scenario.item_count();
        let machines = scenario.network().machine_count();
        let links = scenario.network().link_count();

        let mut repairing = SchedulerState::with_caching(&scenario, true);
        let mut uncached = SchedulerState::with_caching(&scenario, false);

        let mut now = SimTime::ZERO;
        for &(op, pick, time) in &ops {
            match op {
                // Commit a candidate step — the common case, so several
                // selector values map here. Even ops commit the single
                // hop; odd ops commit whole paths to the step's
                // destinations (both commit surfaces journal).
                0..=3 => {
                    let steps = repairing.all_candidate_steps();
                    prop_assert_eq!(&steps, &uncached.all_candidate_steps());
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
                            .map(|d| scenario.request(d.request).destination())
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
                _ => {
                    let steps = repairing.all_candidate_steps();
                    prop_assert_eq!(&steps, &uncached.all_candidate_steps());
                    if steps.is_empty() {
                        continue;
                    }
                    let step = steps[pick % steps.len()].clone();
                    let ok = repairing.try_commit_stale_hop(step.item, step.hop);
                    prop_assert_eq!(ok, uncached.try_commit_stale_hop(step.item, step.hop));
                }
            }
        }

        let (repaired_schedule, _) = repairing.into_outcome();
        let (uncached_schedule, _) = uncached.into_outcome();
        prop_assert_eq!(&repaired_schedule, &uncached_schedule);
    }
}
