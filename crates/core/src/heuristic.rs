//! Heuristic selection machinery shared by the three schedulers.
//!
//! Each iteration, every heuristic (1) enumerates the candidate next
//! communication steps across all items, (2) scores them with the active
//! cost criterion, and (3) commits some portion of the winning step's
//! shortest path. This module implements (1)–(2); the per-heuristic
//! modules implement (3).

use serde::{Deserialize, Serialize};

use dstage_model::ids::RequestId;
use dstage_model::request::PriorityWeights;
use dstage_model::scenario::Scenario;

use crate::cost::{cost_c1, step_cost_over, CostCriterion, DestinationCost, EuWeights};
use crate::metrics::RunMetrics;
use crate::schedule::Schedule;
use crate::state::{CandidateStep, SchedulerState};

/// Configuration shared by the heuristics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeuristicConfig {
    /// Which of the four cost criteria scores candidate steps.
    pub criterion: CostCriterion,
    /// The `W_E`/`W_U` weights (ignored by C3).
    pub eu: EuWeights,
    /// The priority weighting `W[0..=P]`.
    pub priority_weights: PriorityWeights,
    /// Whether unchanged shortest-path trees may be reused between
    /// iterations (an exact optimization; disable only for the ablation).
    pub caching: bool,
}

impl HeuristicConfig {
    /// A configuration with the paper's best pairing: `Cost₄`, E-U ratio
    /// `10^0 = 1`, and the 1/10/100 priority weighting.
    #[must_use]
    pub fn paper_best() -> Self {
        HeuristicConfig {
            criterion: CostCriterion::C4,
            eu: EuWeights::from_log10_ratio(0.0),
            priority_weights: PriorityWeights::paper_1_10_100(),
            caching: true,
        }
    }
}

/// The three data staging heuristics of §4.5–4.7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Heuristic {
    /// §4.5: schedule one hop of the single most important request, then
    /// re-plan.
    PartialPath,
    /// §4.6: schedule the whole path of the winning step's chosen
    /// destination, then re-plan.
    FullPathOneDestination,
    /// §4.7: schedule the paths to *all* satisfiable destinations sharing
    /// the winning step's next machine, then re-plan.
    FullPathAllDestinations,
    /// Extension (DDCCast): as-late-as-possible placement — commit the
    /// winning destination's path against the *latest* feasible gaps
    /// before its deadline, preserving early capacity headroom.
    Alap,
    /// Extension (RCD): rapidly-close-to-deadline admission — commit the
    /// candidate step whose tightest destination has the least deadline
    /// slack, so near-deadline work is placed first.
    Rcd,
}

impl Heuristic {
    /// The paper's three heuristics, in paper order.
    pub const ALL: [Heuristic; 3] = [
        Heuristic::PartialPath,
        Heuristic::FullPathOneDestination,
        Heuristic::FullPathAllDestinations,
    ];

    /// The paper's three heuristics plus the deadline-headroom
    /// extensions, in figure order.
    pub const EXTENDED: [Heuristic; 5] = [
        Heuristic::PartialPath,
        Heuristic::FullPathOneDestination,
        Heuristic::FullPathAllDestinations,
        Heuristic::Alap,
        Heuristic::Rcd,
    ];

    /// The figure label used in the paper ("partial", "full_one",
    /// "full_all") or the extension name ("alap", "rcd").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Heuristic::PartialPath => "partial",
            Heuristic::FullPathOneDestination => "full_one",
            Heuristic::FullPathAllDestinations => "full_all",
            Heuristic::Alap => "alap",
            Heuristic::Rcd => "rcd",
        }
    }

    /// Parses a scheduler name as printed by [`Heuristic::label`].
    /// Hyphenated spellings of the underscore labels are accepted too.
    #[must_use]
    pub fn from_label(name: &str) -> Option<Heuristic> {
        Heuristic::EXTENDED
            .into_iter()
            .find(|h| h.label() == name || h.label().replace('_', "-") == name)
    }

    /// The cost criteria applicable to this heuristic (C1 does not apply
    /// to full path/all destinations).
    #[must_use]
    pub fn criteria(self) -> &'static [CostCriterion] {
        match self {
            Heuristic::FullPathAllDestinations => &CostCriterion::MULTI_DESTINATION,
            _ => &CostCriterion::ALL,
        }
    }
}

impl core::fmt::Display for Heuristic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of one scheduling run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleOutcome {
    /// The committed transfers and resulting deliveries.
    pub schedule: Schedule,
    /// Execution counters.
    pub metrics: RunMetrics,
}

/// Runs the chosen heuristic on a scenario.
///
/// # Panics
///
/// Panics if `heuristic` is [`Heuristic::FullPathAllDestinations`] and
/// `config.criterion` is [`CostCriterion::C1`]: that pairing "did not make
/// sense and was not examined" (§6) because C1 cannot express sending one
/// item to several destinations.
///
/// # Examples
///
/// ```
/// use dstage_core::heuristic::{run, Heuristic, HeuristicConfig};
/// use dstage_workload::small::two_hop_chain;
///
/// let scenario = two_hop_chain();
/// let outcome = run(&scenario, Heuristic::FullPathOneDestination,
///     &HeuristicConfig::paper_best());
/// assert!(outcome.schedule.deliveries().len() > 0);
/// ```
#[must_use]
pub fn run(scenario: &Scenario, heuristic: Heuristic, config: &HeuristicConfig) -> ScheduleOutcome {
    assert!(
        !(heuristic == Heuristic::FullPathAllDestinations && config.criterion == CostCriterion::C1),
        "the full path/all destinations heuristic cannot use Cost1 (paper §6)"
    );
    let started = std::time::Instant::now();
    let mut state = SchedulerState::with_caching(scenario, config.caching);
    drive_state(&mut state, heuristic, config);
    state.set_elapsed(started.elapsed());
    let (schedule, metrics) = state.into_outcome();
    ScheduleOutcome { schedule, metrics }
}

/// Drives the chosen heuristic's main loop on an already-prepared
/// [`SchedulerState`] until no request can make further progress.
///
/// This is the advanced entry point used by the dynamic (online) layer
/// and the admission daemon, which drive it on a live state they repair
/// in place between drives; most callers want [`run`].
///
/// # Panics
///
/// Panics on the [`Heuristic::FullPathAllDestinations`] +
/// [`CostCriterion::C1`] pairing, as for [`run`].
pub fn drive_state(state: &mut SchedulerState<'_>, heuristic: Heuristic, config: &HeuristicConfig) {
    assert!(
        !(heuristic == Heuristic::FullPathAllDestinations && config.criterion == CostCriterion::C1),
        "the full path/all destinations heuristic cannot use Cost1 (paper §6)"
    );
    while step_state(state, heuristic, config) {}
}

/// One iteration of the chosen heuristic's main loop: pick the winning
/// step and commit its share of the shortest path. `false`, with nothing
/// committed, when no request can make progress.
pub(crate) fn step_state(
    state: &mut SchedulerState<'_>,
    heuristic: Heuristic,
    config: &HeuristicConfig,
) -> bool {
    match heuristic {
        Heuristic::PartialPath => crate::partial::step(state, config),
        Heuristic::FullPathOneDestination => crate::full_one::step(state, config),
        Heuristic::FullPathAllDestinations => crate::full_all::step(state, config),
        Heuristic::Alap => crate::alap::step(state, config),
        Heuristic::Rcd => crate::rcd::step(state, config),
    }
}

/// The winning candidate of one selection round.
#[derive(Debug, Clone)]
pub(crate) struct Choice {
    /// The winning step.
    pub step: CandidateStep,
    /// For C1 (and for full path/one destination): the specific
    /// destination the cost named.
    pub destination: Option<RequestId>,
    /// The winning cost value.
    #[allow(dead_code)] // read by tests and debugging
    pub cost: f64,
}

/// Scores all candidate steps and returns the minimum-cost choice, or
/// `None` when no request can make progress (termination condition for
/// every heuristic).
///
/// Ties keep the first candidate in enumeration order (items by id, steps
/// by receiving machine then link, destinations by request id), so runs
/// are deterministic.
pub(crate) fn best_choice(
    state: &mut SchedulerState<'_>,
    config: &HeuristicConfig,
) -> Option<Choice> {
    let mut best: Option<(f64, &CandidateStep, Option<RequestId>)> = None;
    let mut consider = |cost: f64, step, destination| {
        if best.is_none_or(|(lowest, _, _)| cost < lowest) {
            best = Some((cost, step, destination));
        }
    };
    for step in state.all_candidate_steps() {
        let costs = destination_costs(&config.priority_weights, step);
        if config.criterion == CostCriterion::C1 {
            for (d, dc) in step.destinations.iter().zip(costs) {
                if dc.satisfiable {
                    consider(cost_c1(config.eu, dc), step, Some(d.request));
                }
            }
        } else {
            consider(step_cost_over(config.criterion, config.eu, costs), step, None);
        }
    }
    best.map(|(cost, step, destination)| Choice { step: step.clone(), destination, cost })
}

/// Picks the "lowest cost destination" (§4.6) a `full path/one
/// destination` commit should target when the criterion does not name one.
///
/// For C2/C4 the per-destination cost is the C1 form
/// `−W_E·Efp − W_U·Urgency` under the same weights; for C3 it is the
/// criterion's own per-destination term `Efp / Urgency`. Ties go to the
/// lowest request id. Only satisfiable destinations are considered.
pub(crate) fn lowest_cost_destination(
    config: &HeuristicConfig,
    step: &CandidateStep,
) -> Option<RequestId> {
    let cost = |dc: DestinationCost| match config.criterion {
        CostCriterion::C3 => {
            dc.effective_priority / dc.urgency.min(-crate::cost::C3_URGENCY_EPSILON_SECS)
        }
        CostCriterion::C3Floor => {
            dc.effective_priority / dc.urgency.min(-crate::cost::C3_FLOOR_SECS)
        }
        _ => cost_c1(config.eu, dc),
    };
    step.destinations
        .iter()
        .zip(destination_costs(&config.priority_weights, step))
        .filter(|(_, dc)| dc.satisfiable)
        .map(|(d, dc)| (d.request, cost(dc)))
        // lower request id wins ties
        .min_by(|(ra, a), (rb, b)| a.partial_cmp(b).expect("costs are finite").then(ra.cmp(rb)))
        .map(|(request, _)| request)
}

/// The per-destination cost ingredients of a step, in the step's own
/// (request-id) order.
fn destination_costs<'s>(
    weights: &'s PriorityWeights,
    step: &'s CandidateStep,
) -> impl Iterator<Item = DestinationCost> + Clone + 's {
    step.destinations
        .iter()
        .map(|d| DestinationCost::new(d.arrival, d.deadline, weights.weight(d.priority)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::EuWeights;
    use crate::state::SchedulerState;
    use dstage_model::ids::RequestId;
    use dstage_workload::small::{contended_link, fan_out};

    fn config(criterion: CostCriterion, x: f64) -> HeuristicConfig {
        HeuristicConfig {
            criterion,
            eu: EuWeights::from_log10_ratio(x),
            priority_weights: PriorityWeights::paper_1_10_100(),
            caching: true,
        }
    }

    #[test]
    fn best_choice_picks_the_high_priority_request_under_contention() {
        let s = contended_link();
        let mut state = SchedulerState::new(&s);
        // At a priority-dominant ratio, the high-priority item (item 0,
        // request 0) must win the contended link under every criterion.
        for criterion in CostCriterion::ALL {
            let choice = best_choice(&mut state, &config(criterion, 3.0)).expect("steps exist");
            assert_eq!(
                choice.step.item,
                dstage_model::ids::DataItemId::new(0),
                "criterion {criterion} picked the wrong item"
            );
            if criterion == CostCriterion::C1 {
                assert_eq!(choice.destination, Some(RequestId::new(0)));
            }
        }
    }

    #[test]
    fn best_choice_returns_none_when_nothing_is_satisfiable() {
        let s = dstage_workload::small::impossible_request();
        let mut state = SchedulerState::new(&s);
        // Deliver the easy request, leaving only the impossible one.
        state.commit_path(
            dstage_model::ids::DataItemId::new(1),
            s.request(RequestId::new(1)).destination(),
        );
        assert!(best_choice(&mut state, &config(CostCriterion::C4, 0.0)).is_none());
    }

    #[test]
    fn lowest_cost_destination_respects_priority_at_high_ratio() {
        let s = fan_out();
        let mut state = SchedulerState::new(&s);
        let cfg = config(CostCriterion::C4, 4.0);
        let choice = best_choice(&mut state, &cfg).unwrap();
        // The winning step fans out to three destinations of item 0; at a
        // priority-dominant ratio the HIGH one (request 0) is chosen.
        let dest = lowest_cost_destination(&cfg, &choice.step).unwrap();
        assert_eq!(dest, RequestId::new(0));
    }

    #[test]
    fn lowest_cost_destination_trades_priority_against_urgency() {
        use dstage_model::prelude::*;
        // One item fans out to two destinations: `a` is high priority with
        // a loose deadline, `b` is low priority with a tight one. The
        // priority-dominant ratio must pick `a`; the urgency-dominant one
        // must pick `b`.
        let mut b = NetworkBuilder::new();
        let src = b.add_machine(Machine::new("src", Bytes::from_mib(4)));
        let hub = b.add_machine(Machine::new("hub", Bytes::from_mib(4)));
        let da = b.add_machine(Machine::new("a", Bytes::from_mib(4)));
        let db = b.add_machine(Machine::new("b", Bytes::from_mib(4)));
        let horizon = SimTime::from_hours(2);
        for (x, y) in [(src, hub), (hub, da), (hub, db)] {
            b.add_link(VirtualLink::new(x, y, SimTime::ZERO, horizon, BitsPerSec::new(8_000)));
        }
        let s = Scenario::builder(b.build())
            .add_item(DataItem::new(
                "d",
                Bytes::new(10_000),
                vec![DataSource::new(src, SimTime::ZERO)],
            ))
            .add_request(Request::new(
                DataItemId::new(0),
                da,
                SimTime::from_mins(60),
                Priority::HIGH,
            ))
            .add_request(Request::new(DataItemId::new(0), db, SimTime::from_mins(5), Priority::LOW))
            .build()
            .unwrap();
        let mut state = SchedulerState::new(&s);
        let steps = state.candidate_steps(dstage_model::ids::DataItemId::new(0));
        let step = &steps[0];
        assert_eq!(step.destinations.len(), 2);
        let priority_pick = lowest_cost_destination(&config(CostCriterion::C4, 4.0), step).unwrap();
        assert_eq!(priority_pick, RequestId::new(0), "priority-dominant picks the high request");
        let urgency_pick = lowest_cost_destination(&config(CostCriterion::C4, -3.0), step).unwrap();
        assert_eq!(urgency_pick, RequestId::new(1), "urgency-dominant picks the tight deadline");
    }

    #[test]
    fn drive_state_resumes_partially_scheduled_state() {
        let s = fan_out();
        let mut state = SchedulerState::new(&s);
        state.commit_path(
            dstage_model::ids::DataItemId::new(0),
            s.request(RequestId::new(0)).destination(),
        );
        drive_state(&mut state, Heuristic::FullPathOneDestination, &config(CostCriterion::C4, 0.0));
        let (schedule, _) = state.into_outcome();
        // Everything satisfiable ends satisfied even from a partial start.
        assert_eq!(schedule.deliveries().len(), s.request_count());
        schedule.validate(&s).unwrap();
    }

    #[test]
    fn heuristic_labels_match_figures() {
        assert_eq!(Heuristic::PartialPath.to_string(), "partial");
        assert_eq!(Heuristic::FullPathOneDestination.to_string(), "full_one");
        assert_eq!(Heuristic::FullPathAllDestinations.to_string(), "full_all");
        assert_eq!(Heuristic::Alap.to_string(), "alap");
        assert_eq!(Heuristic::Rcd.to_string(), "rcd");
    }

    #[test]
    fn from_label_round_trips_and_accepts_hyphens() {
        for h in Heuristic::EXTENDED {
            assert_eq!(Heuristic::from_label(h.label()), Some(h));
        }
        assert_eq!(Heuristic::from_label("full-one"), Some(Heuristic::FullPathOneDestination));
        assert_eq!(Heuristic::from_label("full-all"), Some(Heuristic::FullPathAllDestinations));
        assert_eq!(Heuristic::from_label("fastest"), None);
        assert_eq!(Heuristic::from_label(""), None);
    }

    #[test]
    fn criteria_sets_per_heuristic() {
        assert_eq!(Heuristic::PartialPath.criteria().len(), 4);
        assert_eq!(Heuristic::FullPathOneDestination.criteria().len(), 4);
        let fa = Heuristic::FullPathAllDestinations.criteria();
        assert_eq!(fa.len(), 3);
        assert!(!fa.contains(&CostCriterion::C1));
    }

    #[test]
    fn paper_best_config() {
        let c = HeuristicConfig::paper_best();
        assert_eq!(c.criterion, CostCriterion::C4);
        assert_eq!(c.priority_weights.weight(dstage_model::request::Priority::HIGH), 100);
        assert!(c.caching);
    }
}
