//! The scheduling loop of the four heuristics.
//!
//! Each iteration, every heuristic (1) enumerates the candidate next
//! communication steps across all items, (2) picks one by the active cost
//! criterion, and (3) commits some portion of the winning step's shortest
//! path: one hop, one path, the union of the paths, or the latest-slot
//! path. One step function, `step_state`, maps a [`Heuristic`] to its
//! commit; [`run`] and [`drive_state`] loop it.

use serde::{Deserialize, Serialize};

use dstage_model::ids::RequestId;
use dstage_model::request::PriorityWeights;
use dstage_model::scenario::Scenario;

use crate::bookings::Bookings;
use crate::cost::{cost_c1, step_cost_over, CostCriterion, DestinationCost, EuWeights};
use crate::metrics::RunMetrics;
use crate::planner::{CandidateStep, Planner};
use crate::schedule::Schedule;

/// Configuration shared by the heuristics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeuristicConfig {
    /// Which of the four cost criteria scores candidate steps.
    pub criterion: CostCriterion,
    /// The `W_E`/`W_U` weights (ignored by C3).
    pub eu: EuWeights,
    /// The priority weighting `W[0..=P]`.
    pub priority_weights: PriorityWeights,
    /// Whether the planner keeps unchanged shortest-path trees between
    /// reads (an exact optimization; disable only for the ablation).
    pub caching: bool,
}

/// The operating point: `log10` of the E-U ratio at which the paper's
/// three heuristics under `Cost₄` peak in Figure 2 (`results/fig2.csv`).
/// Every experiment, binary default and shared test helper that is not an
/// explicit sweep reads it, through [`HeuristicConfig::paper_best`] or
/// directly.
pub const OPERATING_LOG10_RATIO: i32 = 2;

impl HeuristicConfig {
    /// A configuration with the paper's best pairing: `Cost₄` at the
    /// operating point's E-U ratio ([`OPERATING_LOG10_RATIO`]), and the
    /// 1/10/100 priority weighting.
    #[must_use]
    pub fn paper_best() -> Self {
        HeuristicConfig {
            criterion: CostCriterion::C4,
            eu: EuWeights::from_log10_ratio(f64::from(OPERATING_LOG10_RATIO)),
            priority_weights: PriorityWeights::paper_1_10_100(),
            caching: true,
        }
    }
}

/// The three data staging heuristics of §4.5–4.7 and the deadline-headroom
/// extension. Each one is how much of the winning step's shortest path is
/// committed before the search runs again ([`drive_state`]), and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Heuristic {
    /// §4.5 partial path: the cost criterion picks the winning step and
    /// **one hop** is committed — the transfer to the step's next machine
    /// only — making that machine an additional source of the item.
    /// Partially built paths that later become blocked are left in place
    /// (the copies may still help, and removing them would force a global
    /// re-plan, as the paper argues).
    PartialPath,
    /// §4.6 full path/one destination: partial path tends to reselect the
    /// same request hop after hop; worse, a partial path that later gets
    /// blocked has consumed resources other items needed. Here, once a
    /// step wins the cost competition, **every hop** of the item's current
    /// shortest path to the step's chosen destination is committed. For
    /// `Cost₁` the winning destination is named by the cost itself; for
    /// the per-step criteria (C2–C4) the step's "lowest cost destination"
    /// is scheduled.
    FullPathOneDestination,
    /// §4.7 full path/all destinations: when a step wins, the current
    /// shortest paths to **all** of the item's satisfiable destinations
    /// that share the step's next machine (`Drq[i, r]`) are committed at
    /// once, shared tree edges reserved once. This needs the fewest
    /// executions of Dijkstra's algorithm of the three heuristics — the
    /// motivation the paper gives for it — at the price of committing to
    /// several paths from one (possibly soon stale) plan.
    FullPathAllDestinations,
    /// Extension (DDCCast), as-late-as-possible: selection is that of full
    /// path/one destination, but the chosen path is committed against the
    /// *latest* feasible gaps before the destination's deadline (backward
    /// chaining) instead of the earliest ones. Early link capacity stays
    /// free for requests that have not arrived yet; in the static sweep
    /// this trades delivery earliness (never satisfaction) for contention
    /// relief, and in the online service it reduces the eviction pressure
    /// of disturbances.
    Alap,
}

impl Heuristic {
    /// The paper's three heuristics, in paper order.
    pub const ALL: [Heuristic; 3] = [
        Heuristic::PartialPath,
        Heuristic::FullPathOneDestination,
        Heuristic::FullPathAllDestinations,
    ];

    /// The paper's three heuristics plus the deadline-headroom extension,
    /// in figure order.
    pub const EXTENDED: [Heuristic; 4] = [
        Heuristic::PartialPath,
        Heuristic::FullPathOneDestination,
        Heuristic::FullPathAllDestinations,
        Heuristic::Alap,
    ];

    /// The figure label used in the paper ("partial", "full_one",
    /// "full_all") or the extension name ("alap").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Heuristic::PartialPath => "partial",
            Heuristic::FullPathOneDestination => "full_one",
            Heuristic::FullPathAllDestinations => "full_all",
            Heuristic::Alap => "alap",
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

    /// Checks that `criterion` can score this heuristic's steps: one of
    /// [`Heuristic::criteria`], or an extension criterion.
    ///
    /// # Errors
    ///
    /// A message naming the pairing, for full path/all destinations with
    /// [`CostCriterion::C1`] (a pairing the paper excludes, §6).
    pub fn check_criterion(self, criterion: CostCriterion) -> Result<(), String> {
        let criteria = self.criteria();
        if criteria.contains(&criterion) || CostCriterion::EXTENSIONS.contains(&criterion) {
            return Ok(());
        }
        let valid: Vec<_> =
            criteria.iter().chain(&CostCriterion::EXTENSIONS).map(|c| c.label()).collect();
        Err(format!(
            "the {self} heuristic cannot use criterion {criterion} (paper §6; valid: {})",
            valid.join(", ")
        ))
    }
}

/// Where a request decided on its own is placed, once its earliest-arrival
/// path meets its deadline. With one request to route there is no step to
/// pick among, so a heuristic's cost criterion and E-U weights decide
/// nothing; only where its commit puts the path does
/// ([`Heuristic::commit_rule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitRule {
    /// The earliest-arrival path as found
    /// ([`Planner::commit_path`]).
    Earliest,
    /// The same path, each hop moved to its latest slot before the deadline
    /// ([`Planner::commit_path_latest`]).
    Latest,
}

impl CommitRule {
    /// The rule's name: "earliest" or "latest".
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CommitRule::Earliest => "earliest",
            CommitRule::Latest => "latest",
        }
    }
}

impl Heuristic {
    /// What the heuristic commits for a request routed alone: the paper's
    /// three commit its earliest-arrival path — one hop at a time, one
    /// path, or the union of one path — and `alap` its latest-slot path.
    #[must_use]
    pub fn commit_rule(self) -> CommitRule {
        match self {
            Heuristic::Alap => CommitRule::Latest,
            _ => CommitRule::Earliest,
        }
    }
}

impl core::fmt::Display for Heuristic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A scheduler and the configuration it runs under, as the `stage` command
/// line chooses them with `--heuristic`, `--criterion`, `--ratio` and
/// `--weights`, and `stage-serve` with `--scheduler` (`--heuristic` its
/// alias) and `--weights` ([`Pairing::parse_online_flag`]). The default is
/// full path/one destination under [`HeuristicConfig::paper_best`].
#[derive(Debug, Clone, PartialEq)]
pub struct Pairing {
    /// The scheduler.
    pub heuristic: Heuristic,
    /// `log10` of the E-U ratio that `config.eu` is built from.
    pub log10_ratio: f64,
    /// The criterion, E-U weights and priority weighting.
    pub config: HeuristicConfig,
}

impl Default for Pairing {
    fn default() -> Self {
        Pairing {
            heuristic: Heuristic::FullPathOneDestination,
            log10_ratio: f64::from(OPERATING_LOG10_RATIO),
            config: HeuristicConfig::paper_best(),
        }
    }
}

/// The value after `flag`, or a usage error naming `what` it needs.
fn flag_value(
    flag: &str,
    what: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs {what}"))
}

impl Pairing {
    /// Reads the value of `flag` from `args` when `flag` is one of the four
    /// pairing flags, and says whether it was. The scheduler flag is
    /// `--heuristic` or `scheduler_flag`: `stage` passes `--heuristic` and
    /// so takes only that.
    ///
    /// # Errors
    ///
    /// A missing or unknown value; an unknown scheduler is
    /// [`UsageError::unknown_name`].
    pub fn parse_flag(
        &mut self,
        scheduler_flag: &str,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, UsageError> {
        match flag {
            "--criterion" => {
                let name = flag_value(flag, "a name", args)?;
                self.config.criterion = CostCriterion::from_label(&name)
                    .ok_or_else(|| format!("unknown criterion {name:?}"))?;
            }
            "--ratio" => {
                self.log10_ratio =
                    EuWeights::parse_log10_ratio(&flag_value(flag, "a number", args)?)?;
                self.config.eu = EuWeights::from_log10_ratio(self.log10_ratio);
            }
            _ => return self.parse_online_flag(scheduler_flag, flag, args),
        }
        Ok(true)
    }

    /// [`Pairing::parse_flag`] for the two flags that mean something to a
    /// daemon, which routes each request alone: the scheduler, of which
    /// only the commit rule counts there ([`Heuristic::commit_rule`]), and
    /// `--weights`. `stage-serve` spells the scheduler flag `--scheduler`.
    ///
    /// # Errors
    ///
    /// As for [`Pairing::parse_flag`].
    pub fn parse_online_flag(
        &mut self,
        scheduler_flag: &str,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, UsageError> {
        match flag {
            _ if flag == "--heuristic" || flag == scheduler_flag => {
                let name = flag_value(flag, "a name", args)?;
                self.heuristic = Heuristic::from_label(&name).ok_or_else(|| {
                    let valid = Heuristic::EXTENDED.map(Heuristic::label).join(", ");
                    UsageError::unknown_name(format!("unknown scheduler `{name}` (valid: {valid})"))
                })?;
            }
            "--weights" => {
                let name = flag_value(flag, "a weighting", args)?;
                self.config.priority_weights = PriorityWeights::paper_from_label(&name)
                    .ok_or_else(|| format!("unknown weighting {name:?}"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Refuses a criterion the scheduler cannot use
    /// ([`Heuristic::check_criterion`]).
    ///
    /// # Errors
    ///
    /// The message of [`Heuristic::check_criterion`], as a usage error.
    pub fn check(&self) -> Result<(), UsageError> {
        Ok(self.heuristic.check_criterion(self.config.criterion)?)
    }

    /// The usage line's part for the four flags, with the scheduler flag
    /// spelled `flag`.
    #[must_use]
    pub fn usage(flag: &str) -> String {
        let criteria: Vec<_> = CostCriterion::ALL
            .iter()
            .chain(&CostCriterion::EXTENSIONS)
            .map(|c| c.label())
            .collect();
        format!("{} [--criterion {}] [--ratio X]", Self::online_usage(flag), criteria.join("|"))
    }

    /// The usage line's part for the scheduler flag, spelled `flag`, and
    /// `--weights` ([`Pairing::parse_online_flag`]).
    #[must_use]
    pub fn online_usage(flag: &str) -> String {
        let schedulers = Heuristic::EXTENDED.map(|h| h.label().replace('_', "-")).join("|");
        format!("[{flag} {schedulers}] [--weights 1,5,10|1,10,100]")
    }
}

/// A refused command line: the message to print and the exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    /// What was refused; empty for `--help`, which prints the usage and
    /// exits 0.
    pub message: String,
    /// `2` for a name outside a closed list (a scheduler, a scenario
    /// family), so scripts can tell a typo from any other usage error,
    /// which exits `1`.
    pub exit_code: u8,
}

impl UsageError {
    /// An unknown name (exit code 2); `message` lists the valid ones.
    #[must_use]
    pub fn unknown_name(message: String) -> UsageError {
        UsageError { message, exit_code: 2 }
    }

    /// Prints the message, when there is one, and the `usage` line to
    /// stderr, and returns the exit code the process ends with.
    #[must_use]
    pub fn report(&self, usage: &str) -> std::process::ExitCode {
        if self.message.is_empty() {
            eprintln!("usage: {usage}");
            return std::process::ExitCode::SUCCESS;
        }
        eprintln!("error: {}", self.message);
        eprintln!("usage: {usage}");
        std::process::ExitCode::from(self.exit_code)
    }
}

impl From<String> for UsageError {
    fn from(message: String) -> UsageError {
        UsageError { message, exit_code: 1 }
    }
}

impl From<&str> for UsageError {
    fn from(message: &str) -> UsageError {
        UsageError::from(message.to_string())
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
    timed(scenario, config.caching, |planner, bookings| {
        drive_state(planner, bookings, heuristic, config);
    })
}

/// Makes fresh bookings for `scenario` and a planner over them, lets
/// `drive` schedule on them and returns the schedule, the planner's
/// counters and the wall clock of the whole run in its metrics.
pub(crate) fn timed(
    scenario: &Scenario,
    caching: bool,
    drive: impl FnOnce(&mut Planner, &mut Bookings<'_>),
) -> ScheduleOutcome {
    let started = std::time::Instant::now();
    let mut bookings = Bookings::new(scenario);
    let mut planner = Planner::with_caching(&bookings, caching);
    drive(&mut planner, &mut bookings);
    let elapsed = started.elapsed();
    let schedule = bookings.into_schedule();
    let transfers_committed = schedule.transfers().len() as u64;
    let metrics = RunMetrics { transfers_committed, elapsed, ..planner.metrics() };
    ScheduleOutcome { schedule, metrics }
}

/// Drives the chosen heuristic's main loop on already-prepared
/// [`Bookings`], read through `planner`, until no request can make
/// further progress.
///
/// This is the advanced entry point used by the dynamic (online) layer,
/// which drives it on live bookings it repairs in place between drives;
/// most callers want [`run`].
///
/// # Panics
///
/// Panics on the [`Heuristic::FullPathAllDestinations`] +
/// [`CostCriterion::C1`] pairing, as for [`run`].
pub fn drive_state(
    planner: &mut Planner,
    bookings: &mut Bookings<'_>,
    heuristic: Heuristic,
    config: &HeuristicConfig,
) {
    heuristic.check_criterion(config.criterion).unwrap_or_else(|message| panic!("{message}"));
    while step_state(planner, bookings, heuristic, config) {}
}

/// One iteration of the chosen heuristic's main loop, and the only code
/// that maps a [`Heuristic`] to its commit: the winning step by cost
/// ([`best_choice`]), then one hop of it, the path to one destination, the
/// union of the paths to all of them, or the latest-slot path. `false`,
/// with nothing committed, when no request can make progress.
pub(crate) fn step_state(
    planner: &mut Planner,
    bookings: &mut Bookings<'_>,
    heuristic: Heuristic,
    config: &HeuristicConfig,
) -> bool {
    let Some(Choice { step, destination }) = best_choice(planner, bookings, config) else {
        return false;
    };
    planner.note_iteration();
    match heuristic {
        Heuristic::PartialPath => planner.commit_hop(bookings, step.item, step.hop),
        Heuristic::FullPathAllDestinations => {
            let scenario = bookings.scenario();
            let machines: Vec<_> =
                step.satisfiable().map(|d| scenario.request(d.request).destination()).collect();
            planner.commit_paths(bookings, step.item, &machines);
        }
        Heuristic::FullPathOneDestination | Heuristic::Alap => {
            let request = destination
                .or_else(|| lowest_cost_destination(config, &step))
                .expect("a candidate step has a satisfiable destination");
            let request = bookings.scenario().request(request);
            let (machine, deadline) = (request.destination(), request.deadline());
            if heuristic == Heuristic::Alap {
                planner.commit_path_latest(bookings, step.item, machine, deadline);
            } else {
                planner.commit_path(bookings, step.item, machine);
            }
        }
    }
    true
}

/// The winning candidate of one selection round.
#[derive(Debug, Clone)]
pub(crate) struct Choice {
    /// The winning step.
    pub step: CandidateStep,
    /// The destination the pick named: C1's does, the per-step criteria
    /// leave it to [`lowest_cost_destination`].
    pub destination: Option<RequestId>,
}

/// Scores all candidate steps and returns the minimum-cost choice, or
/// `None` when no request can make progress (termination condition for
/// every heuristic).
///
/// Ties keep the first candidate in enumeration order (items by id, steps
/// by receiving machine then link, destinations by request id), so runs
/// are deterministic.
pub(crate) fn best_choice(
    planner: &mut Planner,
    bookings: &Bookings<'_>,
    config: &HeuristicConfig,
) -> Option<Choice> {
    let mut best: Option<(f64, &CandidateStep, Option<RequestId>)> = None;
    let mut consider = |cost: f64, step, destination| {
        if best.is_none_or(|(lowest, _, _)| cost < lowest) {
            best = Some((cost, step, destination));
        }
    };
    for step in planner.all_candidate_steps(bookings) {
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
    best.map(|(_, step, destination)| Choice { step: step.clone(), destination })
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
    use crate::bookings::Bookings;
    use crate::cost::EuWeights;
    use crate::planner::Planner;
    use dstage_model::ids::RequestId;
    use dstage_workload::small::{contended_link, fan_out, two_hop_chain};

    /// Parses `args` as `stage-serve`'s pairing flags only, then checks the
    /// pairing.
    fn pairing(args: &[&str]) -> Result<Pairing, UsageError> {
        let mut pairing = Pairing::default();
        let mut args = args.iter().map(|a| a.to_string());
        while let Some(flag) = args.next() {
            let parsed = pairing.parse_flag("--scheduler", &flag, &mut args)?;
            assert!(parsed, "{flag} is not a pairing flag");
        }
        pairing.check()?;
        Ok(pairing)
    }

    /// `stage` runs this config by default, so its E-U weights must stay
    /// the operating point's floats bit for bit.
    #[test]
    fn the_default_pairing_is_full_one_under_the_paper_best_config() {
        let default = pairing(&[]).unwrap();
        assert_eq!(default.heuristic, Heuristic::FullPathOneDestination);
        assert_eq!(default.config, HeuristicConfig::paper_best());
        let operating = EuWeights::from_log10_ratio(f64::from(OPERATING_LOG10_RATIO));
        assert_eq!(default.config.eu.w_e.to_bits(), operating.w_e.to_bits());
        assert_eq!(default.config.eu.w_u.to_bits(), operating.w_u.to_bits());
        assert_eq!(pairing(&["--ratio", "2"]).unwrap(), default);
    }

    #[test]
    fn pairing_flags_set_their_field_and_refuse_with_their_exit_code() {
        let chosen = pairing(&[
            "--scheduler",
            "full-all",
            "--criterion",
            "c3",
            "--ratio",
            "-1",
            "--weights",
            "1,5,10",
        ])
        .unwrap();
        assert_eq!(chosen.heuristic, Heuristic::FullPathAllDestinations);
        assert_eq!(chosen.log10_ratio, -1.0);
        assert_eq!(
            chosen.config,
            HeuristicConfig {
                criterion: CostCriterion::C3,
                eu: EuWeights::from_log10_ratio(-1.0),
                priority_weights: PriorityWeights::paper_1_5_10(),
                caching: true,
            }
        );
        assert_eq!(pairing(&["--heuristic", "alap"]).unwrap().heuristic, Heuristic::Alap);
        // `stage` names its scheduler flag `--heuristic` only.
        let mut args = ["full-all".to_string()].into_iter();
        let mut stage = Pairing::default();
        assert_eq!(stage.parse_flag("--heuristic", "--scheduler", &mut args), Ok(false));
        assert_eq!(stage, Pairing::default());

        let unknown = pairing(&["--heuristic", "rcd"]).unwrap_err();
        assert_eq!(unknown.exit_code, 2);
        assert_eq!(
            unknown.message,
            "unknown scheduler `rcd` (valid: partial, full_one, full_all, alap)"
        );
        for (args, message) in [
            (&["--criterion", "C5"][..], "unknown criterion \"C5\""),
            (&["--weights", "1,2,3"], "unknown weighting \"1,2,3\""),
            (&["--ratio"], "--ratio needs a number"),
            (&["--scheduler"], "--scheduler needs a name"),
        ] {
            assert_eq!(pairing(args).unwrap_err(), UsageError::from(message), "{args:?}");
        }
        let excluded = pairing(&["--heuristic", "full_all", "--criterion", "C1"]).unwrap_err();
        assert_eq!(excluded.exit_code, 1);
        assert!(excluded.message.contains("paper §6"), "{}", excluded.message);
        assert!(pairing(&["--ratio", "nan"]).unwrap_err().message.starts_with("invalid ratio"));
    }

    #[test]
    fn the_pairing_usage_lists_every_scheduler_and_criterion() {
        assert_eq!(
            Pairing::usage("--scheduler"),
            "[--scheduler partial|full-one|full-all|alap] [--weights 1,5,10|1,10,100] \
             [--criterion C1|C2|C3|C4|C3f] [--ratio X]"
        );
        assert_eq!(
            Pairing::online_usage("--scheduler"),
            "[--scheduler partial|full-one|full-all|alap] [--weights 1,5,10|1,10,100]"
        );
    }

    fn config(criterion: CostCriterion, x: f64) -> HeuristicConfig {
        HeuristicConfig {
            criterion,
            eu: EuWeights::from_log10_ratio(x),
            priority_weights: PriorityWeights::paper_1_10_100(),
            caching: true,
        }
    }

    /// `criterion` at E-U ratio 10⁰ = 1.
    fn parity(criterion: CostCriterion) -> HeuristicConfig {
        config(criterion, 0.0)
    }

    #[test]
    fn best_choice_picks_the_high_priority_request_under_contention() {
        let s = contended_link();
        let bookings = Bookings::new(&s);
        let mut planner = Planner::new(&bookings);
        // At a priority-dominant ratio, the high-priority item (item 0,
        // request 0) must win the contended link under every criterion.
        for criterion in CostCriterion::ALL {
            let choice =
                best_choice(&mut planner, &bookings, &config(criterion, 3.0)).expect("steps exist");
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
        let mut bookings = Bookings::new(&s);
        let mut planner = Planner::new(&bookings);
        // Deliver the easy request, leaving only the impossible one.
        planner.commit_path(
            &mut bookings,
            dstage_model::ids::DataItemId::new(1),
            s.request(RequestId::new(1)).destination(),
        );
        assert!(best_choice(&mut planner, &bookings, &config(CostCriterion::C4, 0.0)).is_none());
    }

    #[test]
    fn lowest_cost_destination_respects_priority_at_high_ratio() {
        let s = fan_out();
        let bookings = Bookings::new(&s);
        let cfg = config(CostCriterion::C4, 4.0);
        let choice = best_choice(&mut Planner::new(&bookings), &bookings, &cfg).unwrap();
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
        let bookings = Bookings::new(&s);
        let mut planner = Planner::new(&bookings);
        let steps = planner.candidate_steps(&bookings, dstage_model::ids::DataItemId::new(0));
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
        let mut bookings = Bookings::new(&s);
        Planner::new(&bookings).commit_path(
            &mut bookings,
            dstage_model::ids::DataItemId::new(0),
            s.request(RequestId::new(0)).destination(),
        );
        let mut planner = Planner::new(&bookings);
        let config = config(CostCriterion::C4, 0.0);
        drive_state(&mut planner, &mut bookings, Heuristic::FullPathOneDestination, &config);
        let schedule = bookings.into_schedule();
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
    }

    #[test]
    fn from_label_round_trips_and_accepts_hyphens() {
        for h in Heuristic::EXTENDED {
            assert_eq!(Heuristic::from_label(h.label()), Some(h));
        }
        assert_eq!(Heuristic::from_label("full-one"), Some(Heuristic::FullPathOneDestination));
        assert_eq!(Heuristic::from_label("full-all"), Some(Heuristic::FullPathAllDestinations));
        assert_eq!(Heuristic::from_label("fastest"), None);
        assert_eq!(Heuristic::from_label("rcd"), None);
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
    fn only_the_excluded_pairing_fails_the_criterion_check() {
        for h in Heuristic::EXTENDED {
            for c in CostCriterion::ALL.into_iter().chain(CostCriterion::EXTENSIONS) {
                let excluded = h == Heuristic::FullPathAllDestinations && c == CostCriterion::C1;
                assert_eq!(h.check_criterion(c).is_err(), excluded, "{h} + {c}");
            }
        }
        let message =
            Heuristic::FullPathAllDestinations.check_criterion(CostCriterion::C1).unwrap_err();
        assert!(message.contains("full_all") && message.contains("C1"), "{message}");
    }

    #[test]
    fn paper_best_config() {
        let c = HeuristicConfig::paper_best();
        assert_eq!(c.criterion, CostCriterion::C4);
        assert_eq!(c.priority_weights.weight(dstage_model::request::Priority::HIGH), 100);
        assert!(c.caching);
    }

    mod partial {
        use super::*;

        #[test]
        fn satisfies_everything_on_an_uncontended_chain() {
            let s = two_hop_chain();
            for criterion in CostCriterion::ALL {
                let out = run(&s, Heuristic::PartialPath, &parity(criterion));
                let derived = out.schedule.validate(&s).expect("schedule must replay");
                assert_eq!(
                    derived.len(),
                    s.request_count(),
                    "criterion {criterion} missed requests"
                );
            }
        }

        #[test]
        fn prefers_the_high_priority_request_under_contention() {
            let s = contended_link();
            let out = run(&s, Heuristic::PartialPath, &parity(CostCriterion::C4));
            out.schedule.validate(&s).unwrap();
            // The high-priority request (id 0) wins the contended link.
            assert!(out.schedule.delivery_of(RequestId::new(0)).is_some());
        }

        #[test]
        fn one_hop_per_iteration() {
            let s = two_hop_chain();
            let out = run(&s, Heuristic::PartialPath, &parity(CostCriterion::C4));
            assert_eq!(out.metrics.iterations, out.metrics.transfers_committed);
        }

        #[test]
        fn deterministic_across_runs() {
            let s = contended_link();
            let a = run(&s, Heuristic::PartialPath, &parity(CostCriterion::C2));
            let b = run(&s, Heuristic::PartialPath, &parity(CostCriterion::C2));
            assert_eq!(a.schedule, b.schedule);
        }

        #[test]
        fn caching_ablation_identical_schedules() {
            let s = contended_link();
            for criterion in CostCriterion::ALL {
                let mut cfg = parity(criterion);
                let with_cache = run(&s, Heuristic::PartialPath, &cfg);
                cfg.caching = false;
                let without = run(&s, Heuristic::PartialPath, &cfg);
                assert_eq!(with_cache.schedule, without.schedule, "criterion {criterion}");
                assert_eq!(without.metrics.cache_hits, 0);
                assert!(with_cache.metrics.dijkstra_runs <= without.metrics.dijkstra_runs);
            }
        }
    }

    mod full_one {
        use super::*;

        #[test]
        fn satisfies_everything_on_an_uncontended_chain() {
            let s = two_hop_chain();
            for criterion in CostCriterion::ALL {
                let out = run(&s, Heuristic::FullPathOneDestination, &parity(criterion));
                let derived = out.schedule.validate(&s).unwrap();
                assert_eq!(derived.len(), s.request_count(), "criterion {criterion}");
            }
        }

        #[test]
        fn fewer_iterations_than_partial() {
            let s = fan_out();
            let full = run(&s, Heuristic::FullPathOneDestination, &parity(CostCriterion::C4));
            let partial = run(&s, Heuristic::PartialPath, &parity(CostCriterion::C4));
            assert!(full.metrics.iterations <= partial.metrics.iterations);
            // Same satisfied set on this easy scenario.
            assert_eq!(full.schedule.deliveries().len(), partial.schedule.deliveries().len());
        }

        #[test]
        fn high_priority_request_wins_contention() {
            let s = contended_link();
            let out = run(&s, Heuristic::FullPathOneDestination, &parity(CostCriterion::C4));
            out.schedule.validate(&s).unwrap();
            assert!(out.schedule.delivery_of(RequestId::new(0)).is_some());
        }

        #[test]
        fn whole_path_committed_per_iteration() {
            let s = two_hop_chain();
            let out = run(&s, Heuristic::FullPathOneDestination, &parity(CostCriterion::C4));
            // The chain scenario needs multi-hop paths; with full paths the
            // number of iterations is the number of scheduled destinations,
            // not the number of transfers.
            assert!(out.metrics.iterations < out.metrics.transfers_committed);
        }

        #[test]
        fn deterministic_across_runs() {
            let s = contended_link();
            let a = run(&s, Heuristic::FullPathOneDestination, &parity(CostCriterion::C1));
            let b = run(&s, Heuristic::FullPathOneDestination, &parity(CostCriterion::C1));
            assert_eq!(a.schedule, b.schedule);
        }
    }

    mod full_all {
        use super::*;

        #[test]
        fn satisfies_everything_on_an_uncontended_chain() {
            let s = two_hop_chain();
            for criterion in CostCriterion::MULTI_DESTINATION {
                let out = run(&s, Heuristic::FullPathAllDestinations, &parity(criterion));
                let derived = out.schedule.validate(&s).unwrap();
                assert_eq!(derived.len(), s.request_count(), "criterion {criterion}");
            }
        }

        #[test]
        #[should_panic(expected = "full_all heuristic cannot use criterion C1")]
        fn rejects_c1() {
            let s = two_hop_chain();
            let _ = run(&s, Heuristic::FullPathAllDestinations, &parity(CostCriterion::C1));
        }

        #[test]
        fn needs_fewest_dijkstra_runs() {
            let s = fan_out();
            let cfg = parity(CostCriterion::C4);
            let all = run(&s, Heuristic::FullPathAllDestinations, &cfg);
            let one = run(&s, Heuristic::FullPathOneDestination, &cfg);
            let partial = run(&s, Heuristic::PartialPath, &cfg);
            assert!(all.metrics.dijkstra_runs <= one.metrics.dijkstra_runs);
            assert!(one.metrics.dijkstra_runs <= partial.metrics.dijkstra_runs);
            // And it still satisfies everything on this easy scenario.
            assert_eq!(all.schedule.deliveries().len(), s.request_count());
        }

        #[test]
        fn deterministic_across_runs() {
            let s = contended_link();
            let a = run(&s, Heuristic::FullPathAllDestinations, &parity(CostCriterion::C3));
            let b = run(&s, Heuristic::FullPathAllDestinations, &parity(CostCriterion::C3));
            assert_eq!(a.schedule, b.schedule);
        }

        #[test]
        fn validates_on_contended_scenarios() {
            let s = contended_link();
            for criterion in CostCriterion::MULTI_DESTINATION {
                let out = run(&s, Heuristic::FullPathAllDestinations, &parity(criterion));
                out.schedule.validate(&s).unwrap();
            }
        }
    }

    mod alap {
        use super::*;

        #[test]
        fn satisfies_everything_on_an_uncontended_chain() {
            let s = two_hop_chain();
            for criterion in CostCriterion::ALL {
                let out = run(&s, Heuristic::Alap, &parity(criterion));
                let derived = out.schedule.validate(&s).unwrap();
                assert_eq!(derived.len(), s.request_count(), "criterion {criterion}");
            }
        }

        #[test]
        fn deliveries_hug_their_deadlines() {
            let s = two_hop_chain();
            let early = run(&s, Heuristic::FullPathOneDestination, &parity(CostCriterion::C4));
            let late = run(&s, Heuristic::Alap, &parity(CostCriterion::C4));
            assert_eq!(early.schedule.deliveries().len(), late.schedule.deliveries().len());
            for d in late.schedule.deliveries() {
                let deadline = s.request(d.request).deadline();
                let early_at = early.schedule.delivery_of(d.request).unwrap().at;
                assert!(d.at <= deadline);
                assert!(d.at >= early_at, "latest placement cannot beat earliest");
            }
            // At least one delivery actually moved toward its deadline.
            assert!(
                late.schedule
                    .deliveries()
                    .iter()
                    .any(|d| d.at > early.schedule.delivery_of(d.request).unwrap().at),
                "alap placed nothing later than full_one"
            );
        }

        #[test]
        fn satisfies_no_fewer_than_zero_on_contention() {
            let s = contended_link();
            let out = run(&s, Heuristic::Alap, &parity(CostCriterion::C4));
            out.schedule.validate(&s).unwrap();
            assert!(!out.schedule.deliveries().is_empty());
        }

        #[test]
        fn deterministic_across_runs() {
            let s = fan_out();
            let a = run(&s, Heuristic::Alap, &parity(CostCriterion::C2));
            let b = run(&s, Heuristic::Alap, &parity(CostCriterion::C2));
            assert_eq!(a.schedule, b.schedule);
        }
    }
}
