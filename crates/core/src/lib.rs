//! Data staging scheduling heuristics (ICDCS 2000 reproduction).
//!
//! Implements the three multiple-source shortest-path based heuristics of
//! Theys, Tan, Beck, Siegel & Jurczyk — *partial path*, *full path/one
//! destination*, *full path/all destinations* — together with the four
//! cost criteria (`Cost₁`–`Cost₄`), the random lower-bound procedures, the
//! `upper_bound`/`possible_satisfy` bounds, and the priority-first
//! comparison scheme of the paper's evaluation.
//!
//! The heuristics, and the deadline-headroom extension `alap`, are one loop
//! over one step function in [`heuristic`]: each iteration picks a
//! candidate step by cost criterion and commits one hop, one path, the
//! union of the paths, or the latest-slot path of it to the shared
//! [`bookings::Bookings`], read through a [`planner::Planner`].
//!
//! # Examples
//!
//! Run the paper's best pairing on a toy scenario:
//!
//! ```
//! use dstage_core::prelude::*;
//! use dstage_workload::small::two_hop_chain;
//!
//! let scenario = two_hop_chain();
//! let outcome = run(&scenario, Heuristic::FullPathOneDestination,
//!     &HeuristicConfig::paper_best());
//! let eval = outcome.schedule.evaluate(&scenario,
//!     &PriorityWeights::paper_1_10_100());
//! assert!(eval.weighted_sum > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod bookings;
pub mod bounds;
pub mod cost;
pub mod exact;
pub mod heuristic;
pub mod metrics;
pub mod planner;
pub mod schedule;

/// Convenience re-exports of the scheduling vocabulary.
pub mod prelude {
    pub use crate::baselines::{priority_first, random_dijkstra, single_dijkstra_random};
    pub use crate::bookings::Bookings;
    pub use crate::bounds::{possible_satisfy, upper_bound, PossibleSatisfy};
    pub use crate::cost::{CostCriterion, EuWeights};
    pub use crate::exact::{best_order_schedule, ExactOutcome};
    pub use crate::heuristic::{run, Heuristic, HeuristicConfig, ScheduleOutcome};
    pub use crate::metrics::RunMetrics;
    pub use crate::planner::Planner;
    pub use crate::schedule::{Delivery, Evaluation, Schedule, ScheduleViolation, Transfer};
    pub use dstage_model::request::PriorityWeights;
}
