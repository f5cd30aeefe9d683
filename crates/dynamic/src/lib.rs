//! Online (dynamic) data staging.
//!
//! The ICDCS 2000 paper solves the *static* data staging problem and
//! names the dynamic version — ad-hoc requests, changing link
//! availability, lost copies — as the motivating next step (§1, §6).
//! This crate builds that layer on top of the static heuristics: a
//! rolling-horizon simulator that re-plans with a chosen
//! heuristic/cost-criterion pairing at every disturbance, executing only
//! the plan prefix that precedes the next event. The simulator keeps one
//! [`LiveSchedule`] for the whole run and edits it in place — events
//! applied, the tentative tail withdrawn, invalidated transfers unbooked
//! — and the admission daemon (`dstage-service`) drives the same type, so
//! offline and online repair are one implementation. The evict-and-readmit
//! hill climb ([`LiveSchedule::climb`]) is one implementation too: the
//! daemon's `optimize` verb runs it on its live schedule, and
//! [`climb_plan`] runs it on an offline plan.
//!
//! It also operationalizes two design rationales the paper states but
//! cannot exercise in the static setting:
//!
//! * partial paths left in place after their request becomes
//!   unsatisfiable may pay off "in a dynamic situation" (§4.5) — staged
//!   copies from cancelled plans are reused by later re-plans;
//! * intermediate copies retained for γ after the latest deadline provide
//!   fault tolerance "in cases when ... a destination loses its copy of
//!   the data" (§4.4) — a destination copy loss is healed from a retained
//!   intermediate copy when one exists.
//!
//! # Examples
//!
//! ```
//! use dstage_dynamic::{simulate, Event, EventKind, EventLog, OnlinePolicy};
//! use dstage_model::ids::RequestId;
//! use dstage_model::time::SimTime;
//! use dstage_workload::small::two_hop_chain;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = two_hop_chain();
//! // Request 1 is an ad-hoc request arriving two minutes in.
//! let events = EventLog::new(&scenario, vec![
//!     Event::new(SimTime::from_mins(2), EventKind::Release(RequestId::new(1))),
//! ])?;
//! let outcome = simulate(&scenario, &events, &OnlinePolicy::paper_best());
//! assert!(outcome.executed.delivery_of(RequestId::new(1)).is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod climb;
pub mod event;
pub mod repair;
pub mod simulate;

pub use climb::{climb_plan, Climbed, Standing, Swap};
pub use event::{Event, EventError, EventKind, EventLog};
pub use repair::{replay_order, replay_state, LiveSchedule, Loss, Normalised, Outage};
pub use simulate::{simulate, OnlineOutcome, OnlinePolicy};
