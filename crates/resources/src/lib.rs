//! Resource accounting for the data staging scheduler.
//!
//! This crate implements the consumable-resource substrate of the ICDCS
//! 2000 data staging model: serially reusable virtual links
//! ([`interval::BusyIntervals`]), time-varying machine storage
//! ([`timeline::CapacityTimeline`]), and the combined
//! [`ledger::NetworkLedger`] that finds and commits feasible transfer
//! slots.
//!
//! # Examples
//!
//! ```
//! use dstage_model::prelude::*;
//! use dstage_resources::ledger::NetworkLedger;
//!
//! let mut b = NetworkBuilder::new();
//! let a = b.add_machine(Machine::new("a", Bytes::from_mib(8)));
//! let c = b.add_machine(Machine::new("c", Bytes::from_mib(8)));
//! let l = b.add_link(VirtualLink::new(a, c, SimTime::ZERO,
//!     SimTime::from_hours(1), BitsPerSec::from_mbps(1)));
//! let net = b.build();
//! let mut ledger = NetworkLedger::new(&net);
//! let slot = ledger
//!     .earliest_transfer(&net, l, SimTime::ZERO, Bytes::from_mib(1), SimTime::MAX)
//!     .expect("fits");
//! ledger
//!     .commit_transfer(&net, l, slot.start, Bytes::from_mib(1), SimTime::MAX)
//!     .expect("probe said feasible");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interval;
pub mod ledger;
pub mod timeline;

pub use interval::BusyIntervals;
pub use ledger::{CommitError, Crossing, NetworkLedger, ProbeTally, TransferSlot};
pub use timeline::CapacityTimeline;
