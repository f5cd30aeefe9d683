//! Deterministic observability for the data-staging system.
//!
//! The crate is a *read-only tap*: instrumented code reports what it did
//! (counters, gauges, histograms, flight-recorder events) and nothing in
//! the system ever reads that state back to make a decision. Sweep
//! reports and service snapshots are therefore byte-identical whether the
//! tap is enabled or disabled — the invariant the `obs_readonly_tap`
//! integration tests pin down.
//!
//! Three design rules keep the tap cheap and deterministic:
//!
//! 1. **Zero dependencies.** Only `std::sync::atomic` and one `Mutex`
//!    (around the flight-recorder ring). Hot paths batch their counts
//!    locally and publish with a single relaxed `fetch_add`.
//! 2. **Static inventory.** Every metric is a `static` declared in
//!    [`metrics`]; there is no registration step, no hashing, and the
//!    Prometheus exposition renders the fixed table in declaration order,
//!    so equal states render byte-identically.
//! 3. **Logical sequencing.** Flight-recorder events are keyed by a
//!    logical sequence number assigned under the ring lock. Wall-clock
//!    durations are *recorded* (they are the point of a profile) but
//!    never flow into any determinism-checked output.
//!
//! Control: the tap starts enabled unless the `DSTAGE_OBS` environment
//! variable is `0`/`off`/`false`/`no`; [`set_enabled`] overrides either
//! way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod instruments;
pub mod metrics;
pub mod recorder;

pub use instruments::{Counter, Gauge, Histogram, HistogramSnapshot};

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state runtime switch: 0 = not yet resolved from the environment,
/// 1 = enabled, 2 = disabled.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether the tap records anything right now.
///
/// First call resolves the `DSTAGE_OBS` environment variable (default:
/// enabled); later calls are a single relaxed atomic load.
#[must_use]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = std::env::var("DSTAGE_OBS")
                .map_or(true, |v| !matches!(v.trim(), "0" | "off" | "false" | "no"));
            STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turns the tap on or off at runtime, overriding `DSTAGE_OBS`.
///
/// Process-global: the byte-identity tests flip this around whole runs,
/// never mid-measurement.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Clears every metric and the flight recorder (sequence numbers
/// included). Test and profile isolation only — production code never
/// resets the tap.
pub fn reset() {
    metrics::reset_all();
    recorder::clear();
}

/// Serialises the unit tests that flip the process-global gate, clear the
/// ring or read global instruments: `cargo test` runs them on parallel
/// threads of one process.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the others should still run.
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_toggle_round_trips() {
        let _serial = test_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
    }
}
