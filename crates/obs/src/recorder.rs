//! Bounded flight recorder: a ring of recent structured events keyed by
//! logical sequence numbers.
//!
//! Events are recorded at coarse boundaries only (service verb
//! dispatches, sweep work units) — per-iteration hot loops use the
//! counters in [`crate::metrics`] instead, so the ring's mutex never
//! sits on a tight loop. Sequence numbers are logical (assigned under
//! the ring lock); the wall-clock duration riding on each event is
//! diagnostic payload and never flows into determinism-checked output.

use std::collections::VecDeque;
use std::sync::Mutex;

/// How many events the ring retains before dropping the oldest.
pub const RING_CAPACITY: usize = 1024;

/// One flight-recorder entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Logical sequence number, monotone from 0 per process (survives
    /// ring eviction — later events keep counting).
    pub seq: u64,
    /// Instrumented layer: `service`, `resources`, `path`, or `sim`.
    pub layer: &'static str,
    /// Event name within the layer (e.g. `verb.submit`, `work_unit`).
    pub name: &'static str,
    /// Event-specific magnitude (request id, unit index, ...).
    pub value: u64,
    /// Wall-clock duration of the recorded operation, microseconds.
    /// Diagnostic only — never compared across runs.
    pub wall_us: u64,
}

struct Ring {
    next_seq: u64,
    events: VecDeque<Event>,
}

static RING: Mutex<Ring> = Mutex::new(Ring { next_seq: 0, events: VecDeque::new() });

/// Appends an event to the ring, evicting the oldest entry once
/// [`RING_CAPACITY`] is reached. No-op while the tap is disabled.
pub fn record(layer: &'static str, name: &'static str, value: u64, wall_us: u64) {
    if !crate::enabled() {
        return;
    }
    let mut ring = RING.lock().expect("flight recorder lock");
    let seq = ring.next_seq;
    ring.next_seq += 1;
    if ring.events.len() == RING_CAPACITY {
        ring.events.pop_front();
    }
    ring.events.push_back(Event { seq, layer, name, value, wall_us });
}

/// The most recent `limit` events, oldest first. `limit` of zero returns
/// an empty window; anything above the ring size returns the whole ring.
#[must_use]
pub fn recent(limit: usize) -> Vec<Event> {
    let ring = RING.lock().expect("flight recorder lock");
    let skip = ring.events.len().saturating_sub(limit);
    ring.events.iter().skip(skip).cloned().collect()
}

/// Total events recorded since process start (including evicted ones).
#[must_use]
pub fn total_recorded() -> u64 {
    RING.lock().expect("flight recorder lock").next_seq
}

/// Empties the ring and rewinds the sequence counter (test/profile
/// isolation only).
pub fn clear() {
    let mut ring = RING.lock().expect("flight recorder lock");
    ring.next_seq = 0;
    ring.events.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_and_sequences_logically() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        clear();
        for i in 0..(RING_CAPACITY as u64 + 8) {
            record("sim", "work_unit", i, 0);
        }
        assert_eq!(total_recorded(), RING_CAPACITY as u64 + 8);
        let window = recent(4);
        assert_eq!(window.len(), 4);
        assert_eq!(window[0].seq, RING_CAPACITY as u64 + 4);
        assert_eq!(window[3].seq, RING_CAPACITY as u64 + 7);
        assert_eq!(window[3].value, RING_CAPACITY as u64 + 7);
        // Oldest entries were evicted but the ring is still full.
        assert_eq!(recent(usize::MAX).len(), RING_CAPACITY);
        assert_eq!(recent(0).len(), 0);
        clear();
        assert_eq!(total_recorded(), 0);
    }

    #[test]
    fn disabled_tap_records_no_events() {
        let _serial = crate::test_lock();
        crate::set_enabled(false);
        clear();
        record("service", "verb.submit", 1, 10);
        assert_eq!(total_recorded(), 0);
        crate::set_enabled(true);
    }
}
