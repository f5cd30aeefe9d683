//! Time-varying storage accounting for one machine.
//!
//! The paper's `Cap[i](t)` is the *available* capacity of machine `M[i]`
//! over time. [`CapacityTimeline`] tracks the *used* bytes as a piecewise
//! constant function (usage deltas at event times) and answers two
//! questions the scheduler needs: *can this machine hold `size` extra bytes
//! throughout `[from, until)`?* and *what is the earliest start time from
//! which it can?*

use dstage_model::time::SimTime;
use dstage_model::units::Bytes;
use serde::{Deserialize, Serialize};

/// Piecewise-constant storage usage against a fixed total capacity.
///
/// # Examples
///
/// ```
/// use dstage_resources::timeline::CapacityTimeline;
/// use dstage_model::time::SimTime;
/// use dstage_model::units::Bytes;
///
/// let mut tl = CapacityTimeline::new(Bytes::from_mib(10));
/// tl.reserve(Bytes::from_mib(6), SimTime::from_secs(10), SimTime::from_secs(60))
///     .unwrap();
/// // Another 6 MiB cannot overlap [10s, 60s)...
/// assert!(!tl.can_hold(Bytes::from_mib(6), SimTime::from_secs(0), SimTime::from_secs(30)));
/// // ...but fits entirely after it.
/// assert!(tl.can_hold(Bytes::from_mib(6), SimTime::from_secs(60), SimTime::from_secs(90)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapacityTimeline {
    capacity: Bytes,
    /// Sorted by time; `(t, delta)` means usage changes by `delta` at `t`.
    /// Deltas are never zero. Times are usually unique, but a reservation
    /// larger than `i64::MAX` bytes (or a same-instant merge that would
    /// overflow `i64`) is stored as several same-time entries whose deltas
    /// sum to the true change — readers fold every event at an instant, so
    /// only the per-instant sum matters.
    events: Vec<(SimTime, i64)>,
}

/// Error returned by [`CapacityTimeline::reserve`] when the reservation
/// would exceed capacity somewhere in its span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityExceeded {
    /// A time at which the reservation would not fit.
    pub at: SimTime,
    /// Usage at that time (without the new reservation).
    pub used: Bytes,
    /// The machine's total capacity.
    pub capacity: Bytes,
}

impl core::fmt::Display for CapacityExceeded {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "capacity exceeded at {}: {} of {} already used",
            self.at, self.used, self.capacity
        )
    }
}

impl std::error::Error for CapacityExceeded {}

impl CapacityTimeline {
    /// Creates a timeline for a machine with the given total capacity and
    /// no usage.
    #[must_use]
    pub fn new(capacity: Bytes) -> Self {
        CapacityTimeline { capacity, events: Vec::new() }
    }

    /// The machine's total capacity.
    #[must_use]
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Usage at an instant.
    #[must_use]
    pub fn used_at(&self, t: SimTime) -> Bytes {
        // i128 accumulation: the level can legitimately exceed i64::MAX
        // (capacity is a u64, and force_reserve can overcommit past even
        // that), and i128 cannot overflow from any realizable event count.
        let mut used: i128 = 0;
        for &(et, delta) in &self.events {
            if et > t {
                break;
            }
            used += i128::from(delta);
        }
        level_bytes(used)
    }

    /// Peak usage over `[from, until)`; zero for an empty span.
    #[must_use]
    pub fn peak_usage(&self, from: SimTime, until: SimTime) -> Bytes {
        dstage_obs::metrics::RESOURCES_PEAK_SCANS.inc();
        if from >= until {
            return Bytes::ZERO;
        }
        // The usage level is piecewise constant, so the peak over the span
        // is the level entering the span (`base`) or the level after some
        // event strictly inside it.
        let mut used: i128 = 0;
        let mut base: i128 = 0;
        let mut peak: i128 = 0;
        for &(et, delta) in &self.events {
            if et >= until {
                break;
            }
            used += i128::from(delta);
            if et <= from {
                base = used;
            } else {
                peak = peak.max(used);
            }
        }
        peak = peak.max(base);
        level_bytes(peak)
    }

    /// Whether `size` additional bytes fit throughout `[from, until)`.
    ///
    /// Empty spans and zero sizes trivially fit.
    #[must_use]
    pub fn can_hold(&self, size: Bytes, from: SimTime, until: SimTime) -> bool {
        if from >= until || size == Bytes::ZERO {
            return true;
        }
        match self.peak_usage(from, until).checked_add(size) {
            Some(total) => total <= self.capacity,
            None => false,
        }
    }

    /// The earliest `start >= from` such that `size` extra bytes fit
    /// throughout `[start, until)`, or `None` if no such start exists
    /// strictly before `until`.
    ///
    /// For an empty or inverted span (`from >= until`) the answer is `from`
    /// (nothing needs to fit).
    #[must_use]
    pub fn earliest_hold_start(
        &self,
        size: Bytes,
        from: SimTime,
        until: SimTime,
    ) -> Option<SimTime> {
        if from >= until {
            return Some(from);
        }
        if size == Bytes::ZERO {
            return Some(from);
        }
        if size > self.capacity {
            return None;
        }
        // Guarded above: size <= capacity, so this subtraction is exact.
        let budget = self.capacity.saturating_sub(size);
        // Scan events inside [from, until); find the last moment the level
        // exceeds `budget`. The earliest feasible start is the first event
        // after that moment where the level drops to <= budget.
        let mut level: i128 = 0;
        let mut candidate = from;
        let mut feasible_from_candidate = true;
        for &(et, delta) in &self.events {
            if et >= until {
                break;
            }
            level += i128::from(delta);
            let over = level_bytes(level).as_u64() > budget.as_u64();
            if et <= from {
                feasible_from_candidate = !over;
                continue;
            }
            if over {
                feasible_from_candidate = false;
            } else if !feasible_from_candidate {
                candidate = et;
                feasible_from_candidate = true;
            }
        }
        if feasible_from_candidate && candidate < until {
            Some(candidate.max(from))
        } else {
            None
        }
    }

    /// Reserves `size` bytes over `[from, until)`.
    ///
    /// Empty spans and zero sizes are no-ops.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityExceeded`] (leaving the timeline unchanged) if the
    /// reservation would exceed capacity anywhere in the span.
    pub fn reserve(
        &mut self,
        size: Bytes,
        from: SimTime,
        until: SimTime,
    ) -> Result<(), CapacityExceeded> {
        if from >= until || size == Bytes::ZERO {
            return Ok(());
        }
        let peak = self.peak_usage(from, until);
        let fits = peak.checked_add(size).is_some_and(|t| t <= self.capacity);
        if !fits {
            return Err(CapacityExceeded { at: from, used: peak, capacity: self.capacity });
        }
        self.apply_span(size, from, until);
        Ok(())
    }

    /// Reserves `size` bytes over `[from, until)` even when that exceeds
    /// capacity.
    ///
    /// Exists for *exogenous* placements (initial source copies): the data
    /// is simply there, whether or not the machine's nominal capacity
    /// accommodates it. While overcommitted, [`CapacityTimeline::can_hold`]
    /// reports `false` for any further bytes, so the scheduler stages
    /// nothing extra on the machine.
    pub fn force_reserve(&mut self, size: Bytes, from: SimTime, until: SimTime) {
        if from >= until || size == Bytes::ZERO {
            return;
        }
        self.apply_span(size, from, until);
    }

    /// Takes `size` bytes over `[from, until)` back — the exact inverse of
    /// the [`CapacityTimeline::reserve`] or
    /// [`CapacityTimeline::force_reserve`] that booked them. Releasing
    /// what was never reserved trips the non-negative usage invariant at
    /// the next read.
    pub fn release(&mut self, size: Bytes, from: SimTime, until: SimTime) {
        if from >= until || size == Bytes::ZERO {
            return;
        }
        // The same deltas with the ends swapped: `-size` at `from`, `+size`
        // at `until`.
        self.apply_span(size, until, from);
    }

    /// Applies `+size` at `from` and `-size` at `until`, chunking sizes
    /// above `i64::MAX` into several balanced i64 deltas. This is where
    /// reservations beyond `i64::MAX` bytes used to panic through
    /// `i64::try_from(..).expect("sizes fit in i64")` — a malformed
    /// scenario could kill the daemon.
    fn apply_span(&mut self, size: Bytes, from: SimTime, until: SimTime) {
        let mut remaining = size.as_u64();
        while remaining > 0 {
            let chunk = remaining.min(i64::MAX as u64);
            remaining -= chunk;
            let amount = i64::try_from(chunk).expect("chunk clamped to i64::MAX");
            self.apply_delta(from, amount);
            self.apply_delta(until, -amount);
        }
    }

    fn apply_delta(&mut self, t: SimTime, delta: i64) {
        match self.events.binary_search_by_key(&t, |&(et, _)| et) {
            Ok(idx) => match self.events[idx].1.checked_add(delta) {
                Some(0) => {
                    self.events.remove(idx);
                }
                Some(merged) => self.events[idx].1 = merged,
                // The merged delta would overflow i64: keep a second entry
                // at the same instant instead of wrapping. Readers fold
                // every event at an instant, so only the sum matters.
                None => self.events.insert(idx + 1, (t, delta)),
            },
            Err(idx) => self.events.insert(idx, (t, delta)),
        }
    }
}

/// Converts an accumulated usage level to [`Bytes`].
///
/// The level must be non-negative (reservations and releases are applied
/// in balanced pairs); force-reserve overcommit can push it past
/// `u64::MAX`, which clamps — capacity is a `u64`, so anything above
/// `u64::MAX` fails every capacity check identically.
fn level_bytes(level: i128) -> Bytes {
    assert!(level >= 0, "usage invariant: never negative (level {level})");
    Bytes::new(u64::try_from(level).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn kb(n: u64) -> Bytes {
        Bytes::new(n * 1_000)
    }

    #[test]
    fn fresh_timeline_is_empty() {
        let tl = CapacityTimeline::new(kb(10));
        assert_eq!(tl.capacity(), kb(10));
        assert_eq!(tl.used_at(SimTime::ZERO), Bytes::ZERO);
        assert_eq!(tl.peak_usage(t(0), t(100)), Bytes::ZERO);
        assert!(tl.can_hold(kb(10), t(0), t(100)));
        assert!(!tl.can_hold(kb(11), t(0), t(100)));
    }

    #[test]
    fn reserve_updates_usage() {
        let mut tl = CapacityTimeline::new(kb(10));
        tl.reserve(kb(4), t(10), t(20)).unwrap();
        assert_eq!(tl.used_at(t(9)), Bytes::ZERO);
        assert_eq!(tl.used_at(t(10)), kb(4));
        assert_eq!(tl.used_at(t(19)), kb(4));
        assert_eq!(tl.used_at(t(20)), Bytes::ZERO);
    }

    #[test]
    fn release_is_the_exact_inverse_of_reserve() {
        let mut tl = CapacityTimeline::new(kb(10));
        tl.reserve(kb(4), t(0), t(100)).unwrap();
        let before = tl.clone();
        // Sharing an event instant with the standing reservation, and not.
        for (from, until) in [(0, 50), (100, 200), (20, 30)] {
            tl.reserve(kb(3), t(from), t(until)).unwrap();
            tl.release(kb(3), t(from), t(until));
            assert_eq!(tl, before);
        }
        tl.force_reserve(kb(50), t(10), t(20));
        tl.release(kb(50), t(10), t(20));
        assert_eq!(tl, before);
    }

    #[test]
    fn peak_usage_spans_events() {
        let mut tl = CapacityTimeline::new(kb(100));
        tl.reserve(kb(4), t(10), t(20)).unwrap();
        tl.reserve(kb(7), t(15), t(30)).unwrap();
        assert_eq!(tl.peak_usage(t(0), t(10)), Bytes::ZERO);
        assert_eq!(tl.peak_usage(t(0), t(12)), kb(4));
        assert_eq!(tl.peak_usage(t(0), t(100)), kb(11));
        assert_eq!(tl.peak_usage(t(16), t(18)), kb(11));
        assert_eq!(tl.peak_usage(t(20), t(30)), kb(7));
        assert_eq!(tl.peak_usage(t(30), t(40)), Bytes::ZERO);
    }

    #[test]
    fn reserve_rejects_overflow_and_leaves_state() {
        let mut tl = CapacityTimeline::new(kb(10));
        tl.reserve(kb(8), t(10), t(20)).unwrap();
        let before = tl.clone();
        let err = tl.reserve(kb(5), t(15), t(25)).unwrap_err();
        assert_eq!(err.used, kb(8));
        assert_eq!(err.capacity, kb(10));
        assert_eq!(tl, before);
        // Non-overlapping span still fits.
        tl.reserve(kb(5), t(20), t(25)).unwrap();
    }

    #[test]
    fn exact_fit_allowed() {
        let mut tl = CapacityTimeline::new(kb(10));
        tl.reserve(kb(10), t(0), t(5)).unwrap();
        assert!(!tl.can_hold(Bytes::new(1), t(0), t(5)));
        assert!(tl.can_hold(kb(10), t(5), t(6)));
    }

    #[test]
    fn empty_span_reservations_are_noops() {
        let mut tl = CapacityTimeline::new(kb(1));
        tl.reserve(kb(100), t(5), t(5)).unwrap();
        tl.reserve(Bytes::ZERO, t(0), t(100)).unwrap();
        assert_eq!(tl.peak_usage(t(0), t(100)), Bytes::ZERO);
    }

    #[test]
    fn earliest_hold_start_immediate_when_free() {
        let tl = CapacityTimeline::new(kb(10));
        assert_eq!(tl.earliest_hold_start(kb(5), t(3), t(50)), Some(t(3)));
    }

    #[test]
    fn earliest_hold_start_waits_for_release() {
        let mut tl = CapacityTimeline::new(kb(10));
        tl.reserve(kb(8), t(0), t(30)).unwrap();
        // 5 KB only fits after the 8 KB leaves at t=30.
        assert_eq!(tl.earliest_hold_start(kb(5), t(3), t(50)), Some(t(30)));
        // 2 KB fits immediately alongside.
        assert_eq!(tl.earliest_hold_start(kb(2), t(3), t(50)), Some(t(3)));
    }

    #[test]
    fn earliest_hold_start_none_when_blocked_through_end() {
        let mut tl = CapacityTimeline::new(kb(10));
        tl.reserve(kb(8), t(10), t(60)).unwrap();
        // Span [3, 50): the 8 KB blocker persists past 50.
        assert_eq!(tl.earliest_hold_start(kb(5), t(3), t(50)), None);
        // But a span that extends past the release works.
        assert_eq!(tl.earliest_hold_start(kb(5), t(3), t(70)), Some(t(60)));
    }

    #[test]
    fn earliest_hold_start_with_multiple_blockers() {
        let mut tl = CapacityTimeline::new(kb(10));
        tl.reserve(kb(8), t(0), t(20)).unwrap();
        tl.reserve(kb(8), t(40), t(50)).unwrap();
        // 5 KB needs [start, 45) free of 8 KB blockers: blocked 0-20 and
        // 40-50; since the span must reach 45 > 40, no start works... wait,
        // until=45 overlaps the second blocker, so None.
        assert_eq!(tl.earliest_hold_start(kb(5), t(0), t(45)), None);
        // until=40 works starting at 20.
        assert_eq!(tl.earliest_hold_start(kb(5), t(0), t(40)), Some(t(20)));
        // until=60 must wait for the second blocker to clear at 50.
        assert_eq!(tl.earliest_hold_start(kb(5), t(0), t(60)), Some(t(50)));
    }

    #[test]
    fn earliest_hold_start_oversized_is_none() {
        let tl = CapacityTimeline::new(kb(10));
        assert_eq!(tl.earliest_hold_start(kb(11), t(0), t(10)), None);
    }

    #[test]
    fn earliest_hold_start_empty_span_is_from() {
        let tl = CapacityTimeline::new(kb(1));
        assert_eq!(tl.earliest_hold_start(kb(100), t(7), t(7)), Some(t(7)));
        assert_eq!(tl.earliest_hold_start(kb(100), t(8), t(7)), Some(t(8)));
    }

    #[test]
    fn earliest_hold_start_result_is_actually_feasible() {
        let mut tl = CapacityTimeline::new(kb(10));
        tl.reserve(kb(6), t(5), t(15)).unwrap();
        tl.reserve(kb(6), t(25), t(35)).unwrap();
        let start = tl.earliest_hold_start(kb(5), t(0), t(25)).unwrap();
        assert_eq!(start, t(15));
        assert!(tl.can_hold(kb(5), start, t(25)));
        // And one millisecond earlier is infeasible.
        let earlier = SimTime::from_millis(start.as_millis() - 1);
        assert!(!tl.can_hold(kb(5), earlier, t(25)));
    }

    #[test]
    fn peak_usage_ignores_levels_released_before_span() {
        // Regression: a high level that ends before the span must not count.
        let mut tl = CapacityTimeline::new(kb(10));
        tl.reserve(kb(10), t(0), t(5)).unwrap();
        assert_eq!(tl.peak_usage(t(6), t(10)), Bytes::ZERO);
        assert!(tl.can_hold(kb(10), t(6), t(10)));
        assert_eq!(tl.peak_usage(t(5), t(10)), Bytes::ZERO); // releases exactly at 5
    }

    #[test]
    fn reserve_beyond_i64_max_does_not_panic() {
        // Regression: sizes above i64::MAX bytes used to panic in
        // `i64::try_from(size.as_u64()).expect("sizes fit in i64")`.
        let huge = Bytes::new(u64::MAX);
        let mut tl = CapacityTimeline::new(huge);
        tl.reserve(huge, t(10), t(20)).unwrap();
        assert_eq!(tl.used_at(t(10)), huge);
        assert_eq!(tl.used_at(t(15)), huge);
        assert!(!tl.can_hold(Bytes::new(1), t(10), t(20)));
        assert_eq!(tl.used_at(t(20)), Bytes::ZERO);
        // The release balanced the chunked deltas exactly.
        assert!(tl.can_hold(huge, t(20), t(30)));
        // And a second huge reservation over the freed span still works.
        tl.reserve(huge, t(20), t(30)).unwrap();
        assert_eq!(tl.peak_usage(t(20), t(30)), huge);
    }

    #[test]
    fn force_reserve_beyond_i64_max_overcommits_and_releases() {
        // Regression: force_reserve had the same i64 conversion panic, and
        // stacked overcommits can push the level past u64::MAX.
        let huge = Bytes::new(u64::MAX);
        let mut tl = CapacityTimeline::new(kb(1));
        tl.force_reserve(huge, t(0), t(50));
        tl.force_reserve(huge, t(10), t(40));
        // Level is ~2 * u64::MAX; reads clamp to u64::MAX.
        assert_eq!(tl.used_at(t(20)), huge);
        assert!(!tl.can_hold(Bytes::new(1), t(20), t(30)));
        // Releases unwind the overcommit exactly.
        assert_eq!(tl.used_at(t(40)), huge);
        assert_eq!(tl.used_at(t(50)), Bytes::ZERO);
        assert!(tl.can_hold(kb(1), t(50), t(60)));
    }

    #[test]
    fn earliest_hold_start_with_huge_capacity() {
        // i128 accumulation: levels above i64::MAX must not overflow the
        // feasibility scan.
        let huge = Bytes::new(u64::MAX);
        let mut tl = CapacityTimeline::new(huge);
        tl.reserve(huge, t(0), t(30)).unwrap();
        assert_eq!(tl.earliest_hold_start(Bytes::new(1), t(0), t(60)), Some(t(30)));
        assert_eq!(tl.earliest_hold_start(huge, t(0), t(60)), Some(t(30)));
    }

    #[test]
    fn zero_size_always_fits() {
        let mut tl = CapacityTimeline::new(Bytes::ZERO);
        assert!(tl.can_hold(Bytes::ZERO, t(0), t(10)));
        assert_eq!(tl.earliest_hold_start(Bytes::ZERO, t(0), t(10)), Some(t(0)));
        tl.reserve(Bytes::ZERO, t(0), t(10)).unwrap();
    }
}
