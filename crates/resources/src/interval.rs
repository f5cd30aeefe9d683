//! Busy-interval bookkeeping for serially reusable resources.
//!
//! A virtual link carries at most one transfer at a time (the paper's link
//! conflict rule, §4.3); its reservations form a set of disjoint
//! half-open intervals `[start, end)` over simulation time.

use dstage_model::time::{SimDuration, SimTime};

/// A set of disjoint, sorted, half-open busy intervals.
///
/// # Examples
///
/// ```
/// use dstage_resources::interval::BusyIntervals;
/// use dstage_model::time::{SimTime, SimDuration};
///
/// let mut busy = BusyIntervals::new();
/// busy.reserve(SimTime::from_secs(10), SimTime::from_secs(20)).unwrap();
/// // A 5s job ready at t=8 must wait for the gap after t=20... unless it
/// // fits before t=10 — it doesn't (8+5 > 10), so:
/// let start = busy.earliest_gap(
///     SimTime::from_secs(8),
///     SimDuration::from_secs(5),
///     SimTime::MAX,
/// );
/// assert_eq!(start, Some(SimTime::from_secs(20)));
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BusyIntervals {
    /// Sorted by start; pairwise disjoint (abutting intervals are merged).
    spans: Vec<(SimTime, SimTime)>,
}

/// Error returned by [`BusyIntervals::reserve`] when the requested span
/// overlaps an existing reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapError {
    /// Start of the existing reservation that conflicts.
    pub existing_start: SimTime,
    /// End of the existing reservation that conflicts.
    pub existing_end: SimTime,
}

impl core::fmt::Display for OverlapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "requested span overlaps existing reservation [{}, {})",
            self.existing_start, self.existing_end
        )
    }
}

impl std::error::Error for OverlapError {}

impl BusyIntervals {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        BusyIntervals::default()
    }

    /// Number of disjoint busy spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when nothing is reserved.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates over the busy spans in time order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, SimTime)> + '_ {
        self.spans.iter().copied()
    }

    /// Whether `[start, end)` is completely free.
    ///
    /// Zero-length spans are trivially free.
    #[must_use]
    pub fn is_free(&self, start: SimTime, end: SimTime) -> bool {
        if start >= end {
            return true;
        }
        // First span with span_end > start could overlap.
        let idx = self.spans.partition_point(|&(_, e)| e <= start);
        match self.spans.get(idx) {
            Some(&(s, _)) => s >= end,
            None => true,
        }
    }

    /// Reserves `[start, end)`.
    ///
    /// Abutting spans are merged so the set stays canonical.
    ///
    /// # Errors
    ///
    /// Returns [`OverlapError`] if the span overlaps an existing
    /// reservation; the set is unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end` (empty reservations are almost certainly a
    /// caller bug — a transfer always takes at least one millisecond).
    pub fn reserve(&mut self, start: SimTime, end: SimTime) -> Result<(), OverlapError> {
        assert!(start < end, "reservation must be a non-empty span");
        let idx = self.spans.partition_point(|&(_, e)| e <= start);
        if let Some(&(s, e)) = self.spans.get(idx) {
            if s < end {
                return Err(OverlapError { existing_start: s, existing_end: e });
            }
        }
        // Merge with predecessor if abutting (pred.end == start)...
        let merge_prev = idx > 0 && self.spans[idx - 1].1 == start;
        // ... and with successor if abutting (end == succ.start).
        let merge_next = self.spans.get(idx).is_some_and(|&(s, _)| s == end);
        match (merge_prev, merge_next) {
            (true, true) => {
                self.spans[idx - 1].1 = self.spans[idx].1;
                self.spans.remove(idx);
            }
            (true, false) => self.spans[idx - 1].1 = end,
            (false, true) => self.spans[idx].0 = start,
            (false, false) => self.spans.insert(idx, (start, end)),
        }
        Ok(())
    }

    /// Frees `[start, end)` again — the exact inverse of the
    /// [`BusyIntervals::reserve`] that booked it, splitting the merged
    /// span it sits in where neighbours abut.
    ///
    /// # Panics
    ///
    /// Panics if the span is empty or not entirely busy: only a
    /// reservation that was made can be taken back.
    pub fn release(&mut self, start: SimTime, end: SimTime) {
        assert!(start < end, "released span must be non-empty");
        let idx = self.spans.partition_point(|&(_, e)| e <= start);
        let (s, e) = match self.spans.get(idx) {
            Some(&(s, e)) if s <= start && end <= e => (s, e),
            _ => panic!("released span [{start}, {end}) is not reserved"),
        };
        match (s < start, end < e) {
            (true, true) => {
                self.spans[idx].1 = start;
                self.spans.insert(idx + 1, (end, e));
            }
            (true, false) => self.spans[idx].1 = start,
            (false, true) => self.spans[idx].0 = end,
            (false, false) => {
                self.spans.remove(idx);
            }
        }
    }

    /// The earliest `start >= ready` such that `[start, start + duration)`
    /// is free and `start + duration <= limit`.
    ///
    /// Returns `None` when no such start exists before `limit`.
    /// A zero `duration` fits anywhere, so `ready` is returned whenever
    /// `ready <= limit`.
    #[must_use]
    pub fn earliest_gap(
        &self,
        ready: SimTime,
        duration: SimDuration,
        limit: SimTime,
    ) -> Option<SimTime> {
        let mut iterations = 0;
        let found = self.earliest_gap_counted(ready, duration, limit, &mut iterations);
        dstage_obs::metrics::RESOURCES_GAP_ITERATIONS.add(iterations);
        found
    }

    /// [`BusyIntervals::earliest_gap`] without the tap: its loop
    /// iterations are added to `iterations` for the caller to publish.
    pub(crate) fn earliest_gap_counted(
        &self,
        ready: SimTime,
        duration: SimDuration,
        limit: SimTime,
        iterations: &mut u64,
    ) -> Option<SimTime> {
        let mut candidate = ready;
        // Checked, not saturating: a saturated end would equal
        // `SimTime::MAX` and falsely pass `end <= limit` for an
        // open-ended limit, reporting a fit for a transfer whose true end
        // is beyond the representable horizon.
        let fits = |start: SimTime| -> Option<SimTime> {
            let end = start.checked_add(duration)?;
            (end <= limit).then_some(end)
        };
        if duration.is_zero() {
            // An empty span occupies nothing; it fits wherever it may start.
            return (ready <= limit).then_some(ready);
        }
        fits(candidate)?;
        let mut idx = self.spans.partition_point(|&(_, e)| e <= candidate);
        loop {
            *iterations += 1;
            let end = fits(candidate)?;
            match self.spans.get(idx) {
                Some(&(s, e)) if s < end => {
                    // Overlaps this busy span; try right after it.
                    candidate = e;
                    idx += 1;
                }
                _ => return Some(candidate),
            }
        }
    }

    /// The latest `start >= ready` such that `[start, start + duration)`
    /// is free and `start + duration <= limit` — the time-reversal mirror
    /// of [`BusyIntervals::earliest_gap`], used by as-late-as-possible
    /// placement to leave early capacity free for later arrivals.
    ///
    /// Returns `None` when no such start exists. A zero `duration`
    /// occupies nothing, so the latest start is `limit` itself whenever
    /// `ready <= limit`.
    #[must_use]
    pub fn latest_gap(
        &self,
        ready: SimTime,
        duration: SimDuration,
        limit: SimTime,
    ) -> Option<SimTime> {
        if duration.is_zero() {
            // An empty span occupies nothing; the latest start is the limit.
            return (ready <= limit).then_some(limit);
        }
        // Checked, not saturating: a limit shorter than the duration has
        // no representable start at all, and clamping to zero would
        // report a start whose true end overshoots the limit.
        let mut candidate =
            SimTime::from_millis(limit.as_millis().checked_sub(duration.as_millis())?);
        if candidate < ready {
            return None;
        }
        // `spans[..idx]` start before the candidate span's end; the span
        // at `idx - 1` is the only one that can overlap from the right.
        let mut idx = self.spans.partition_point(|&(s, _)| s < limit);
        // Count iterations locally and publish once: this loop sits inside
        // every latest-slot probe, so per-iteration atomics would be felt.
        let mut iterations: u64 = 0;
        let found = loop {
            iterations += 1;
            match idx.checked_sub(1).map(|i| self.spans[i]) {
                Some((s, e)) if e > candidate => {
                    // Overlaps this busy span; try ending right at its
                    // start (underflow means nothing earlier fits either).
                    let Some(ms) = s.as_millis().checked_sub(duration.as_millis()) else {
                        break None;
                    };
                    candidate = SimTime::from_millis(ms);
                    if candidate < ready {
                        break None;
                    }
                    idx -= 1;
                }
                _ => break Some(candidate),
            }
        };
        dstage_obs::metrics::RESOURCES_GAP_ITERATIONS.add(iterations);
        found
    }

    /// The maximal free gaps within `[from, to)`, in time order.
    ///
    /// Used to blanket-reserve a span that may already contain
    /// reservations (e.g. blocking a link's past, or taking it down for
    /// the rest of the horizon).
    #[must_use]
    pub fn free_gaps(&self, from: SimTime, to: SimTime) -> Vec<(SimTime, SimTime)> {
        if from >= to {
            return Vec::new();
        }
        let mut gaps = Vec::new();
        let mut cursor = from;
        let idx = self.spans.partition_point(|&(_, e)| e <= from);
        for &(s, e) in &self.spans[idx..] {
            if s >= to {
                break;
            }
            if s > cursor {
                gaps.push((cursor, s.min(to)));
            }
            cursor = cursor.max(e);
            if cursor >= to {
                return gaps;
            }
        }
        if cursor < to {
            gaps.push((cursor, to));
        }
        gaps
    }

    /// Reserves every currently free instant of `[from, to)` (no-op where
    /// already busy).
    pub fn blanket_reserve(&mut self, from: SimTime, to: SimTime) {
        for (s, e) in self.free_gaps(from, to) {
            self.reserve(s, e).expect("free gaps are free by construction");
        }
    }

    /// Total busy time.
    ///
    /// Saturating is sound here (audited): spans satisfy `e >= s`, so each
    /// term is exact, and the sum is purely diagnostic — it bounds no
    /// admission decision, so saturation cannot sneak past a check.
    #[must_use]
    pub fn total_busy(&self) -> SimDuration {
        self.spans
            .iter()
            .fold(SimDuration::ZERO, |acc, &(s, e)| acc.saturating_add(e.saturating_since(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn empty_set_is_all_free() {
        let b = BusyIntervals::new();
        assert!(b.is_empty());
        assert!(b.is_free(SimTime::ZERO, SimTime::MAX));
        assert_eq!(b.earliest_gap(t(5), d(100), SimTime::MAX), Some(t(5)));
    }

    #[test]
    fn reserve_then_query() {
        let mut b = BusyIntervals::new();
        b.reserve(t(10), t(20)).unwrap();
        assert!(b.is_free(t(0), t(10)));
        assert!(b.is_free(t(20), t(30)));
        assert!(!b.is_free(t(9), t(11)));
        assert!(!b.is_free(t(15), t(16)));
        assert!(!b.is_free(t(19), t(25)));
        assert!(!b.is_free(t(5), t(25)));
    }

    #[test]
    fn overlapping_reserve_rejected_and_state_unchanged() {
        let mut b = BusyIntervals::new();
        b.reserve(t(10), t(20)).unwrap();
        let before = b.clone();
        let err = b.reserve(t(15), t(25)).unwrap_err();
        assert_eq!(err.existing_start, t(10));
        assert_eq!(err.existing_end, t(20));
        assert_eq!(b, before);
        // Also when the new span fully covers the old one.
        assert!(b.reserve(t(5), t(30)).is_err());
        assert_eq!(b, before);
    }

    #[test]
    #[should_panic(expected = "non-empty span")]
    fn empty_reserve_panics() {
        let mut b = BusyIntervals::new();
        let _ = b.reserve(t(5), t(5));
    }

    #[test]
    fn abutting_reservations_merge() {
        let mut b = BusyIntervals::new();
        b.reserve(t(10), t(20)).unwrap();
        b.reserve(t(20), t(30)).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.iter().next(), Some((t(10), t(30))));
        b.reserve(t(0), t(10)).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.iter().next(), Some((t(0), t(30))));
        // Merge both sides at once.
        b.reserve(t(40), t(50)).unwrap();
        b.reserve(t(30), t(40)).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.iter().next(), Some((t(0), t(50))));
    }

    #[test]
    fn release_is_the_exact_inverse_of_reserve() {
        let mut b = BusyIntervals::new();
        b.reserve(t(0), t(10)).unwrap();
        b.reserve(t(20), t(30)).unwrap();
        let before = b.clone();
        // Abutting on both sides: the three spans merge, the release
        // splits them again.
        b.reserve(t(10), t(20)).unwrap();
        assert_eq!(b.len(), 1);
        b.release(t(10), t(20));
        assert_eq!(b, before);
        // Abutting on one side, and free-standing.
        for (s, e) in [(30, 35), (5_000, 5_001)] {
            b.reserve(t(s), t(e)).unwrap();
            b.release(t(s), t(e));
            assert_eq!(b, before);
        }
    }

    #[test]
    #[should_panic(expected = "is not reserved")]
    fn releasing_free_time_panics() {
        let mut b = BusyIntervals::new();
        b.reserve(t(0), t(10)).unwrap();
        b.release(t(5), t(15));
    }

    #[test]
    fn earliest_gap_skips_busy_spans() {
        let mut b = BusyIntervals::new();
        b.reserve(t(10), t(20)).unwrap();
        b.reserve(t(25), t(40)).unwrap();
        // Fits before the first span.
        assert_eq!(b.earliest_gap(t(0), d(10), SimTime::MAX), Some(t(0)));
        // Exactly fits before the first span.
        assert_eq!(b.earliest_gap(t(5), d(5), SimTime::MAX), Some(t(5)));
        // Too long for the first gap; also too long for [20,25); lands at 40.
        assert_eq!(b.earliest_gap(t(5), d(6), SimTime::MAX), Some(t(40)));
        // Ready inside the first busy span; exactly fits the middle gap.
        assert_eq!(b.earliest_gap(t(11), d(5), SimTime::MAX), Some(t(20)));
        // Ready inside a busy span, too long for the middle gap.
        assert_eq!(b.earliest_gap(t(12), d(6), SimTime::MAX), Some(t(40)));
    }

    #[test]
    fn earliest_gap_respects_limit() {
        let mut b = BusyIntervals::new();
        b.reserve(t(10), t(20)).unwrap();
        // Ready inside the busy span: would fit at t=20 but the limit
        // forbids finishing after t=24.
        assert_eq!(b.earliest_gap(t(12), d(5), t(24)), None);
        assert_eq!(b.earliest_gap(t(12), d(5), t(25)), Some(t(20)));
        // Limit earlier than ready.
        assert_eq!(b.earliest_gap(t(30), d(1), t(20)), None);
    }

    #[test]
    fn earliest_gap_rejects_overflowing_end() {
        // Regression: `end = start.saturating_add(duration)` used to
        // saturate to `SimTime::MAX`, so `end <= limit` passed for
        // `limit == SimTime::MAX` and an un-schedulable transfer was
        // reported as fitting.
        let b = BusyIntervals::new();
        let ready = SimTime::from_millis(u64::MAX - 10);
        assert_eq!(b.earliest_gap(ready, SimDuration::from_millis(100), SimTime::MAX), None);
        // Same overflow with a busy span forcing a late candidate.
        let mut busy = BusyIntervals::new();
        busy.reserve(SimTime::from_millis(u64::MAX - 20), SimTime::from_millis(u64::MAX - 5))
            .unwrap();
        assert_eq!(
            busy.earliest_gap(
                SimTime::from_millis(u64::MAX - 15),
                SimDuration::from_millis(100),
                SimTime::MAX
            ),
            None
        );
        // An end landing exactly on `SimTime::MAX` is not an overflow and
        // still fits.
        assert_eq!(b.earliest_gap(ready, SimDuration::from_millis(10), SimTime::MAX), Some(ready));
    }

    #[test]
    fn latest_gap_hugs_the_limit() {
        let mut b = BusyIntervals::new();
        b.reserve(t(10), t(20)).unwrap();
        b.reserve(t(25), t(40)).unwrap();
        // Free tail: the latest start ends exactly at the limit.
        assert_eq!(b.latest_gap(t(0), d(10), t(60)), Some(t(50)));
        // Limit inside the second busy span: fall back before it.
        assert_eq!(b.latest_gap(t(0), d(5), t(30)), Some(t(20)));
        // Too long for the middle gap; only the head gap fits.
        assert_eq!(b.latest_gap(t(0), d(6), t(40)), Some(t(4)));
        // Ready bound cuts the head gap off.
        assert_eq!(b.latest_gap(t(5), d(6), t(40)), None);
        // Exactly fits the middle gap.
        assert_eq!(b.latest_gap(t(0), d(5), t(25)), Some(t(20)));
    }

    #[test]
    fn latest_gap_respects_ready_and_limit() {
        let mut b = BusyIntervals::new();
        b.reserve(t(10), t(20)).unwrap();
        // Limit earlier than ready + duration.
        assert_eq!(b.latest_gap(t(8), d(5), t(12)), None);
        // Limit before ready entirely.
        assert_eq!(b.latest_gap(t(30), d(1), t(20)), None);
        // Latest start is clamped no earlier than ready.
        assert_eq!(b.latest_gap(t(0), d(10), t(10)), Some(t(0)));
        assert_eq!(b.latest_gap(t(1), d(10), t(10)), None);
    }

    #[test]
    fn latest_gap_rejects_overflowing_arithmetic() {
        // Mirror of `earliest_gap_rejects_overflowing_end`: the top
        // candidate is `limit − duration`, which must be checked when the
        // duration exceeds the limit.
        let b = BusyIntervals::new();
        assert_eq!(b.latest_gap(SimTime::ZERO, SimDuration::from_millis(10), t(0)), None);
        assert_eq!(
            b.latest_gap(SimTime::ZERO, SimDuration::MAX, SimTime::from_millis(u64::MAX - 1)),
            None
        );
        // A fit ending exactly at `SimTime::MAX` is representable.
        assert_eq!(
            b.latest_gap(SimTime::ZERO, SimDuration::from_millis(10), SimTime::MAX),
            Some(SimTime::from_millis(u64::MAX - 10))
        );
        // A busy span pinned at time zero: sliding before it underflows
        // and must report None, not wrap.
        let mut busy = BusyIntervals::new();
        busy.reserve(SimTime::ZERO, t(10)).unwrap();
        assert_eq!(busy.latest_gap(SimTime::ZERO, d(5), t(12)), None);
    }

    #[test]
    fn latest_gap_zero_duration() {
        let mut b = BusyIntervals::new();
        b.reserve(t(10), t(20)).unwrap();
        // Zero-length fits anywhere; the latest start is the limit itself.
        assert_eq!(b.latest_gap(t(5), SimDuration::ZERO, t(15)), Some(t(15)));
        assert_eq!(b.latest_gap(t(16), SimDuration::ZERO, t(15)), None);
    }

    #[test]
    fn earliest_gap_zero_duration() {
        let mut b = BusyIntervals::new();
        b.reserve(t(10), t(20)).unwrap();
        // Zero-length fits anywhere, even "inside" (it occupies nothing).
        assert_eq!(b.earliest_gap(t(15), SimDuration::ZERO, SimTime::MAX), Some(t(15)));
    }

    #[test]
    fn total_busy_sums_spans() {
        let mut b = BusyIntervals::new();
        assert_eq!(b.total_busy(), SimDuration::ZERO);
        b.reserve(t(10), t(20)).unwrap();
        b.reserve(t(30), t(35)).unwrap();
        assert_eq!(b.total_busy(), d(15));
    }

    #[test]
    fn free_gaps_enumerates_complement() {
        let mut b = BusyIntervals::new();
        b.reserve(t(10), t(20)).unwrap();
        b.reserve(t(30), t(40)).unwrap();
        assert_eq!(b.free_gaps(t(0), t(50)), vec![(t(0), t(10)), (t(20), t(30)), (t(40), t(50))]);
        // Window starting inside a busy span.
        assert_eq!(b.free_gaps(t(15), t(35)), vec![(t(20), t(30))]);
        // Fully busy window.
        assert_eq!(b.free_gaps(t(12), t(18)), vec![]);
        // Empty window.
        assert_eq!(b.free_gaps(t(5), t(5)), vec![]);
        // Fully free window.
        assert_eq!(b.free_gaps(t(50), t(60)), vec![(t(50), t(60))]);
    }

    #[test]
    fn blanket_reserve_fills_everything() {
        let mut b = BusyIntervals::new();
        b.reserve(t(10), t(20)).unwrap();
        b.reserve(t(30), t(40)).unwrap();
        b.blanket_reserve(t(5), t(35));
        assert!(!b.is_free(t(5), t(6)));
        assert!(b.free_gaps(t(5), t(35)).is_empty());
        // Outside the blanket the link is untouched.
        assert!(b.is_free(t(0), t(5)));
        assert!(b.is_free(t(40), t(50)));
        // Blanketing an already-covered span is a no-op.
        b.blanket_reserve(t(10), t(20));
    }

    #[test]
    fn many_reservations_stay_sorted_and_disjoint() {
        let mut b = BusyIntervals::new();
        // Insert in scrambled order.
        for &(s, e) in &[(50u64, 60u64), (10, 20), (30, 40), (0, 5), (70, 75)] {
            b.reserve(t(s), t(e)).unwrap();
        }
        let spans: Vec<_> = b.iter().collect();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "spans out of order or overlapping: {spans:?}");
        }
        assert_eq!(spans.len(), 5);
    }
}
