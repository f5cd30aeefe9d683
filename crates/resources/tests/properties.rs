//! Property-based tests for the resource substrate.
//!
//! These check the structural invariants that the scheduler relies on:
//! busy intervals stay disjoint and sorted, gap search returns genuinely
//! free and genuinely earliest slots, and capacity answers agree between
//! the probe (`earliest_hold_start`) and the commit (`reserve`).

use dstage_model::time::{SimDuration, SimTime};
use dstage_model::units::Bytes;
use dstage_resources::interval::BusyIntervals;
use dstage_resources::timeline::CapacityTimeline;
use proptest::prelude::*;

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// Arbitrary disjoint busy sets built by attempting random reservations.
fn busy_set(attempts: Vec<(u64, u64)>) -> BusyIntervals {
    let mut b = BusyIntervals::new();
    for (s, len) in attempts {
        let start = t(s % 10_000);
        let end = t((s % 10_000) + 1 + len % 500);
        let _ = b.reserve(start, end);
    }
    b
}

proptest! {
    #[test]
    fn busy_intervals_stay_sorted_and_disjoint(attempts in prop::collection::vec((0u64..10_000, 0u64..500), 0..40)) {
        let b = busy_set(attempts);
        let spans: Vec<_> = b.iter().collect();
        for w in spans.windows(2) {
            // Strictly increasing and non-touching (abutting spans merge).
            prop_assert!(w[0].1 < w[1].0, "spans {:?} not disjoint/merged", spans);
        }
        for (s, e) in spans {
            prop_assert!(s < e);
        }
    }

    #[test]
    fn reserve_reports_overlap_iff_not_free(
        attempts in prop::collection::vec((0u64..10_000, 0u64..500), 0..30),
        probe_start in 0u64..11_000,
        probe_len in 1u64..600,
    ) {
        let mut b = busy_set(attempts);
        let start = t(probe_start);
        let end = t(probe_start + probe_len);
        let was_free = b.is_free(start, end);
        let result = b.reserve(start, end);
        prop_assert_eq!(was_free, result.is_ok());
    }

    #[test]
    fn earliest_gap_is_free_and_earliest(
        attempts in prop::collection::vec((0u64..10_000, 0u64..500), 0..30),
        ready in 0u64..11_000,
        len in 1u64..600,
        limit in 0u64..20_000,
    ) {
        let b = busy_set(attempts);
        let duration = SimDuration::from_millis(len);
        let limit = t(limit);
        match b.earliest_gap(t(ready), duration, limit) {
            Some(start) => {
                let end = start + duration;
                prop_assert!(start >= t(ready));
                prop_assert!(end <= limit);
                prop_assert!(b.is_free(start, end), "reported gap not free");
                // Earliest: one millisecond earlier must not fit (unless
                // that would violate the ready time).
                if start > t(ready) {
                    let earlier = SimTime::from_millis(start.as_millis() - 1);
                    prop_assert!(
                        !b.is_free(earlier, earlier + duration),
                        "a strictly earlier start also fits"
                    );
                }
            }
            None => {
                // Exhaustive check: no start in [ready, limit-len] fits.
                // (Bounded domain keeps this tractable.)
                let ready_ms = ready;
                let Some(latest) = limit.as_millis().checked_sub(len) else {
                    return Ok(());
                };
                for s in ready_ms..=latest.min(ready_ms + 12_000) {
                    let cs = t(s);
                    prop_assert!(
                        !b.is_free(cs, cs + duration),
                        "earliest_gap returned None but start {} fits", s
                    );
                }
            }
        }
    }

    #[test]
    fn latest_gap_is_free_and_latest(
        attempts in prop::collection::vec((0u64..10_000, 0u64..500), 0..30),
        ready in 0u64..11_000,
        len in 1u64..600,
        limit in 0u64..20_000,
    ) {
        let b = busy_set(attempts);
        let duration = SimDuration::from_millis(len);
        let limit = t(limit);
        match b.latest_gap(t(ready), duration, limit) {
            Some(start) => {
                let end = start + duration;
                prop_assert!(start >= t(ready));
                prop_assert!(end <= limit);
                prop_assert!(b.is_free(start, end), "reported gap not free");
                // Latest: one millisecond later must not fit (unless that
                // would overshoot the limit).
                let later = start + SimDuration::from_millis(1);
                if later + duration <= limit {
                    prop_assert!(
                        !b.is_free(later, later + duration),
                        "a strictly later start also fits"
                    );
                }
            }
            None => {
                // Exhaustive check: no start in [ready, limit-len] fits.
                // (Bounded domain keeps this tractable.)
                let Some(latest) = limit.as_millis().checked_sub(len) else {
                    return Ok(());
                };
                for s in ready..=latest.min(ready + 12_000) {
                    let cs = t(s);
                    prop_assert!(
                        !b.is_free(cs, cs + duration),
                        "latest_gap returned None but start {} fits", s
                    );
                }
            }
        }
    }

    #[test]
    fn latest_gap_mirrors_earliest_gap_under_time_reversal(
        attempts in prop::collection::vec((0u64..10_000, 0u64..500), 0..30),
        ready in 0u64..11_000,
        len in 1u64..600,
        limit in 0u64..20_000,
    ) {
        // Reflect the busy set around a pivot beyond every span: a span
        // [s, e) maps to [P-e, P-s), ready and limit swap roles, and the
        // latest start in the original set corresponds to the earliest
        // start in the mirror. This is the defining property of `latest_gap`.
        const PIVOT: u64 = 40_000;
        let b = busy_set(attempts);
        let mut mirrored = BusyIntervals::new();
        for (s, e) in b.iter() {
            mirrored
                .reserve(t(PIVOT - e.as_millis()), t(PIVOT - s.as_millis()))
                .expect("mirrored spans of a disjoint set stay disjoint");
        }
        let duration = SimDuration::from_millis(len);
        let forward = b.latest_gap(t(ready), duration, t(limit));
        // In mirror time the limit becomes the ready bound and vice versa:
        // a span [start, start+len) maps to [PIVOT-limit .. PIVOT-ready].
        let mirror = mirrored.earliest_gap(t(PIVOT - limit.min(PIVOT)), duration, t(PIVOT - ready.min(PIVOT)));
        match (forward, mirror) {
            (Some(f), Some(m)) => {
                // start <-> PIVOT - end = PIVOT - start - len.
                prop_assert_eq!(
                    f.as_millis(),
                    PIVOT - m.as_millis() - len,
                    "latest start does not mirror the earliest start"
                );
            }
            (None, None) => {}
            (f, m) => prop_assert!(false, "feasibility disagrees under reversal: {:?} vs {:?}", f, m),
        }
    }

    #[test]
    fn latest_gap_handles_near_max_overflow_edges(
        offset in 0u64..100,
        len in 1u64..200,
    ) {
        // Checked arithmetic at the top of representable time, mirroring
        // the PR-4 `earliest_gap` overflow fix: a candidate end may never
        // silently wrap past `SimTime::MAX`.
        let b = BusyIntervals::new();
        let limit = SimTime::from_millis(u64::MAX - offset);
        match b.latest_gap(SimTime::ZERO, SimDuration::from_millis(len), limit) {
            Some(start) => {
                prop_assert_eq!(start.as_millis(), u64::MAX - offset - len);
            }
            None => prop_assert!(false, "an empty set always fits below MAX"),
        }
        // A duration longer than the whole timeline can never fit.
        prop_assert_eq!(
            b.latest_gap(t(2), SimDuration::MAX, SimTime::MAX),
            None
        );
        // Busy right up to MAX: sliding before the span must use checked
        // subtraction, not wrap.
        let mut busy = BusyIntervals::new();
        busy.reserve(SimTime::from_millis(len / 2), SimTime::MAX).unwrap();
        prop_assert_eq!(
            busy.latest_gap(SimTime::ZERO, SimDuration::from_millis(len), SimTime::MAX),
            None
        );
    }

    #[test]
    fn earliest_gap_monotone_in_ready(
        attempts in prop::collection::vec((0u64..10_000, 0u64..500), 0..30),
        ready in 0u64..10_000,
        advance in 0u64..2_000,
        len in 1u64..600,
    ) {
        // The FIFO property the Dijkstra correctness argument rests on:
        // a later ready time never yields an earlier slot.
        let b = busy_set(attempts);
        let duration = SimDuration::from_millis(len);
        let g1 = b.earliest_gap(t(ready), duration, SimTime::from_millis(50_000));
        let g2 = b.earliest_gap(t(ready + advance), duration, SimTime::from_millis(50_000));
        match (g1, g2) {
            (Some(a), Some(b_)) => prop_assert!(a <= b_),
            (None, Some(_)) => prop_assert!(false, "later ready found a slot an earlier one missed"),
            _ => {}
        }
    }

    #[test]
    fn timeline_usage_never_negative_and_peak_consistent(
        cap in 1_000u64..100_000,
        reservations in prop::collection::vec((0u64..5_000, 1u64..2_000, 1u64..50_000), 0..30),
        probe in 0u64..8_000,
    ) {
        let mut tl = CapacityTimeline::new(Bytes::new(cap));
        for (from, len, size) in reservations {
            let _ = tl.reserve(Bytes::new(size), t(from), t(from + len));
        }
        // Accepted reservations never exceed capacity anywhere.
        let peak = tl.peak_usage(SimTime::ZERO, t(10_000));
        prop_assert!(peak.as_u64() <= cap, "peak {} exceeds cap {}", peak, cap);
        // Point usage is bounded by span peak.
        let at = tl.used_at(t(probe));
        prop_assert!(at <= tl.peak_usage(t(probe), t(probe + 1)).max(at));
        prop_assert!(tl.peak_usage(t(probe), t(probe + 1)) == at);
    }

    #[test]
    fn earliest_hold_start_agrees_with_can_hold(
        cap in 1_000u64..50_000,
        reservations in prop::collection::vec((0u64..5_000, 1u64..2_000, 1u64..20_000), 0..20),
        size in 1u64..30_000,
        from in 0u64..6_000,
        len in 1u64..3_000,
    ) {
        let mut tl = CapacityTimeline::new(Bytes::new(cap));
        for (f, l, s) in reservations {
            let _ = tl.reserve(Bytes::new(s), t(f), t(f + l));
        }
        let until = t(from + len);
        let size = Bytes::new(size);
        match tl.earliest_hold_start(size, t(from), until) {
            Some(start) => {
                prop_assert!(start >= t(from));
                prop_assert!(tl.can_hold(size, start, until), "probe start not actually feasible");
                if start > t(from) {
                    let earlier = SimTime::from_millis(start.as_millis() - 1);
                    prop_assert!(
                        !tl.can_hold(size, earlier, until),
                        "a strictly earlier hold start also fits"
                    );
                }
                // Committing at the probed start must succeed.
                let mut tl2 = tl.clone();
                prop_assert!(tl2.reserve(size, start, until).is_ok());
            }
            None => {
                prop_assert!(!tl.can_hold(size, t(from), until));
            }
        }
    }

    #[test]
    fn reserve_is_all_or_nothing(
        cap in 1_000u64..20_000,
        reservations in prop::collection::vec((0u64..3_000, 1u64..1_000, 1u64..25_000), 1..25),
    ) {
        let mut tl = CapacityTimeline::new(Bytes::new(cap));
        for (f, l, s) in reservations {
            let before = tl.clone();
            if tl.reserve(Bytes::new(s), t(f), t(f + l)).is_err() {
                // Failed reservations leave the timeline untouched.
                prop_assert_eq!(&tl, &before);
            }
        }
    }
}

/// The booked spans themselves, `(from_ms, until_ms, bytes)`: the
/// reference a [`CapacityTimeline`] is checked against. Every level is
/// folded from scratch in `u128`, so no size needs chunking here.
#[derive(Debug, Default)]
struct NaiveStore {
    spans: Vec<(u64, u64, u128)>,
}

impl NaiveStore {
    fn level(&self, at: u64) -> u128 {
        self.spans.iter().filter(|&&(f, u, _)| f <= at && at < u).map(|&(_, _, s)| s).sum()
    }

    /// The instants strictly inside `(from, until)` where a span begins or
    /// ends — the only places the level can change.
    fn breakpoints(&self, from: u64, until: u64) -> Vec<u64> {
        let mut points: Vec<u64> = self
            .spans
            .iter()
            .flat_map(|&(f, u, _)| [f, u])
            .filter(|&p| from < p && p < until)
            .collect();
        points.sort_unstable();
        points.dedup();
        points
    }

    fn peak(&self, from: u64, until: u64) -> u128 {
        if from >= until {
            return 0;
        }
        self.breakpoints(from, until)
            .into_iter()
            .map(|p| self.level(p))
            .fold(self.level(from), u128::max)
    }

    fn fits(&self, cap: u64, size: u64, from: u64, until: u64) -> bool {
        from >= until || size == 0 || self.peak(from, until) + u128::from(size) <= u128::from(cap)
    }

    fn earliest_hold_start(&self, cap: u64, size: u64, from: u64, until: u64) -> Option<u64> {
        if from >= until || size == 0 {
            return Some(from);
        }
        std::iter::once(from)
            .chain(self.breakpoints(from, until))
            .find(|&start| self.fits(cap, size, start, until))
    }
}

/// A level as the timeline reports it: clamped to `u64::MAX`.
fn clamped(level: u128) -> Bytes {
    Bytes::new(u64::try_from(level).unwrap_or(u64::MAX))
}

/// Sizes drawn mostly small, sometimes above `i64::MAX` (stored by the
/// timeline as several same-instant chunks), sometimes zero.
fn drawn_size(pick: u64, small: u64) -> u64 {
    match pick {
        0 => u64::MAX,
        1 => i64::MAX as u64 + 1 + small,
        2 => 0,
        _ => small,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn timeline_matches_a_naive_fold_under_reserve_force_and_release(
        cap_pick in 0u64..4,
        small_cap in 1_000u64..60_000,
        ops in prop::collection::vec((0u64..4, 0u64..120, 0u64..60, 0u64..10, 1u64..40_000, 0usize..64), 0..40),
        probes in prop::collection::vec((0u64..140, 0u64..60, 0u64..10, 1u64..70_000), 1..8),
    ) {
        let cap = if cap_pick == 0 { u64::MAX } else { small_cap };
        let mut tl = CapacityTimeline::new(Bytes::new(cap));
        let mut naive = NaiveStore::default();
        for (kind, from, len, pick, small, victim) in ops {
            let (until, size) = (from + len, drawn_size(pick, small));
            match kind {
                // Release one booked span, the exact inverse of its booking.
                0 if !naive.spans.is_empty() => {
                    let (f, u, s) = naive.spans.swap_remove(victim % naive.spans.len());
                    tl.release(Bytes::new(u64::try_from(s).unwrap()), t(f), t(u));
                }
                // Force: the data is simply there, overcommit or not.
                1 => {
                    tl.force_reserve(Bytes::new(size), t(from), t(until));
                    naive.spans.push((from, until, u128::from(size)));
                }
                _ => {
                    let expected = naive.fits(cap, size, from, until);
                    let booked = tl.reserve(Bytes::new(size), t(from), t(until)).is_ok();
                    prop_assert_eq!(booked, expected, "reserve {} over [{}, {})", size, from, until);
                    if booked {
                        naive.spans.push((from, until, u128::from(size)));
                    }
                }
            }
            for &(pf, plen, ppick, psmall) in &probes {
                let (pu, psize) = (pf + plen, drawn_size(ppick, psmall));
                prop_assert_eq!(tl.used_at(t(pf)), clamped(naive.level(pf)), "used_at {}", pf);
                prop_assert_eq!(
                    tl.peak_usage(t(pf), t(pu)),
                    clamped(naive.peak(pf, pu)),
                    "peak_usage [{}, {})", pf, pu
                );
                prop_assert_eq!(
                    tl.can_hold(Bytes::new(psize), t(pf), t(pu)),
                    naive.fits(cap, psize, pf, pu),
                    "can_hold {} over [{}, {})", psize, pf, pu
                );
                prop_assert_eq!(
                    tl.earliest_hold_start(Bytes::new(psize), t(pf), t(pu)),
                    naive.earliest_hold_start(cap, psize, pf, pu).map(t),
                    "earliest_hold_start {} over [{}, {})", psize, pf, pu
                );
            }
        }
    }
}
