//! The four cost criteria of §4.8.
//!
//! Each candidate communication step (transferring item `Rq[i]` from `M[s]`
//! to the next machine `M[r]` over one virtual link) is scored from two
//! ingredients computed per affected destination `j ∈ Drq[i, r]`:
//!
//! * **satisfiability** `Sat[i,r](j)` — 1 iff the current shortest-path
//!   estimate `A_T[i,j]` meets the deadline `Rft[i,j]`;
//! * **effective priority** `Efp = Sat · W[Priority]`;
//! * **urgency** `Urgency = −Sat · (Rft − A_T)` in seconds — negative
//!   slack, so values closer to zero are *more* urgent.
//!
//! The heuristics pick the candidate with the **smallest** cost.

use serde::{Deserialize, Serialize};

use dstage_model::time::SimTime;

/// Urgency floor (seconds) used by [`CostCriterion::C3`] in place of an
/// exactly-zero urgency, avoiding division by zero when a request has zero
/// slack. One millisecond — the model's time quantum.
pub const C3_URGENCY_EPSILON_SECS: f64 = 0.001;

/// Urgency floor (seconds) of the extension criterion
/// [`CostCriterion::C3Floor`]: urgencies tighter than one minute are
/// treated as one minute, so a single near-zero slack cannot dominate the
/// whole sum — the scaling pathology the paper diagnoses in `Cost₃`
/// ("one very small `Urgency[i,j]` may have too much impact on the total
/// cost", §5.4).
pub const C3_FLOOR_SECS: f64 = 60.0;

/// The relative weights `W_E` (effective priority) and `W_U` (urgency).
///
/// The simulation study sweeps the *E-U ratio* `W_E / W_U` over
/// `log10 ∈ {−3 … 5}` plus the two extremes.
///
/// # Examples
///
/// ```
/// use dstage_core::cost::EuWeights;
///
/// let w = EuWeights::from_log10_ratio(2.0);
/// assert!((w.w_e - 100.0).abs() < 1e-9);
/// assert!((w.w_u - 1.0).abs() < 1e-9);
/// assert_eq!(EuWeights::priority_only().w_u, 0.0);
/// assert_eq!(EuWeights::urgency_only().w_e, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EuWeights {
    /// Weight of the effective-priority term (`W_E ≥ 0`).
    pub w_e: f64,
    /// Weight of the urgency term (`W_U ≥ 0`).
    pub w_u: f64,
}

impl EuWeights {
    /// Weights with E-U ratio `10^x` (i.e. `W_U = 1`, `W_E = 10^x`).
    #[must_use]
    pub fn from_log10_ratio(x: f64) -> Self {
        EuWeights { w_e: 10f64.powf(x), w_u: 1.0 }
    }

    /// Parses `x`, the log10 of an E-U ratio as a command line gives it.
    ///
    /// # Errors
    ///
    /// A message for text that is not a number, for NaN, and for any `x`
    /// whose `10^x` overflows (`inf`, `400`): such a `W_E` makes costs NaN
    /// or −∞. `-inf` and large negative `x` are accepted: `10^x = 0` is
    /// the urgency-only extreme.
    pub fn parse_log10_ratio(text: &str) -> Result<f64, String> {
        let x: f64 = text.parse().map_err(|e| format!("invalid ratio {text:?}: {e}"))?;
        if 10f64.powf(x).is_finite() {
            Ok(x)
        } else {
            Err(format!("invalid ratio {text:?}: 10^x must be a finite weight"))
        }
    }

    /// The `+inf` extreme: only effective priority matters.
    #[must_use]
    pub fn priority_only() -> Self {
        EuWeights { w_e: 1.0, w_u: 0.0 }
    }

    /// The `−inf` extreme: only urgency matters.
    #[must_use]
    pub fn urgency_only() -> Self {
        EuWeights { w_e: 0.0, w_u: 1.0 }
    }

    /// Explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if either weight is negative or not finite.
    #[must_use]
    pub fn new(w_e: f64, w_u: f64) -> Self {
        assert!(w_e.is_finite() && w_e >= 0.0, "W_E must be finite and non-negative");
        assert!(w_u.is_finite() && w_u >= 0.0, "W_U must be finite and non-negative");
        EuWeights { w_e, w_u }
    }
}

/// Which of the paper's four cost functions scores candidate steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CostCriterion {
    /// `Cost₁ = −W_E·Efp(j) − W_U·Urgency(j)` — scored **per destination**.
    C1,
    /// `Cost₂ = −W_E·ΣEfp − W_U·max Urgency` — per step, with the most
    /// urgent satisfiable destination supplying the urgency term.
    C2,
    /// `Cost₃ = Σ Efp/Urgency` — per step, E-U-ratio independent.
    C3,
    /// `Cost₄ = −W_E·ΣEfp − W_U·ΣUrgency` — per step; the paper's best.
    C4,
    /// **Extension** (not in the paper's twelve pairings): `Cost₃` with
    /// the urgency floored at [`C3_FLOOR_SECS`], implementing the §5.4
    /// suggestion that "future cost criteria might be designed to capture
    /// the original intent" of the ratio criterion without its scaling
    /// pathology. E-U-ratio independent, like `Cost₃`.
    C3Floor,
}

impl CostCriterion {
    /// All four criteria, in paper order.
    pub const ALL: [CostCriterion; 4] =
        [CostCriterion::C1, CostCriterion::C2, CostCriterion::C3, CostCriterion::C4];

    /// The criteria applicable to the full path/all destinations heuristic
    /// (C1 "does not capture the fact that a data item can be sent to
    /// multiple destinations", §4.8).
    pub const MULTI_DESTINATION: [CostCriterion; 3] =
        [CostCriterion::C2, CostCriterion::C3, CostCriterion::C4];

    /// The extension criteria added by this implementation beyond the
    /// paper's four.
    pub const EXTENSIONS: [CostCriterion; 1] = [CostCriterion::C3Floor];

    /// Whether the criterion's value depends on the E-U ratio.
    ///
    /// The ratio criteria divide effective priority by urgency, so
    /// `W_E/W_U` is a common scale factor that never changes the argmin.
    #[must_use]
    pub fn uses_eu_ratio(self) -> bool {
        !matches!(self, CostCriterion::C3 | CostCriterion::C3Floor)
    }

    /// Short label used in reports ("C1" … "C4", "C3f").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CostCriterion::C1 => "C1",
            CostCriterion::C2 => "C2",
            CostCriterion::C3 => "C3",
            CostCriterion::C4 => "C4",
            CostCriterion::C3Floor => "C3f",
        }
    }

    /// Parses a criterion name as printed by [`CostCriterion::label`],
    /// ignoring case (`C4`, `c4`, `C3f`).
    #[must_use]
    pub fn from_label(name: &str) -> Option<CostCriterion> {
        (CostCriterion::ALL.into_iter().chain(CostCriterion::EXTENSIONS))
            .find(|c| c.label().eq_ignore_ascii_case(name))
    }
}

impl core::fmt::Display for CostCriterion {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The per-destination ingredients of every cost function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DestinationCost {
    /// `Sat[i,r](j)`.
    pub satisfiable: bool,
    /// `Efp[i,r](j) = Sat · W[Priority[i,j]]`.
    pub effective_priority: f64,
    /// `Urgency[i,r](j) = −Sat · (Rft − A_T)` in seconds (≤ 0).
    pub urgency: f64,
}

impl DestinationCost {
    /// Computes the ingredients for one destination from its shortest-path
    /// arrival estimate `A_T`, its deadline, and its priority weight.
    #[must_use]
    pub fn new(arrival: SimTime, deadline: SimTime, priority_weight: u64) -> Self {
        let satisfiable = arrival <= deadline && arrival != SimTime::MAX;
        if !satisfiable {
            return DestinationCost { satisfiable: false, effective_priority: 0.0, urgency: 0.0 };
        }
        // Saturating is sound here (audited): `arrival <= deadline` is
        // guaranteed by the guard above, so the subtraction never actually
        // saturates — the slack is exact even at deadline = SimTime::MAX.
        let slack_secs = deadline.saturating_since(arrival).as_secs_f64();
        DestinationCost {
            satisfiable: true,
            effective_priority: priority_weight as f64,
            urgency: -slack_secs,
        }
    }
}

/// Evaluates a *per-step* criterion (C2, C3 or C4) over the destinations
/// in `Drq[i, r]`.
///
/// Destinations with `Sat = 0` contribute nothing (their `Efp` and
/// `Urgency` are zero by definition; C2's max and C3's sum skip them
/// explicitly, matching the paper's "satisfiable" wording).
///
/// # Panics
///
/// Panics if called with [`CostCriterion::C1`]; C1 is scored per
/// destination via [`cost_c1`].
#[must_use]
pub fn step_cost(
    criterion: CostCriterion,
    weights: EuWeights,
    destinations: &[DestinationCost],
) -> f64 {
    step_cost_over(criterion, weights, destinations.iter().copied())
}

/// [`step_cost`] over destinations produced on the fly — the selection
/// round scores a cached step where it lies, with nothing collected. The
/// sums run in iteration order, as the slice form's do.
pub(crate) fn step_cost_over(
    criterion: CostCriterion,
    weights: EuWeights,
    destinations: impl Iterator<Item = DestinationCost> + Clone,
) -> f64 {
    let satisfiable = destinations.clone().filter(|d| d.satisfiable);
    match criterion {
        CostCriterion::C1 => panic!("C1 is a per-destination criterion; use cost_c1"),
        CostCriterion::C2 => {
            let efp_sum: f64 = destinations.map(|d| d.effective_priority).sum();
            let max_urgency = satisfiable.map(|d| d.urgency).fold(f64::NEG_INFINITY, f64::max);
            let max_urgency = if max_urgency.is_finite() { max_urgency } else { 0.0 };
            -weights.w_e * efp_sum - weights.w_u * max_urgency
        }
        CostCriterion::C3 => satisfiable
            .map(|d| d.effective_priority / d.urgency.min(-C3_URGENCY_EPSILON_SECS))
            .sum(),
        CostCriterion::C3Floor => {
            satisfiable.map(|d| d.effective_priority / d.urgency.min(-C3_FLOOR_SECS)).sum()
        }
        CostCriterion::C4 => {
            let efp_sum: f64 = destinations.clone().map(|d| d.effective_priority).sum();
            let urgency_sum: f64 = destinations.map(|d| d.urgency).sum();
            -weights.w_e * efp_sum - weights.w_u * urgency_sum
        }
    }
}

/// Evaluates `Cost₁` for a single destination.
#[must_use]
pub fn cost_c1(weights: EuWeights, destination: DestinationCost) -> f64 {
    -weights.w_e * destination.effective_priority - weights.w_u * destination.urgency
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn dest(arrival_s: u64, deadline_s: u64, weight: u64) -> DestinationCost {
        DestinationCost::new(t(arrival_s), t(deadline_s), weight)
    }

    #[test]
    fn ingredients_for_satisfiable_destination() {
        let d = dest(10, 40, 100);
        assert!(d.satisfiable);
        assert_eq!(d.effective_priority, 100.0);
        assert_eq!(d.urgency, -30.0);
    }

    #[test]
    fn ingredients_for_missed_deadline_are_zero() {
        let d = dest(50, 40, 100);
        assert!(!d.satisfiable);
        assert_eq!(d.effective_priority, 0.0);
        assert_eq!(d.urgency, 0.0);
    }

    #[test]
    fn ingredients_for_unreachable_are_zero() {
        let d = DestinationCost::new(SimTime::MAX, t(40), 100);
        assert!(!d.satisfiable);
    }

    #[test]
    fn ingredients_near_time_max_stay_exact() {
        // Regression guard for the saturating-subtraction audit: an open
        // deadline (SimTime::MAX) with a finite arrival yields the exact
        // (astronomical but finite) slack, and an unreachable arrival at
        // MAX stays unsatisfiable rather than producing zero urgency by
        // saturation.
        let d = DestinationCost::new(t(10), SimTime::MAX, 100);
        assert!(d.satisfiable);
        let expected = SimTime::MAX.saturating_since(t(10)).as_secs_f64();
        assert_eq!(d.urgency, -expected);
        assert!(d.urgency.is_finite() && d.urgency < 0.0);
        let unreachable = DestinationCost::new(SimTime::MAX, SimTime::MAX, 100);
        assert!(!unreachable.satisfiable);
        assert_eq!(unreachable.urgency, 0.0);
    }

    #[test]
    fn exact_deadline_is_satisfiable_with_zero_urgency() {
        let d = dest(40, 40, 10);
        assert!(d.satisfiable);
        assert_eq!(d.urgency, 0.0);
    }

    #[test]
    fn c1_prefers_higher_priority_and_more_urgent() {
        let w = EuWeights::new(1.0, 1.0);
        let high_tight = dest(10, 15, 100); // efp 100, urgency -5
        let high_loose = dest(10, 100, 100); // efp 100, urgency -90
        let low_tight = dest(10, 15, 1);
        assert!(cost_c1(w, high_tight) < cost_c1(w, high_loose));
        assert!(cost_c1(w, high_tight) < cost_c1(w, low_tight));
        // Numeric check: -(100) - (-5) = -95; -(100) - (-90) = -10.
        assert_eq!(cost_c1(w, high_tight), -95.0);
        assert_eq!(cost_c1(w, high_loose), -10.0);
    }

    #[test]
    fn c1_weight_extremes() {
        // Priority-only: ties on urgency are ignored.
        let w = EuWeights::priority_only();
        assert_eq!(cost_c1(w, dest(10, 15, 100)), -100.0);
        assert_eq!(cost_c1(w, dest(10, 90, 100)), -100.0);
        // Urgency-only: the tighter deadline (urgency closer to 0) has the
        // *larger* cost... cost = -W_U * urgency = slack. Tighter slack =>
        // smaller cost => preferred. Correct.
        let w = EuWeights::urgency_only();
        assert_eq!(cost_c1(w, dest(10, 15, 100)), 5.0);
        assert_eq!(cost_c1(w, dest(10, 90, 100)), 80.0);
    }

    #[test]
    fn c2_takes_most_urgent_satisfiable() {
        let w = EuWeights::new(0.0, 1.0);
        let dests = [dest(10, 100, 1), dest(10, 20, 1), dest(50, 40, 100)];
        // Satisfiable urgencies: -90 and -10; most urgent (max) is -10.
        // Cost = -1 * (-10) = 10.
        assert_eq!(step_cost(CostCriterion::C2, w, &dests), 10.0);
    }

    #[test]
    fn c2_with_no_satisfiable_has_zero_urgency_term() {
        let w = EuWeights::new(1.0, 1.0);
        let dests = [dest(50, 40, 100)];
        assert_eq!(step_cost(CostCriterion::C2, w, &dests), 0.0);
    }

    #[test]
    fn c3_is_ratio_of_priority_and_urgency() {
        let dests = [dest(10, 20, 100), dest(10, 110, 10)];
        // 100 / -10 + 10 / -100 = -10.1
        let c = step_cost(CostCriterion::C3, EuWeights::new(1.0, 1.0), &dests);
        assert!((c - (-10.1)).abs() < 1e-9);
        // And is independent of the weights.
        let c2 = step_cost(CostCriterion::C3, EuWeights::new(123.0, 0.5), &dests);
        assert_eq!(c, c2);
    }

    #[test]
    fn c3_clamps_zero_urgency() {
        let dests = [dest(40, 40, 10)]; // zero slack
        let c = step_cost(CostCriterion::C3, EuWeights::new(1.0, 1.0), &dests);
        assert!((c - (10.0 / -C3_URGENCY_EPSILON_SECS)).abs() < 1e-6);
        assert!(c.is_finite());
    }

    #[test]
    fn c3_floor_caps_tiny_urgencies() {
        // One destination with 1 s slack, one with 1000 s slack, equal
        // priorities. Under plain C3 the tiny slack dominates; under the
        // floored variant it is capped at one minute.
        let tight = dest(10, 11, 10); // urgency -1
        let loose = dest(10, 1_010, 10); // urgency -1000
        let w = EuWeights::new(1.0, 1.0);
        let c3 = step_cost(CostCriterion::C3, w, &[tight, loose]);
        let c3f = step_cost(CostCriterion::C3Floor, w, &[tight, loose]);
        assert!((c3 - (10.0 / -1.0 + 10.0 / -1000.0)).abs() < 1e-9);
        assert!((c3f - (10.0 / -60.0 + 10.0 / -1000.0)).abs() < 1e-9);
        assert!(c3 < c3f, "the floor reduces the tiny-urgency term's magnitude");
        // Urgencies looser than the floor are untouched.
        let only_loose = [loose];
        assert_eq!(
            step_cost(CostCriterion::C3, w, &only_loose),
            step_cost(CostCriterion::C3Floor, w, &only_loose)
        );
    }

    #[test]
    fn c3_floor_is_eu_independent() {
        let dests = [dest(10, 30, 100)];
        let a = step_cost(CostCriterion::C3Floor, EuWeights::new(1.0, 1.0), &dests);
        let b = step_cost(CostCriterion::C3Floor, EuWeights::new(500.0, 0.1), &dests);
        assert_eq!(a, b);
        assert!(!CostCriterion::C3Floor.uses_eu_ratio());
    }

    #[test]
    fn extensions_are_not_in_the_paper_sets() {
        assert!(!CostCriterion::ALL.contains(&CostCriterion::C3Floor));
        assert!(!CostCriterion::MULTI_DESTINATION.contains(&CostCriterion::C3Floor));
        assert_eq!(CostCriterion::EXTENSIONS, [CostCriterion::C3Floor]);
        assert_eq!(CostCriterion::C3Floor.label(), "C3f");
    }

    #[test]
    fn a_ratio_parses_only_to_a_finite_weight() {
        assert_eq!(EuWeights::parse_log10_ratio("2"), Ok(2.0));
        assert_eq!(EuWeights::parse_log10_ratio("-inf"), Ok(f64::NEG_INFINITY));
        assert_eq!(EuWeights::from_log10_ratio(f64::NEG_INFINITY).w_e, 0.0);
        assert_eq!(EuWeights::parse_log10_ratio("-400"), Ok(-400.0));
        for text in ["nan", "NaN", "inf", "+inf", "400", "", "two"] {
            let message = EuWeights::parse_log10_ratio(text).unwrap_err();
            assert!(message.starts_with("invalid ratio"), "{text}: {message}");
        }
    }

    #[test]
    fn from_label_round_trips_in_either_case() {
        for c in CostCriterion::ALL.into_iter().chain(CostCriterion::EXTENSIONS) {
            assert_eq!(CostCriterion::from_label(c.label()), Some(c));
            assert_eq!(CostCriterion::from_label(&c.label().to_lowercase()), Some(c));
        }
        assert_eq!(CostCriterion::from_label("C5"), None);
        assert_eq!(CostCriterion::from_label(""), None);
    }

    #[test]
    fn c4_sums_both_terms() {
        let w = EuWeights::new(2.0, 3.0);
        let dests = [dest(10, 20, 100), dest(10, 110, 10), dest(90, 80, 5)];
        // efp sum = 110; urgency sum = -10 + -100 = -110.
        // cost = -2*110 - 3*(-110) = -220 + 330 = 110.
        assert_eq!(step_cost(CostCriterion::C4, w, &dests), 110.0);
    }

    #[test]
    fn c4_distinguishes_what_c2_cannot() {
        // The paper's motivating example: item A has four tight
        // destinations, item B has one tight and three loose ones.
        let w = EuWeights::new(0.0, 1.0);
        let tight = dest(10, 12, 10); // urgency -2
        let loose = dest(10, 100, 10); // urgency -90
        let item_a = [tight, tight, tight, tight];
        let item_b = [tight, loose, loose, loose];
        // C2 sees only the most urgent destination: identical costs.
        assert_eq!(
            step_cost(CostCriterion::C2, w, &item_a),
            step_cost(CostCriterion::C2, w, &item_b)
        );
        // C4 sums urgencies: item A is strictly more urgent overall.
        assert!(
            step_cost(CostCriterion::C4, w, &item_a) < step_cost(CostCriterion::C4, w, &item_b)
        );
    }

    #[test]
    #[should_panic(expected = "per-destination")]
    fn c1_step_cost_panics() {
        let _ = step_cost(CostCriterion::C1, EuWeights::new(1.0, 1.0), &[]);
    }

    #[test]
    fn eu_weight_constructors() {
        let w = EuWeights::from_log10_ratio(-3.0);
        assert!((w.w_e - 0.001).abs() < 1e-12);
        assert_eq!(w.w_u, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weights_rejected() {
        let _ = EuWeights::new(-1.0, 0.0);
    }

    #[test]
    fn criterion_labels_and_sets() {
        assert_eq!(CostCriterion::C4.to_string(), "C4");
        assert_eq!(CostCriterion::ALL.len(), 4);
        assert_eq!(CostCriterion::MULTI_DESTINATION.len(), 3);
        assert!(!CostCriterion::MULTI_DESTINATION.contains(&CostCriterion::C1));
        assert!(CostCriterion::C1.uses_eu_ratio());
        assert!(!CostCriterion::C3.uses_eu_ratio());
    }
}
