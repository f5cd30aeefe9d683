//! The experiment harness: generates the test-case suite once and runs
//! (scheduler × weighting × E-U point) pairings over it, caching results
//! so the figures share work (Figure 2 reuses the C4 series of Figures
//! 3–5, and `Cost₃` runs once per sweep because it is E-U independent).
//! A missing series is computed with its cases fanned out over the
//! harness's worker threads ([`crate::executor::run_indexed`]).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use dstage_core::baselines::{priority_first, random_dijkstra, single_dijkstra_random};
use dstage_core::bounds::{possible_satisfy, upper_bound};
use dstage_core::cost::CostCriterion;
use dstage_core::heuristic::{run, Heuristic, HeuristicConfig};
use dstage_core::metrics::RunMetrics;
use dstage_core::schedule::Evaluation;
use dstage_model::request::PriorityWeights;
use dstage_model::scenario::Scenario;
use dstage_workload::{generate, GeneratorConfig};

use crate::executor::run_indexed;
use crate::sweep::EuRatioPoint;

/// Which priority weighting a run scores (and schedules) under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Weighting {
    /// Low 1, medium 5, high 10.
    W1_5_10,
    /// Low 1, medium 10, high 100 (the paper's headline weighting).
    W1_10_100,
}

impl Weighting {
    /// Both weightings, in paper order.
    pub const ALL: [Weighting; 2] = [Weighting::W1_5_10, Weighting::W1_10_100];

    /// The weight table.
    #[must_use]
    pub fn weights(self) -> PriorityWeights {
        match self {
            Weighting::W1_5_10 => PriorityWeights::paper_1_5_10(),
            Weighting::W1_10_100 => PriorityWeights::paper_1_10_100(),
        }
    }

    /// Report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Weighting::W1_5_10 => "1,5,10",
            Weighting::W1_10_100 => "1,10,100",
        }
    }
}

/// Identifies any scheduling procedure the harness can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// One of the three heuristics with a cost criterion and E-U point.
    Pairing(Heuristic, CostCriterion, EuRatioPoint),
    /// The looser random lower bound (§5.2).
    SingleDijkstraRandom,
    /// The tighter random lower bound (§5.2).
    RandomDijkstra,
    /// The simplified priority-first comparison scheme (§5.4).
    PriorityFirst,
}

/// The outcome of one scheduler on one test case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Schedule quality under the run's weighting.
    pub evaluation: Evaluation,
    /// Execution counters.
    pub metrics: RunMetrics,
}

/// Upper bounds of one test case.
#[derive(Debug, Clone, Copy)]
pub struct CaseBounds {
    /// Σ weights over all requests (`upper_bound`).
    pub upper_bound: u64,
    /// Σ weights over individually satisfiable requests
    /// (`possible_satisfy`).
    pub possible_satisfy: u64,
}

/// Cache from (scheduler, weighting) to the per-case results.
///
/// `Mutex` + `Arc` (rather than `RefCell` + `Rc`) keep the harness
/// `Send + Sync`, so callers may share one suite across threads.
type ResultCache = Mutex<HashMap<(SchedulerKind, Weighting), Arc<Vec<CaseResult>>>>;

/// The value `cache` holds under `key`, computed outside the lock when it
/// is missing. First insert wins: if another thread raced us to the same
/// key, its value is kept (and returned), so every caller shares one
/// allocation and cached re-reads stay pointer-stable. A lock is held for
/// one map lookup or insert, which cannot panic, so it is never poisoned.
fn cached<K: Eq + Hash, V>(
    cache: &Mutex<HashMap<K, Arc<V>>>,
    key: K,
    compute: impl FnOnce() -> V,
) -> Arc<V> {
    let map = || cache.lock().expect("a cache lock is never poisoned");
    if let Some(hit) = map().get(&key) {
        return Arc::clone(hit);
    }
    let value = compute();
    Arc::clone(map().entry(key).or_insert_with(|| Arc::new(value)))
}

/// The experiment harness over one generated test-case suite.
pub struct Harness {
    cases: Vec<Scenario>,
    cache: ResultCache,
    bounds_cache: Mutex<HashMap<Weighting, Arc<Vec<CaseBounds>>>>,
    threads: usize,
    verbose: bool,
}

impl Harness {
    /// Generates `n_cases` scenarios (seeds `0..n_cases`) under `config`.
    /// Series are computed on one thread until [`Harness::with_threads`]
    /// says otherwise.
    #[must_use]
    pub fn new(config: &GeneratorConfig, n_cases: usize) -> Self {
        let cases = (0..n_cases as u64).map(|seed| generate(config, seed)).collect();
        Harness {
            cases,
            cache: Mutex::new(HashMap::new()),
            bounds_cache: Mutex::new(HashMap::new()),
            threads: 1,
            verbose: false,
        }
    }

    /// Computes every missing series with its cases fanned out over
    /// `threads` workers. Per-case outcomes are pure functions of
    /// (scheduler, weighting, case) and are merged in case order, so the
    /// thread count never changes a rendered byte.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The paper's harness: 40 cases at §5.3 scale.
    #[must_use]
    pub fn paper() -> Self {
        Harness::new(&GeneratorConfig::paper(), 40)
    }

    /// Enables progress logging to stderr.
    pub fn set_verbose(&mut self, verbose: bool) {
        self.verbose = verbose;
    }

    /// The generated test cases.
    #[must_use]
    pub fn cases(&self) -> &[Scenario] {
        &self.cases
    }

    /// Runs (or recalls) a scheduler over every case under a weighting.
    ///
    /// `Cost₃` pairings are normalized to a single E-U point (the
    /// criterion is ratio-independent), so an entire sweep of C3 costs one
    /// run per case.
    pub fn results(&self, kind: SchedulerKind, weighting: Weighting) -> Arc<Vec<CaseResult>> {
        let key = (Self::normalize(kind), weighting);
        cached(&self.cache, key, || {
            if self.verbose {
                eprintln!("[harness] running {:?} under {} ...", key.0, weighting.label());
            }
            let weights = weighting.weights();
            run_indexed(self.cases.len(), self.threads, |i| self.case_result(key.0, &weights, i))
        })
    }

    /// One scheduler on one case. `kind` must already be normalized; the
    /// PRNG stream of the random baselines is keyed by the case index, so
    /// the outcome is a pure function of `(kind, weights, case)` no
    /// matter which thread computes it.
    fn case_result(&self, kind: SchedulerKind, weights: &PriorityWeights, i: usize) -> CaseResult {
        let scenario = &self.cases[i];
        let outcome = match kind {
            SchedulerKind::Pairing(h, c, point) => {
                let config = HeuristicConfig {
                    criterion: c,
                    eu: point.weights(),
                    priority_weights: weights.clone(),
                    caching: true,
                };
                run(scenario, h, &config)
            }
            SchedulerKind::SingleDijkstraRandom => single_dijkstra_random(scenario, i as u64),
            SchedulerKind::RandomDijkstra => random_dijkstra(scenario, i as u64),
            SchedulerKind::PriorityFirst => priority_first(scenario, weights),
        };
        CaseResult {
            evaluation: outcome.schedule.evaluate(scenario, weights),
            metrics: outcome.metrics,
        }
    }

    /// The bounds of one case under a weighting.
    fn case_bounds(&self, weights: &PriorityWeights, i: usize) -> CaseBounds {
        let scenario = &self.cases[i];
        CaseBounds {
            upper_bound: upper_bound(scenario, weights),
            possible_satisfy: possible_satisfy(scenario, weights).weighted_sum,
        }
    }

    /// The per-case upper bounds under a weighting.
    pub fn bounds(&self, weighting: Weighting) -> Arc<Vec<CaseBounds>> {
        cached(&self.bounds_cache, weighting, || {
            if self.verbose {
                eprintln!("[harness] computing bounds under {} ...", weighting.label());
            }
            let weights = weighting.weights();
            run_indexed(self.cases.len(), self.threads, |i| self.case_bounds(&weights, i))
        })
    }

    /// Mean weighted sum of a scheduler across the cases (the y-value of
    /// one figure point).
    pub fn mean_weighted_sum(&self, kind: SchedulerKind, weighting: Weighting) -> f64 {
        let results = self.results(kind, weighting);
        results.iter().map(|r| r.evaluation.weighted_sum as f64).sum::<f64>() / results.len() as f64
    }

    fn normalize(kind: SchedulerKind) -> SchedulerKind {
        match kind {
            SchedulerKind::Pairing(h, c, _) if !c.uses_eu_ratio() => {
                SchedulerKind::Pairing(h, c, EuRatioPoint::Log10(0))
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_harness() -> Harness {
        Harness::new(&GeneratorConfig::small(), 3)
    }

    #[test]
    fn results_are_cached() {
        let h = small_harness();
        let kind = SchedulerKind::Pairing(
            Heuristic::FullPathOneDestination,
            CostCriterion::C4,
            EuRatioPoint::Log10(0),
        );
        let a = h.results(kind, Weighting::W1_10_100);
        let b = h.results(kind, Weighting::W1_10_100);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn c3_sweep_points_share_one_run() {
        let h = small_harness();
        let a = h.results(
            SchedulerKind::Pairing(Heuristic::PartialPath, CostCriterion::C3, EuRatioPoint::NegInf),
            Weighting::W1_10_100,
        );
        let b = h.results(
            SchedulerKind::Pairing(Heuristic::PartialPath, CostCriterion::C3, EuRatioPoint::PosInf),
            Weighting::W1_10_100,
        );
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn weightings_are_cached_separately() {
        let h = small_harness();
        let kind = SchedulerKind::PriorityFirst;
        let a = h.results(kind, Weighting::W1_10_100);
        let b = h.results(kind, Weighting::W1_5_10);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn harness_is_shareable_across_threads() {
        let h = std::sync::Arc::new(small_harness());
        let kind = SchedulerKind::PriorityFirst;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || h.results(kind, Weighting::W1_10_100))
            })
            .collect();
        let first = h.results(kind, Weighting::W1_10_100);
        for handle in handles {
            let other = handle.join().expect("worker panicked");
            assert_eq!(other.len(), first.len());
        }
    }

    #[test]
    fn bounds_dominate_every_scheduler() {
        let h = small_harness();
        let bounds = h.bounds(Weighting::W1_10_100);
        for kind in [
            SchedulerKind::Pairing(
                Heuristic::FullPathOneDestination,
                CostCriterion::C4,
                EuRatioPoint::Log10(1),
            ),
            SchedulerKind::SingleDijkstraRandom,
            SchedulerKind::RandomDijkstra,
            SchedulerKind::PriorityFirst,
        ] {
            let results = h.results(kind, Weighting::W1_10_100);
            for (r, b) in results.iter().zip(bounds.iter()) {
                assert!(r.evaluation.weighted_sum <= b.possible_satisfy);
                assert!(b.possible_satisfy <= b.upper_bound);
            }
        }
    }

    #[test]
    fn mean_weighted_sum_matches_manual_average() {
        let h = small_harness();
        let kind = SchedulerKind::RandomDijkstra;
        let results = h.results(kind, Weighting::W1_10_100);
        let manual = results.iter().map(|r| r.evaluation.weighted_sum as f64).sum::<f64>()
            / results.len() as f64;
        assert_eq!(h.mean_weighted_sum(kind, Weighting::W1_10_100), manual);
    }
}
