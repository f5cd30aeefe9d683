//! Reproducibility tests: everything in the workspace is a pure function
//! of (configuration, seed).

use data_staging::core::baselines::{priority_first, random_dijkstra, single_dijkstra_random};
use data_staging::core::cost::{CostCriterion, EuWeights};
use data_staging::prelude::*;
use data_staging::workload::grid::{generate_grid, GridConfig};
use data_staging::workload::{generate, GeneratorConfig};

#[test]
fn heuristic_runs_are_bitwise_repeatable() {
    let scenario = generate(&GeneratorConfig::small(), 3);
    for h in Heuristic::ALL {
        for &c in h.criteria() {
            let config = HeuristicConfig {
                criterion: c,
                eu: EuWeights::from_log10_ratio(1.0),
                priority_weights: PriorityWeights::paper_1_10_100(),
                caching: true,
            };
            let a = run(&scenario, h, &config);
            let b = run(&scenario, h, &config);
            assert_eq!(a.schedule, b.schedule, "{h}/{c} not deterministic");
        }
    }
}

#[test]
fn baselines_are_seed_deterministic() {
    let scenario = generate(&GeneratorConfig::small(), 3);
    let weights = PriorityWeights::paper_1_5_10();
    assert_eq!(
        single_dijkstra_random(&scenario, 9).schedule,
        single_dijkstra_random(&scenario, 9).schedule
    );
    assert_eq!(random_dijkstra(&scenario, 9).schedule, random_dijkstra(&scenario, 9).schedule);
    assert_eq!(
        priority_first(&scenario, &weights).schedule,
        priority_first(&scenario, &weights).schedule
    );
}

#[test]
fn different_baseline_seeds_usually_differ() {
    let scenario = generate(&GeneratorConfig::small(), 3);
    let a = random_dijkstra(&scenario, 1).schedule;
    let b = random_dijkstra(&scenario, 2).schedule;
    // Random step choice almost surely diverges on a contended scenario.
    assert_ne!(a, b, "different seeds should explore different schedules");
}

#[test]
fn generated_scenarios_are_stable_across_calls() {
    let a = generate(&GeneratorConfig::paper(), 11);
    let b = generate(&GeneratorConfig::paper(), 11);
    assert_eq!(a.request_count(), b.request_count());
    assert_eq!(a.network().link_count(), b.network().link_count());
    for (ra, rb) in a.requests().zip(b.requests()) {
        assert_eq!(ra.1, rb.1);
    }
    for ((_, ia), (_, ib)) in a.items().zip(b.items()) {
        assert_eq!(ia, ib);
    }
}

#[test]
fn caching_toggle_never_changes_results() {
    // The tree cache is an exact optimization (DESIGN.md §3); its ablation
    // must be invisible in the output on every scheduler — on the small
    // paper graph under every criterion, and on a 16×16 grid, where a
    // tree spans 256 machines and a route crosses a dozen of them, so
    // that most trees are served after validating a few paths.
    let grid = GridConfig { rows: 16, cols: 16, items: 12, requests: 36, ..GridConfig::default() };
    let cases = [(generate(&GeneratorConfig::small(), 5), true), (generate_grid(&grid, 5), false)];
    for (scenario, every_criterion) in &cases {
        for h in Heuristic::EXTENDED {
            let criteria = if *every_criterion { h.criteria() } else { &[CostCriterion::C4] };
            for &c in criteria {
                let mut config = HeuristicConfig {
                    criterion: c,
                    eu: EuWeights::from_log10_ratio(0.0),
                    priority_weights: PriorityWeights::paper_1_10_100(),
                    caching: true,
                };
                let cached = run(scenario, h, &config);
                config.caching = false;
                let uncached = run(scenario, h, &config);
                assert_eq!(cached.schedule, uncached.schedule, "{h}/{c} differs with caching off");
                assert_eq!(uncached.metrics.cache_hits, 0);
                assert!(cached.metrics.dijkstra_runs <= uncached.metrics.dijkstra_runs);
            }
        }
    }
}
