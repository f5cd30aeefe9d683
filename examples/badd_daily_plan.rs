//! A BADD-style daily staging plan: a paper-scale random scenario
//! (oversubscribed network, hundreds of prioritized deadline requests) is
//! scheduled by all three heuristics, the two random lower bounds, and
//! the priority-first scheme, and the outcomes are compared against the
//! upper bounds — a one-scenario slice of the paper's Figure 2.
//!
//! ```text
//! cargo run --release --example badd_daily_plan [seed]
//! ```

use data_staging::core::baselines::{priority_first, random_dijkstra, single_dijkstra_random};
use data_staging::core::bounds::{possible_satisfy, upper_bound};
use data_staging::prelude::*;
use data_staging::workload::{generate, GeneratorConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args().nth(1).map(|s| s.parse()).transpose()?.unwrap_or(0);
    let scenario = generate(&GeneratorConfig::paper(), seed);
    let weights = PriorityWeights::paper_1_10_100();

    println!(
        "scenario seed {seed}: {} machines, {} virtual links, {} items, {} requests",
        scenario.network().machine_count(),
        scenario.network().link_count(),
        scenario.item_count(),
        scenario.request_count(),
    );
    let ub = upper_bound(&scenario, &weights);
    let ps = possible_satisfy(&scenario, &weights);
    println!("upper_bound       = {ub:>6}   (all requests satisfied)");
    println!(
        "possible_satisfy  = {:>6}   ({} of {} requests feasible alone)",
        ps.weighted_sum,
        ps.satisfiable.len(),
        scenario.request_count(),
    );

    // The heuristics, at the C4 pairing and the operating point (the E-U
    // ratio where the paper's three heuristics peak in Figure 2).
    let config =
        HeuristicConfig { priority_weights: weights.clone(), ..HeuristicConfig::paper_best() };
    for heuristic in Heuristic::ALL {
        let outcome = run(&scenario, heuristic, &config);
        outcome.schedule.validate(&scenario)?;
        let eval = outcome.schedule.evaluate(&scenario, &weights);
        println!(
            "{:<18}= {:>6}   ({} satisfied: {} low / {} med / {} high; {} transfers)",
            format!("{heuristic}/C4"),
            eval.weighted_sum,
            eval.satisfied_count,
            eval.satisfied_by_priority[0],
            eval.satisfied_by_priority[1],
            eval.satisfied_by_priority[2],
            outcome.metrics.transfers_committed,
        );
    }

    // Comparison schedulers.
    let pf = priority_first(&scenario, &weights);
    pf.schedule.validate(&scenario)?;
    let pf_eval = pf.schedule.evaluate(&scenario, &weights);
    println!(
        "priority_first    = {:>6}   ({} satisfied, high first, blind to urgency)",
        pf_eval.weighted_sum, pf_eval.satisfied_count
    );
    let rd = random_dijkstra(&scenario, seed).schedule.evaluate(&scenario, &weights);
    println!("random_Dijkstra   = {:>6}   (lower bound: random step choice)", rd.weighted_sum);
    let sd = single_dijkstra_random(&scenario, seed).schedule.evaluate(&scenario, &weights);
    println!(
        "single_Dij_random = {:>6}   (lower bound: stale plans, no re-planning)",
        sd.weighted_sum
    );
    Ok(())
}
