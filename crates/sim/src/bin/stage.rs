//! Schedules a scenario from a JSON file (as produced by the `scenarios`
//! exporter or hand-written) and prints the outcome: deliveries,
//! per-class statistics, and a per-link timeline.
//!
//! ```text
//! stage <scenario.json> [OPTIONS]
//!
//! OPTIONS:
//!   --heuristic H   partial | full-one (default) | full-all | alap
//!   --criterion C   C1 | C2 | C3 | C4 (default) | C3f; full-all refuses C1
//!   --ratio X       log10 of the E-U ratio (default: the operating point,
//!                   `OPERATING_LOG10_RATIO`; -inf weighs urgency only);
//!                   NaN, or an X whose 10^X overflows, is refused
//!   --weights W     1,5,10 | 1,10,100 (default)
//!   --timeline      print the per-link schedule timeline
//!   --json          print the schedule as JSON instead of text
//! ```

use std::process::ExitCode;

use dstage_core::cost::{CostCriterion, EuWeights};
use dstage_core::heuristic::{run, Heuristic, HeuristicConfig, OPERATING_LOG10_RATIO};
use dstage_model::request::PriorityWeights;
use dstage_model::scenario::Scenario;
use dstage_sim::report::render_schedule_timeline;

struct Options {
    path: String,
    heuristic: Heuristic,
    criterion: CostCriterion,
    ratio: f64,
    weights: PriorityWeights,
    timeline: bool,
    json: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        path: String::new(),
        heuristic: Heuristic::FullPathOneDestination,
        criterion: CostCriterion::C4,
        ratio: f64::from(OPERATING_LOG10_RATIO),
        weights: PriorityWeights::paper_1_10_100(),
        timeline: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--heuristic" => {
                let name = args.next().ok_or("--heuristic needs a name")?;
                options.heuristic = Heuristic::from_label(&name).ok_or_else(|| {
                    let valid = Heuristic::EXTENDED.map(Heuristic::label).join(", ");
                    format!("unknown heuristic {name:?} (valid: {valid})")
                })?;
            }
            "--criterion" => {
                let name = args.next().ok_or("--criterion needs a name")?;
                options.criterion = CostCriterion::from_label(&name)
                    .ok_or_else(|| format!("unknown criterion {name:?}"))?;
            }
            "--ratio" => {
                options.ratio =
                    EuWeights::parse_log10_ratio(&args.next().ok_or("--ratio needs a number")?)?;
            }
            "--weights" => {
                let name = args.next().ok_or("--weights needs a weighting")?;
                options.weights = PriorityWeights::paper_from_label(&name)
                    .ok_or_else(|| format!("unknown weighting {name:?}"))?;
            }
            "--timeline" => options.timeline = true,
            "--json" => options.json = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other => {
                if !options.path.is_empty() {
                    return Err("exactly one scenario file expected".into());
                }
                options.path = other.to_string();
            }
        }
    }
    if options.path.is_empty() {
        return Err("a scenario file is required".into());
    }
    options.heuristic.check_criterion(options.criterion)?;
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "usage: stage <scenario.json> [--heuristic {}] \
                 [--criterion C1|C2|C3|C4|C3f] [--ratio X] [--weights 1,5,10|1,10,100] \
                 [--timeline] [--json]",
                Heuristic::EXTENDED.map(|h| h.label().replace('_', "-")).join("|")
            );
            return if msg.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
    };
    let scenario = match Scenario::load_json(&options.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = HeuristicConfig {
        criterion: options.criterion,
        eu: EuWeights::from_log10_ratio(options.ratio),
        priority_weights: options.weights.clone(),
        caching: true,
    };
    let outcome = run(&scenario, options.heuristic, &config);
    if let Err(e) = outcome.schedule.validate(&scenario) {
        eprintln!("internal error: produced schedule failed validation: {e}");
        return ExitCode::FAILURE;
    }

    if options.json {
        match serde_json::to_string_pretty(&outcome.schedule) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let eval = outcome.schedule.evaluate(&scenario, &options.weights);
    println!(
        "{} + {} @ ratio 10^{}: weighted sum {} ({} of {} requests satisfied)",
        options.heuristic,
        options.criterion,
        options.ratio,
        eval.weighted_sum,
        eval.satisfied_count,
        eval.request_count
    );
    for (level, (sat, total)) in
        eval.satisfied_by_priority.iter().zip(eval.total_by_priority.iter()).enumerate()
    {
        println!("  priority {level}: {sat}/{total}");
    }
    println!(
        "  {} transfers, {} Dijkstra runs, {:.1} ms",
        outcome.metrics.transfers_committed,
        outcome.metrics.dijkstra_runs,
        outcome.metrics.elapsed.as_secs_f64() * 1_000.0
    );
    if options.timeline {
        println!();
        println!("{}", render_schedule_timeline(&scenario, &outcome.schedule, 100));
    }
    ExitCode::SUCCESS
}
