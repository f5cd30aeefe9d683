//! Schedules a scenario from a JSON file (as produced by the `scenarios`
//! exporter or hand-written) and prints the outcome: deliveries,
//! per-class statistics, and a per-link timeline.
//!
//! ```text
//! stage <scenario.json> [OPTIONS]
//!
//! OPTIONS:
//!   --heuristic H   partial | full-one (default) | full-all | alap; an
//!                   unknown name lists the valid ones and exits with code 2
//!   --criterion C   C1 | C2 | C3 | C4 (default) | C3f; full-all refuses C1
//!   --ratio X       log10 of the E-U ratio (default: the operating point,
//!                   `OPERATING_LOG10_RATIO`; -inf weighs urgency only);
//!                   NaN, or an X whose 10^X overflows, is refused
//!   --weights W     1,5,10 | 1,10,100 (default)
//!   --timeline      print the per-link schedule timeline
//!   --json          print the schedule as JSON instead of text
//! ```

use std::process::ExitCode;

use dstage_core::heuristic::{run, Pairing, UsageError};
use dstage_model::scenario::Scenario;
use dstage_sim::report::render_schedule_timeline;

struct Options {
    path: String,
    pairing: Pairing,
    timeline: bool,
    json: bool,
}

fn parse_args() -> Result<Options, UsageError> {
    let mut options =
        Options { path: String::new(), pairing: Pairing::default(), timeline: false, json: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if options.pairing.parse_flag("--heuristic", &arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--timeline" => options.timeline = true,
            "--json" => options.json = true,
            "--help" | "-h" => return Err(UsageError::from("")),
            other if other.starts_with('-') => {
                return Err(UsageError::from(format!("unknown option {other:?}")))
            }
            other => {
                if !options.path.is_empty() {
                    return Err(UsageError::from("exactly one scenario file expected"));
                }
                options.path = other.to_string();
            }
        }
    }
    if options.path.is_empty() {
        return Err(UsageError::from("a scenario file is required"));
    }
    options.pairing.check()?;
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(err) => {
            return err.report(&format!(
                "stage <scenario.json> {} [--timeline] [--json]",
                Pairing::usage("--heuristic")
            ))
        }
    };
    let scenario = match Scenario::load_json(&options.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Pairing { heuristic, log10_ratio, config } = &options.pairing;
    let outcome = run(&scenario, *heuristic, config);
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

    let eval = outcome.schedule.evaluate(&scenario, &config.priority_weights);
    println!(
        "{} + {} @ ratio 10^{}: weighted sum {} ({} of {} requests satisfied)",
        heuristic,
        config.criterion,
        log10_ratio,
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
