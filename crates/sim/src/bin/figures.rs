//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [OPTIONS] [EXPERIMENT...]
//!
//! EXPERIMENT: fig2 fig3 fig4 fig5 weights prio-first minmax exec extensions
//!             schedulers optimizer fault-tolerance congestion families | all
//!             (default: all)
//!
//! OPTIONS:
//!   --cases N     number of random test cases, at least 1 (default 40, the
//!                 paper's)
//!   --budget N    swap budget of the optimizer post-pass (default 8)
//!   --small       use the scaled-down generator config (fast smoke run)
//!   --out DIR     write <experiment>.txt and CSV series to DIR
//!                 (default: results/)
//!   --threads N   worker threads every experiment's case loop fans out
//!                 over (default: DSTAGE_THREADS, then the machine's
//!                 available parallelism); results are byte-identical for
//!                 every thread count
//!   --quiet       suppress progress logging
//! ```

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use dstage_sim::experiments::{self, ExperimentReport};
use dstage_sim::runner::Harness;
use dstage_workload::GeneratorConfig;

/// Canonical experiment names, in default run order. Aliases with
/// underscores (`prio_first`, `fault_tolerance`) normalize to these.
const EXPERIMENT_NAMES: [&str; 14] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "weights",
    "prio-first",
    "minmax",
    "exec",
    "extensions",
    "schedulers",
    "optimizer",
    "fault-tolerance",
    "congestion",
    "families",
];

struct Options {
    cases: usize,
    budget: u64,
    small: bool,
    out: PathBuf,
    threads: Option<usize>,
    quiet: bool,
    experiments: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        cases: 40,
        budget: 8,
        small: false,
        out: PathBuf::from("results"),
        threads: None,
        quiet: false,
        experiments: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cases" => {
                let value = args.next().ok_or("--cases needs a number")?;
                options.cases = value
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid case count {value:?} (need at least 1)"))?;
            }
            "--small" => options.small = true,
            "--budget" => {
                let value = args.next().ok_or("--budget needs a number")?;
                options.budget =
                    value.parse().map_err(|_| format!("invalid swap budget {value:?}"))?;
            }
            "--threads" => {
                let value = args.next().ok_or("--threads needs a number")?;
                options.threads =
                    Some(value.parse().map_err(|_| format!("invalid thread count {value:?}"))?);
            }
            "--out" => {
                options.out = PathBuf::from(args.next().ok_or("--out needs a directory")?);
            }
            "--quiet" => options.quiet = true,
            "--help" | "-h" => {
                return Err(String::new()); // triggers usage
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other:?}"));
            }
            other => options.experiments.push(other.to_string()),
        }
    }
    if options.experiments.is_empty() || options.experiments.iter().any(|e| e == "all") {
        options.experiments = EXPERIMENT_NAMES.iter().map(|s| s.to_string()).collect();
    }
    Ok(options)
}

fn run_experiment(
    name: &str,
    harness: &Harness,
    options: &Options,
    threads: usize,
) -> Option<ExperimentReport> {
    match name {
        "fig2" => Some(experiments::fig2(harness)),
        "fig3" => Some(experiments::fig3(harness)),
        "fig4" => Some(experiments::fig4(harness)),
        "fig5" => Some(experiments::fig5(harness)),
        "weights" => Some(experiments::weights(harness)),
        "prio-first" | "prio_first" => Some(experiments::prio_first(harness)),
        "minmax" => Some(experiments::minmax(harness)),
        "exec" => Some(experiments::exec(harness)),
        "extensions" => Some(experiments::extensions(harness)),
        "schedulers" => Some(experiments::schedulers(harness)),
        "optimizer" => {
            let base =
                if options.small { GeneratorConfig::small() } else { GeneratorConfig::paper() };
            // Each climb trial re-runs the full heuristic; a reduced case
            // count keeps the pass tractable at paper scale.
            Some(experiments::optimizer(&base, options.cases.min(10), options.budget, threads))
        }
        "fault-tolerance" | "fault_tolerance" => {
            let base =
                if options.small { GeneratorConfig::small() } else { GeneratorConfig::paper() };
            Some(experiments::fault_tolerance(&base, options.cases.min(10), threads))
        }
        "congestion" => {
            let base =
                if options.small { GeneratorConfig::small() } else { GeneratorConfig::paper() };
            // Congestion sweeps 4x the load; a reduced case count keeps it
            // tractable while staying statistically meaningful.
            Some(experiments::congestion(&base, options.cases.min(10), threads))
        }
        "families" => {
            // Five schedulers x five families, fault-free and re-planned
            // under copy loss; a reduced case count keeps the online
            // simulations tractable at paper scale.
            Some(experiments::families(options.cases.min(10), options.small, threads))
        }
        _ => None,
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "usage: figures [--cases N] [--budget N] [--small] [--out DIR] [--threads N] \
                 [--quiet] \
                 [fig2 fig3 fig4 fig5 weights prio-first minmax exec extensions schedulers \
                 optimizer fault-tolerance congestion families | all]"
            );
            return if msg.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
    };

    // Reject unknown experiment names before any sweep work starts, with
    // the same friendly exit-2 contract the daemon's --scheduler flag has.
    for name in &options.experiments {
        let canonical = name.replace('_', "-");
        if !EXPERIMENT_NAMES.contains(&canonical.as_str()) {
            eprintln!(
                "error: unknown experiment {name:?} (valid: {}, all)",
                EXPERIMENT_NAMES.join(", ")
            );
            return ExitCode::from(2);
        }
    }

    let config = if options.small { GeneratorConfig::small() } else { GeneratorConfig::paper() };
    let threads = dstage_sim::executor::resolve_threads(options.threads);
    let mut harness = Harness::new(&config, options.cases).with_threads(threads);
    harness.set_verbose(!options.quiet);
    if !options.quiet {
        eprintln!(
            "[figures] {} cases at {} scale on {} threads -> {}",
            options.cases,
            if options.small { "small" } else { "paper" },
            threads,
            options.out.display()
        );
    }

    if let Err(e) = std::fs::create_dir_all(&options.out) {
        eprintln!("error: cannot create {}: {e}", options.out.display());
        return ExitCode::FAILURE;
    }

    for name in &options.experiments {
        let started = std::time::Instant::now();
        let Some(report) = run_experiment(name, &harness, &options, threads) else {
            eprintln!("error: unknown experiment {name:?}");
            return ExitCode::FAILURE;
        };
        let text = report.to_text();
        println!("{text}");
        let txt_path = options.out.join(format!("{}.txt", report.id));
        if let Err(e) =
            std::fs::File::create(&txt_path).and_then(|mut f| f.write_all(text.as_bytes()))
        {
            eprintln!("error: cannot write {}: {e}", txt_path.display());
            return ExitCode::FAILURE;
        }
        for (file, csv) in report.csv_files() {
            let path = options.out.join(file);
            if let Err(e) =
                std::fs::File::create(&path).and_then(|mut f| f.write_all(csv.as_bytes()))
            {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        if !options.quiet {
            eprintln!("[figures] {name} done in {:.1?}", started.elapsed());
        }
    }

    ExitCode::SUCCESS
}
