//! `dstage-bench`: the repo's benchmark.
//!
//! ```text
//! dstage-bench [--seed S] [--seconds N] [--workload NAME]... [--traced]
//!              [--smoke] [--out FILE] [--trace-out FILE]
//! dstage-bench --workload NAME --seed S --seconds N --trace 0|1
//! dstage-bench compare A.json B.json
//! dstage-bench manifest
//! ```
//!
//! Run it through `sysbench/run.sh`, which first builds `stage-serve` and
//! this binary in release mode into one target directory. See the
//! package's README for what is measured and why.

mod check;
mod compare;
mod daemon;
mod defs;
mod inputs;
mod prom;
mod report;
mod rng;
mod runner;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::{Scale, Workload};
use workloads::Ctx;

const USAGE: &str = "usage: dstage-bench [--seed S] [--seconds N] [--workload NAME]... [--traced | --trace 0|1] \
                     [--smoke] [--out FILE] [--trace-out FILE]\n       dstage-bench compare A.json B.json\n       \
                     dstage-bench manifest";

struct Options {
    seed: u64,
    seconds: f64,
    workloads: Vec<Workload>,
    traced: bool,
    /// `--trace 0|1` was given: end with the one-line JSON result.
    contract: bool,
    scale: Scale,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        seed: 2000,
        seconds: report::RUN_SECONDS as f64,
        workloads: Vec::new(),
        traced: false,
        contract: false,
        scale: Scale::Full,
        out: None,
        trace_out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--workload" => {
                let name = value()?;
                options.workloads.push(Workload::from_name(name).ok_or_else(|| {
                    format!(
                        "unknown workload `{name}` (valid: {})",
                        Workload::ALL.map(Workload::name).join(", ")
                    )
                })?);
            }
            "--traced" => options.traced = true,
            "--trace" => {
                options.contract = true;
                options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--smoke" => options.scale = Scale::Smoke,
            "--out" => options.out = Some(PathBuf::from(value()?)),
            "--trace-out" => options.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if options.workloads.is_empty() {
        options.workloads = Workload::ALL.to_vec();
    }
    if options.contract && options.workloads.len() != 1 {
        return Err("--trace 0|1 reports one workload: give exactly one --workload".to_string());
    }
    Ok(options)
}

/// The hidden child mode of the variant rows: `probe-run --workload W
/// --seed S --scale full|smoke --what core|sim` prints milliseconds.
fn probe_run(args: &[String]) -> Result<f64, String> {
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or(format!("probe-run needs {flag}"))
    };
    let workload = Workload::from_name(value_of("--workload")?).ok_or("unknown workload")?;
    let seed = value_of("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let scale = if value_of("--scale")? == "smoke" { Scale::Smoke } else { Scale::Full };
    trace::child_probe(workload, seed, scale, value_of("--what")?)
}

fn run(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let serve_exe = exe.with_file_name("stage-serve");
    if !serve_exe.is_file() {
        return Err(format!(
            "{} is missing: run sysbench/run.sh, which builds it beside this binary",
            serve_exe.display()
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let ctx = Ctx {
        serve_exe,
        scratch: daemon::Scratch::create().map_err(|e| format!("scratch directory: {e}"))?,
        nproc,
        clients: nproc.min(4),
        threads: nproc,
        seed: options.seed,
        scale: options.scale,
    };

    println!(
        "dstage-bench: {} run",
        if options.traced { "traced (per-layer)" } else { "untraced (end-to-end)" }
    );
    for (key, value) in report::host_block(&ctx) {
        println!("   {key}: {value}");
    }
    let mut reports = Vec::new();
    for &workload in &options.workloads {
        let report = if options.traced {
            // One span file per workload when several are traced.
            let spans = options.trace_out.as_ref().map(|path| {
                if options.workloads.len() == 1 {
                    return path.clone();
                }
                let mut name = path.file_stem().unwrap_or_default().to_os_string();
                name.push(format!(".{}", workload.name()));
                if let Some(extension) = path.extension() {
                    name.push(".");
                    name.push(extension);
                }
                path.with_file_name(name)
            });
            trace::run_traced(&ctx, workload, spans.as_deref())
        } else {
            runner::run_untraced(&ctx, workload, options.seconds)
        };
        report::print_workload(&report, options.traced, ctx.nproc);
        reports.push(report);
    }
    if let Some(path) = &options.out {
        std::fs::write(path, report::document(&ctx, &reports, options.traced))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nreport written to {}", path.display());
    }
    let all_correct = reports.iter().all(runner::WorkloadReport::correct);
    println!(
        "\n{}",
        if all_correct { "all output checks passed, no operation failed" } else { "FAILED" }
    );
    if options.contract {
        // The last line of stdout, as the benchmark contract asks. Its
        // `correct` and `failed` keys carry the verdict, so the exit code
        // only says that the run completed.
        println!("{}", runner::contract_line(&reports[0], options.traced));
        return Ok(true);
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b)
                .map(|verdicts| !verdicts.contains(&compare::Verdict::Regressed)),
            _ => Err(USAGE.to_string()),
        },
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(true)
        }
        Some("probe-run") => probe_run(&args[1..]).map(|ms| {
            println!("{ms}");
            true
        }),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_options(&args).and_then(|options| run(&options)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
