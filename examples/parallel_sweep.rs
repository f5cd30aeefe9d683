//! Parallel sweeps end to end: renders the paper suite with every
//! series' cases fanned out across worker threads and shows it is
//! byte-identical to a one-thread run of the same suite.
//!
//! Thread count resolution mirrors the `figures` binary: an explicit
//! count beats `DSTAGE_THREADS`, which beats the host's available
//! parallelism.
//!
//! ```text
//! cargo run --release --example parallel_sweep
//! DSTAGE_THREADS=2 cargo run --release --example parallel_sweep
//! ```

use std::time::Instant;

use data_staging::sim::experiments;
use data_staging::sim::runner::Harness;
use data_staging::sim::{available_threads, resolve_threads};
use data_staging::workload::GeneratorConfig;

fn main() {
    const CASES: usize = 8;
    let threads = resolve_threads(None);
    println!(
        "sweeping {CASES} cases on {threads} threads ({} cores available)",
        available_threads()
    );

    // One-thread reference.
    let started = Instant::now();
    let sequential: Vec<String> = experiments::all(&Harness::new(&GeneratorConfig::small(), CASES))
        .iter()
        .map(|r| r.to_text())
        .collect();
    println!("sequential: {:.2?}", started.elapsed());

    // Parallel: the same call on a harness told how many workers it has.
    let harness = Harness::new(&GeneratorConfig::small(), CASES).with_threads(threads);
    let started = Instant::now();
    let parallel: Vec<String> = experiments::all(&harness).iter().map(|r| r.to_text()).collect();
    println!("{threads} threads: {:.2?}", started.elapsed());

    // Scheduling outputs are byte-identical whatever the thread count
    // (only the exec table's measured wall-clock column ever differs).
    let identical = sequential.iter().zip(parallel.iter()).filter(|(s, p)| s == p).count();
    println!("{identical}/{} reports byte-identical", sequential.len());

    // Print one of the regenerated figures as proof of life.
    if let Some(report) = experiments::all(&harness).iter().find(|r| r.id == "fig2") {
        println!("\n{}", report.to_text());
    }
}
