//! Read-only-tap byte-identity tests: the observability layer must never
//! influence a scheduling outcome. A sweep run with the tap recording is
//! rendered and compared byte for byte against sweeps run with the tap
//! disabled, across the 2/4/8-thread ladder — any divergence means some
//! code path read observability state back into a decision.
//!
//! Everything lives in ONE `#[test]` because [`data_staging::obs::set_enabled`]
//! is process-global: flipping it from concurrently running tests would
//! race whole measurement runs against each other.

use data_staging::obs::metrics::{PATH_TREES, RESOURCES_PROBES};
use data_staging::sim::experiments::{self, ExperimentReport};
use data_staging::sim::runner::Harness;
use data_staging::workload::GeneratorConfig;

/// Every rendered byte of a report set, with the one deliberately
/// environment-dependent output (the measured wall-clock column of the
/// `exec` companion table) masked — it differs even between two runs
/// with identical settings, so it is outside the byte-identity claim.
fn render(reports: &[ExperimentReport]) -> String {
    let mut out = String::new();
    for report in reports {
        let mut report = report.clone();
        for table in &mut report.tables {
            if let Some(col) = table.columns.iter().position(|c| c == "mean time [ms]") {
                for row in &mut table.rows {
                    row[col] = "<wall-clock>".into();
                }
            }
        }
        out.push_str(&report.to_text());
        for (name, csv) in report.csv_files() {
            out.push_str(&name);
            out.push('\n');
            out.push_str(&csv);
        }
    }
    out
}

#[test]
fn sweep_reports_are_byte_identical_with_obs_on_and_off() {
    // Reference run: tap ON, sequential. Also proves the tap is live by
    // checking that instrumented hot paths actually moved the counters.
    data_staging::obs::set_enabled(true);
    data_staging::obs::reset();
    let with_obs = render(&experiments::all(&Harness::new(&GeneratorConfig::small(), 4)));
    assert!(!with_obs.is_empty());
    assert!(RESOURCES_PROBES.get() > 0, "tap enabled but the resources layer recorded nothing");
    assert!(PATH_TREES.get() > 0, "tap enabled but the path layer recorded nothing");

    // Tap OFF: sequential and the 2/4/8-thread ladder must all render
    // the very same bytes.
    data_staging::obs::set_enabled(false);
    data_staging::obs::reset();
    let sequential_off = render(&experiments::all(&Harness::new(&GeneratorConfig::small(), 4)));
    assert_eq!(
        with_obs, sequential_off,
        "sequential sweep diverges when the observability tap is disabled"
    );
    for threads in [2usize, 4, 8] {
        let harness = Harness::new(&GeneratorConfig::small(), 4).with_threads(threads);
        let parallel_off = render(&experiments::all(&harness));
        assert_eq!(
            with_obs, parallel_off,
            "{threads}-thread sweep with obs off diverges from the obs-on reference"
        );
    }

    // With the tap off, nothing may have been recorded.
    assert_eq!(
        RESOURCES_PROBES.get(),
        0,
        "tap disabled but counters still moved — a record call is not gated"
    );
    assert_eq!(data_staging::obs::recorder::total_recorded(), 0);

    data_staging::obs::set_enabled(true);
}
