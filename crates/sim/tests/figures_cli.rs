//! The `figures` binary's argument contract, checked on the built binary.

use std::process::Command;

/// A zero case count used to panic in `report::ascii_plot` (`fig2`) or
/// print all-zero tables with exit 0 (`families`); it is a usage error.
#[test]
fn zero_cases_is_a_usage_error() {
    for experiment in ["fig2", "families"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args([experiment, "--small", "--cases", "0", "--quiet", "--out"])
            .arg(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("figures runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{experiment}: {stderr}");
        assert!(stderr.contains("invalid case count \"0\""), "{experiment}: {stderr}");
        assert!(stderr.contains("usage: figures"), "{experiment}: {stderr}");
        assert!(out.stdout.is_empty(), "{experiment} printed a report");
    }
}
