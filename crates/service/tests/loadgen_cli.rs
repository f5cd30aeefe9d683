//! The `stage-loadgen` binary's `--clients` bound, checked on the built
//! binary without a daemon.
//!
//! Every run here leaves out `--addr`: the address is checked after the
//! options are read, so were the bound gone, the run would still stop at
//! the missing address instead of starting a thread per client.

use std::process::Command;

/// Runs `stage-loadgen` with `args`; returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stage-loadgen"))
        .args(args)
        .output()
        .expect("run stage-loadgen");
    assert!(out.stdout.is_empty(), "nothing ran: {:?}", String::from_utf8_lossy(&out.stdout));
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn clients_outside_one_to_1024_are_a_usage_error() {
    for clients in ["0", "1025"] {
        let (code, stderr) = run(&["--clients", clients]);
        assert_eq!(code, Some(1), "--clients {clients}: {stderr}");
        assert!(
            stderr.contains("error: invalid --clients (1 to 1024 connections)"),
            "--clients {clients}: {stderr}"
        );
        assert!(stderr.contains("usage: stage-loadgen"), "{stderr}");
    }
    // The bound itself passes: the run stops at the missing address.
    let (code, stderr) = run(&["--clients", "1024"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("error: --addr is required"), "{stderr}");
}
