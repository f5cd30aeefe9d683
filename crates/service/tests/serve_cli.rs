//! The `stage-serve` binary's argument contract, checked on the built
//! binary.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `stage-serve` with `args`, expecting it to exit rather than serve;
/// returns its exit code, stdout and stderr.
fn refused(args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_stage-serve"))
        .args(["--generate", "0", "--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn stage-serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll stage-serve") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("stage-serve kept serving with {args:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let (mut stdout, mut stderr) = (String::new(), String::new());
    child.stdout.take().expect("piped").read_to_string(&mut stdout).expect("read stdout");
    child.stderr.take().expect("piped").read_to_string(&mut stderr).expect("read stderr");
    (status.code(), stdout, stderr)
}

/// The daemon routes each request alone, where a cost criterion and an
/// E-U ratio decide nothing: `--criterion` and `--ratio` are not options of
/// it, and are refused as unknown before serving.
#[test]
fn the_offline_scoring_flags_are_refused_before_serving() {
    for args in [["--criterion", "C1"], ["--ratio", "2"]] {
        let (code, stdout, stderr) = refused(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(!stdout.contains("listening on"), "{args:?}: {stdout}");
        assert!(stderr.contains(&format!("unknown option \"{}\"", args[0])), "{stderr}");
        assert!(stderr.contains("usage: stage-serve"), "{args:?}: {stderr}");
    }
}

/// An unknown scheduler, or one this build no longer has, exits with code
/// 2 before serving, listing the valid names; the usage line lists the
/// same ones.
#[test]
fn an_unknown_scheduler_is_refused_with_the_valid_names() {
    for name in ["fastest", "rcd"] {
        let (code, stdout, stderr) = refused(&["--scheduler", name]);
        assert_eq!(code, Some(2), "{name}: {stderr}");
        assert!(!stdout.contains("listening on"), "{name}: {stdout}");
        assert!(
            stderr.contains(&format!(
                "unknown scheduler `{name}` (valid: partial, full_one, full_all, alap)"
            )),
            "{stderr}"
        );
        assert!(
            stderr.contains(
                "[--scheduler partial|full-one|full-all|alap] [--weights 1,5,10|1,10,100] \
                 [--data-dir D]"
            ),
            "{stderr}"
        );
    }
}

/// `--workers` sizes a channel and a `Vec` and starts one thread per
/// worker: a huge count used to ask the OS for that many threads, and `0`
/// silently became 1. Both are refused while parsing, before any thread
/// starts.
#[test]
fn a_worker_count_outside_one_to_the_cap_is_refused_before_serving() {
    for count in ["0", "1000000"] {
        let (code, stdout, stderr) = refused(&["--workers", count]);
        assert_eq!(code, Some(1), "{count}: {stderr}");
        assert!(!stdout.contains("listening on"), "{count}: {stdout}");
        assert!(stderr.contains("invalid --workers (1 to 1024 threads)"), "{count}: {stderr}");
        assert!(stderr.contains("usage: stage-serve"), "{count}: {stderr}");
    }
}
