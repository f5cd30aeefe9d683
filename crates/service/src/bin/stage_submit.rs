//! One-shot client for the admission daemon.
//!
//! ```text
//! stage-submit --addr HOST:PORT [--timeout-ms T] [--retries N] [--retry-seed S] <verb> [ARGS]
//!
//! VERBS:
//!   submit --item NAME --dest M --deadline-ms T [--priority P] [--key K]
//!   query --request N
//!   inject --at-ms T (--link L | --item NAME --machine M)
//!   optimize [--budget N]
//!   snapshot
//!   metrics [--prometheus]
//!   trace [--limit N]
//!   shutdown
//! ```
//!
//! Sends one request line, prints the one response line, and exits:
//!
//! * `0` — the daemon answered `ok: true` (admission *rejections* are ok
//!   — they are decisions, not failures);
//! * `1` — usage error, protocol error, or `ok: false`;
//! * `2` — the daemon refused the connection;
//! * `3` — connecting or reading timed out.
//!
//! Talks to the daemon through `dstage_service::client`: connects, writes
//! and reads under `--timeout-ms` (default 5000), retrying failures up to
//! `--retries` times (default 2) on a seeded exponential backoff. A retried `submit` is made idempotent automatically: when no
//! `--key` is given one is generated once and reused across attempts, so
//! a retry after a lost response never double-admits. `inject` and
//! `optimize` are only retried when the request line was never sent —
//! the daemon may have applied a disturbance (or an optimization pass)
//! whose response was lost.

use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Duration;

use dstage_core::heuristic::UsageError;
use dstage_service::client::{Backoff, Client};
use dstage_service::protocol::{ClientRequest, InjectArgs, InjectKind, MetricsFormat, SubmitArgs};
use serde::Value;

struct Options {
    addr: String,
    line: String,
    timeout: Duration,
    retries: u32,
    retry_seed: u64,
    /// Whether a retry may re-send after the line reached the socket
    /// (reads and keyed submits are idempotent; `inject` is not).
    resend_safe: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut addr = None;
    let mut verb: Option<String> = None;
    let mut item = None;
    let mut dest: Option<u32> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut priority: u8 = 0;
    let mut request: Option<u32> = None;
    let mut key: Option<String> = None;
    let mut link: Option<u32> = None;
    let mut machine: Option<u32> = None;
    let mut at_ms: Option<u64> = None;
    let mut timeout_ms: u64 = 5_000;
    let mut retries: u32 = 2;
    let mut retry_seed: u64 = 0;
    let mut prometheus = false;
    let mut limit: Option<u64> = None;
    let mut budget: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(args.next().ok_or("--addr needs host:port")?),
            "--item" => item = Some(args.next().ok_or("--item needs a name")?),
            "--dest" => dest = Some(parse_number(args.next(), "--dest")?),
            "--deadline-ms" => deadline_ms = Some(parse_number(args.next(), "--deadline-ms")?),
            "--priority" => priority = parse_number(args.next(), "--priority")?,
            "--request" => request = Some(parse_number(args.next(), "--request")?),
            "--key" => key = Some(args.next().ok_or("--key needs a string")?),
            "--link" => link = Some(parse_number(args.next(), "--link")?),
            "--machine" => machine = Some(parse_number(args.next(), "--machine")?),
            "--at-ms" => at_ms = Some(parse_number(args.next(), "--at-ms")?),
            "--timeout-ms" => timeout_ms = parse_number(args.next(), "--timeout-ms")?,
            "--retries" => retries = parse_number(args.next(), "--retries")?,
            "--retry-seed" => retry_seed = parse_number(args.next(), "--retry-seed")?,
            "--prometheus" => prometheus = true,
            "--limit" => limit = Some(parse_number(args.next(), "--limit")?),
            "--budget" => budget = Some(parse_number(args.next(), "--budget")?),
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other if verb.is_none() => verb = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let addr = addr.ok_or("--addr is required")?;
    if timeout_ms == 0 {
        return Err("--timeout-ms must be positive".to_string());
    }
    let mut resend_safe = true;
    let request = match verb.as_deref() {
        Some("submit") => {
            // Retried submits must be idempotent: without an explicit
            // key, generate one once and reuse it on every attempt.
            let key = key.unwrap_or_else(|| {
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.subsec_nanos());
                format!("submit-{}-{nanos}", std::process::id())
            });
            ClientRequest::Submit(SubmitArgs {
                item: item.ok_or("submit needs --item")?,
                destination: dest.ok_or("submit needs --dest")?,
                deadline_ms: deadline_ms.ok_or("submit needs --deadline-ms")?,
                priority,
                idempotency_key: Some(key),
            })
        }
        Some("query") => ClientRequest::Query { request: request.ok_or("query needs --request")? },
        Some("inject") => {
            resend_safe = false;
            let at_ms = at_ms.ok_or("inject needs --at-ms")?;
            let kind = match (link, item, machine) {
                (Some(link), None, None) => InjectKind::LinkOutage { link },
                (None, Some(item), Some(machine)) => InjectKind::CopyLoss { item, machine },
                _ => {
                    return Err(
                        "inject needs either --link L or --item NAME --machine M".to_string()
                    )
                }
            };
            ClientRequest::Inject(InjectArgs { kind, at_ms })
        }
        Some("optimize") => {
            // An optimize whose response was lost may already have
            // swapped the schedule; re-sending would run a second pass.
            resend_safe = false;
            ClientRequest::Optimize { budget }
        }
        Some("snapshot") => ClientRequest::Snapshot,
        Some("metrics") if prometheus => {
            ClientRequest::Metrics { format: MetricsFormat::Prometheus }
        }
        Some("metrics") => ClientRequest::Metrics { format: MetricsFormat::Json },
        Some("trace") => ClientRequest::Trace { limit },
        Some("shutdown") => ClientRequest::Shutdown,
        Some(other) => return Err(format!("unknown verb {other:?}")),
        None => return Err("a verb is required".to_string()),
    };
    let line = serde_json::to_string(&request).map_err(|e| e.to_string())?;
    Ok(Options {
        addr,
        line,
        timeout: Duration::from_millis(timeout_ms),
        retries,
        retry_seed,
        resend_safe,
    })
}

fn parse_number<T: std::str::FromStr>(arg: Option<String>, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    arg.ok_or(format!("{flag} needs a number"))?.parse().map_err(|e| format!("invalid {flag}: {e}"))
}

fn exit_code_for(kind: io::ErrorKind) -> ExitCode {
    match kind {
        io::ErrorKind::ConnectionRefused => ExitCode::from(2),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => ExitCode::from(3),
        _ => ExitCode::FAILURE,
    }
}

fn main() -> ExitCode {
    let options =
        match parse_args() {
            Ok(o) => o,
            Err(msg) => return UsageError::from(msg).report(
                "stage-submit --addr HOST:PORT [--timeout-ms T] [--retries N] [--retry-seed S] \
                 (submit --item NAME --dest M --deadline-ms T [--priority P] [--key K] \
                 | query --request N \
                 | inject --at-ms T (--link L | --item NAME --machine M) \
                 | optimize [--budget N] \
                 | snapshot | metrics [--prometheus] | trace [--limit N] | shutdown)",
            ),
        };
    let mut backoff = Backoff::new(options.retry_seed, options.retries, Duration::from_millis(50));
    let mut retried = 0;
    let sent = Client::new(&options.addr, options.timeout).send(
        &options.line,
        options.resend_safe,
        &mut backoff,
        |failure, delay| {
            eprintln!("error: {failure}");
            if let Some(delay) = delay {
                retried += 1;
                eprintln!(
                    "retrying in {} ms (attempt {retried}/{})",
                    delay.as_millis(),
                    options.retries
                );
            }
        },
    );
    let response = match sent {
        Ok((response, _)) => response,
        Err(failure) => return exit_code_for(failure.error.kind()),
    };
    // Write, not print!: a reader that closes early (snapshot piped into
    // `head`) must not panic the client.
    let _ = writeln!(io::stdout(), "{response}");
    let ok = serde_json::from_str::<Value>(&response)
        .ok()
        .and_then(|v| v.get("ok").and_then(Value::as_bool))
        .unwrap_or(false);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
