//! Concurrent load generator for the admission daemon, with an optional
//! deterministic chaos proxy.
//!
//! ```text
//! stage-loadgen --addr HOST:PORT [OPTIONS]
//!
//! OPTIONS:
//!   --clients N      concurrent client connections (default 8)
//!   --requests M     total submissions across all clients (default 500)
//!   --seed S         workload seed — use the daemon's --generate seed so
//!                    item names match (default 0)
//!   --family F       scenario family the workload is drawn from:
//!                    paper (default) | satcom | wan | grid | line — use
//!                    the daemon's --family so item names match; an
//!                    unknown name lists the valid ones and exits with
//!                    code 2
//!   --timeout-ms T   connect/read/write timeout per attempt (default 5000)
//!   --retries N      bounded retries per request line (default 5)
//!   --chaos S        interpose a fault proxy seeded with S between the
//!                    clients and the daemon
//!   --snapshot-out F after the run, fetch the daemon snapshot and write
//!                    it to F (bypasses the chaos proxy)
//!   --shutdown       after the run (and snapshot), ask the daemon to
//!                    drain and exit
//! ```
//!
//! Replays the request stream of the generated dstage-workload scenario
//! (cycling with shifted deadlines once exhausted; repeats of an already
//! admitted (item, destination) pair are legitimate rejections), then
//! prints throughput and client-side latency percentiles.
//!
//! Every submit line carries a deterministic `idempotency_key`
//! (`lg-SEED-INDEX`), and a client that loses its connection mid-run
//! reconnects and resumes the remaining lines with seeded exponential
//! backoff — a re-sent line whose response was lost replays the original
//! decision instead of double-admitting.
//!
//! `--chaos S` starts an in-process TCP proxy whose per-connection fault
//! plan is drawn from a splitmix64 stream over `S`: refuse service, cut
//! the connection after a byte budget (truncating mid-line), delay each
//! forwarded chunk, or forward cleanly. The schedule depends only on the
//! seed and the connection order, making chaos runs reproducible.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dstage_service::retry::Backoff;
use dstage_workload::Family;
use rand::{Rng, SeedableRng, StdRng};
use serde::Value;

struct Options {
    addr: String,
    clients: usize,
    requests: usize,
    seed: u64,
    family: Family,
    timeout: Duration,
    retries: u32,
    chaos: Option<u64>,
    snapshot_out: Option<String>,
    shutdown: bool,
}

/// A fatal argument problem and the exit code it maps to. An unknown
/// family name exits with `2` (matching stage-serve's scheduler flag) so
/// scripts can tell a typo from the generic usage failure (`1`).
struct CliError {
    message: String,
    exit: ExitCode,
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError { message, exit: ExitCode::FAILURE }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::from(message.to_string())
    }
}

fn parse_args() -> Result<Options, CliError> {
    let mut options = Options {
        addr: String::new(),
        clients: 8,
        requests: 500,
        seed: 0,
        family: Family::Paper,
        timeout: Duration::from_millis(5_000),
        retries: 5,
        chaos: None,
        snapshot_out: None,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => options.addr = args.next().ok_or("--addr needs host:port")?,
            "--clients" => {
                options.clients = args
                    .next()
                    .ok_or("--clients needs a count")?
                    .parse()
                    .map_err(|e| format!("invalid client count: {e}"))?;
            }
            "--requests" => {
                options.requests = args
                    .next()
                    .ok_or("--requests needs a count")?
                    .parse()
                    .map_err(|e| format!("invalid request count: {e}"))?;
            }
            "--seed" => {
                options.seed = args
                    .next()
                    .ok_or("--seed needs a number")?
                    .parse()
                    .map_err(|e| format!("invalid seed: {e}"))?;
            }
            "--family" => {
                let name = args.next().ok_or("--family needs a name")?;
                options.family = Family::from_name(&name).ok_or_else(|| CliError {
                    message: format!("unknown family `{name}` (valid: {})", Family::names()),
                    exit: ExitCode::from(2),
                })?;
            }
            "--timeout-ms" => {
                let ms: u64 = args
                    .next()
                    .ok_or("--timeout-ms needs a number")?
                    .parse()
                    .map_err(|e| format!("invalid timeout: {e}"))?;
                if ms == 0 {
                    return Err(CliError::from("--timeout-ms must be positive"));
                }
                options.timeout = Duration::from_millis(ms);
            }
            "--retries" => {
                options.retries = args
                    .next()
                    .ok_or("--retries needs a count")?
                    .parse()
                    .map_err(|e| format!("invalid retry count: {e}"))?;
            }
            "--chaos" => {
                options.chaos = Some(
                    args.next()
                        .ok_or("--chaos needs a seed")?
                        .parse()
                        .map_err(|e| format!("invalid chaos seed: {e}"))?,
                );
            }
            "--snapshot-out" => {
                options.snapshot_out = Some(args.next().ok_or("--snapshot-out needs a path")?);
            }
            "--shutdown" => options.shutdown = true,
            "--help" | "-h" => return Err(CliError::from(String::new())),
            other => return Err(CliError::from(format!("unknown option {other:?}"))),
        }
    }
    if options.addr.is_empty() {
        return Err(CliError::from("--addr is required"));
    }
    if options.clients == 0 || options.requests == 0 {
        return Err(CliError::from("--clients and --requests must be positive"));
    }
    Ok(options)
}

/// The generated scenario's requests as submit lines, cycled (with
/// deadlines shifted one hour per lap) until `total` lines exist. Line
/// `i` carries the deterministic idempotency key `lg-{seed}-{i}`.
/// Point-to-multipoint groups in the scenario are already expanded to
/// per-destination requests, so every family replays as plain submits.
fn submit_lines(family: Family, seed: u64, total: usize) -> Vec<String> {
    let scenario = family.generate(seed);
    let base: Vec<(String, u64, u64, u8)> = scenario
        .requests()
        .map(|(_, r)| {
            (
                scenario.item(r.item()).name().to_string(),
                r.destination().index() as u64,
                r.deadline().as_millis(),
                r.priority().level(),
            )
        })
        .collect();
    (0..total)
        .map(|i| {
            let (item, dest, deadline_ms, priority) = &base[i % base.len()];
            let lap = (i / base.len()) as u64;
            format!(
                r#"{{"verb":"submit","item":"{item}","destination":{dest},"deadline_ms":{},"priority":{priority},"idempotency_key":"lg-{seed}-{i}"}}"#,
                deadline_ms + lap * 3_600_000
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Deterministic chaos proxy
// ---------------------------------------------------------------------

/// What the proxy does to one accepted connection.
#[derive(Debug, Clone, Copy)]
enum FaultPlan {
    /// Close immediately without talking to the daemon.
    Refuse,
    /// Forward, but cut both directions after this many client bytes —
    /// usually mid-line.
    CutAfter(usize),
    /// Forward every chunk after a fixed delay.
    Delay(Duration),
    /// Forward untouched.
    Clean,
}

impl FaultPlan {
    /// The plan for the `index`-th accepted connection under `seed`:
    /// 1/8 refuse, 2/8 cut, 1/8 delay, 4/8 clean.
    fn for_connection(seed: u64, index: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match rng.gen_range(0..8u32) {
            0 => FaultPlan::Refuse,
            1 | 2 => FaultPlan::CutAfter(20 + rng.gen_range(0..400usize)),
            3 => FaultPlan::Delay(Duration::from_millis(1 + rng.gen_range(0..10u64))),
            _ => FaultPlan::Clean,
        }
    }
}

/// Binds an ephemeral port and forwards each accepted connection to
/// `upstream` under a seeded per-connection [`FaultPlan`]. The accept
/// loop runs until the process exits.
fn spawn_chaos_proxy(upstream: String, seed: u64) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    thread::spawn(move || {
        for (index, stream) in listener.incoming().enumerate() {
            let Ok(client) = stream else { continue };
            let upstream = upstream.clone();
            let plan = FaultPlan::for_connection(seed, index as u64);
            thread::spawn(move || proxy_connection(client, &upstream, plan));
        }
    });
    Ok(addr)
}

/// Runs one proxied connection to completion under `plan`.
fn proxy_connection(client: TcpStream, upstream: &str, plan: FaultPlan) {
    if matches!(plan, FaultPlan::Refuse) {
        let _ = client.shutdown(Shutdown::Both);
        return;
    }
    let Ok(server) = TcpStream::connect(upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let (Ok(mut server_read), Ok(mut client_write)) = (server.try_clone(), client.try_clone())
    else {
        return;
    };
    let pump = thread::spawn(move || {
        let _ = io::copy(&mut server_read, &mut client_write);
        let _ = client_write.shutdown(Shutdown::Both);
    });
    // Client → server in small chunks so a byte budget cuts mid-line.
    let mut client_read = client;
    let mut server_write = server;
    let mut budget = match plan {
        FaultPlan::CutAfter(bytes) => Some(bytes),
        _ => None,
    };
    let delay = match plan {
        FaultPlan::Delay(d) => Some(d),
        _ => None,
    };
    let mut buf = [0u8; 64];
    loop {
        let n = match client_read.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let (forward, cut) = match budget.as_mut() {
            Some(remaining) if n >= *remaining => (*remaining, true),
            Some(remaining) => {
                *remaining -= n;
                (n, false)
            }
            None => (n, false),
        };
        if let Some(d) = delay {
            thread::sleep(d);
        }
        if server_write.write_all(&buf[..forward]).is_err() || server_write.flush().is_err() {
            break;
        }
        if cut {
            break;
        }
    }
    let _ = server_write.shutdown(Shutdown::Both);
    let _ = client_read.shutdown(Shutdown::Both);
    let _ = pump.join();
}

// ---------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------

#[derive(Default)]
struct ClientStats {
    admitted: u64,
    rejected: u64,
    errors: u64,
    retries: u64,
    gave_up: u64,
    latencies: Vec<Duration>,
}

fn connect(addr: &str, timeout: Duration) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    use std::net::ToSocketAddrs;
    let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "address resolved to nothing");
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => {
                stream.set_read_timeout(Some(timeout))?;
                stream.set_write_timeout(Some(timeout))?;
                // One-line requests: leaving Nagle on costs a delayed-ACK
                // stall per round trip.
                stream.set_nodelay(true)?;
                let reader = BufReader::new(stream.try_clone()?);
                return Ok((reader, stream));
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Submits `lines` (global indices starting at `first_index`), timing
/// each answered round trip. A lost connection is re-established and the
/// run resumes at the failed line; after `retries` bounded-backoff
/// attempts the line is abandoned (`gave_up`) and the run continues.
fn run_client(
    addr: &str,
    lines: &[String],
    first_index: usize,
    timeout: Duration,
    retries: u32,
    seed: u64,
) -> ClientStats {
    let mut stats =
        ClientStats { latencies: Vec::with_capacity(lines.len()), ..Default::default() };
    let mut conn: Option<(BufReader<TcpStream>, TcpStream)> = None;
    for (offset, line) in lines.iter().enumerate() {
        let mut backoff = Backoff::new(
            seed.wrapping_add((first_index + offset) as u64),
            retries,
            Duration::from_millis(50),
        );
        let answer = loop {
            if conn.is_none() {
                match connect(addr, timeout) {
                    Ok(c) => conn = Some(c),
                    Err(_) => match backoff.next_delay() {
                        Some(delay) => {
                            stats.retries += 1;
                            thread::sleep(delay);
                            continue;
                        }
                        None => break None,
                    },
                }
            }
            let (reader, writer) = conn.as_mut().expect("connected above");
            let start = Instant::now();
            let exchange =
                writeln!(writer, "{line}").and_then(|()| writer.flush()).and_then(|()| {
                    let mut response = String::new();
                    match reader.read_line(&mut response) {
                        Ok(0) => Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "daemon closed the connection mid-run",
                        )),
                        Ok(_) => Ok((response, start.elapsed())),
                        Err(e) => Err(e),
                    }
                });
            match exchange {
                Ok(answer) => break Some(answer),
                Err(_) => {
                    conn = None;
                    match backoff.next_delay() {
                        Some(delay) => {
                            stats.retries += 1;
                            thread::sleep(delay);
                        }
                        None => break None,
                    }
                }
            }
        };
        match answer {
            Some((response, latency)) => {
                stats.latencies.push(latency);
                match serde_json::from_str::<Value>(response.trim())
                    .ok()
                    .and_then(|v| v.get("decision").and_then(|d| d.as_str().map(str::to_string)))
                    .as_deref()
                {
                    Some("admitted") => stats.admitted += 1,
                    Some("rejected") => stats.rejected += 1,
                    _ => stats.errors += 1,
                }
            }
            None => stats.gave_up += 1,
        }
    }
    stats
}

/// Opens a fresh connection, performs one NDJSON round trip, closes.
fn one_shot(addr: &str, line: &str, timeout: Duration) -> io::Result<String> {
    let (mut reader, mut writer) = connect(addr, timeout)?;
    writeln!(writer, "{line}")?;
    writer.flush()?;
    let mut response = String::new();
    match reader.read_line(&mut response) {
        Ok(0) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")),
        Ok(_) => Ok(response.trim().to_string()),
        Err(e) => Err(e),
    }
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(err) => {
            if !err.message.is_empty() {
                eprintln!("error: {}", err.message);
            }
            eprintln!(
                "usage: stage-loadgen --addr HOST:PORT [--clients N] [--requests M] [--seed S] \
                 [--family paper|satcom|wan|grid|line] \
                 [--timeout-ms T] [--retries N] [--chaos S] [--snapshot-out F] [--shutdown]"
            );
            return if err.message.is_empty() { ExitCode::SUCCESS } else { err.exit };
        }
    };
    let target = match options.chaos {
        Some(chaos_seed) => match spawn_chaos_proxy(options.addr.clone(), chaos_seed) {
            Ok(addr) => {
                println!("chaos proxy on {addr} (seed {chaos_seed}) -> {}", options.addr);
                addr.to_string()
            }
            Err(e) => {
                eprintln!("error: cannot start chaos proxy: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => options.addr.clone(),
    };
    let lines = Arc::new(submit_lines(options.family, options.seed, options.requests));
    // Contiguous per-client slices: client c gets lines [c*share, ...).
    let share = options.requests.div_ceil(options.clients);
    let started = Instant::now();
    let mut handles = Vec::new();
    for client in 0..options.clients {
        let lines = Arc::clone(&lines);
        let target = target.clone();
        let timeout = options.timeout;
        let retries = options.retries;
        let seed = options.seed;
        handles.push(thread::spawn(move || {
            let lo = (client * share).min(lines.len());
            let hi = ((client + 1) * share).min(lines.len());
            run_client(&target, &lines[lo..hi], lo, timeout, retries, seed)
        }));
    }
    let mut totals = ClientStats::default();
    let mut panicked = 0u64;
    for handle in handles {
        match handle.join() {
            Ok(stats) => {
                totals.admitted += stats.admitted;
                totals.rejected += stats.rejected;
                totals.errors += stats.errors;
                totals.retries += stats.retries;
                totals.gave_up += stats.gave_up;
                totals.latencies.extend(stats.latencies);
            }
            Err(_) => panicked += 1,
        }
    }
    let elapsed = started.elapsed();
    if panicked > 0 {
        eprintln!("client error: {panicked} client thread(s) panicked");
    }
    totals.latencies.sort_unstable();
    let answered = totals.latencies.len();
    let throughput = answered as f64 / elapsed.as_secs_f64().max(f64::EPSILON);
    println!("clients: {}, requests: {} ({answered} answered)", options.clients, options.requests);
    println!(
        "admitted: {}, rejected: {}, protocol errors: {}",
        totals.admitted, totals.rejected, totals.errors
    );
    println!("retries: {}, gave up: {}", totals.retries, totals.gave_up);
    println!("elapsed: {:.3} s, throughput: {throughput:.1} req/s", elapsed.as_secs_f64());
    println!(
        "latency: p50 {} µs, p90 {} µs, p99 {} µs, max {} µs",
        percentile(&totals.latencies, 0.50).as_micros(),
        percentile(&totals.latencies, 0.90).as_micros(),
        percentile(&totals.latencies, 0.99).as_micros(),
        totals.latencies.last().copied().unwrap_or(Duration::ZERO).as_micros()
    );
    // The epilogue talks to the daemon directly (not through the chaos
    // proxy): the snapshot must be authoritative, and the shutdown verb
    // must not be dropped by an injected fault.
    let mut epilogue_failed = false;
    if let Some(path) = &options.snapshot_out {
        match one_shot(&options.addr, r#"{"verb":"snapshot"}"#, options.timeout) {
            Ok(snapshot) => {
                if let Err(e) = std::fs::write(path, snapshot + "\n") {
                    eprintln!("error: cannot write {path}: {e}");
                    epilogue_failed = true;
                }
            }
            Err(e) => {
                eprintln!("error: snapshot fetch failed: {e}");
                epilogue_failed = true;
            }
        }
    }
    if options.shutdown {
        if let Err(e) = one_shot(&options.addr, r#"{"verb":"shutdown"}"#, options.timeout) {
            eprintln!("error: shutdown request failed: {e}");
            epilogue_failed = true;
        }
    }
    if panicked == 0 && totals.gave_up == 0 && answered == options.requests && !epilogue_failed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
