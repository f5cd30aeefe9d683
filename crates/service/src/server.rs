//! The TCP daemon: accept loop, worker pool, and the shared engine
//! behind an `RwLock`.
//!
//! Every mutating verb (`submit`, point-to-multipoint `submit`, `inject`,
//! `optimize`) goes through one write path, `write_verb`: take a FIFO
//! turn, take the write lock, decide against live state, stage the new
//! log records into the WAL, release, then wait for the group-commit
//! fsync. The order in which turns are served *is* the decision order,
//! the snapshot records it, and a sequential replay of that order
//! reproduces the state byte for byte. Queries, snapshots, and metrics
//! take the read lock and run concurrently with each other.
//!
//! Request lines are bounded at [`MAX_LINE_BYTES`]: a client streaming an
//! endless line gets one error response and is disconnected instead of
//! growing a worker's buffer without limit.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use dstage_obs::HistogramSnapshot;
use serde::Value;

use crate::durability::Durability;
use crate::engine::{AdmissionEngine, DEFAULT_OPTIMIZE_BUDGET};
use crate::protocol::{
    response_line, CheckpointResponse, ClientRequest, ErrorResponse, Latency, LatencyBucket,
    MetricsFormat, MetricsReply, PrometheusReply, ShutdownReply, TraceEvent, TraceReply,
};
use crate::unpoisoned;

/// Longest accepted request line, in bytes (newline excluded). Anything
/// longer gets an error response and the connection is dropped — the
/// remainder of the oversized line cannot be re-synchronized.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Tunables of [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads — also the number of connections served at once.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let fallback = 8;
        let workers = thread::available_parallelism().map_or(fallback, usize::from).max(fallback);
        ServerConfig { workers }
    }
}

/// How long a worker keeps serving an already-accepted connection after
/// shutdown begins: in-flight requests still get responses, but a client
/// that goes silent cannot pin the drain forever.
pub const SHUTDOWN_DRAIN_GRACE: Duration = Duration::from_secs(1);

/// FIFO hand-over of the engine's write lock: writers are served in the
/// order they drew their tickets. The lock alone lets the thread that
/// just released it take it again ahead of one already waiting, which
/// starves the waiting connection and stretches the latency tail.
#[derive(Default)]
struct TurnQueue {
    state: Mutex<TurnState>,
    advanced: Condvar,
}

#[derive(Default)]
struct TurnState {
    /// The next ticket to hand out.
    next: u64,
    /// The ticket whose holder may proceed.
    serving: u64,
}

/// The right to proceed, held until dropped. Releasing in `Drop` passes
/// the turn on even when the holder unwinds, so a panicking decision
/// cannot wedge later writers.
struct Turn<'a> {
    queue: &'a TurnQueue,
    ticket: u64,
}

impl TurnQueue {
    /// Draws the next ticket and blocks until it is served.
    fn wait(&self) -> Turn<'_> {
        let mut state = unpoisoned(self.state.lock());
        let ticket = state.next;
        state.next += 1;
        while state.serving != ticket {
            state = unpoisoned(self.advanced.wait(state));
        }
        Turn { queue: self, ticket }
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        unpoisoned(self.queue.state.lock()).serving = self.ticket + 1;
        self.queue.advanced.notify_all();
    }
}

/// State shared by the accept loop and every worker.
struct Shared {
    engine: RwLock<AdmissionEngine>,
    turns: TurnQueue,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// The WAL + checkpoint manager; absent when the daemon runs
    /// without a data directory.
    durability: OnceLock<Arc<Durability>>,
    /// Collapses concurrent periodic-checkpoint triggers to one.
    checkpointing: AtomicBool,
}

impl Shared {
    /// Raises the drain flag and pokes the accept loop so it observes it.
    fn start_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Triggers the daemon's graceful drain from outside a connection
/// (signal handlers use this): equivalent to a client `shutdown` verb.
#[derive(Clone)]
pub struct ShutdownHandle(Arc<Shared>);

impl ShutdownHandle {
    /// Starts the drain: stop accepting, let in-flight requests finish
    /// under the grace deadline.
    pub fn trigger(&self) {
        self.0.start_drain();
    }
}

/// A bound (but not yet running) admission-control daemon.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) around `engine`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind(engine: AdmissionEngine, addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            config,
            shared: Arc::new(Shared {
                engine: RwLock::new(engine),
                turns: TurnQueue::default(),
                shutdown: AtomicBool::new(false),
                addr,
                durability: OnceLock::new(),
                checkpointing: AtomicBool::new(false),
            }),
        })
    }

    /// Arms write-ahead logging: every decision is staged into
    /// `durability`'s WAL before its response is released, and the
    /// `checkpoint` verb (plus the periodic trigger) becomes available.
    /// Call once, before [`Server::run`].
    pub fn enable_durability(&self, durability: Arc<Durability>) {
        let _ = self.shared.durability.set(durability);
    }

    /// A handle that can start the graceful drain from outside a
    /// connection (SIGTERM/SIGINT handling in the binary uses this).
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared))
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the address lookup.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a client issues `shutdown`, then drains:
    /// queued connections are still handled, workers are joined, and the
    /// final engine snapshot is returned.
    ///
    /// # Errors
    ///
    /// Propagates fatal socket errors from the accept loop.
    pub fn run(self) -> io::Result<Value> {
        let (sender, receiver) = mpsc::sync_channel::<TcpStream>(self.config.workers.max(1) * 2);
        // One receiver, taken in turn: an idle worker waits on the lock,
        // the one holding it on the channel.
        let receiver = Arc::new(Mutex::new(receiver));
        let mut workers = Vec::with_capacity(self.config.workers.max(1));
        for _ in 0..self.config.workers.max(1) {
            let receiver = Arc::clone(&receiver);
            let shared = Arc::clone(&self.shared);
            workers.push(thread::spawn(move || loop {
                let next = unpoisoned(receiver.lock()).recv();
                let Ok(stream) = next else { break };
                handle_connection(&shared, stream);
            }));
        }

        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let draining = self.shared.shutdown.load(Ordering::SeqCst);
                    // Queue the stream even when draining: a connection
                    // that raced the shutdown poke was *accepted* and must
                    // still get responses — the workers drain the whole
                    // channel before exiting, so dropping it here would
                    // close it without a word. (The poke connection itself
                    // also lands in the queue; it sends nothing and costs
                    // one EOF read.)
                    if sender.send(stream).is_err() || draining {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        drop(sender);
        for worker in workers {
            let _ = worker.join();
        }
        Ok(unpoisoned(self.shared.engine.read()).snapshot())
    }
}

/// Serves one connection: one NDJSON response line per request line.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    // Poll with a short read timeout so idle connections notice the
    // shutdown flag instead of pinning a drained worker forever.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    // One small write per response: Nagle + delayed ACK would stall
    // every round trip by tens of milliseconds otherwise.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = Vec::new();
    // Set when the first post-shutdown timeout tick is observed on this
    // connection; the worker keeps serving complete lines until it
    // expires, so an in-flight request that raced the shutdown still
    // gets its response.
    let mut drain_deadline: Option<Instant> = None;
    loop {
        line.clear();
        match read_bounded_line(&mut reader, &mut line, shared, &mut drain_deadline) {
            // EOF (including mid-line), hard error, or draining: the
            // worker moves on to the next connection.
            LineRead::Closed => return,
            LineRead::TooLong => {
                let error =
                    ErrorResponse::line(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                let _ = write_line(&mut writer, error);
                return;
            }
            LineRead::Line => {}
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            let error = ErrorResponse::line("request line is not valid UTF-8");
            if write_line(&mut writer, error).is_err() {
                return;
            }
            continue;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = dispatch(shared, trimmed);
        if write_line(&mut writer, response).is_err() {
            return;
        }
    }
}

/// Sends `line` and its newline with one `write_all`: `writeln!` writes
/// the newline separately, which under `TCP_NODELAY` leaves as a second
/// segment.
fn write_line(writer: &mut impl Write, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Outcome of reading one bounded request line.
enum LineRead {
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// EOF, a hard socket error, or server drain — stop serving.
    Closed,
    /// The line exceeded [`MAX_LINE_BYTES`] before its newline arrived.
    TooLong,
}

/// Reads one newline-terminated line into `line`, riding out read-timeout
/// ticks and refusing to buffer more than [`MAX_LINE_BYTES`]. Once the
/// server is draining the connection gets [`SHUTDOWN_DRAIN_GRACE`] (from
/// its first post-shutdown tick, tracked in `drain_deadline`) to finish
/// in-flight lines before the worker moves on.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    shared: &Shared,
    drain_deadline: &mut Option<Instant>,
) -> LineRead {
    loop {
        // The chunk handling is split from `fill_buf` so the borrow ends
        // before `consume`.
        let step = match reader.fill_buf() {
            Ok([]) => return LineRead::Closed, // EOF; a partial line is discarded
            Ok(buf) => match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    line.extend_from_slice(&buf[..pos]);
                    Some((pos + 1, true))
                }
                None => {
                    line.extend_from_slice(buf);
                    Some((buf.len(), false))
                }
            },
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    let deadline = *drain_deadline
                        .get_or_insert_with(|| Instant::now() + SHUTDOWN_DRAIN_GRACE);
                    if Instant::now() >= deadline {
                        return LineRead::Closed;
                    }
                }
                None
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => None,
            Err(_) => return LineRead::Closed,
        };
        if let Some((consumed, complete)) = step {
            reader.consume(consumed);
            if line.len() > MAX_LINE_BYTES {
                return LineRead::TooLong;
            }
            if complete {
                return LineRead::Line;
            }
        }
    }
}

/// The observability identity of a verb: flight-recorder event name plus
/// the latency series it lands in (`trace` and `shutdown` share the
/// `metrics` series — all three are introspection verbs).
fn verb_obs(request: &ClientRequest) -> (&'static str, &'static dstage_obs::Histogram) {
    use dstage_obs::metrics as m;
    match request {
        ClientRequest::Submit(_) => ("verb.submit", &m::SERVICE_VERB_SUBMIT_US),
        ClientRequest::SubmitP2mp(_) => ("verb.submit_p2mp", &m::SERVICE_VERB_SUBMIT_US),
        ClientRequest::Query { .. } => ("verb.query", &m::SERVICE_VERB_QUERY_US),
        ClientRequest::Inject(_) => ("verb.inject", &m::SERVICE_VERB_INJECT_US),
        ClientRequest::Optimize { .. } => ("verb.optimize", &m::SERVICE_VERB_OPTIMIZE_US),
        ClientRequest::Snapshot => ("verb.snapshot", &m::SERVICE_VERB_SNAPSHOT_US),
        ClientRequest::Metrics { .. } => ("verb.metrics", &m::SERVICE_VERB_METRICS_US),
        ClientRequest::Trace { .. } => ("verb.trace", &m::SERVICE_VERB_METRICS_US),
        ClientRequest::Checkpoint => ("verb.checkpoint", &m::SERVICE_VERB_METRICS_US),
        ClientRequest::Shutdown => ("verb.shutdown", &m::SERVICE_VERB_METRICS_US),
    }
}

/// Handles one request line and produces one response line.
fn dispatch(shared: &Shared, line: &str) -> String {
    let request = match ClientRequest::parse(line) {
        Ok(r) => r,
        Err(message) => return ErrorResponse::line(message),
    };
    let (event, histogram) = verb_obs(&request);
    let started = Instant::now();
    let response = dispatch_parsed(shared, request);
    if dstage_obs::enabled() {
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        histogram.record(micros);
        dstage_obs::recorder::record("service", event, 0, micros);
    }
    response
}

/// The one write path. Takes a FIFO turn, then the engine's write lock,
/// and runs `verb` against live state; stages the log records it
/// appended into the WAL *under the lock*, so WAL order is decision
/// order; releases lock and turn; and only then waits for the fsync
/// policy, so concurrent writers coalesce into one group commit. The
/// caller replies after this returns — a response never overtakes the
/// WAL.
fn write_verb<T>(shared: &Shared, verb: impl FnOnce(&mut AdmissionEngine) -> T) -> T {
    let turn = shared.turns.wait();
    let mut engine = unpoisoned(shared.engine.write());
    let result = verb(&mut engine);
    let staged = shared.durability.get().map(|d| (d, d.stage(&engine)));
    drop(engine);
    drop(turn);
    if let Some((durability, seq)) = staged {
        durability.commit(seq);
    }
    result
}

/// A mutating verb through the write path, then the periodic checkpoint.
fn write_verb_line<R: serde::Serialize>(
    shared: &Shared,
    verb: impl FnOnce(&mut AdmissionEngine) -> Result<R, String>,
) -> String {
    let line = match write_verb(shared, verb) {
        Ok(response) => response_line(&response),
        Err(message) => ErrorResponse::line(message),
    };
    maybe_checkpoint(shared);
    line
}

fn dispatch_parsed(shared: &Shared, request: ClientRequest) -> String {
    match request {
        ClientRequest::Submit(args) => write_verb_line(shared, |engine| engine.submit(&args)),
        // The group's members are decided back-to-back inside one turn,
        // so later destinations plan against the ledger the earlier
        // ones committed (the shared-hop guarantee).
        ClientRequest::SubmitP2mp(args) => {
            write_verb_line(shared, |engine| engine.submit_p2mp(&args))
        }
        ClientRequest::Query { request } => match unpoisoned(shared.engine.read()).query(request) {
            Ok(response) => response_line(&response),
            Err(message) => ErrorResponse::line(message),
        },
        ClientRequest::Inject(args) => write_verb_line(shared, |engine| engine.inject(&args)),
        ClientRequest::Optimize { budget } => {
            let budget = budget.unwrap_or(DEFAULT_OPTIMIZE_BUDGET);
            write_verb_line(shared, |engine| Ok(engine.optimize(budget)))
        }
        ClientRequest::Snapshot => response_line(&unpoisoned(shared.engine.read()).snapshot_view()),
        ClientRequest::Metrics { format: MetricsFormat::Json } => {
            let counters = unpoisoned(shared.engine.read()).counters();
            let submits = dstage_obs::metrics::SERVICE_VERB_SUBMIT_US.snapshot();
            response_line(&MetricsReply { ok: true, counters, latency: latency(&submits) })
        }
        ClientRequest::Metrics { format: MetricsFormat::Prometheus } => {
            let text = dstage_obs::metrics::render_prometheus();
            response_line(&PrometheusReply { ok: true, format: MetricsFormat::Prometheus, text })
        }
        ClientRequest::Trace { limit } => {
            let limit = limit.map_or(usize::MAX, |l| usize::try_from(l).unwrap_or(usize::MAX));
            let events = (dstage_obs::recorder::recent(limit).into_iter())
                .map(|e| TraceEvent {
                    seq: e.seq,
                    layer: e.layer,
                    name: e.name,
                    value: e.value,
                    wall_us: e.wall_us,
                })
                .collect();
            response_line(&TraceReply {
                ok: true,
                enabled: dstage_obs::enabled(),
                total_recorded: dstage_obs::recorder::total_recorded(),
                events,
            })
        }
        ClientRequest::Checkpoint => {
            let Some(durability) = shared.durability.get() else {
                return ErrorResponse::line(
                    "durability is disabled (start stage-serve with --data-dir)",
                );
            };
            // The read lock excludes writers, so the checkpoint covers
            // exactly the staged WAL prefix.
            let engine = unpoisoned(shared.engine.read());
            match durability.checkpoint(&engine) {
                Ok(stats) => response_line(&CheckpointResponse {
                    ok: true,
                    covered: stats.covered,
                    bytes: stats.bytes,
                    segments_removed: stats.segments_removed,
                    checkpoints_removed: stats.checkpoints_removed,
                }),
                Err(e) => ErrorResponse::line(format!("checkpoint failed: {e}")),
            }
        }
        ClientRequest::Shutdown => {
            shared.start_drain();
            response_line(&ShutdownReply { ok: true, draining: true })
        }
    }
}

/// Runs a periodic checkpoint when enough WAL records accumulated since
/// the last one. At most one worker checkpoints at a time; failures are
/// reported to stderr and retried on a later trigger (the WAL stays
/// authoritative either way).
fn maybe_checkpoint(shared: &Shared) {
    let Some(durability) = shared.durability.get() else { return };
    if !durability.should_checkpoint() {
        return;
    }
    if shared.checkpointing.swap(true, Ordering::SeqCst) {
        return; // another worker is already on it
    }
    let engine = unpoisoned(shared.engine.read());
    if let Err(e) = durability.checkpoint(&engine) {
        eprintln!("periodic checkpoint failed (will retry): {e}");
    }
    drop(engine);
    shared.checkpointing.store(false, Ordering::SeqCst);
}

/// The `latency` object of the `metrics` verb, read off the tap's submit
/// histogram.
fn latency(h: &HistogramSnapshot) -> Latency {
    let buckets = (h.buckets.iter().enumerate())
        .map(|(bucket, &count)| LatencyBucket { le_us: h.bounds.get(bucket).copied(), count })
        .collect();
    Latency {
        count: h.count,
        mean_us: h.mean(),
        p50_us: h.percentile(0.50),
        p90_us: h.percentile(0.90),
        p99_us: h.percentile(0.99),
        max_us: h.max,
        buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reply_line_leaves_in_one_write() {
        /// Counts the `write` calls it receives.
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = Counting::default();
        write_line(&mut out, ErrorResponse::line("bad")).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(out.bytes, b"{\"ok\":false,\"error\":\"bad\"}\n");
        write_line(&mut out, String::new()).unwrap();
        assert_eq!((out.writes, out.bytes.last()), (2, Some(&b'\n')));
    }

    #[test]
    fn turns_are_served_in_ticket_order() {
        const THREADS: usize = 8;
        const TURNS: usize = 200;
        let queue = TurnQueue::default();
        let served = Mutex::new(Vec::with_capacity(THREADS * TURNS));
        let start = std::sync::Barrier::new(THREADS);
        thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..TURNS {
                        let turn = queue.wait();
                        served.lock().unwrap().push(turn.ticket);
                    }
                });
            }
        });
        let expected: Vec<u64> = (0..(THREADS * TURNS) as u64).collect();
        assert_eq!(served.into_inner().unwrap(), expected);
    }

    #[test]
    fn a_panicking_holder_passes_the_turn_on() {
        let queue = &TurnQueue::default();
        let (holding, held) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        thread::scope(|scope| {
            let holder = scope.spawn(move || {
                let _turn = queue.wait();
                holding.send(()).expect("the test is listening");
                released.recv().expect("the test releases the holder");
                panic!("a decision panicked while holding the turn");
            });
            held.recv().expect("the holder got the first turn");
            let waiter = scope.spawn(|| queue.wait().ticket);
            // The waiter has drawn its ticket once two are out; it cannot
            // be served while the holder still has the turn.
            while queue.state.lock().unwrap().next < 2 {
                thread::yield_now();
            }
            assert_eq!(queue.state.lock().unwrap().serving, 0);
            release.send(()).expect("the holder is waiting");
            assert!(holder.join().is_err(), "the holder panicked");
            assert_eq!(waiter.join().expect("the waiter was served"), 1);
        });
        assert_eq!(queue.state.lock().unwrap().serving, 2);
    }

    #[test]
    fn latency_object_renders_the_submit_histogram() {
        static BOUNDS: [u64; 2] = [50, 100];
        let h = HistogramSnapshot {
            bounds: &BOUNDS,
            buckets: vec![1, 0, 1],
            count: 2,
            sum: 2_010,
            max: 2_000,
        };
        let v = serde::to_value(&latency(&h)).unwrap();
        let field = |name: &str| v.get(name).and_then(Value::as_u64);
        assert_eq!(
            (field("count"), field("mean_us"), field("max_us")),
            (Some(2), Some(1_005), Some(2_000))
        );
        assert_eq!((field("p50_us"), field("p99_us")), (Some(50), Some(2_000)));
        let buckets = v.get("buckets").and_then(Value::as_array).expect("buckets");
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[2].get("le_us"), Some(&Value::Null), "the unbounded bucket");
    }
}
