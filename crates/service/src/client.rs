//! The daemon's client: one connection that makes NDJSON round trips, and
//! one retry loop over it.
//!
//! `stage-submit`, `stage-loadgen`, the admission example and the service
//! suites all talk to the daemon through a [`Connection`]; the two client
//! binaries retry through [`Client::send`], which reconnects after each
//! delay of a [`Backoff`]. Delays double per attempt up to a cap, with
//! uniform jitter drawn from a seeded generator, so a retry schedule is
//! reproducible run to run — load tests and the chaos harness stay
//! deterministic even when they retry.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng, StdRng};

/// A failed connect or round trip: the error, and whether the request line
/// had left. A line that left may have been acted on even though no reply
/// came back.
#[derive(Debug)]
pub struct Failure {
    /// What went wrong; its kind is the socket's (`ConnectionRefused`,
    /// `TimedOut`, `WouldBlock` for a read timeout, `UnexpectedEof`).
    pub error: io::Error,
    /// Whether the whole request line had been written.
    pub sent: bool,
}

impl Failure {
    fn new(stage: impl fmt::Display, error: &io::Error, sent: bool) -> Failure {
        Failure { error: io::Error::new(error.kind(), format!("{stage}: {error}")), sent }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for Failure {}

/// One connection to the daemon.
#[derive(Debug)]
pub struct Connection {
    stream: BufReader<TcpStream>,
}

impl Connection {
    /// Connects to the first of `addr`'s resolved addresses that accepts
    /// within `timeout`, bounds every read and write by `timeout`, and
    /// turns Nagle off: each request is one short line whose reply is
    /// awaited, so Nagle would add a delayed-ACK stall to every round trip.
    ///
    /// # Errors
    ///
    /// The resolver's error, or the last address's connect error.
    pub fn open(
        addr: impl ToSocketAddrs + fmt::Display,
        timeout: Duration,
    ) -> Result<Connection, Failure> {
        let unreachable =
            |e: &io::Error| Failure::new(format_args!("cannot connect to {addr}"), e, false);
        let resolved = addr.to_socket_addrs().map_err(|e| unreachable(&e))?;
        let mut last =
            io::Error::new(io::ErrorKind::AddrNotAvailable, "address resolved to nothing");
        for resolved in resolved {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => {
                    return stream
                        .set_read_timeout(Some(timeout))
                        .and_then(|()| stream.set_write_timeout(Some(timeout)))
                        .and_then(|()| stream.set_nodelay(true))
                        .map(|()| Connection { stream: BufReader::new(stream) })
                        .map_err(|e| Failure::new("cannot configure socket", &e, false));
                }
                Err(e) => last = e,
            }
        }
        Err(unreachable(&last))
    }

    /// Sends `line` and its newline in one write, then reads one reply
    /// line and returns it without its newline.
    ///
    /// # Errors
    ///
    /// A write or read error, or `UnexpectedEof` when the daemon closes
    /// the connection before a whole reply line; [`Failure::sent`] says
    /// whether the request line had left.
    pub fn round_trip(&mut self, line: &str) -> Result<String, Failure> {
        // One write: `writeln!` writes the newline separately, which
        // under `TCP_NODELAY` leaves as a second segment.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        let stream = self.stream.get_mut();
        stream
            .write_all(framed.as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|e| Failure::new("cannot send request", &e, false))?;
        let mut reply = String::new();
        match self.stream.read_line(&mut reply) {
            Ok(_) if reply.ends_with('\n') => {
                reply.pop();
                Ok(reply)
            }
            Ok(_) => Err(Failure {
                error: io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "the daemon closed the connection without a whole reply",
                ),
                sent: true,
            }),
            Err(e) => Err(Failure::new("cannot read reply", &e, true)),
        }
    }
}

/// A [`Connection`] to one address that is reopened after a failure.
#[derive(Debug)]
pub struct Client {
    addr: String,
    timeout: Duration,
    connection: Option<Connection>,
}

impl Client {
    /// A client of the daemon at `addr`; it connects on its first send,
    /// with `timeout` bounding each connect, read and write.
    #[must_use]
    pub fn new(addr: &str, timeout: Duration) -> Client {
        Client { addr: addr.to_string(), timeout, connection: None }
    }

    /// Sends `line` until it is answered, and returns the reply with the
    /// time of the round trip that was answered (connecting and backing
    /// off are not in it).
    ///
    /// A failure drops the connection, and the next attempt reconnects
    /// after `backoff`'s next delay. A line that had left is sent again
    /// only when it is `resend_safe`: the daemon may have applied it.
    /// `on_failure` sees each failure and the delay before the next
    /// attempt, `None` when there is none.
    ///
    /// # Errors
    ///
    /// The last failure, once there is no next attempt.
    pub fn send(
        &mut self,
        line: &str,
        resend_safe: bool,
        backoff: &mut Backoff,
        mut on_failure: impl FnMut(&Failure, Option<Duration>),
    ) -> Result<(String, Duration), Failure> {
        loop {
            let failure = match self.exchange(line) {
                Ok(answered) => return Ok(answered),
                Err(failure) => failure,
            };
            self.connection = None;
            let delay = if resend_safe || !failure.sent { backoff.next_delay() } else { None };
            on_failure(&failure, delay);
            match delay {
                Some(delay) => std::thread::sleep(delay),
                None => return Err(failure),
            }
        }
    }

    fn exchange(&mut self, line: &str) -> Result<(String, Duration), Failure> {
        let connection = match &mut self.connection {
            Some(connection) => connection,
            None => self.connection.insert(Connection::open(self.addr.as_str(), self.timeout)?),
        };
        let started = Instant::now();
        let reply = connection.round_trip(line)?;
        Ok((reply, started.elapsed()))
    }
}

/// A bounded exponential-backoff schedule with seeded jitter.
///
/// Attempt `n` (0-based) sleeps a uniform duration from
/// `[base·2ⁿ/2, base·2ⁿ]`, capped at [`Backoff::CAP`]. After
/// `max_attempts` delays the schedule is exhausted and `next_delay`
/// returns `None`.
#[derive(Debug, Clone)]
pub struct Backoff {
    rng: StdRng,
    base: Duration,
    attempts: u32,
    max_attempts: u32,
}

impl Backoff {
    /// Upper bound on any single delay.
    pub const CAP: Duration = Duration::from_secs(2);

    /// Creates a schedule of at most `max_attempts` retries starting
    /// around `base`, jittered by the generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64, max_attempts: u32, base: Duration) -> Self {
        Backoff { rng: StdRng::seed_from_u64(seed), base, attempts: 0, max_attempts }
    }

    /// The delay to sleep before the next retry, or `None` once the
    /// attempt budget is spent.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempts >= self.max_attempts {
            return None;
        }
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(self.attempts).unwrap_or(u32::MAX))
            .min(Self::CAP);
        self.attempts += 1;
        // Jitter in microseconds, not milliseconds: a sub-millisecond base
        // used to truncate to an all-zero range and spin the retry loop
        // hot. The floor of 1µs keeps even a zero base an actual delay.
        let micros = u64::try_from(exp.as_micros()).unwrap_or(u64::MAX).max(1);
        let lo = (micros / 2).max(1);
        Some(Duration::from_micros(self.rng.gen_range(lo..=micros)))
    }

    /// Retries handed out so far.
    #[must_use]
    pub fn attempts_used(&self) -> u32 {
        self.attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A listener that reads one line on each connection and closes it
    /// unanswered: its address, and the number of lines it has read.
    fn mute_daemon() -> (String, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let lines = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&lines);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let mut reader = BufReader::new(stream.unwrap());
                if reader.read_line(&mut String::new()).unwrap_or(0) > 0 {
                    seen.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        (addr, lines)
    }

    #[test]
    fn a_line_that_left_is_sent_again_only_when_resend_safe() {
        for (resend_safe, sends) in [(false, 1), (true, 4)] {
            let (addr, lines) = mute_daemon();
            let mut backoff = Backoff::new(0, 3, Duration::from_millis(1));
            let mut failures = 0;
            let failure = Client::new(&addr, Duration::from_secs(10))
                .send(r#"{"verb":"optimize"}"#, resend_safe, &mut backoff, |_, _| failures += 1)
                .unwrap_err();
            assert_eq!(failure.error.kind(), io::ErrorKind::UnexpectedEof, "{failure}");
            assert!(failure.sent, "{failure}");
            assert_eq!((failures, lines.load(Ordering::SeqCst)), (sends, sends));
        }
    }

    #[test]
    fn a_refused_connect_is_retried_whatever_the_line() {
        let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().to_string();
        let mut backoff = Backoff::new(0, 2, Duration::from_millis(1));
        let mut delays = Vec::new();
        let failure = Client::new(&addr, Duration::from_secs(10))
            .send(r#"{"verb":"optimize"}"#, false, &mut backoff, |_, delay| delays.push(delay))
            .unwrap_err();
        assert_eq!(failure.error.kind(), io::ErrorKind::ConnectionRefused, "{failure}");
        assert!(!failure.sent, "{failure}");
        assert_eq!(delays.len(), 3);
        assert!(delays[..2].iter().all(Option::is_some) && delays[2].is_none(), "{delays:?}");
    }

    #[test]
    fn same_seed_same_schedule() {
        let collect = |seed| {
            let mut b = Backoff::new(seed, 5, Duration::from_millis(10));
            std::iter::from_fn(|| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(collect(42), collect(42));
        assert_eq!(collect(42).len(), 5);
    }

    #[test]
    fn delays_grow_but_stay_capped() {
        let mut b = Backoff::new(7, 16, Duration::from_millis(100));
        let delays: Vec<Duration> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_eq!(delays.len(), 16);
        assert_eq!(b.attempts_used(), 16);
        // Attempt n draws from [base·2ⁿ/2, base·2ⁿ] (capped): each delay
        // is above half its exponential target, and none exceeds the cap.
        for (n, d) in delays.iter().enumerate() {
            let target = Duration::from_millis(100)
                .saturating_mul(1u32.checked_shl(n as u32).unwrap_or(u32::MAX))
                .min(Backoff::CAP);
            assert!(*d <= target, "attempt {n}: {d:?} above target {target:?}");
            assert!(*d >= target / 2, "attempt {n}: {d:?} below half target {target:?}");
        }
        assert!(b.next_delay().is_none(), "budget exhausted");
    }

    #[test]
    fn zero_attempts_never_delays() {
        let mut b = Backoff::new(1, 0, Duration::from_millis(10));
        assert!(b.next_delay().is_none());
        assert_eq!(b.attempts_used(), 0);
    }

    #[test]
    fn sub_millisecond_base_still_backs_off() {
        // Regression: the jitter range used to be computed in whole
        // milliseconds, so a 200µs base truncated to [0, 0] and every
        // delay was zero — a hot retry loop against a struggling server.
        let mut b = Backoff::new(3, 8, Duration::from_micros(200));
        let delays: Vec<Duration> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_eq!(delays.len(), 8);
        for (n, d) in delays.iter().enumerate() {
            assert!(!d.is_zero(), "attempt {n} slept zero");
        }
        // First attempt draws from [100µs, 200µs].
        assert!(delays[0] >= Duration::from_micros(100) && delays[0] <= Duration::from_micros(200));
        // Doubling still reaches the cap eventually.
        assert!(delays.iter().all(|d| *d <= Backoff::CAP));
    }

    #[test]
    fn zero_base_floors_at_one_microsecond() {
        let mut b = Backoff::new(9, 4, Duration::ZERO);
        while let Some(d) = b.next_delay() {
            assert!(!d.is_zero(), "zero base must still yield a nonzero delay");
            assert!(d <= Duration::from_micros(1));
        }
        assert_eq!(b.attempts_used(), 4);
    }
}
