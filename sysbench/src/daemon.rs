//! Child `stage-serve` processes, their scratch files, and the NDJSON
//! client the service workloads talk to them with.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a daemon may stay silent (no `listening on` line, no reply)
/// before the operations waiting on it are counted as failed.
pub const SILENCE_LIMIT: Duration = Duration::from_secs(60);

/// The fsync policy of a durable daemon: the WAL is appended to on every
/// decision and group-fsynced at most every 25 ms. Not `always`: on this
/// sandbox's shared disk the latency of an fsync drifts by tens of percent
/// over minutes (`op_p50_us` read 1,325 to 1,776 µs across ten consecutive
/// runs of one input under `always`), wider than any bound a regression
/// gate can hold. The fsync itself is timed in the traced run.
pub const DURABILITY: &str = "interval:25";

/// The run's scratch directory, `<target dir>/bench-tmp/<pid>/`, removed
/// when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> io::Result<Scratch> {
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
        let dir = target.join("bench-tmp").join(std::process::id().to_string());
        // A recycled pid must not inherit another run's data dirs.
        emptied(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// A fresh, empty directory under the scratch root.
    pub fn fresh_dir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.path(name);
        emptied(&dir)?;
        Ok(dir)
    }
}

/// Makes `dir` exist and be empty.
pub fn emptied(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The type of filesystem holding `path`, from `/proc/mounts` (longest
/// mount point that is a prefix of the path), for the report's host block.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".to_string() };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_string(), |(_, kind)| kind)
}

/// A running `stage-serve` child. Dropping it kills the process and
/// waits for it, so a panic or an early return never leaves one behind.
pub struct Daemon {
    child: Child,
    // Held so the child's stdout never becomes a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn until the `listening on` line was read.
    pub startup: Duration,
}

impl Daemon {
    /// Spawns `stage-serve --scenario FILE --addr 127.0.0.1:0` (always an
    /// ephemeral port) and waits for its `listening on` line.
    pub fn spawn(exe: &Path, scenario: &Path, data_dir: Option<&Path>) -> Result<Daemon, String> {
        let mut command = Command::new(exe);
        command.arg("--scenario").arg(scenario).args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = data_dir {
            command.arg("--data-dir").arg(dir).args(["--durability", DURABILITY]);
        }
        let started = Instant::now();
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (sender, receiver) = mpsc::channel();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let read = reader.read_line(&mut line);
            let _ = sender.send((read, line, reader));
        });
        let first_line = receiver.recv_timeout(SILENCE_LIMIT);
        let startup = started.elapsed();
        let mut daemon_or = |reason: String| {
            let _ = child.kill();
            let _ = child.wait();
            reason
        };
        let (read, line, reader) = first_line
            .map_err(|_| daemon_or(format!("no `listening on` line within {SILENCE_LIMIT:?}")))?;
        read.map_err(|e| daemon_or(format!("reading the daemon's stdout: {e}")))?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse::<SocketAddr>().ok())
            .ok_or_else(|| daemon_or(format!("unexpected first line {line:?}")))?;
        Ok(Daemon { child, _stdout: reader, addr, startup })
    }

    /// Peak resident set (`VmHWM`) of the child so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb_of(&self.child.id().to_string())
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Asks for a drain over `conn`, closes it (a worker keeps serving an
    /// open connection for the whole drain grace) and reaps the child;
    /// kills it if it has not exited within five seconds.
    pub fn shutdown(mut self, mut conn: Conn) {
        let _ = conn.round_trip("{\"verb\":\"shutdown\"}");
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of `/proc/<pid>/status` in MB (`pid` may be `self`).
pub fn peak_rss_mb_of(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One NDJSON connection: a request line out, a reply line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    request: Vec<u8>,
    reply: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, SILENCE_LIMIT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(SILENCE_LIMIT))?;
        stream.set_write_timeout(Some(SILENCE_LIMIT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            request: Vec::new(),
            reply: String::new(),
        })
    }

    /// Writes `request` and a newline, then reads one reply line.
    pub fn round_trip(&mut self, request: &str) -> io::Result<&str> {
        // One write per line: with Nagle off, two would be two segments.
        self.request.clear();
        self.request.extend_from_slice(request.as_bytes());
        self.request.push(b'\n');
        self.writer.write_all(&self.request)?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.reply.trim_end())
    }

    /// A round trip whose reply must carry `"ok":true`.
    pub fn request(&mut self, request: &str) -> Result<&str, String> {
        let reply = self.round_trip(request).map_err(|e| format!("{request}: {e}"))?;
        if is_ok(reply) {
            Ok(reply)
        } else {
            Err(format!("{request}: {reply}"))
        }
    }
}

/// Whether a reply line is a success (every response serializes `ok` first).
pub fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

/// The unsigned integer value of `"field":` in a flat reply line, without
/// parsing the line (this runs between two timed round trips).
pub fn field_u64(reply: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let rest = &reply[reply.find(&key)? + key.len()..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_helpers_read_flat_lines() {
        let reply =
            r#"{"ok":true,"submission":12,"decision":"admitted","request":7,"eta_ms":5400000}"#;
        assert!(is_ok(reply));
        assert_eq!(field_u64(reply, "request"), Some(7));
        assert_eq!(field_u64(reply, "eta_ms"), Some(5_400_000));
        assert_eq!(field_u64(reply, "hops"), None);
        assert!(!is_ok(r#"{"ok":false,"error":"boom"}"#));
        assert_eq!(field_u64(r#"{"ok":true,"decision":"rejected"}"#, "request"), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb_of("self").is_some_and(|mb| mb > 0.0));
    }
}
