//! Crash-safe durability for the admission daemon: WAL staging and
//! group commit, atomic checkpoints with log compaction, and recovery.
//!
//! # Data-dir layout
//!
//! ```text
//! data/
//!   checkpoint-0000000000000512.ckpt   # engine snapshot covering 512 log records
//!   wal-0000000000000512.log           # decision-log records 512, 513, ...
//! ```
//!
//! Segment `wal-{S}.log` holds the consecutive decision-log records
//! starting at global index `S`; checkpoints are named by the record
//! count they cover. A checkpoint rotates the WAL to a fresh segment
//! and deletes everything it covers, so steady state is one checkpoint
//! plus one active segment (more only between a crash and the next
//! checkpoint).
//!
//! # Ordering contract
//!
//! [`Durability::stage`] must be called **while still holding the
//! engine's write lock** after a mutating verb: the lock serializes
//! decisions, so the WAL receives records in exactly the decision-log
//! order. The cheap fsync decision ([`Durability::commit`]) happens
//! after the lock is released — concurrent committers coalesce into
//! one group fsync. The daemon does both in one place,
//! `server::write_verb`.
//! A response is released to the client only after `commit` returns,
//! so under `--durability always` an acknowledged decision has been
//! fsynced.
//!
//! A WAL write or fsync failure after the in-memory commit is not
//! recoverable — the engine state and the log would diverge — so the
//! process aborts rather than acknowledge a decision it cannot make
//! durable.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::engine::{AdmissionEngine, ReplayError};
use crate::protocol::{Checkpoint, LogRecord};
use crate::unpoisoned;
use crate::wal::{crash_point, scan_segment, FsyncPolicy, SegmentWriter};
use dstage_core::heuristic::{Heuristic, HeuristicConfig};
use dstage_model::scenario::Scenario;

/// Default number of appended records between periodic checkpoints.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 4_096;

/// The durability manager: one per data directory.
#[derive(Debug)]
pub struct Durability {
    data_dir: PathBuf,
    policy: FsyncPolicy,
    checkpoint_every: u64,
    state: Mutex<WalState>,
}

#[derive(Debug)]
struct WalState {
    writer: SegmentWriter,
    /// Total decision-log records made durable-or-staged so far: the
    /// checkpoint-covered prefix plus every record appended to the WAL.
    /// Always equals `engine.log().len()` once the write lock is free.
    staged: u64,
    /// Records guaranteed on stable storage (through the last fsync).
    synced: u64,
    /// Records covered by the newest checkpoint.
    covered: u64,
    last_sync: Instant,
}

/// What recovery found and did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Records restored from the checkpoint (0 with no checkpoint).
    pub checkpoint_records: u64,
    /// Records replayed from WAL segments beyond the checkpoint.
    pub replayed: u64,
    /// Whether a torn/corrupt tail (or an undecodable record) was
    /// truncated.
    pub truncated: bool,
    /// Bytes dropped by tail truncation, across all segments.
    pub truncated_bytes: u64,
    /// Wall time of the whole recovery.
    pub wall: Duration,
}

/// What one checkpoint covered and compacted away.
#[derive(Debug, Clone)]
pub struct CheckpointStats {
    /// Decision-log records the checkpoint covers.
    pub covered: u64,
    /// Checkpoint file size in bytes.
    pub bytes: u64,
    /// Fully-covered WAL segments deleted.
    pub segments_removed: u64,
    /// Superseded checkpoint files deleted.
    pub checkpoints_removed: u64,
}

fn segment_path(dir: &Path, start: u64) -> PathBuf {
    dir.join(format!("wal-{start:016}.log"))
}

fn checkpoint_path(dir: &Path, covered: u64) -> PathBuf {
    dir.join(format!("checkpoint-{covered:016}.ckpt"))
}

/// Parses `prefix-{n:016}.suffix` back to `n`.
fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// Lists `(n, path)` pairs for files named `prefix-{n:016}.suffix`,
/// ascending by `n`.
fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = parse_numbered(name, prefix, suffix) {
            found.push((n, entry.path()));
        }
    }
    found.sort_unstable_by_key(|&(n, _)| n);
    Ok(found)
}

/// Fsyncs a directory so renames and unlinks in it survive an OS crash.
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Aborts the process: an in-memory commit could not be made durable.
fn die(context: &str, error: &io::Error) -> ! {
    eprintln!("fatal: {context}: {error}");
    std::process::abort();
}

impl Durability {
    /// Recovers the engine state from `data_dir` (creating it if
    /// absent) and opens the WAL for appending: loads the newest valid
    /// checkpoint, replays the WAL tail through the engine's replay
    /// path, truncates at the first torn or corrupt record, and leaves
    /// the active segment positioned exactly after the last surviving
    /// record. `heuristic` and `config` are read as [`AdmissionEngine::new`]
    /// reads them.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures, for a checkpoint taken
    /// against a different catalog, commit rule or weighting, and for an
    /// intact WAL record that replays to a different decision (the message
    /// names its log index); every file is left as it was.
    /// Corruption of checkpoints or WAL tails is *not* an error — bad
    /// checkpoints are skipped and torn tails truncated.
    pub fn recover(
        data_dir: &Path,
        policy: FsyncPolicy,
        checkpoint_every: u64,
        catalog: &Scenario,
        heuristic: Heuristic,
        config: HeuristicConfig,
    ) -> Result<(Durability, AdmissionEngine, RecoveryReport), String> {
        let started = Instant::now();
        fs::create_dir_all(data_dir).map_err(|e| format!("create {}: {e}", data_dir.display()))?;
        // A crash can leave checkpoint temp files behind; they were
        // never renamed, so they cover nothing.
        for (_, path) in list_numbered(data_dir, "checkpoint-", ".ckpt.tmp")
            .map_err(|e| format!("list {}: {e}", data_dir.display()))?
        {
            fs::remove_file(&path).ok();
        }

        // Newest valid checkpoint wins; invalid ones (torn writes that
        // somehow got renamed, or stale formats) are deleted so they
        // cannot shadow an older good one on the next recovery.
        let mut engine = None;
        let mut covered = 0;
        let checkpoints = list_numbered(data_dir, "checkpoint-", ".ckpt")
            .map_err(|e| format!("list {}: {e}", data_dir.display()))?;
        for &(n, ref path) in checkpoints.iter().rev() {
            match load_checkpoint(path, catalog, heuristic, config.clone()) {
                Ok(restored) => {
                    if restored.log().len() as u64 != n {
                        eprintln!(
                            "recovery: {} covers {} records but is named for {n}; ignoring",
                            path.display(),
                            restored.log().len()
                        );
                        fs::remove_file(path).ok();
                        continue;
                    }
                    engine = Some(restored);
                    covered = n;
                    break;
                }
                Err(reason) if reason.contains("fingerprint mismatch") => {
                    // Not corruption: the operator pointed a different
                    // catalog/scheduler at this data-dir. Refuse loudly
                    // instead of silently starting fresh.
                    return Err(format!("{}: {reason}", path.display()));
                }
                Err(reason) => {
                    eprintln!("recovery: discarding {}: {reason}", path.display());
                    fs::remove_file(path).ok();
                }
            }
        }
        let mut engine =
            engine.unwrap_or_else(|| AdmissionEngine::new(catalog, heuristic, config.clone()));

        // Replay WAL segments past the checkpoint, in segment order.
        // `next` is the global index of the record the engine needs
        // next; records below it are already inside the checkpoint.
        let mut next = covered;
        let mut replayed = 0u64;
        let mut truncated = false;
        let mut truncated_bytes = 0u64;
        let mut tail: Option<(u64, PathBuf, u64)> = None; // (start, path, valid_len)
        let segments = list_numbered(data_dir, "wal-", ".log")
            .map_err(|e| format!("list {}: {e}", data_dir.display()))?;
        let mut chain_broken = false;
        for &(start, ref path) in &segments {
            if chain_broken {
                // Everything past a truncation (or a gap) is from a
                // future the surviving prefix never reached.
                truncated = true;
                truncated_bytes += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                fs::remove_file(path).ok();
                continue;
            }
            if start > next {
                // A hole in the record chain — the segment before this
                // one was lost or truncated away entirely.
                eprintln!(
                    "recovery: segment {} starts at {start} but only {next} records survive; \
                     dropping it",
                    path.display()
                );
                chain_broken = true;
                truncated = true;
                truncated_bytes += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                fs::remove_file(path).ok();
                continue;
            }
            let scan = scan_segment(path).map_err(|e| format!("scan {}: {e}", path.display()))?;
            let mut valid_len = scan.valid_len;
            for (i, record) in scan.records.iter().enumerate() {
                let index = start + i as u64;
                if index < next {
                    continue; // already inside the checkpoint
                }
                match replay_payload(&mut engine, &record.payload) {
                    Ok(()) => {
                        next += 1;
                        replayed += 1;
                        dstage_obs::metrics::SERVICE_RECOVERY_REPLAYED.inc();
                    }
                    Err(ReplayError::Diverged(reason)) => {
                        // Not corruption: the record is intact, and this
                        // build would decide it differently. Refuse, as
                        // for a foreign checkpoint, and keep every file.
                        return Err(format!("{}: {reason}", path.display()));
                    }
                    Err(ReplayError::Refused(reason)) => {
                        // A CRC-valid record the engine cannot replay is
                        // corruption all the same: cut the log here.
                        eprintln!(
                            "recovery: record {index} in {} does not replay ({reason}); \
                             truncating",
                            path.display()
                        );
                        valid_len = record.start;
                        chain_broken = true;
                        break;
                    }
                }
            }
            if valid_len < scan.file_len {
                truncated = true;
                truncated_bytes += scan.file_len - valid_len;
                dstage_obs::metrics::SERVICE_RECOVERY_TRUNCATED.inc();
            }
            chain_broken = chain_broken || scan.truncated;
            tail = Some((start, path.clone(), valid_len));
        }

        // Open the active segment: the surviving tail segment if its
        // numbering still lines up, else a fresh one at `next`.
        let writer = match tail {
            Some((start, path, valid_len)) if start <= next => {
                SegmentWriter::open_end(&path, valid_len)
                    .map_err(|e| format!("open {}: {e}", path.display()))?
            }
            _ => {
                let path = segment_path(data_dir, next);
                let writer = SegmentWriter::create(&path)
                    .map_err(|e| format!("create {}: {e}", path.display()))?;
                sync_dir(data_dir).map_err(|e| format!("sync {}: {e}", data_dir.display()))?;
                writer
            }
        };

        let wall = started.elapsed();
        dstage_obs::metrics::SERVICE_RECOVERY_WALL_US
            .record(u64::try_from(wall.as_micros()).unwrap_or(u64::MAX));
        let durability = Durability {
            data_dir: data_dir.to_path_buf(),
            policy,
            checkpoint_every,
            state: Mutex::new(WalState {
                writer,
                staged: next,
                synced: next,
                covered,
                last_sync: Instant::now(),
            }),
        };
        let report = RecoveryReport {
            checkpoint_records: covered,
            replayed,
            truncated,
            truncated_bytes,
            wall,
        };
        Ok((durability, engine, report))
    }

    /// The fsync policy in force.
    #[must_use]
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// The managed data directory.
    #[must_use]
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// Appends every decision-log record the engine holds beyond what
    /// is already staged, and returns the new staged count — the
    /// sequence number to pass to [`Durability::commit`] after the
    /// engine lock is released.
    ///
    /// Must be called while holding the engine's **write lock** (see
    /// the module docs): that is what makes WAL order equal decision-
    /// log order. Aborts the process on I/O failure — the in-memory
    /// commit already happened and cannot be taken back.
    pub fn stage(&self, engine: &AdmissionEngine) -> u64 {
        let log = engine.log();
        let mut state = unpoisoned(self.state.lock());
        let from = usize::try_from(state.staged).unwrap_or(usize::MAX);
        for record in &log[from..] {
            let payload = serde_json::to_string(record)
                .unwrap_or_else(|e| die("serialize WAL record", &io::Error::other(e.to_string())));
            if let Err(e) = state.writer.append(payload.as_bytes()) {
                die("append WAL record", &e);
            }
        }
        state.staged = log.len() as u64;
        state.staged
    }

    /// Makes records through `seq` durable according to the fsync
    /// policy, then lets the caller release the response. Safe to call
    /// without the engine lock; concurrent commits coalesce into one
    /// group fsync. Aborts the process if the fsync fails.
    pub fn commit(&self, seq: u64) {
        let mut state = unpoisoned(self.state.lock());
        if state.synced >= seq {
            return; // another committer's fsync already covered us
        }
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(every) => state.last_sync.elapsed() >= every,
        };
        if due {
            if let Err(e) = state.writer.sync() {
                die("fsync WAL", &e);
            }
            state.synced = state.staged;
            state.last_sync = Instant::now();
        }
    }

    /// Whether enough records accumulated since the last checkpoint to
    /// warrant a periodic one.
    #[must_use]
    pub fn should_checkpoint(&self) -> bool {
        let state = unpoisoned(self.state.lock());
        state.staged - state.covered >= self.checkpoint_every
    }

    /// Writes a checkpoint of `engine`, rotates the WAL to a fresh
    /// segment, and deletes the segments and checkpoints it supersedes.
    ///
    /// Must be called under the engine's **read lock**: writers are
    /// excluded, so the staged count equals the snapshot's log length
    /// and the new segment starts exactly where the checkpoint ends.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O errors; the engine and the
    /// existing WAL are untouched on failure (the temp file may
    /// linger — recovery deletes it).
    pub fn checkpoint(&self, engine: &AdmissionEngine) -> io::Result<CheckpointStats> {
        let covered = engine.log().len() as u64;
        let payload = serde_json::to_string(&engine.checkpoint())
            .map_err(|e| io::Error::other(e.to_string()))?;

        // Write-then-rename: the checkpoint name only ever appears with
        // complete, synced contents behind it.
        let tmp = self.data_dir.join(format!("checkpoint-{covered:016}.ckpt.tmp"));
        let path = checkpoint_path(&self.data_dir, covered);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(payload.as_bytes())?;
            crash_point("checkpoint_tmp");
            file.sync_data()?;
        }
        fs::rename(&tmp, &path)?;
        crash_point("checkpoint_rename");
        sync_dir(&self.data_dir)?;

        // Rotate under the WAL mutex so interleaved commits keep a
        // consistent view; the engine read lock already excludes stage.
        let mut state = unpoisoned(self.state.lock());
        debug_assert_eq!(state.staged, covered, "checkpoint must run under the engine read lock");
        let fresh = segment_path(&self.data_dir, covered);
        state.writer = SegmentWriter::create(&fresh)?;
        sync_dir(&self.data_dir)?;
        state.covered = covered;
        state.staged = covered;
        state.synced = covered;
        drop(state);

        // Compact: everything the checkpoint covers is now redundant.
        let mut segments_removed = 0u64;
        for (start, old) in list_numbered(&self.data_dir, "wal-", ".log")? {
            if start < covered {
                fs::remove_file(&old)?;
                segments_removed += 1;
            }
        }
        let mut checkpoints_removed = 0u64;
        for (n, old) in list_numbered(&self.data_dir, "checkpoint-", ".ckpt")? {
            if n < covered {
                fs::remove_file(&old)?;
                checkpoints_removed += 1;
            }
        }
        sync_dir(&self.data_dir)?;
        dstage_obs::metrics::SERVICE_CHECKPOINTS.inc();
        Ok(CheckpointStats {
            covered,
            bytes: payload.len() as u64,
            segments_removed,
            checkpoints_removed,
        })
    }

    /// Flushes and fsyncs the WAL unconditionally (graceful drain: an
    /// `interval:<ms>` daemon must not leave its last interval unsynced
    /// on an orderly exit).
    pub fn finalize(&self) {
        let mut state = unpoisoned(self.state.lock());
        if state.synced < state.staged {
            if let Err(e) = state.writer.sync() {
                die("fsync WAL at drain", &e);
            }
            state.synced = state.staged;
            state.last_sync = Instant::now();
        }
    }
}

/// Loads and restores one checkpoint file.
fn load_checkpoint(
    path: &Path,
    catalog: &Scenario,
    heuristic: Heuristic,
    config: HeuristicConfig,
) -> Result<AdmissionEngine, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let checkpoint: Checkpoint =
        serde_json::from_str(&text).map_err(|e| format!("checkpoint: {e}"))?;
    AdmissionEngine::restored(catalog, heuristic, config, checkpoint)
}

/// Parses one WAL payload and replays it through the engine's replay
/// path (the same path the byte-identity tests exercise).
fn replay_payload(engine: &mut AdmissionEngine, payload: &[u8]) -> Result<(), ReplayError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ReplayError::Refused(format!("not UTF-8: {e}")))?;
    let record: LogRecord =
        serde_json::from_str(text).map_err(|e| ReplayError::Refused(format!("log record: {e}")))?;
    engine.replay(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Decision, SubmitArgs};
    use dstage_workload::{generate, GeneratorConfig};
    use serde::Value;

    fn scenario() -> Scenario {
        generate(&GeneratorConfig::small(), 11)
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dstage-dur-{}-{name}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn recover(dir: &Path, catalog: &Scenario) -> (Durability, AdmissionEngine, RecoveryReport) {
        Durability::recover(
            dir,
            FsyncPolicy::Always,
            DEFAULT_CHECKPOINT_EVERY,
            catalog,
            Heuristic::FullPathOneDestination,
            HeuristicConfig::paper_best(),
        )
        .expect("recover")
    }

    fn args(engine: &AdmissionEngine, pick: usize, deadline_ms: u64) -> SubmitArgs {
        let items: Vec<String> = engine.item_names().map(str::to_string).collect();
        SubmitArgs {
            item: items[pick % items.len()].clone(),
            destination: (pick % engine.machine_count()) as u32,
            deadline_ms,
            priority: (pick % 3) as u8,
            idempotency_key: pick.is_multiple_of(2).then(|| format!("dur-{pick}")),
        }
    }

    #[test]
    fn wal_only_recovery_reproduces_the_snapshot() {
        let dir = temp_dir("walonly");
        let catalog = scenario();
        let (durability, mut engine, report) = recover(&dir, &catalog);
        assert_eq!(report.checkpoint_records + report.replayed, 0);
        for i in 0..8 {
            let _ = engine.submit(&args(&engine, i * 5 + 1, 500_000 + i as u64 * 60_000));
            let seq = durability.stage(&engine);
            durability.commit(seq);
        }
        let before = serde_json::to_string(&engine.snapshot()).unwrap();
        drop((durability, engine));

        let (_, recovered, report) = recover(&dir, &catalog);
        assert_eq!(report.replayed, 8);
        assert!(!report.truncated);
        assert_eq!(serde_json::to_string(&recovered.snapshot()).unwrap(), before);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_compacts_and_recovery_replays_only_the_tail() {
        let dir = temp_dir("ckpt");
        let catalog = scenario();
        let (durability, mut engine, _) = recover(&dir, &catalog);
        for i in 0..6 {
            let _ = engine.submit(&args(&engine, i * 7 + 2, 600_000 + i as u64 * 50_000));
            let seq = durability.stage(&engine);
            durability.commit(seq);
        }
        let stats = durability.checkpoint(&engine).expect("checkpoint");
        assert_eq!(stats.covered, 6);
        assert_eq!(stats.segments_removed, 1);
        // Two more decisions land in the post-checkpoint segment.
        for i in 6..8 {
            let _ = engine.submit(&args(&engine, i * 7 + 2, 600_000 + i as u64 * 50_000));
            let seq = durability.stage(&engine);
            durability.commit(seq);
        }
        let before = serde_json::to_string(&engine.snapshot()).unwrap();
        drop((durability, engine));

        let (_, recovered, report) = recover(&dir, &catalog);
        assert_eq!(report.checkpoint_records, 6);
        assert_eq!(report.replayed, 2);
        assert_eq!(serde_json::to_string(&recovered.snapshot()).unwrap(), before);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_loses_only_the_torn_record() {
        let dir = temp_dir("torn");
        let catalog = scenario();
        let (durability, mut engine, _) = recover(&dir, &catalog);
        for i in 0..4 {
            let _ = engine.submit(&args(&engine, i * 3 + 1, 700_000 + i as u64 * 40_000));
            let seq = durability.stage(&engine);
            durability.commit(seq);
        }
        // Replay the first three records only into the expectation.
        let mut expected = AdmissionEngine::new(
            &catalog,
            Heuristic::FullPathOneDestination,
            HeuristicConfig::paper_best(),
        );
        let snapshot = engine.snapshot();
        let log = snapshot.get("log").and_then(Value::as_array).unwrap();
        for entry in &log[..3] {
            expected.replay_record(entry).unwrap();
        }
        drop((durability, engine));

        // Tear the last record: chop 3 bytes off the segment file.
        let (_, segment) = list_numbered(&dir, "wal-", ".log").unwrap().pop().unwrap();
        let bytes = fs::read(&segment).unwrap();
        fs::write(&segment, &bytes[..bytes.len() - 3]).unwrap();

        let (durability, recovered, report) = recover(&dir, &catalog);
        assert_eq!(report.replayed, 3);
        assert!(report.truncated);
        assert_eq!(
            serde_json::to_string(&recovered.snapshot()).unwrap(),
            serde_json::to_string(&expected.snapshot()).unwrap()
        );
        // The reopened segment accepts appends after the truncation.
        let mut recovered = recovered;
        let _ = recovered.submit(&args(&recovered, 9, 900_000));
        let seq = durability.stage(&recovered);
        durability.commit(seq);
        drop((durability, recovered));
        let (_, again, report) = recover(&dir, &catalog);
        assert_eq!(report.replayed, 4);
        assert!(!report.truncated);
        assert_eq!(again.log().len(), 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idempotent_retry_survives_recovery() {
        let dir = temp_dir("idem");
        let catalog = scenario();
        let (durability, mut engine, _) = recover(&dir, &catalog);
        let mut keyed = args(&engine, 4, 800_000);
        keyed.idempotency_key = Some("retry-me".to_string());
        let original = engine.submit(&keyed).expect("decide");
        let seq = durability.stage(&engine);
        durability.commit(seq);
        drop((durability, engine));

        let (_, mut recovered, _) = recover(&dir, &catalog);
        let retried = recovered.submit(&keyed).expect("replay from cache");
        assert_eq!(
            serde_json::to_string(&retried).unwrap(),
            serde_json::to_string(&original).unwrap()
        );
        // The retry was served from the rebuilt cache: no new record.
        assert_eq!(recovered.log().len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_catalog_is_refused() {
        let dir = temp_dir("foreign");
        let catalog = scenario();
        let (durability, mut engine, _) = recover(&dir, &catalog);
        let _ = engine.submit(&args(&engine, 1, 500_000));
        durability.stage(&engine);
        durability.checkpoint(&engine).expect("checkpoint");
        drop((durability, engine));

        let recover_under = |catalog: &Scenario| {
            Durability::recover(
                &dir,
                FsyncPolicy::Always,
                DEFAULT_CHECKPOINT_EVERY,
                catalog,
                Heuristic::FullPathOneDestination,
                HeuristicConfig::paper_best(),
            )
        };
        let refused_under = |catalog: &Scenario| {
            recover_under(catalog).is_err_and(|e| e.contains("fingerprint mismatch"))
        };
        assert!(refused_under(&generate(&GeneratorConfig::small(), 99)));

        // The same catalog, but a checkpoint whose commit rule this build
        // does not have; then one written under the v1 fingerprint, which
        // named the scheduler: accepted for a scheduler with this engine's
        // rule, refused for one this build no longer has.
        let (_, path) = list_numbered(&dir, "checkpoint-", ".ckpt").unwrap().pop().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let v2 = "\"v2|machines=6|links=312|gc_ms=360000|horizon_ms=7200000|rule=earliest\
                  |weights=1,10,100|";
        assert!(text.contains(v2), "{text}");
        fs::write(&path, text.replacen("|rule=earliest|", "|rule=rcd|", 1)).unwrap();
        assert!(refused_under(&catalog));
        let v1 = |label: &str| {
            format!(
                "\"v1|machines=6|links=312|gc_ms=360000|horizon_ms=7200000|heuristic={label}\
                 |config=HeuristicConfig {{ criterion: C1, eu: EuWeights {{ w_e: 1.0, w_u: 1.0 }}, \
                 priority_weights: PriorityWeights {{ weights: [1, 10, 100] }}, caching: false }}|"
            )
        };
        fs::write(&path, text.replacen(v2, &v1("full_all"), 1)).unwrap();
        recover_under(&catalog).expect("a v1 scheduler with the engine's rule and weights");
        fs::write(&path, text.replacen(v2, &v1("rcd"), 1)).unwrap();
        assert!(refused_under(&catalog));
        fs::remove_dir_all(&dir).ok();
    }

    /// A CRC-valid WAL record whose decision was edited is not corruption
    /// to cut away but an acknowledged decision this build would make
    /// differently: recovery refuses to start, names the record's log
    /// index, and leaves every file as it was.
    #[test]
    fn a_record_that_replays_differently_refuses_recovery_and_keeps_every_file() {
        let dir = temp_dir("diverged");
        let catalog = scenario();
        let (durability, mut engine, _) = recover(&dir, &catalog);
        for i in 0..4 {
            let _ = engine.submit(&args(&engine, i * 3 + 1, 86_400_000));
            let seq = durability.stage(&engine);
            durability.commit(seq);
        }
        let edited = engine
            .log()
            .iter()
            .position(|r| {
                matches!(r, LogRecord::Submission(s) if matches!(s.decision, Decision::Admitted { .. }))
            })
            .expect("a day of slack admits some request");
        drop((durability, engine));

        // Rewrite the segment with record `edited`'s ETA moved by a
        // second: every frame is whole and checksummed.
        let (_, segment) = list_numbered(&dir, "wal-", ".log").unwrap().pop().unwrap();
        let payloads: Vec<Vec<u8>> =
            scan_segment(&segment).unwrap().records.into_iter().map(|r| r.payload).collect();
        let mut writer = SegmentWriter::create(&segment).unwrap();
        for (index, payload) in payloads.into_iter().enumerate() {
            let mut text = String::from_utf8(payload).unwrap();
            if index == edited {
                let record: Value = serde_json::from_str(&text).unwrap();
                let eta = record.get("eta_ms").and_then(Value::as_u64).unwrap();
                let moved = text.replacen(
                    &format!(r#""eta_ms":{eta}"#),
                    &format!(r#""eta_ms":{}"#, eta + 1_000),
                    1,
                );
                assert_ne!(moved, text, "the edit must apply");
                text = moved;
            }
            writer.append(text.as_bytes()).unwrap();
        }
        writer.sync().unwrap();
        drop(writer);
        let files = || {
            let mut files: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .map(|path| (path.clone(), fs::read(&path).unwrap()))
                .collect();
            files.sort();
            files
        };
        let before = files();

        let refused = Durability::recover(
            &dir,
            FsyncPolicy::Always,
            DEFAULT_CHECKPOINT_EVERY,
            &catalog,
            Heuristic::FullPathOneDestination,
            HeuristicConfig::paper_best(),
        )
        .map(|_| ())
        .expect_err("an edited decision must not be replayed over");
        assert!(
            refused.contains(&format!("log record {edited} replays to a different decision")),
            "{refused}"
        );
        assert_eq!(files(), before, "recovery must not truncate or delete anything");
        fs::remove_dir_all(&dir).ok();
    }

    /// Checkpoints a three-record history — an admission (log index 0),
    /// a refusal (1), an optimization pass that kept no swap (2) —
    /// rewrites the checkpoint file's text with `edit`, and recovers.
    /// The edited checkpoint must be refused with a `checkpoint:` message
    /// and discarded, never loaded into an engine whose `counters()`
    /// would index or subtract out of range.
    fn assert_edited_checkpoint_is_refused(name: &str, edit: impl Fn(&str) -> String) {
        let dir = temp_dir(name);
        let catalog = scenario();
        let (durability, mut engine, _) = recover(&dir, &catalog);
        let ask = |pick| SubmitArgs { idempotency_key: None, ..args(&engine, pick, 86_400_000) };
        let feasible = (0..32)
            .map(ask)
            .find(|ask| engine.clone().submit(ask).is_ok_and(|r| r.decision == "admitted"))
            .expect("some ask with a day of slack is admitted on an empty ledger");
        engine.submit(&feasible).expect("no key, no conflict");
        let refusal = SubmitArgs { item: "no-such-item".to_string(), ..args(&engine, 1, 1) };
        assert_eq!(engine.submit(&refusal).expect("no conflict").decision, "rejected");
        assert_eq!(engine.optimize(1).swapped, 0);
        durability.stage(&engine);
        durability.checkpoint(&engine).expect("checkpoint");
        drop((durability, engine));

        let (_, path) = list_numbered(&dir, "checkpoint-", ".ckpt").unwrap().pop().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let edited = edit(&text);
        assert_ne!(edited, text, "the edit must apply");
        fs::write(&path, &edited).unwrap();
        let refused = load_checkpoint(
            &path,
            &catalog,
            Heuristic::FullPathOneDestination,
            HeuristicConfig::paper_best(),
        )
        .expect_err("the edited checkpoint must not restore");
        assert!(refused.starts_with("checkpoint:"), "{refused}");

        let (_, recovered, report) = recover(&dir, &catalog);
        assert_eq!(report.checkpoint_records, 0);
        assert!(!path.exists(), "the refused checkpoint is discarded");
        assert_eq!(recovered.counters().submissions, recovered.submission_count() as u64);
        fs::remove_dir_all(&dir).ok();
    }

    fn with_swaps(text: &str, swaps: &str) -> String {
        text.replace(r#""swaps":[]"#, &format!(r#""swaps":[{swaps}]"#))
    }

    #[test]
    fn checkpoint_swap_naming_an_out_of_range_submission_is_refused() {
        assert_edited_checkpoint_is_refused("swap-range", |text| {
            with_swaps(text, r#"{"submission":99,"evicted":0,"admitted":1}"#)
        });
    }

    #[test]
    fn checkpoint_swap_naming_an_admitted_submission_is_refused() {
        assert_edited_checkpoint_is_refused("swap-admitted", |text| {
            with_swaps(text, r#"{"submission":0,"evicted":0,"admitted":1}"#)
        });
    }

    #[test]
    fn checkpoint_swap_consuming_a_refusal_twice_is_refused() {
        assert_edited_checkpoint_is_refused("swap-twice", |text| {
            let swap = r#"{"submission":1,"evicted":0,"admitted":1}"#;
            with_swaps(text, &format!("{swap},{swap}"))
        });
    }

    #[test]
    fn checkpoint_admitting_more_than_its_log_is_refused() {
        let catalog = scenario();
        let item = catalog.items().next().expect("the catalog has items").1.name();
        assert_edited_checkpoint_is_refused("admitted-count", |text| {
            let request =
                format!(r#"{{"item":"{item}","destination":0,"deadline_ms":1,"priority":0}},"#);
            text.replace(r#""admitted":["#, &format!(r#""admitted":[{request}"#))
                .replace(r#""info":["#, r#""info":[{"status":"evicted","route":[]},"#)
        });
    }
}
