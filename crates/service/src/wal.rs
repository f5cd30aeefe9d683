//! The write-ahead decision log: checksummed, length-prefixed record
//! segments with configurable fsync policies and deterministic crash
//! points.
//!
//! A segment file is the magic header [`WAL_MAGIC`] followed by zero or
//! more records, each framed as
//!
//! ```text
//! [u32 le payload length][u32 le CRC-32 of payload][payload bytes]
//! ```
//!
//! where the payload is the compact JSON serialization of one decision-
//! log entry (the same objects the `snapshot` verb's `log` array
//! carries). Appends go straight to the file descriptor — no userspace
//! buffering — so a process kill loses at most what the *kernel* had
//! not flushed; only an OS crash can lose unsynced records, and the
//! [`FsyncPolicy`] chooses how much of that window to close.
//!
//! Reading is tolerant by construction: [`scan_segment`] walks records
//! until the first torn or corrupt one (short header, short payload,
//! CRC mismatch, or an implausible length) and reports the longest
//! valid prefix plus where it ends, so recovery can truncate the tail
//! and carry on. Corruption never panics and never invents records.
//!
//! Crash injection for the recovery tests lives here too: the
//! `DSTAGE_CRASH_POINT=point[:n]` environment variable arms a named
//! point, and the nth time execution passes it the process aborts (a
//! real `SIGABRT`, not a panic — destructors must not tidy up the
//! simulated crash). [`crash_point`] is a no-op unless armed.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// First bytes of every WAL segment file.
pub const WAL_MAGIC: &[u8; 8] = b"DSTGWAL1";

/// Sanity bound on a single record's payload. A length prefix above
/// this is treated as corruption (a torn write inside the header), not
/// as an instruction to allocate gigabytes.
pub const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// Bytes of framing per record (length prefix + checksum).
pub const RECORD_HEADER_BYTES: u64 = 8;

/// When appended records are pushed to stable storage.
///
/// Every policy writes records to the OS immediately; the policy only
/// decides when `fsync` pins them through an OS crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync before every response is released: an acknowledged
    /// decision survives even an OS crash.
    Always,
    /// Fsync at most once per interval: a process crash loses nothing,
    /// an OS crash at most the last interval's decisions.
    Interval(Duration),
}

impl FsyncPolicy {
    /// Parses `always` | `interval:<ms>`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid spellings.
    pub fn parse(text: &str) -> Result<FsyncPolicy, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            other => match other.strip_prefix("interval:") {
                Some(ms) => match ms.parse::<u64>() {
                    Ok(ms) if ms > 0 => Ok(FsyncPolicy::Interval(Duration::from_millis(ms))),
                    _ => Err(format!("invalid fsync interval `{ms}` (positive milliseconds)")),
                },
                None => Err(format!(
                    "unknown durability policy `{other}` (valid: always, interval:<ms>)"
                )),
            },
        }
    }

    /// The canonical spelling [`FsyncPolicy::parse`] accepts back.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".to_string(),
            FsyncPolicy::Interval(d) => format!("interval:{}", d.as_millis()),
        }
    }
}

/// CRC-32 (IEEE 802.3, the zlib polynomial) lookup table, built at
/// compile time.
static CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 checksum of `data` (IEEE polynomial, zlib-compatible).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The armed crash point, parsed once from `DSTAGE_CRASH_POINT`
/// (`point` or `point:n`, n ≥ 1 meaning the nth passage fires).
static CRASH_SPEC: OnceLock<Option<(String, u64)>> = OnceLock::new();
/// Passages through the armed point so far.
static CRASH_HITS: AtomicU64 = AtomicU64::new(0);

fn crash_spec() -> &'static Option<(String, u64)> {
    CRASH_SPEC.get_or_init(|| {
        let raw = std::env::var("DSTAGE_CRASH_POINT").ok()?;
        let raw = raw.trim();
        if raw.is_empty() {
            return None;
        }
        match raw.split_once(':') {
            Some((name, nth)) => {
                let nth = nth.parse::<u64>().ok().filter(|&n| n >= 1)?;
                Some((name.to_string(), nth))
            }
            None => Some((raw.to_string(), 1)),
        }
    })
}

/// True when this passage through `name` is the armed one. Counts the
/// passage either way, so `point:3` fires on the third call exactly.
fn crash_fires(name: &str) -> bool {
    match crash_spec() {
        Some((point, nth)) if point == name => {
            CRASH_HITS.fetch_add(1, Ordering::SeqCst) + 1 == *nth
        }
        _ => false,
    }
}

/// Aborts the process if the crash point `name` is armed for this
/// passage (`DSTAGE_CRASH_POINT=name[:n]`); otherwise a no-op.
///
/// Named points on the durability path: `wal_append` (before a record's
/// bytes are written), `wal_tear` (after a partial record write — a
/// torn record), `pre_fsync` / `post_fsync` (around the WAL fsync),
/// `checkpoint_tmp` (temp checkpoint written, not yet renamed),
/// `checkpoint_rename` (renamed, old segments not yet removed).
pub fn crash_point(name: &str) {
    if crash_fires(name) {
        eprintln!("crash injection: aborting at `{name}`");
        std::process::abort();
    }
}

/// Appends framed records to one WAL segment file.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    len: u64,
}

impl SegmentWriter {
    /// Creates (or truncates) the segment at `path` and writes the
    /// magic header.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn create(path: &Path) -> io::Result<SegmentWriter> {
        let mut file = File::create(path)?;
        file.write_all(WAL_MAGIC)?;
        Ok(SegmentWriter { file, path: path.to_path_buf(), len: WAL_MAGIC.len() as u64 })
    }

    /// Opens the existing segment at `path` for appending after `len`
    /// validated bytes (anything beyond is discarded — the torn tail a
    /// scan refused).
    ///
    /// # Errors
    ///
    /// Propagates open/truncate/seek errors.
    pub fn open_end(path: &Path, len: u64) -> io::Result<SegmentWriter> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(len)?;
        file.seek(SeekFrom::Start(len))?;
        Ok(SegmentWriter { file, path: path.to_path_buf(), len })
    }

    /// The segment file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes written so far (header included).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the segment holds no records yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_MAGIC.len() as u64
    }

    /// Appends one framed record. The bytes reach the OS before this
    /// returns (no userspace buffer); durability against an OS crash
    /// additionally needs [`SegmentWriter::sync`].
    ///
    /// # Errors
    ///
    /// Propagates write errors; the record may then be torn on disk,
    /// which a later scan detects and truncates.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        crash_point("wal_append");
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_RECORD_BYTES)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "record too large"))?;
        let mut frame = Vec::with_capacity(payload.len() + RECORD_HEADER_BYTES as usize);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if crash_fires("wal_tear") {
            // Simulate a torn write: half the frame reaches the disk,
            // then the process dies. Recovery must drop this record.
            let half = frame.len() / 2;
            let _ = self.file.write_all(&frame[..half]);
            let _ = self.file.sync_data();
            eprintln!("crash injection: aborting at `wal_tear`");
            std::process::abort();
        }
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        dstage_obs::metrics::SERVICE_WAL_APPENDS.inc();
        dstage_obs::metrics::SERVICE_WAL_BYTES.add(frame.len() as u64);
        Ok(())
    }

    /// Fsyncs the segment: everything appended so far survives an OS
    /// crash.
    ///
    /// # Errors
    ///
    /// Propagates the fsync error.
    pub fn sync(&mut self) -> io::Result<()> {
        crash_point("pre_fsync");
        let started = std::time::Instant::now();
        self.file.sync_data()?;
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        dstage_obs::metrics::SERVICE_WAL_FSYNCS.inc();
        dstage_obs::metrics::SERVICE_WAL_FSYNC_US.record(micros);
        crash_point("post_fsync");
        Ok(())
    }
}

/// One validated record of a scanned segment.
#[derive(Debug, Clone)]
pub struct ScannedRecord {
    /// The record payload (CRC-verified).
    pub payload: Vec<u8>,
    /// File offset of the record's first framing byte.
    pub start: u64,
    /// File offset one past the record's last payload byte.
    pub end: u64,
}

/// The tolerant read of one segment: its longest valid prefix.
#[derive(Debug)]
pub struct SegmentScan {
    /// CRC-valid records, in file order.
    pub records: Vec<ScannedRecord>,
    /// Bytes of the valid prefix (magic + intact records); the offset
    /// recovery truncates the file to.
    pub valid_len: u64,
    /// Whether bytes beyond `valid_len` existed (a torn or corrupt
    /// tail, or a foreign header).
    pub truncated: bool,
    /// Total file length at scan time.
    pub file_len: u64,
}

/// Reads a segment, stopping at the first torn or corrupt record: a
/// short header, an implausible length, a short payload, or a CRC
/// mismatch all end the valid prefix. Never panics on corruption and
/// never returns a record that was not written intact.
///
/// # Errors
///
/// Propagates errors opening or reading the file (not corruption —
/// corruption is reported through the scan).
pub fn scan_segment(path: &Path) -> io::Result<SegmentScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let file_len = bytes.len() as u64;
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        // Not even a valid header: nothing in the file is trustworthy.
        return Ok(SegmentScan { records: Vec::new(), valid_len: 0, truncated: true, file_len });
    }
    let mut records = Vec::new();
    let mut offset = WAL_MAGIC.len();
    loop {
        if offset == bytes.len() {
            return Ok(SegmentScan { records, valid_len: file_len, truncated: false, file_len });
        }
        let start = offset as u64;
        let Some(header) = bytes.get(offset..offset + RECORD_HEADER_BYTES as usize) else {
            break; // short header — torn tail
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 header bytes"));
        let expected_crc = u32::from_le_bytes(header[4..8].try_into().expect("4 header bytes"));
        if len > MAX_RECORD_BYTES {
            break; // implausible length — corrupt header
        }
        let body_start = offset + RECORD_HEADER_BYTES as usize;
        let Some(payload) = bytes.get(body_start..body_start + len as usize) else {
            break; // short payload — torn tail
        };
        if crc32(payload) != expected_crc {
            break; // bit rot or a torn rewrite
        }
        offset = body_start + len as usize;
        records.push(ScannedRecord { payload: payload.to_vec(), start, end: offset as u64 });
    }
    let valid_len = records.last().map_or(WAL_MAGIC.len() as u64, |r| r.end);
    Ok(SegmentScan { records, valid_len, truncated: true, file_len })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_segment(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dstage-wal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join("wal-test.log")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // zlib's crc32("123456789") reference value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn policy_parsing_round_trips() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(
            FsyncPolicy::parse("interval:250"),
            Ok(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        for policy in [FsyncPolicy::Always, FsyncPolicy::Interval(Duration::from_millis(40))] {
            assert_eq!(FsyncPolicy::parse(&policy.label()), Ok(policy));
        }
        assert_eq!(
            FsyncPolicy::parse("never"),
            Err("unknown durability policy `never` (valid: always, interval:<ms>)".to_string())
        );
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert!(FsyncPolicy::parse("interval:0").is_err());
        assert!(FsyncPolicy::parse("interval:fast").is_err());
    }

    #[test]
    fn write_then_scan_round_trips() {
        let path = temp_segment("roundtrip");
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"{\"verb\":\"submit\"}"];
        let mut writer = SegmentWriter::create(&path).expect("create");
        for p in &payloads {
            writer.append(p).expect("append");
        }
        writer.sync().expect("sync");
        let scan = scan_segment(&path).expect("scan");
        assert!(!scan.truncated);
        assert_eq!(scan.valid_len, scan.file_len);
        let read: Vec<&[u8]> = scan.records.iter().map(|r| r.payload.as_slice()).collect();
        assert_eq!(read, payloads);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_last_intact_record() {
        let path = temp_segment("torn");
        let mut writer = SegmentWriter::create(&path).expect("create");
        writer.append(b"first").expect("append");
        writer.append(b"second").expect("append");
        let intact = writer.len();
        drop(writer);
        // A torn third record: header promises 100 bytes, 3 arrive.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"abc");
        std::fs::write(&path, &bytes).expect("rewrite");
        let scan = scan_segment(&path).expect("scan");
        assert!(scan.truncated);
        assert_eq!(scan.valid_len, intact);
        assert_eq!(scan.records.len(), 2);
        // Re-opening at the valid prefix drops the tail and appends
        // cleanly after it.
        let mut writer = SegmentWriter::open_end(&path, scan.valid_len).expect("open end");
        writer.append(b"third").expect("append");
        drop(writer);
        let scan = scan_segment(&path).expect("rescan");
        assert!(!scan.truncated);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[2].payload, b"third");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_magic_invalidates_the_whole_segment() {
        let path = temp_segment("magic");
        let mut writer = SegmentWriter::create(&path).expect("create");
        writer.append(b"record").expect("append");
        drop(writer);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite");
        let scan = scan_segment(&path).expect("scan");
        assert!(scan.truncated);
        assert_eq!(scan.valid_len, 0);
        assert!(scan.records.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_in_payload_ends_the_valid_prefix_there() {
        let path = temp_segment("flip");
        let mut writer = SegmentWriter::create(&path).expect("create");
        writer.append(b"aaaaaaaa").expect("append");
        writer.append(b"bbbbbbbb").expect("append");
        writer.append(b"cccccccc").expect("append");
        drop(writer);
        let scan = scan_segment(&path).expect("scan");
        let second = &scan.records[1];
        let mut bytes = std::fs::read(&path).expect("read");
        let flip = (second.start + RECORD_HEADER_BYTES + 2) as usize;
        bytes[flip] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");
        let scan = scan_segment(&path).expect("rescan");
        assert!(scan.truncated);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].payload, b"aaaaaaaa");
        assert_eq!(scan.valid_len, scan.records[0].end);
        std::fs::remove_file(&path).ok();
    }
}
