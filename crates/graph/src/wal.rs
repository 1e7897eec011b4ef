//! Write-ahead delta log for the live graph.
//!
//! Every applied mutation batch is appended here as a length-prefixed,
//! FNV-checksummed, sequence-numbered record *before* the epoch pointer swap
//! publishes it to readers. On restart, [`Wal::open`] replays the log and
//! hands back the acknowledged-mutation prefix; a torn or corrupt tail (the
//! typical artefact of a crash mid-append) is truncated to the last valid
//! prefix rather than reported as a fatal error. Together with the snapshot
//! written by log rotation this gives incremental-snapshot durability: the
//! on-disk state is always `checkpoint + log`, both individually atomic.
//!
//! ## On-disk layout
//!
//! ```text
//! file   := header record*
//! header := magic("OMEGAWAL") version:u32
//! record := body_len:u32 body checksum(body):u64
//! body   := seq:u64 epoch:u64 n_adds:u32 n_removes:u32 triple{n_adds+n_removes}
//! triple := str str str                (tail, label, head)
//! str    := len:u32 bytes{len}
//! ```
//!
//! All integers are little-endian, written and read through [`crate::bytes`].
//! The checksum is the word-wise FNV-1a-64 of [`crate::snapshot::checksum`].
//! Sequence numbers are contiguous within one log and survive rotation, so a
//! replayer can detect a spliced or reordered log.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::bytes::{DecodeError, Reader, Writer};
use crate::overlay::GraphDelta;
use crate::snapshot::checksum;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"OMEGAWAL";
/// Current format version.
pub const WAL_VERSION: u32 = 1;
/// Size of the file header (magic + version).
pub const WAL_HEADER_LEN: u64 = 12;
/// Name of the log file inside the WAL directory.
pub const WAL_FILE: &str = "wal.log";
/// Name of the rotation checkpoint snapshot inside the WAL directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.omega";

/// Smallest possible record body: seq + epoch + two counts.
const MIN_BODY_LEN: usize = 8 + 8 + 4 + 4;

/// Typed WAL failure. Recovery never panics on corrupt input; anything the
/// replayer cannot prove valid is truncated, and anything the appender cannot
/// persist surfaces here so the caller can degrade instead of lying about
/// durability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Underlying I/O failure (message carries the OS error).
    Io(String),
    /// The file exists but does not start with `OMEGAWAL`.
    BadMagic,
    /// The file uses a format version this build does not understand.
    UnsupportedVersion(u32),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(message) => write!(f, "wal i/o error: {message}"),
            WalError::BadMagic => write!(f, "wal file does not start with OMEGAWAL"),
            WalError::UnsupportedVersion(v) => write!(f, "unsupported wal version {v}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(err: std::io::Error) -> Self {
        WalError::Io(err.to_string())
    }
}

/// When appended records are pushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record; a `MutateOk` implies the record is durable.
    Always,
    /// `fsync` at most once per the given interval; bounded-loss group commit.
    EveryMs(u64),
    /// Never `fsync` explicitly; durability rides on the OS page cache.
    Never,
}

impl FsyncPolicy {
    /// Parse the `--fsync` flag syntax: `always`, `never`, or `every:<ms>`.
    pub fn parse(text: &str) -> Result<FsyncPolicy, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("every:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(FsyncPolicy::EveryMs)
                    .map_err(|_| format!("bad fsync interval: {ms}")),
                None => Err(format!(
                    "bad fsync policy {other:?}: expected always, never, or every:<ms>"
                )),
            },
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryMs(ms) => write!(f, "every:{ms}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Where the log lives and how eagerly it is synced.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding `wal.log` and the rotation checkpoint.
    pub dir: PathBuf,
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
}

impl WalConfig {
    /// Config with the given directory and the safe default (`always`).
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
        }
    }

    /// Replace the fsync policy.
    #[must_use]
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> WalConfig {
        self.fsync = fsync;
        self
    }
}

/// One replayed mutation batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number (contiguous within a log).
    pub seq: u64,
    /// Epoch the batch produced when it was first applied.
    pub epoch: u64,
    /// Added `(tail, label, head)` triples.
    pub adds: Vec<(String, String, String)>,
    /// Removed `(tail, label, head)` triples.
    pub removes: Vec<(String, String, String)>,
}

impl WalRecord {
    /// The record's batch as the graph layer applies it.
    pub fn into_delta(self) -> GraphDelta {
        GraphDelta {
            adds: self.adds,
            removes: self.removes,
        }
    }
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Valid records, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn/corrupt tail discarded by truncation.
    pub truncated_bytes: u64,
    /// Size of the log after truncation (header included).
    pub log_bytes: u64,
    /// True when the WAL directory holds a rotation checkpoint snapshot.
    pub has_checkpoint: bool,
}

/// Outcome of one append.
#[derive(Debug, Clone, Copy)]
pub struct WalAppend {
    /// Sequence number assigned to the record.
    pub seq: u64,
    /// Bytes appended (length prefix + body + checksum).
    pub bytes: u64,
    /// Whether this append was pushed to stable storage before returning.
    pub synced: bool,
    /// Nanoseconds spent in `fsync` (0 when not synced).
    pub sync_ns: u64,
}

/// Deterministic injected I/O failures, mirroring the crash shapes the
/// recovery path must survive. Consumed by the next [`Wal::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFailure {
    /// Persist only a prefix of the record, then fail (crash mid-write).
    ShortWrite,
    /// Persist the whole record with a corrupted checksum, then fail.
    TornRecord,
    /// Persist the record but fail the fsync (power loss before flush).
    SyncFailure,
    /// Fail before writing anything (ENOSPC).
    DiskFull,
}

/// An open write-ahead log positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    dir: PathBuf,
    fsync: FsyncPolicy,
    next_seq: u64,
    len: u64,
    last_sync: Instant,
    injected: Option<WalFailure>,
}

impl Wal {
    /// Open (creating if absent) the log under `config.dir`, replay whatever
    /// is on disk, truncate any torn tail, and return the log positioned for
    /// appending along with the recovered records.
    pub fn open(config: &WalConfig) -> Result<(Wal, WalRecovery), WalError> {
        std::fs::create_dir_all(&config.dir)?;
        let path = config.dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;

        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if is_torn_header(&bytes) {
            // Killed while writing the header: the log never held a record,
            // so it starts afresh.
            file.set_len(0)?;
            file.rewind()?;
            bytes.clear();
        }
        if bytes.is_empty() {
            bytes = header();
            file.write_all(&bytes)?;
            file.sync_all()?;
            sync_dir(&config.dir)?;
        }
        let mut r = Reader::new(&bytes);
        if r.take_array() != Ok(*WAL_MAGIC) {
            return Err(WalError::BadMagic);
        }
        let version = r.take_u32().map_err(|_| WalError::BadMagic)?;
        if version != WAL_VERSION {
            return Err(WalError::UnsupportedVersion(version));
        }

        let (records, valid_len) = replay(r);
        let truncated = bytes.len() as u64 - valid_len;
        if truncated > 0 {
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(valid_len))?;

        let next_seq = records.last().map_or(1, |r| r.seq + 1);
        let recovery = WalRecovery {
            records,
            truncated_bytes: truncated,
            log_bytes: valid_len,
            has_checkpoint: config.dir.join(CHECKPOINT_FILE).exists(),
        };
        let wal = Wal {
            file,
            dir: config.dir.clone(),
            fsync: config.fsync,
            next_seq,
            len: valid_len,
            last_sync: Instant::now(),
            injected: None,
        };
        Ok((wal, recovery))
    }

    /// Directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path where log rotation persists its checkpoint snapshot.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_FILE)
    }

    /// Sequence number the next append will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Current log size in bytes (header included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Bytes of records in the log — what recovery would replay; `0` right
    /// after a rotation.
    pub fn record_bytes(&self) -> u64 {
        self.len.saturating_sub(WAL_HEADER_LEN)
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.record_bytes() == 0
    }

    /// Arm a one-shot injected failure consumed by the next [`Wal::append`].
    #[doc(hidden)]
    pub fn inject_failure(&mut self, failure: Option<WalFailure>) {
        self.injected = failure;
    }

    /// Append one mutation batch. The record is on its way to disk (and, per
    /// the fsync policy, durable) before this returns `Ok`; on `Err` the
    /// caller must treat the log as unreliable and stop acknowledging writes.
    pub fn append(
        &mut self,
        epoch: u64,
        adds: &[(String, String, String)],
        removes: &[(String, String, String)],
    ) -> Result<WalAppend, WalError> {
        let seq = self.next_seq;
        let record = encode_record(seq, epoch, adds, removes);

        match self.injected.take() {
            Some(WalFailure::DiskFull) => {
                return Err(WalError::Io("injected disk-full fault".into()));
            }
            Some(WalFailure::ShortWrite) => {
                let half = &record[..record.len() / 2];
                self.file.write_all(half)?;
                let _ = self.file.sync_all();
                return Err(WalError::Io("injected short-write fault".into()));
            }
            Some(WalFailure::TornRecord) => {
                let mut torn = record.clone();
                let last = torn.len() - 1;
                torn[last] ^= 0xff;
                self.file.write_all(&torn)?;
                let _ = self.file.sync_all();
                return Err(WalError::Io("injected torn-record fault".into()));
            }
            Some(WalFailure::SyncFailure) => {
                self.file.write_all(&record)?;
                return Err(WalError::Io("injected fsync fault".into()));
            }
            None => {}
        }

        self.file.write_all(&record)?;
        self.len += record.len() as u64;
        self.next_seq += 1;

        let mut synced = false;
        let mut sync_ns = 0u64;
        let due = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryMs(ms) => self.last_sync.elapsed().as_millis() >= u128::from(ms),
            FsyncPolicy::Never => false,
        };
        if due {
            let started = Instant::now();
            self.file.sync_all()?;
            sync_ns = started.elapsed().as_nanos() as u64;
            self.last_sync = started;
            synced = true;
        }
        Ok(WalAppend {
            seq,
            bytes: record.len() as u64,
            synced,
            sync_ns,
        })
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_all()?;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Drop every record, keeping the header and the sequence counter. Called
    /// after the current graph state has been checkpointed, so the on-disk
    /// pair `checkpoint + log` stays complete at every instant.
    pub fn rotate(&mut self) -> Result<(), WalError> {
        self.file.sync_all()?;
        self.file.set_len(WAL_HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(WAL_HEADER_LEN))?;
        self.file.sync_all()?;
        sync_dir(&self.dir)?;
        self.len = WAL_HEADER_LEN;
        Ok(())
    }
}

/// Fsync a directory so a just-renamed or just-truncated entry survives a
/// crash of the directory itself.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

fn encode_record(
    seq: u64,
    epoch: u64,
    adds: &[(String, String, String)],
    removes: &[(String, String, String)],
) -> Vec<u8> {
    let triples = || adds.iter().chain(removes);
    let body_len = MIN_BODY_LEN
        + triples()
            .map(|(tail, label, head)| 12 + tail.len() + label.len() + head.len())
            .sum::<usize>();
    let mut w = Writer::with_capacity(4 + body_len + 8);
    w.put_u32(body_len as u32);
    w.put_u64(seq);
    w.put_u64(epoch);
    w.put_u32(adds.len() as u32);
    w.put_u32(removes.len() as u32);
    for (tail, label, head) in triples() {
        w.put_str(tail);
        w.put_str(label);
        w.put_str(head);
    }
    let sum = checksum(&w.bytes()[4..]);
    w.put_u64(sum);
    w.into_inner()
}

/// The file header: magic, then version.
fn header() -> Vec<u8> {
    let mut w = Writer::with_capacity(WAL_HEADER_LEN as usize);
    w.put_bytes(WAL_MAGIC);
    w.put_u32(WAL_VERSION);
    w.into_inner()
}

/// Whether `bytes` is a non-empty strict prefix of the log header: what a
/// process killed while writing the header leaves behind.
fn is_torn_header(bytes: &[u8]) -> bool {
    !bytes.is_empty() && bytes.len() < WAL_HEADER_LEN as usize && header().starts_with(bytes)
}

/// Walk the records after the log header `r` has read and return every
/// record in the longest valid prefix plus that prefix's length. Never
/// panics: a decode error, checksum mismatch or sequence gap ends the prefix
/// there.
fn replay(mut r: Reader<'_>) -> (Vec<WalRecord>, u64) {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut valid = r.position();
    while r.remaining() > 0 {
        let Ok(record) = take_record(&mut r) else {
            break;
        };
        if records
            .last()
            .is_some_and(|last| last.seq.checked_add(1) != Some(record.seq))
        {
            break;
        }
        records.push(record);
        valid = r.position();
    }
    (records, valid as u64)
}

/// One `body_len body checksum` record.
fn take_record(r: &mut Reader<'_>) -> Result<WalRecord, DecodeError> {
    let body_len = r.take_u32()? as usize;
    let body = r.take_bytes(body_len)?;
    if checksum(body) != r.take_u64()? {
        return Err(DecodeError::Malformed("record checksum mismatch"));
    }
    let mut r = Reader::new(body);
    let seq = r.take_u64()?;
    let epoch = r.take_u64()?;
    let n_adds = r.take_u32()? as usize;
    let n_removes = r.take_u32()? as usize;
    let mut take_triples = |n: usize| -> Result<Vec<(String, String, String)>, DecodeError> {
        // A triple is at least its three 4-byte lengths.
        let mut out = Vec::with_capacity(n.min(r.remaining() / 12));
        for _ in 0..n {
            out.push((r.take_str()?, r.take_str()?, r.take_str()?));
        }
        Ok(out)
    };
    let adds = take_triples(n_adds)?;
    let removes = take_triples(n_removes)?;
    r.expect_end()?;
    Ok(WalRecord {
        seq,
        epoch,
        adds,
        removes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "omega-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn triple(t: &str, l: &str, h: &str) -> (String, String, String) {
        (t.into(), l.into(), h.into())
    }

    #[test]
    fn append_then_reopen_replays_every_record() {
        let dir = temp_dir("replay");
        let config = WalConfig::new(&dir).with_fsync(FsyncPolicy::Always);
        {
            let (mut wal, recovery) = Wal::open(&config).unwrap();
            assert!(recovery.records.is_empty());
            let out = wal.append(1, &[triple("a", "knows", "b")], &[]).unwrap();
            assert_eq!(out.seq, 1);
            assert!(out.synced, "fsync=always must sync every append");
            wal.append(
                2,
                &[triple("b", "knows", "c")],
                &[triple("a", "knows", "b")],
            )
            .unwrap();
        }
        let (wal, recovery) = Wal::open(&config).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.records.len(), 2);
        assert_eq!(recovery.records[0].adds, vec![triple("a", "knows", "b")]);
        assert_eq!(recovery.records[1].removes, vec![triple("a", "knows", "b")]);
        assert_eq!(recovery.records[1].seq, 2);
        assert_eq!(wal.next_seq(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_to_last_valid_prefix() {
        let dir = temp_dir("torn");
        let config = WalConfig::new(&dir);
        let valid_len;
        {
            let (mut wal, _) = Wal::open(&config).unwrap();
            wal.append(1, &[triple("a", "knows", "b")], &[]).unwrap();
            valid_len = wal.len();
            wal.append(2, &[triple("b", "knows", "c")], &[]).unwrap();
        }
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        // Chop mid-way through the second record: a crash mid-append.
        std::fs::write(&path, &bytes[..valid_len as usize + 7]).unwrap();
        let (mut wal, recovery) = Wal::open(&config).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert_eq!(recovery.truncated_bytes, 7);
        assert_eq!(wal.len(), valid_len);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            valid_len,
            "the torn bytes must be gone from disk"
        );
        // The log stays appendable after truncation.
        wal.append(2, &[triple("b", "knows", "c")], &[]).unwrap();
        let (_, recovery) = Wal::open(&config).unwrap();
        assert_eq!(recovery.records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_ends_the_valid_prefix() {
        let dir = temp_dir("corrupt");
        let config = WalConfig::new(&dir);
        {
            let (mut wal, _) = Wal::open(&config).unwrap();
            wal.append(1, &[triple("a", "knows", "b")], &[]).unwrap();
            wal.append(2, &[triple("b", "knows", "c")], &[]).unwrap();
        }
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip one checksum bit of the final record
        std::fs::write(&path, &bytes).unwrap();
        let (_, recovery) = Wal::open(&config).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert!(recovery.truncated_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_empties_the_log_but_keeps_sequencing() {
        let dir = temp_dir("rotate");
        let config = WalConfig::new(&dir);
        let (mut wal, _) = Wal::open(&config).unwrap();
        wal.append(1, &[triple("a", "knows", "b")], &[]).unwrap();
        wal.rotate().unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.next_seq(), 2, "seq survives rotation");
        wal.append(2, &[triple("b", "knows", "c")], &[]).unwrap();
        let (_, recovery) = Wal::open(&config).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert_eq!(recovery.records[0].seq, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_failures_leave_a_recoverable_log() {
        for failure in [
            WalFailure::ShortWrite,
            WalFailure::TornRecord,
            WalFailure::SyncFailure,
            WalFailure::DiskFull,
        ] {
            let dir = temp_dir(&format!("fault-{failure:?}"));
            let config = WalConfig::new(&dir);
            {
                let (mut wal, _) = Wal::open(&config).unwrap();
                wal.append(1, &[triple("a", "knows", "b")], &[]).unwrap();
                wal.inject_failure(Some(failure));
                let err = wal.append(2, &[triple("b", "knows", "c")], &[]);
                assert!(err.is_err(), "{failure:?} must surface as an error");
            }
            let (_, recovery) = Wal::open(&config).unwrap();
            // SyncFailure leaves a fully valid record on disk (only the
            // durability promise was broken); every other fault's damage
            // must be truncated away.
            let expect = if failure == WalFailure::SyncFailure {
                2
            } else {
                1
            };
            assert_eq!(
                recovery.records.len(),
                expect,
                "{failure:?} recovery must keep the acknowledged prefix"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn fsync_policy_parses_the_flag_syntax() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("every:25"), Ok(FsyncPolicy::EveryMs(25)));
        assert!(FsyncPolicy::parse("every:soon").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::EveryMs(25).to_string(), "every:25");
    }

    #[test]
    fn a_torn_header_opens_as_a_fresh_log() {
        let dir = temp_dir("torn-header");
        std::fs::create_dir_all(&dir).unwrap();
        let mut header = WAL_MAGIC.to_vec();
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        for len in 1..WAL_HEADER_LEN as usize {
            std::fs::write(dir.join(WAL_FILE), &header[..len]).unwrap();
            let config = WalConfig::new(&dir);
            let (mut wal, recovery) =
                Wal::open(&config).unwrap_or_else(|e| panic!("a {len}-byte header prefix: {e}"));
            assert!(recovery.records.is_empty());
            assert_eq!(recovery.truncated_bytes, 0);
            assert_eq!(wal.len(), WAL_HEADER_LEN);
            assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap(), header);
            wal.append(1, &[triple("a", "knows", "b")], &[]).unwrap();
            drop(wal);
            let (_, recovery) = Wal::open(&config).unwrap();
            assert_eq!(recovery.records.len(), 1, "after a {len}-byte prefix");
        }
        // A short file that is not a prefix of the header is still foreign.
        for foreign in [&b"X"[..], b"OMEGAWAX", b"OMEGAWAL\x02"] {
            std::fs::write(dir.join(WAL_FILE), foreign).unwrap();
            assert!(matches!(
                Wal::open(&WalConfig::new(&dir)),
                Err(WalError::BadMagic)
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_is_rejected_with_typed_errors() {
        let dir = temp_dir("magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(WAL_FILE), b"NOTAWAL\x00garbage").unwrap();
        assert!(matches!(
            Wal::open(&WalConfig::new(&dir)),
            Err(WalError::BadMagic)
        ));
        let mut versioned = WAL_MAGIC.to_vec();
        versioned.extend_from_slice(&9u32.to_le_bytes());
        std::fs::write(dir.join(WAL_FILE), &versioned).unwrap();
        assert!(matches!(
            Wal::open(&WalConfig::new(&dir)),
            Err(WalError::UnsupportedVersion(9))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
