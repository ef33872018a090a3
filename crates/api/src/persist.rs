//! Durability layer for the [`crate::SystemStore`]: an append-only
//! journal of checksummed, length-prefixed `store_put` records plus
//! periodic atomic snapshots, behind an injectable [`StoreIo`] so a
//! fault harness can crash the store at every write boundary.
//!
//! # On-disk format
//!
//! Both files use the same frame: a 4-byte little-endian payload
//! length, an 8-byte little-endian FNV-1a 64 checksum of the payload,
//! then the payload itself.
//!
//! * `store.journal` — a sequence of put frames. Each payload carries a
//!   global sequence number (strictly increasing across the whole
//!   store), the resulting entry version, a body-kind tag, the entry
//!   name, and the body rendered back to DSL text.
//! * `store.snapshot` — an 8-byte magic (`TWCASNP1`) followed by one
//!   frame whose payload holds the sequence number the snapshot covers
//!   (`last_seq`) and every entry's `(name, version, kind, text)`.
//!
//! Snapshots are written atomically by the [`StoreIo::replace`]
//! contract (write temp → fsync → rename), after which the journal is
//! reset; a crash between the two leaves journal records the snapshot
//! already covers, which replay skips by sequence number.
//!
//! # Recovery invariants
//!
//! Recovery (`recover`, driven by [`crate::SystemStore::durable`])
//! distinguishes two failure shapes and never conflates
//! them:
//!
//! * an **incomplete frame at the journal tail** is a torn write from a
//!   crash mid-append — the tail is *truncated* (the put was never
//!   acknowledged) and counted in [`RecoveryReport::truncated_bytes`];
//! * a **complete frame whose checksum mismatches** (anywhere, and any
//!   damage to the snapshot) is *corruption* — recovery refuses with a
//!   typed [`PersistError`] rather than silently serving wrong
//!   history.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use twca_dist::parse_distributed;
use twca_model::parse_system;

use crate::store::StoredBody;

/// The journal file name under a store directory.
pub const JOURNAL_FILE: &str = "store.journal";
/// The snapshot file name under a store directory.
pub const SNAPSHOT_FILE: &str = "store.snapshot";

/// Magic prefix of a snapshot file (`TWCASNP1`).
const SNAPSHOT_MAGIC: &[u8; 8] = b"TWCASNP1";

/// Frame header size: 4-byte length + 8-byte checksum.
const FRAME_HEADER: usize = 12;

/// Body-kind tag of a uniprocessor chain system.
pub(crate) const KIND_UNI: u8 = 0;
/// Body-kind tag of a distributed system.
pub(crate) const KIND_DIST: u8 = 1;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// What went wrong in the persistence layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistErrorKind {
    /// The backing [`StoreIo`] failed (or simulated a crash).
    Io,
    /// A complete journal record failed its checksum or decoded to
    /// nonsense — corruption, refused rather than replayed.
    CorruptJournal,
    /// The snapshot failed its checksum or decoded to nonsense.
    CorruptSnapshot,
    /// A body cannot be rendered to the persistent DSL format.
    Unrepresentable,
}

impl PersistErrorKind {
    /// Stable lower-case tag for messages and wire errors.
    pub fn as_str(&self) -> &'static str {
        match self {
            PersistErrorKind::Io => "io",
            PersistErrorKind::CorruptJournal => "corrupt-journal",
            PersistErrorKind::CorruptSnapshot => "corrupt-snapshot",
            PersistErrorKind::Unrepresentable => "unrepresentable",
        }
    }
}

/// A typed persistence failure; see [`PersistErrorKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// The failure class.
    pub kind: PersistErrorKind,
    /// Human-readable detail (offset, file, cause).
    pub message: String,
}

impl PersistError {
    pub(crate) fn new(kind: PersistErrorKind, message: impl Into<String>) -> PersistError {
        PersistError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for PersistError {}

// ---------------------------------------------------------------------------
// StoreIo: the injectable I/O boundary
// ---------------------------------------------------------------------------

/// The I/O boundary of the durability layer. Every byte the store
/// persists flows through one of these four operations, so a fault
/// harness can crash the store at each boundary and hand the resulting
/// half-written state back to recovery
/// ([`crate::SystemStore::durable`]).
pub trait StoreIo: fmt::Debug + Send + Sync {
    /// The full contents of `file`, or `None` if it does not exist.
    fn read(&self, file: &str) -> Result<Option<Vec<u8>>, PersistError>;
    /// Appends `bytes` to `file`, creating it if absent. A crash may
    /// leave any *prefix* of `bytes` appended (a torn write), never a
    /// suffix or interleaving.
    fn append(&self, file: &str, bytes: &[u8]) -> Result<(), PersistError>;
    /// Durably flushes previous appends to `file`.
    fn sync(&self, file: &str) -> Result<(), PersistError>;
    /// Atomically replaces `file` with `bytes`: the observable state
    /// after a crash is either the old contents or the new, never a
    /// mix (write temp → fsync → rename).
    fn replace(&self, file: &str, bytes: &[u8]) -> Result<(), PersistError>;
}

fn io_err(op: &str, file: &str, err: std::io::Error) -> PersistError {
    PersistError::new(PersistErrorKind::Io, format!("{op} {file}: {err}"))
}

/// Real-filesystem [`StoreIo`] rooted at a directory. Keeps the
/// journal's append handle open across puts so the warm `store_put`
/// path pays one `write(2)`, not an open/close pair.
#[derive(Debug)]
pub struct DirIo {
    root: PathBuf,
    handles: Mutex<HashMap<String, fs::File>>,
}

impl DirIo {
    /// Opens (creating if needed) the store directory at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<DirIo, PersistError> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| io_err("create dir", &root.display().to_string(), e))?;
        Ok(DirIo {
            root,
            handles: Mutex::new(HashMap::new()),
        })
    }

    fn path(&self, file: &str) -> PathBuf {
        self.root.join(file)
    }
}

impl StoreIo for DirIo {
    fn read(&self, file: &str) -> Result<Option<Vec<u8>>, PersistError> {
        match fs::read(self.path(file)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", file, e)),
        }
    }

    fn append(&self, file: &str, bytes: &[u8]) -> Result<(), PersistError> {
        let mut handles = self.handles.lock().expect("DirIo poisoned");
        if !handles.contains_key(file) {
            let handle = fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(self.path(file))
                .map_err(|e| io_err("open", file, e))?;
            handles.insert(file.to_owned(), handle);
        }
        let handle = handles.get_mut(file).expect("just inserted");
        handle
            .write_all(bytes)
            .map_err(|e| io_err("append", file, e))
    }

    fn sync(&self, file: &str) -> Result<(), PersistError> {
        let mut handles = self.handles.lock().expect("DirIo poisoned");
        match handles.get_mut(file) {
            Some(handle) => handle.sync_data().map_err(|e| io_err("sync", file, e)),
            // Nothing appended since open: nothing to flush.
            None => Ok(()),
        }
    }

    fn replace(&self, file: &str, bytes: &[u8]) -> Result<(), PersistError> {
        let tmp = self.path(&format!("{file}.tmp"));
        let tmp_name = tmp.display().to_string();
        {
            let mut out = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp_name, e))?;
            out.write_all(bytes)
                .map_err(|e| io_err("write", &tmp_name, e))?;
            out.sync_all().map_err(|e| io_err("fsync", &tmp_name, e))?;
        }
        fs::rename(&tmp, self.path(file)).map_err(|e| io_err("rename", file, e))?;
        // The old inode is gone: a cached append handle would keep
        // writing to the unlinked file, so drop it.
        self.handles.lock().expect("DirIo poisoned").remove(file);
        // Make the rename itself durable.
        if let Ok(dir) = fs::File::open(&self.root) {
            let _ = dir.sync_all();
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MemIo: recording + fault injection
// ---------------------------------------------------------------------------

/// One recorded mutation against a [`MemIo`], in execution order. The
/// log is the crash-point enumeration: [`crash_states`] rebuilds the
/// simulated disk as of every boundary between ops and every torn
/// prefix within an append.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoOp {
    /// Bytes appended to a file.
    Append {
        /// Target file name.
        file: String,
        /// The appended bytes.
        bytes: Vec<u8>,
    },
    /// A file atomically replaced.
    Replace {
        /// Target file name.
        file: String,
        /// The new full contents.
        bytes: Vec<u8>,
    },
    /// A durability barrier on a file.
    Sync {
        /// Target file name.
        file: String,
    },
}

/// In-memory [`StoreIo`] for tests and the fault-injection oracle:
/// records every mutation, can start from an arbitrary disk state
/// (e.g. one produced by [`crash_states`]), can flip bits to simulate
/// corruption, and can fail all mutations after a countdown to model a
/// crash mid-sequence.
#[derive(Debug, Default)]
pub struct MemIo {
    files: Mutex<HashMap<String, Vec<u8>>>,
    log: Mutex<Vec<IoOp>>,
    // None = never fail; Some(n) = the next n mutations succeed, then
    // every later mutation returns an Io error ("the process died").
    fail_after: Mutex<Option<u64>>,
}

impl MemIo {
    /// An empty in-memory disk.
    pub fn new() -> MemIo {
        MemIo::default()
    }

    /// An in-memory disk with the given initial file contents.
    pub fn from_state(files: HashMap<String, Vec<u8>>) -> MemIo {
        MemIo {
            files: Mutex::new(files),
            ..MemIo::default()
        }
    }

    /// A copy of the current file contents.
    pub fn state(&self) -> HashMap<String, Vec<u8>> {
        self.files.lock().expect("MemIo poisoned").clone()
    }

    /// A copy of the mutation log, in execution order.
    pub fn ops(&self) -> Vec<IoOp> {
        self.log.lock().expect("MemIo poisoned").clone()
    }

    /// After `n` more successful mutations, every mutation fails with
    /// an [`PersistErrorKind::Io`] error (reads keep working).
    pub fn fail_after(&self, n: u64) {
        *self.fail_after.lock().expect("MemIo poisoned") = Some(n);
    }

    /// Flips one bit of `file` (bit `bit` of the byte at `byte`) to
    /// simulate silent media corruption. Panics if out of range.
    pub fn flip_bit(&self, file: &str, byte: usize, bit: u8) {
        let mut files = self.files.lock().expect("MemIo poisoned");
        let contents = files.get_mut(file).expect("no such file");
        contents[byte] ^= 1 << (bit % 8);
    }

    /// Checks the crash countdown. Returns `Ok(())` if this mutation
    /// may proceed, decrementing the countdown.
    fn admit(&self) -> Result<(), PersistError> {
        let mut fail = self.fail_after.lock().expect("MemIo poisoned");
        match *fail {
            None => Ok(()),
            Some(0) => Err(PersistError::new(
                PersistErrorKind::Io,
                "injected crash: store I/O is dead",
            )),
            Some(ref mut n) => {
                *n -= 1;
                Ok(())
            }
        }
    }
}

impl StoreIo for MemIo {
    fn read(&self, file: &str) -> Result<Option<Vec<u8>>, PersistError> {
        Ok(self
            .files
            .lock()
            .expect("MemIo poisoned")
            .get(file)
            .cloned())
    }

    fn append(&self, file: &str, bytes: &[u8]) -> Result<(), PersistError> {
        self.admit()?;
        self.files
            .lock()
            .expect("MemIo poisoned")
            .entry(file.to_owned())
            .or_default()
            .extend_from_slice(bytes);
        self.log.lock().expect("MemIo poisoned").push(IoOp::Append {
            file: file.to_owned(),
            bytes: bytes.to_vec(),
        });
        Ok(())
    }

    fn sync(&self, file: &str) -> Result<(), PersistError> {
        self.admit()?;
        self.log.lock().expect("MemIo poisoned").push(IoOp::Sync {
            file: file.to_owned(),
        });
        Ok(())
    }

    fn replace(&self, file: &str, bytes: &[u8]) -> Result<(), PersistError> {
        self.admit()?;
        self.files
            .lock()
            .expect("MemIo poisoned")
            .insert(file.to_owned(), bytes.to_vec());
        self.log
            .lock()
            .expect("MemIo poisoned")
            .push(IoOp::Replace {
                file: file.to_owned(),
                bytes: bytes.to_vec(),
            });
        Ok(())
    }
}

/// Every simulated post-crash disk state reachable from a mutation
/// log: for each boundary `i` the state after fully applying
/// `ops[..i]`, and for each append additionally the torn states where
/// only a strict prefix of its bytes landed (first byte, half, all but
/// the last byte). [`StoreIo::replace`] is atomic by contract, so its
/// only crash states are old-contents and new-contents — both already
/// boundary states. Each state comes with a description for failure
/// reports and the number of ops fully applied.
pub fn crash_states(ops: &[IoOp]) -> Vec<(String, usize, HashMap<String, Vec<u8>>)> {
    let mut states = Vec::new();
    let mut disk: HashMap<String, Vec<u8>> = HashMap::new();
    states.push(("before any I/O".to_owned(), 0, disk.clone()));
    for (i, op) in ops.iter().enumerate() {
        if let IoOp::Append { file, bytes } = op {
            let mut cuts: Vec<usize> = vec![1, bytes.len() / 2, bytes.len().saturating_sub(1)];
            cuts.retain(|&c| c > 0 && c < bytes.len());
            cuts.dedup();
            for cut in cuts {
                let mut torn = disk.clone();
                torn.entry(file.clone())
                    .or_default()
                    .extend_from_slice(&bytes[..cut]);
                states.push((
                    format!(
                        "torn append of {cut}/{} bytes to {file} (op {i})",
                        bytes.len()
                    ),
                    i,
                    torn,
                ));
            }
        }
        match op {
            IoOp::Append { file, bytes } => disk
                .entry(file.clone())
                .or_default()
                .extend_from_slice(bytes),
            IoOp::Replace { file, bytes } => {
                disk.insert(file.clone(), bytes.clone());
            }
            IoOp::Sync { .. } => {}
        }
        states.push((
            format!("after op {i} ({})", op_name(op)),
            i + 1,
            disk.clone(),
        ));
    }
    states
}

fn op_name(op: &IoOp) -> String {
    match op {
        IoOp::Append { file, bytes } => format!("append {} bytes to {file}", bytes.len()),
        IoOp::Replace { file, bytes } => format!("replace {file} with {} bytes", bytes.len()),
        IoOp::Sync { file } => format!("sync {file}"),
    }
}

// ---------------------------------------------------------------------------
// Frames and record encoding
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit: small, dependency-free, and plenty to detect the bit
/// flips and frame desyncs the fault model injects (this is a
/// corruption *detector*, not a cryptographic integrity check).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Wraps a payload in the length + checksum frame.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, value: &str) {
    put_u32(out, value.len() as u32);
    out.extend_from_slice(value.as_bytes());
}

/// Cursor over a decoded payload; every read is bounds-checked so a
/// corrupt length field turns into a typed error, never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
    kind: PersistErrorKind,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], kind: PersistErrorKind) -> Cursor<'a> {
        Cursor { bytes, at: 0, kind }
    }

    fn corrupt(&self, what: &str) -> PersistError {
        PersistError::new(self.kind, format!("truncated or corrupt {what} field"))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.at..end];
                self.at = end;
                Ok(slice)
            }
            None => Err(self.corrupt(what)),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, PersistError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn str(&mut self, what: &str) -> Result<&'a str, PersistError> {
        let len = self.u32(what)? as usize;
        let raw = self.take(len, what)?;
        std::str::from_utf8(raw).map_err(|_| self.corrupt(what))
    }

    fn done(&self) -> Result<(), PersistError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(self.corrupt("trailing bytes"))
        }
    }
}

/// One journaled `store_put`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PutRecord {
    /// Global, strictly increasing across the store's lifetime.
    pub(crate) seq: u64,
    /// The entry version this put produced.
    pub(crate) version: u64,
    /// [`KIND_UNI`] or [`KIND_DIST`].
    pub(crate) kind: u8,
    /// The entry name.
    pub(crate) name: String,
    /// The body rendered to DSL text.
    pub(crate) text: String,
}

pub(crate) fn encode_put(record: &PutRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(32 + record.name.len() + record.text.len());
    put_u64(&mut payload, record.seq);
    put_u64(&mut payload, record.version);
    payload.push(record.kind);
    put_str(&mut payload, &record.name);
    put_str(&mut payload, &record.text);
    frame(&payload)
}

fn decode_put(payload: &[u8]) -> Result<PutRecord, PersistError> {
    let mut cursor = Cursor::new(payload, PersistErrorKind::CorruptJournal);
    let record = PutRecord {
        seq: cursor.u64("seq")?,
        version: cursor.u64("version")?,
        kind: cursor.u8("kind")?,
        name: cursor.str("name")?.to_owned(),
        text: cursor.str("text")?.to_owned(),
    };
    cursor.done()?;
    Ok(record)
}

/// The decoded contents of a snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SnapshotData {
    /// Journal records with `seq <= last_seq` are already reflected.
    last_seq: u64,
    /// `(name, version, kind, text)` per entry.
    entries: Vec<(String, u64, u8, String)>,
}

pub(crate) fn encode_snapshot(last_seq: u64, entries: &[(String, u64, u8, String)]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, last_seq);
    put_u32(&mut payload, entries.len() as u32);
    for (name, version, kind, text) in entries {
        put_str(&mut payload, name);
        put_u64(&mut payload, *version);
        payload.push(*kind);
        put_str(&mut payload, text);
    }
    let mut out = SNAPSHOT_MAGIC.to_vec();
    out.extend_from_slice(&frame(&payload));
    out
}

fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotData, PersistError> {
    let corrupt = |msg: &str| PersistError::new(PersistErrorKind::CorruptSnapshot, msg.to_owned());
    if bytes.len() < 8 || &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad snapshot magic"));
    }
    let framed = &bytes[8..];
    if framed.len() < FRAME_HEADER {
        return Err(corrupt("snapshot header truncated"));
    }
    let plen = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(framed[4..12].try_into().unwrap());
    if framed.len() != FRAME_HEADER + plen {
        return Err(corrupt("snapshot length mismatch"));
    }
    let payload = &framed[FRAME_HEADER..];
    if fnv1a(payload) != checksum {
        return Err(corrupt("snapshot checksum mismatch"));
    }
    let mut cursor = Cursor::new(payload, PersistErrorKind::CorruptSnapshot);
    let last_seq = cursor.u64("last_seq")?;
    let count = cursor.u32("entry count")?;
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name = cursor.str("entry name")?.to_owned();
        let version = cursor.u64("entry version")?;
        let kind = cursor.u8("entry kind")?;
        let text = cursor.str("entry text")?.to_owned();
        entries.push((name, version, kind, text));
    }
    cursor.done()?;
    Ok(SnapshotData { last_seq, entries })
}

fn parse_body(
    kind: u8,
    text: &str,
    err_kind: PersistErrorKind,
) -> Result<StoredBody, PersistError> {
    match kind {
        KIND_UNI => parse_system(text).map(StoredBody::Uni).map_err(|e| {
            PersistError::new(err_kind, format!("stored uni body no longer parses: {e}"))
        }),
        KIND_DIST => parse_distributed(text).map(StoredBody::Dist).map_err(|e| {
            PersistError::new(err_kind, format!("stored dist body no longer parses: {e}"))
        }),
        other => Err(PersistError::new(
            err_kind,
            format!("unknown body kind tag {other}"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Journal scanning and recovery
// ---------------------------------------------------------------------------

/// The outcome of walking a journal byte buffer.
#[derive(Debug)]
struct JournalScan {
    /// Decoded payloads of every complete, checksum-valid frame.
    payloads: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (frames end exactly here).
    valid_len: usize,
}

/// Walks journal frames. An incomplete frame at the very end is a torn
/// tail (reported through `valid_len`, not an error); a complete frame
/// with a checksum mismatch is corruption.
fn scan_journal(bytes: &[u8]) -> Result<JournalScan, PersistError> {
    let mut payloads = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let remaining = bytes.len() - at;
        if remaining < FRAME_HEADER {
            break; // torn: not even a full header
        }
        let plen = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        if plen > remaining - FRAME_HEADER {
            break; // torn: payload runs past end-of-file
        }
        let checksum = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        let payload = &bytes[at + FRAME_HEADER..at + FRAME_HEADER + plen];
        if fnv1a(payload) != checksum {
            return Err(PersistError::new(
                PersistErrorKind::CorruptJournal,
                format!("checksum mismatch in record at byte {at}"),
            ));
        }
        payloads.push(payload.to_vec());
        at += FRAME_HEADER + plen;
    }
    Ok(JournalScan {
        payloads,
        valid_len: at,
    })
}

/// What recovery found and did; surfaced in the serve banner, the
/// `stats` query, and the drain summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a valid snapshot was loaded.
    pub snapshot_loaded: bool,
    /// Entries present after recovery.
    pub entries: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed: u64,
    /// Journal records skipped because the snapshot already covered
    /// them (duplicate replay is idempotent by sequence and version).
    pub skipped: u64,
    /// Torn-tail bytes truncated from the journal (a crash mid-append;
    /// the put they belonged to was never acknowledged).
    pub truncated_bytes: u64,
}

/// The in-memory result of recovering a store directory.
#[derive(Debug)]
pub(crate) struct Recovered {
    /// `name -> (version, body, rendered text)`.
    pub(crate) entries: HashMap<String, (u64, StoredBody, String)>,
    /// Highest sequence number observed; the next put uses `+ 1`.
    pub(crate) last_seq: u64,
    /// What happened, for reporting.
    pub(crate) report: RecoveryReport,
    /// When the journal had a torn tail, the valid prefix to write
    /// back so future appends don't land after garbage.
    pub(crate) repaired_journal: Option<Vec<u8>>,
}

/// Loads the newest valid snapshot and replays the journal on top.
/// Torn tails truncate; corruption refuses with a typed error.
pub(crate) fn recover(io: &dyn StoreIo) -> Result<Recovered, PersistError> {
    let mut entries: HashMap<String, (u64, StoredBody, String)> = HashMap::new();
    let mut report = RecoveryReport::default();
    let mut last_seq = 0u64;

    if let Some(bytes) = io.read(SNAPSHOT_FILE)? {
        let snapshot = decode_snapshot(&bytes)?;
        last_seq = snapshot.last_seq;
        report.snapshot_loaded = true;
        for (name, version, kind, text) in snapshot.entries {
            let body = parse_body(kind, &text, PersistErrorKind::CorruptSnapshot)?;
            entries.insert(name, (version, body, text));
        }
    }

    let journal = io.read(JOURNAL_FILE)?.unwrap_or_default();
    let scan = scan_journal(&journal)?;
    let mut prev_seq: Option<u64> = None;
    for payload in &scan.payloads {
        let record = decode_put(payload)?;
        if prev_seq.is_some_and(|p| record.seq <= p) {
            return Err(PersistError::new(
                PersistErrorKind::CorruptJournal,
                format!("sequence numbers not increasing at seq {}", record.seq),
            ));
        }
        prev_seq = Some(record.seq);
        last_seq = last_seq.max(record.seq);
        let current = entries.get(&record.name).map(|(v, _, _)| *v).unwrap_or(0);
        if record.version <= current {
            // Already reflected (snapshot raced ahead of the journal
            // reset, or the snapshot covers this record).
            report.skipped += 1;
            continue;
        }
        if record.version != current + 1 {
            return Err(PersistError::new(
                PersistErrorKind::CorruptJournal,
                format!(
                    "version gap for `{}`: have {current}, journal jumps to {}",
                    record.name, record.version
                ),
            ));
        }
        let body = parse_body(record.kind, &record.text, PersistErrorKind::CorruptJournal)?;
        entries.insert(record.name, (record.version, body, record.text));
        report.replayed += 1;
    }

    report.truncated_bytes = (journal.len() - scan.valid_len) as u64;
    report.entries = entries.len() as u64;
    let repaired_journal = (report.truncated_bytes > 0).then(|| journal[..scan.valid_len].to_vec());
    Ok(Recovered {
        entries,
        last_seq,
        report,
        repaired_journal,
    })
}

// ---------------------------------------------------------------------------
// Live persistence state (used by SystemStore)
// ---------------------------------------------------------------------------

/// When the store journals and snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistPolicy {
    /// Write a snapshot (and reset the journal) every this many put
    /// records; `0` disables automatic snapshots (explicit
    /// [`crate::SystemStore::flush`] still snapshots).
    pub snapshot_every: u64,
    /// `fsync` the journal every this many appends; `0` syncs only at
    /// snapshots and flushes. `1` makes every acknowledged put durable
    /// against power loss (process crashes never lose acknowledged
    /// puts either way: appends live in the OS page cache).
    pub sync_every: u64,
}

impl Default for PersistPolicy {
    fn default() -> PersistPolicy {
        PersistPolicy {
            snapshot_every: 256,
            sync_every: 1,
        }
    }
}

/// The live persistence half of a durable [`crate::SystemStore`]:
/// the I/O backend, the policy and the sequence counter. The `seq` mutex is the commit lock — durable puts
/// serialize on it so journal order, sequence numbers, and entry
/// versions always agree.
#[derive(Debug)]
pub(crate) struct Persistence {
    pub(crate) io: Arc<dyn StoreIo>,
    pub(crate) policy: PersistPolicy,
    pub(crate) seq: Mutex<PersistSeq>,
}

#[derive(Debug)]
pub(crate) struct PersistSeq {
    /// The next record's sequence number.
    pub(crate) next_seq: u64,
    /// Appends since the last fsync (for `sync_every`).
    pub(crate) since_sync: u64,
    /// Records since the last snapshot (for `snapshot_every`).
    pub(crate) since_snapshot: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const SYS: &str = "chain c periodic=100 deadline=100 { task t prio=1 wcet=10 }";

    fn put_frame(seq: u64, version: u64, name: &str) -> Vec<u8> {
        encode_put(&PutRecord {
            seq,
            version,
            kind: KIND_UNI,
            name: name.to_owned(),
            text: SYS.to_owned(),
        })
    }

    #[test]
    fn frames_round_trip_and_checksums_are_stable() {
        let record = PutRecord {
            seq: 7,
            version: 3,
            kind: KIND_UNI,
            name: "plant".to_owned(),
            text: SYS.to_owned(),
        };
        let bytes = encode_put(&record);
        let scan = scan_journal(&bytes).unwrap();
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(decode_put(&scan.payloads[0]).unwrap(), record);
        // FNV-1a 64 known vector: hash of the empty input is the
        // offset basis; of "a" the standard published value.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn torn_tail_truncates_and_interior_corruption_refuses() {
        let mut journal = put_frame(1, 1, "a");
        let second = put_frame(2, 2, "a");
        journal.extend_from_slice(&second[..second.len() / 2]);
        let scan = scan_journal(&journal).unwrap();
        assert_eq!(scan.payloads.len(), 1);
        assert_eq!(scan.valid_len, put_frame(1, 1, "a").len());

        // Flip a payload bit of a *complete* interior record: refusal.
        let mut corrupt = put_frame(1, 1, "a");
        let len = corrupt.len();
        corrupt[len - 1] ^= 0x40;
        corrupt.extend_from_slice(&put_frame(2, 2, "a"));
        let err = scan_journal(&corrupt).unwrap_err();
        assert_eq!(err.kind, PersistErrorKind::CorruptJournal);
    }

    #[test]
    fn snapshot_round_trips_and_detects_damage() {
        let entries = vec![
            ("a".to_owned(), 3, KIND_UNI, SYS.to_owned()),
            ("b".to_owned(), 1, KIND_UNI, SYS.to_owned()),
        ];
        let bytes = encode_snapshot(9, &entries);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert_eq!(decoded.last_seq, 9);
        assert_eq!(decoded.entries, entries);

        for flip in [0usize, 8, 12, bytes.len() - 1] {
            let mut damaged = bytes.clone();
            damaged[flip] ^= 0x01;
            let err = decode_snapshot(&damaged).unwrap_err();
            assert_eq!(err.kind, PersistErrorKind::CorruptSnapshot);
        }
    }

    #[test]
    fn recover_handles_empty_and_zero_length_state() {
        let io = MemIo::new();
        let recovered = recover(&io).unwrap();
        assert!(recovered.entries.is_empty());
        assert_eq!(recovered.last_seq, 0);
        assert_eq!(recovered.report, RecoveryReport::default());

        // A zero-length journal file (created, nothing written yet).
        let io = MemIo::from_state(HashMap::from([(JOURNAL_FILE.to_owned(), Vec::new())]));
        let recovered = recover(&io).unwrap();
        assert!(recovered.entries.is_empty());
        assert!(recovered.repaired_journal.is_none());
    }

    #[test]
    fn recover_replays_in_order_and_skips_snapshot_covered_records() {
        // Snapshot says `a` is at version 2 as of seq 2; the journal
        // still holds seqs 1..=3 (reset raced), so 1 and 2 skip and 3
        // replays.
        let snapshot = encode_snapshot(2, &[("a".to_owned(), 2, KIND_UNI, SYS.to_owned())]);
        let mut journal = Vec::new();
        journal.extend_from_slice(&put_frame(1, 1, "a"));
        journal.extend_from_slice(&put_frame(2, 2, "a"));
        journal.extend_from_slice(&put_frame(3, 3, "a"));
        let io = MemIo::from_state(HashMap::from([
            (SNAPSHOT_FILE.to_owned(), snapshot),
            (JOURNAL_FILE.to_owned(), journal),
        ]));
        let recovered = recover(&io).unwrap();
        assert_eq!(recovered.entries["a"].0, 3);
        assert_eq!(recovered.last_seq, 3);
        assert_eq!(recovered.report.replayed, 1);
        assert_eq!(recovered.report.skipped, 2);
        assert!(recovered.report.snapshot_loaded);
    }

    #[test]
    fn recover_refuses_version_gaps() {
        let mut journal = Vec::new();
        journal.extend_from_slice(&put_frame(1, 1, "a"));
        journal.extend_from_slice(&put_frame(2, 3, "a")); // lost version 2
        let io = MemIo::from_state(HashMap::from([(JOURNAL_FILE.to_owned(), journal)]));
        let err = recover(&io).unwrap_err();
        assert_eq!(err.kind, PersistErrorKind::CorruptJournal);
        assert!(err.message.contains("version gap"), "{}", err.message);
    }

    #[test]
    fn crash_states_cover_boundaries_and_torn_prefixes() {
        let io = MemIo::new();
        io.append(JOURNAL_FILE, &put_frame(1, 1, "a")).unwrap();
        io.sync(JOURNAL_FILE).unwrap();
        io.replace(SNAPSHOT_FILE, &encode_snapshot(1, &[])).unwrap();
        let ops = io.ops();
        assert_eq!(ops.len(), 3);
        let states = crash_states(&ops);
        // 1 initial + 3 torn cuts + 3 boundaries (sync adds no torn).
        assert_eq!(states.len(), 7);
        // The final state equals the live disk.
        assert_eq!(states.last().unwrap().2, io.state());
        // Every torn journal state recovers by truncation, silently.
        for (desc, _, state) in &states {
            let recovered = recover(&MemIo::from_state(state.clone()))
                .unwrap_or_else(|e| panic!("state `{desc}` failed recovery: {e}"));
            assert!(recovered.report.replayed <= 1, "state `{desc}`");
        }
    }

    #[test]
    fn fail_after_kills_mutations_but_not_reads() {
        let io = MemIo::new();
        io.fail_after(1);
        io.append(JOURNAL_FILE, b"ok").unwrap();
        let err = io.append(JOURNAL_FILE, b"dead").unwrap_err();
        assert_eq!(err.kind, PersistErrorKind::Io);
        assert_eq!(io.read(JOURNAL_FILE).unwrap().unwrap(), b"ok");
    }

    #[test]
    fn dir_io_appends_syncs_and_replaces_atomically() {
        let dir = std::env::temp_dir().join(format!("twca-persist-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let io = DirIo::open(&dir).unwrap();
        io.append("j", b"one").unwrap();
        io.append("j", b"two").unwrap();
        io.sync("j").unwrap();
        assert_eq!(io.read("j").unwrap().unwrap(), b"onetwo");
        io.replace("j", b"fresh").unwrap();
        assert_eq!(io.read("j").unwrap().unwrap(), b"fresh");
        // The cached append handle was invalidated by the replace:
        // later appends extend the *new* inode.
        io.append("j", b"+tail").unwrap();
        assert_eq!(io.read("j").unwrap().unwrap(), b"fresh+tail");
        assert_eq!(io.read("missing").unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
