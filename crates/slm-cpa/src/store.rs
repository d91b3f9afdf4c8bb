//! Campaign storage: the durable layer under the streaming campaign
//! engine.
//!
//! The paper's host script "transmit\[s\], receiv\[es\] and stor\[es\]
//! traces" so a campaign can be analysed after capture. Here a campaign
//! is stored as its accumulator state rather than its raw traces: the
//! binned CPA statistics are all the attack evaluates, and they stay
//! the same size however many traces are absorbed.
//!
//! [`write_checkpoint`] / [`read_checkpoint`] serialize one
//! [`CpaCheckpoint`], so a capture campaign can persist its streaming
//! accumulator and resume after a crash without replaying every trace.
//! [`StreamCheckpoint`] holds the full state of a streaming campaign at
//! a window boundary, and [`CheckpointLedger`] is an atomic,
//! generation-numbered on-disk store with graceful fallback.
//!
//! # On-disk layouts
//!
//! Every format is encoded and decoded with the sealed-record codec
//! [`slm_par::codec`]: little-endian fields behind a `magic + u16
//! version` header, each format ending with a Fletcher-64 integrity
//! seal over everything before it (the progress log seals each record
//! instead). Every read is bounds-checked, so a corrupt or forged
//! length fails as `InvalidData` naming its section and byte offset,
//! never as a panic or an allocation the bytes cannot back.
//!
//! **Accumulator checkpoint** (`"SLMC"`, version 1):
//!
//! ```text
//! offset  size            field
//! 0       4               magic "SLMC"
//! 4       2               version (u16)
//! 6       2               points per trace (u16)
//! 8       1               model ct_byte (u8)
//! 9      1                model bit (u8)
//! 10      8               traces absorbed (u64)
//! 18      256×8           bin_count (u64 per ciphertext-byte value)
//! +       256×points×8    bin_sum (whole-number f64 ≤ 2^53, bin-major)
//! +       points×8        sum_sq (whole-number f64 ≤ 2^53)
//! +       8               fletcher-64 seal
//! ```
//!
//! **Streaming campaign checkpoint** (`"SLMS"`, version
//! 2): everything a streaming campaign
//! needs to resume — exact-once window accounting, nested accumulator
//! checkpoints, and a pointer into the campaign's progress log:
//!
//! ```text
//! offset  size   field
//! 0       4      magic "SLMS"
//! 4       2      version (u16) = 2
//! 6       8      campaign fingerprint (u64; resume refuses a mismatch)
//! 14      8      windows committed (u64)
//! 22      8      traces committed (u64)
//! 30      8      progress-log records in the committed prefix (u64)
//! 38      8      chained seal of the prefix's last record (u64)
//! 46      2      accumulator slots (u16)
//! 48      …      per slot: u64 nested length | nested "SLMC" checkpoint
//! +       8      fletcher-64 seal
//! ```
//!
//! Version 1 carried every slot's whole progress curve inline, so each
//! generation grew with the commit index. Version 2 keeps a generation
//! the same size for the whole campaign and moves the curves to the
//! progress log below. A version-1 ledger is refused by the version
//! check; there is no migration.
//!
//! **Progress log** (`progress.slmp` in the ledger directory, `"SLMP"`,
//! version 1): an append-only journal of the
//! progress points, one record per commit:
//!
//! ```text
//! offset  size   field
//! 0       4      magic "SLMP"
//! 4       2      version (u16)
//! 6       …      records, each:
//!                  u32 body length
//!                  body: u16 slots, then per slot:
//!                    u64 traces | u16 candidates | candidates × f64 peak |r|
//!                  u64 chained seal = fletcher-64(previous seal | length | body)
//! ```
//!
//! The first record chains from the campaign fingerprint. Each record
//! verifies on its own against its predecessor's seal, and the last
//! seal of a prefix verifies the whole prefix, which is what an `SLMS`
//! generation stores. Bytes past a generation's prefix are records of
//! a commit that never completed, or a torn append; resume truncates
//! them ([`ProgressLog::resume`]).
//!
//! A reader that encounters a *newer* version than it supports reports
//! an incompatibility (never corruption, never a silent partial load):
//! the version field is validated before the seal so the error names
//! the format mismatch rather than a checksum failure.
//!
//! # The generation ledger
//!
//! [`CheckpointLedger`] stores successive checkpoint payloads as
//! `gen-<n>.slmc` files in one directory. A commit is atomic:
//! write-to-temp, `sync_all`, rename into place, then `sync_all` on the
//! directory so the rename survives power loss — a process killed at
//! any point leaves either the previous generation set intact or the
//! new generation fully present (a stale `.tmp` from a mid-commit
//! crash is swept on open and ignored by readers). Loading walks
//! generations newest-first and falls back past torn or corrupt files
//! to the newest generation that parses, reporting what it skipped so
//! callers can count recoveries — a corrupt *latest* checkpoint
//! degrades the campaign by at most one commit interval, never to a
//! silently wrong state. The streaming engine's parse step also
//! replays the generation's progress-log prefix, so a corrupt log
//! record falls back the same way.

use crate::attack::CpaCheckpoint;
use crate::mtd::ProgressPoint;
use crate::LastRoundModel;
use slm_par::codec::{DecodeError, Fletcher64, Reader, Writer};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Current checkpoint format version.
const CHECKPOINT_VERSION: u16 = 1;

/// Current streaming-campaign checkpoint format version.
const STREAM_CHECKPOINT_VERSION: u16 = 2;

/// Current progress-log format version.
const PROGRESS_LOG_VERSION: u16 = 1;

/// File name of the progress log inside a ledger directory.
pub const PROGRESS_LOG_FILE: &str = "progress.slmp";

const CHECKPOINT_MAGIC: [u8; 4] = *b"SLMC";

const STREAM_MAGIC: [u8; 4] = *b"SLMS";

const LOG_MAGIC: [u8; 4] = *b"SLMP";

/// The largest accumulator sum the checkpoint stores: `2^53`, the end
/// of the range where `f64` holds every whole number exactly.
const MAX_STORED_SUM: u64 = 1 << 53;

/// `n` as a format field of type `T`; `InvalidInput` when the field is
/// too narrow to hold it.
fn field<T: TryFrom<usize>>(n: usize, what: &str) -> io::Result<T> {
    T::try_from(n).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{n} {what} exceed the format limit"),
        )
    })
}

/// Reads a whole stream and decodes it.
fn read_all<T>(
    mut source: impl Read,
    decode: fn(&[u8]) -> Result<T, DecodeError>,
) -> io::Result<T> {
    let mut data = Vec::new();
    source.read_to_end(&mut data)?;
    Ok(decode(&data)?)
}

/// Serializes a [`CpaCheckpoint`] with a Fletcher-64 integrity seal.
///
/// # Errors
///
/// `InvalidInput` if the point count exceeds the format's `u16` field
/// or a sum exceeds `2^53`; otherwise propagates I/O errors.
pub fn write_checkpoint<W: Write>(mut sink: W, cp: &CpaCheckpoint) -> io::Result<()> {
    sink.write_all(&encode_checkpoint(cp)?)
}

fn encode_checkpoint(cp: &CpaCheckpoint) -> io::Result<Vec<u8>> {
    let mut w = Writer::header(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
    w.u16(field(cp.points, "points")?)
        .u8(cp.model.ct_byte as u8)
        .u8(cp.model.bit)
        .u64(cp.traces);
    for &c in &cp.bin_count {
        w.u64(c);
    }
    write_sums(&mut w, &cp.bin_sum, "bin_sum")?;
    write_sums(&mut w, &cp.sum_sq, "sum_sq")?;
    Ok(w.seal())
}

/// Appends accumulator sums, each as the `f64` of the same whole number.
fn write_sums(w: &mut Writer, sums: &[u64], what: &str) -> io::Result<()> {
    if let Some(s) = sums.iter().find(|&&s| s > MAX_STORED_SUM) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{what} {s} exceeds 2^53, past which an f64 is not exact"),
        ));
    }
    w.f64s(&sums.iter().map(|&s| s as f64).collect::<Vec<_>>());
    Ok(())
}

/// Sums read back from [`write_sums`] output that starts at byte `at`;
/// each must be a whole number in `[0, 2^53]`.
fn whole_sums(values: Vec<f64>, section: &'static str, at: usize) -> Result<Vec<u64>, DecodeError> {
    let whole = |x: f64| x.fract() == 0.0 && (0.0..=MAX_STORED_SUM as f64).contains(&x);
    match values.iter().position(|&x| !whole(x)) {
        Some(i) => Err(DecodeError::new(
            section,
            at + 8 * i,
            format!("{} is not a whole number in [0, 2^53]", values[i]),
        )),
        None => Ok(values.into_iter().map(|x| x as u64).collect()),
    }
}

/// Reads a checkpoint written by [`write_checkpoint`], validating the
/// integrity seal and the accumulator geometry.
///
/// The version field is checked *before* the integrity seal, so a
/// checkpoint written by a newer build fails with a version
/// incompatibility, not a misleading checksum error.
///
/// # Errors
///
/// `InvalidData` on bad magic, version, truncation, checksum mismatch,
/// a sum that is not a whole number in `[0, 2^53]`, or an accumulator
/// [`crate::CpaAttack::resume`] would refuse. The error message names
/// the failing section and byte offset.
pub fn read_checkpoint<R: Read>(source: R) -> io::Result<CpaCheckpoint> {
    read_all(source, decode_checkpoint)
}

fn decode_checkpoint(data: &[u8]) -> Result<CpaCheckpoint, DecodeError> {
    let mut r = Reader::open(data, &CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")?;
    let points = usize::from(r.u16("header")?);
    let model = LastRoundModel {
        ct_byte: usize::from(r.u8("header")?),
        bit: r.u8("header")?,
    };
    let traces = r.u64("header")?;
    let bin_count = r.u64s(256, "bin_count")?;
    let bin_sum_at = r.offset();
    let bin_sum = r.f64s(256 * points, "bin_sum")?;
    let sum_sq_at = r.offset();
    let sum_sq = r.f64s(points, "sum_sq")?;
    r.seal()?;
    let cp = CpaCheckpoint {
        model,
        points,
        bin_count,
        bin_sum: whole_sums(bin_sum, "bin_sum", bin_sum_at)?,
        sum_sq: whole_sums(sum_sq, "sum_sq", sum_sq_at)?,
        traces,
    };
    cp.check()
        .map_err(|detail| DecodeError::new("accumulator", 8, detail))?;
    Ok(cp)
}

/// Durable state of a streaming campaign at a committed window
/// boundary: exact-once window accounting, one nested
/// [`CpaCheckpoint`] per accumulator slot, and the committed prefix of
/// the campaign's [`ProgressLog`] (record count and chained seal).
///
/// The `fingerprint` binds the checkpoint to the campaign parameters
/// that determine the capture stream (circuit, sensor source, seed,
/// window size, commit cadence); a resume under different parameters
/// must be refused rather than silently merged.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCheckpoint {
    /// Campaign-parameter fingerprint (see the streaming engine).
    pub fingerprint: u64,
    /// Windows fully captured, folded and committed.
    pub windows: u64,
    /// Traces those windows contributed.
    pub traces: u64,
    /// Progress-log records this generation commits (one per commit).
    pub log_records: u64,
    /// Chained seal of the last of those records.
    pub log_seal: u64,
    /// One accumulator checkpoint per attack slot.
    pub slots: Vec<CpaCheckpoint>,
}

impl StreamCheckpoint {
    /// Internal consistency: every slot accumulator must have absorbed
    /// exactly the committed trace count.
    fn validate(&self) -> Result<(), DecodeError> {
        if self.slots.is_empty() {
            return Err(DecodeError::new("slots", 46, "zero accumulator slots"));
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.traces != self.traces {
                return Err(DecodeError::new(
                    "accumulators",
                    48,
                    format!(
                        "slot {i} absorbed {} traces, ledger says {} committed",
                        slot.traces, self.traces
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Serializes a [`StreamCheckpoint`] with a Fletcher-64 integrity seal
/// (layout in the module docs).
///
/// # Errors
///
/// `InvalidInput` when the slot count exceeds its format width;
/// otherwise propagates I/O errors.
pub fn write_stream_checkpoint<W: Write>(mut sink: W, cp: &StreamCheckpoint) -> io::Result<()> {
    let mut w = Writer::header(&STREAM_MAGIC, STREAM_CHECKPOINT_VERSION);
    w.u64(cp.fingerprint)
        .u64(cp.windows)
        .u64(cp.traces)
        .u64(cp.log_records)
        .u64(cp.log_seal)
        .u16(field(cp.slots.len(), "slots")?);
    for slot in &cp.slots {
        let nested = encode_checkpoint(slot)?;
        w.u64(nested.len() as u64).bytes(&nested);
    }
    sink.write_all(&w.seal())
}

/// Reads a [`StreamCheckpoint`] written by [`write_stream_checkpoint`],
/// validating the outer seal, every nested accumulator seal, and the
/// cross-slot accounting.
///
/// # Errors
///
/// `InvalidData` on any structural problem; messages name the failing
/// section and byte offset. A newer `version` is reported as an
/// incompatibility before the seal is checked.
pub fn read_stream_checkpoint<R: Read>(source: R) -> io::Result<StreamCheckpoint> {
    read_all(source, decode_stream_checkpoint)
}

fn decode_stream_checkpoint(data: &[u8]) -> Result<StreamCheckpoint, DecodeError> {
    let mut r = Reader::open(
        data,
        &STREAM_MAGIC,
        STREAM_CHECKPOINT_VERSION,
        "stream checkpoint",
    )?;
    let fingerprint = r.u64("fingerprint")?;
    let windows = r.u64("windows")?;
    let traces = r.u64("traces")?;
    let log_records = r.u64("log_records")?;
    let log_seal = r.u64("log_seal")?;
    let slots = r.u16("slots")?;
    let mut slot_cps = Vec::new();
    for slot in 0..slots {
        let len = r.u64("accumulators")?;
        let start = r.offset();
        let nested = r.take(usize::try_from(len).unwrap_or(usize::MAX), "accumulators")?;
        let cp = decode_checkpoint(nested).map_err(|e| {
            DecodeError::new("accumulators", start, format!("nested slot {slot}: {e}"))
        })?;
        slot_cps.push(cp);
    }
    r.seal()?;
    let cp = StreamCheckpoint {
        fingerprint,
        windows,
        traces,
        log_records,
        log_seal,
        slots: slot_cps,
    };
    cp.validate()?;
    Ok(cp)
}

/// Syncs a directory, so the entries created, renamed or removed in it
/// survive power loss.
fn sync_dir(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// The verified prefix of a [`ProgressLog`]: the progress curves it
/// replays and where it ends. Produced by [`replay_progress_log`] (or
/// [`LogPrefix::empty`] for a fresh campaign) and consumed by
/// [`ProgressLog::resume`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogPrefix {
    /// Per-slot progress curves, one point per record.
    pub progress: Vec<Vec<ProgressPoint>>,
    /// Records in the prefix.
    pub records: u64,
    /// Chained seal of the last record (the chain seed when empty).
    pub seal: u64,
    /// Byte length of the prefix; 0 when not even the header is kept.
    end: u64,
}

impl LogPrefix {
    /// The prefix of a campaign that has committed nothing: `slots`
    /// empty curves, and a chain that starts at `seed`.
    pub fn empty(slots: usize, seed: u64) -> Self {
        LogPrefix {
            progress: vec![Vec::new(); slots],
            records: 0,
            seal: seed,
            end: 0,
        }
    }
}

/// Chained seal of one progress-log record.
fn record_seal(prev: u64, len_and_body: &[u8]) -> u64 {
    let mut sum = Fletcher64::default();
    sum.update(&prev.to_le_bytes());
    sum.update(len_and_body);
    sum.finish()
}

/// Reads the progress log of the ledger in `dir`; a missing log reads
/// as empty.
///
/// # Errors
///
/// Propagates read failures other than `NotFound`.
pub fn read_progress_log(dir: &Path) -> io::Result<Vec<u8>> {
    match std::fs::read(dir.join(PROGRESS_LOG_FILE)) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        other => other,
    }
}

/// Replays the first `records` records of a progress log (`data`, as
/// read by [`read_progress_log`]), verifying every record's chained
/// seal from `seed` and the prefix's last seal against `seal`. Bytes
/// past the prefix are ignored.
///
/// # Errors
///
/// `InvalidData` when the prefix is short, a record is malformed or
/// fails its seal, a record's slot count is not `slots`, or the chain
/// does not end at `seal`; messages name the record and byte offset.
pub fn replay_progress_log(
    data: &[u8],
    slots: usize,
    records: u64,
    seed: u64,
    seal: u64,
) -> io::Result<LogPrefix> {
    replay_records(data, slots, records, seed, seal)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("progress log {e}")))
}

fn replay_records(
    data: &[u8],
    slots: usize,
    records: u64,
    seed: u64,
    seal: u64,
) -> Result<LogPrefix, DecodeError> {
    let mut prefix = LogPrefix::empty(slots, seed);
    if records > 0 {
        let mut r = Reader::open(data, &LOG_MAGIC, PROGRESS_LOG_VERSION, "progress log")?;
        for record in 0..records {
            let start = r.offset();
            let len = r.u32("record")?;
            let body = r.take(len as usize, "record")?;
            let computed = record_seal(prefix.seal, &data[start..r.offset()]);
            let stored = r.u64("record")?;
            if computed != stored {
                return Err(DecodeError::new(
                    "record",
                    start,
                    format!(
                        "record {record} seal mismatch: stored {stored:#018x}, computed \
                         {computed:#018x}"
                    ),
                ));
            }
            decode_log_body(body, &mut prefix.progress)
                .map_err(|e| DecodeError::new("record", start, format!("record {record}: {e}")))?;
            prefix.seal = stored;
        }
        prefix.end = r.offset() as u64;
    }
    if prefix.seal != seal {
        return Err(DecodeError::new(
            "record",
            prefix.end as usize,
            format!(
                "prefix of {records} records ends at seal {:#018x}, the generation \
                 committed {seal:#018x}",
                prefix.seal
            ),
        ));
    }
    prefix.records = records;
    Ok(prefix)
}

/// Appends one record body's per-slot points to `progress`.
fn decode_log_body(body: &[u8], progress: &mut [Vec<ProgressPoint>]) -> Result<(), DecodeError> {
    let mut r = Reader::new(body);
    let slots = usize::from(r.u16("slots")?);
    if slots != progress.len() {
        return Err(DecodeError::new(
            "slots",
            0,
            format!("{slots} slots, the checkpoint has {}", progress.len()),
        ));
    }
    for curve in progress.iter_mut() {
        let traces = r.u64("points")?;
        let candidates = usize::from(r.u16("points")?);
        let peak_corr = r.f64s(candidates, "points")?;
        curve.push(ProgressPoint { traces, peak_corr });
    }
    r.end("points")
}
/// The append-only progress log of a streaming campaign (layout in the
/// module docs), open for appending after a verified prefix.
#[derive(Debug)]
pub struct ProgressLog {
    file: std::fs::File,
    records: u64,
    seal: u64,
}

impl ProgressLog {
    /// Opens the log in `dir` positioned after `prefix`: bytes past the
    /// prefix (records of an uncommitted or torn append) are truncated,
    /// and an empty prefix gets a fresh header. A new file's directory
    /// entry is synced before this returns.
    ///
    /// The file itself is not synced here: the next
    /// [`ProgressLog::append`] syncs the header with its record, and a
    /// truncation lost to power loss only brings back bytes past the
    /// prefix, which the next resume truncates again.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn resume(dir: &Path, prefix: &LogPrefix) -> io::Result<Self> {
        use std::io::{Seek, SeekFrom};
        let path = dir.join(PROGRESS_LOG_FILE);
        let created = !path.exists();
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        file.set_len(prefix.end)?;
        file.seek(SeekFrom::Start(prefix.end))?;
        if prefix.end == 0 {
            file.write_all(Writer::header(&LOG_MAGIC, PROGRESS_LOG_VERSION).as_bytes())?;
        }
        if created {
            sync_dir(dir)?;
        }
        Ok(ProgressLog {
            file,
            records: prefix.records,
            seal: prefix.seal,
        })
    }

    /// Records appended so far, the resumed prefix included.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Chained seal of the last record appended.
    pub fn seal(&self) -> u64 {
        self.seal
    }

    /// Encodes one commit's progress points (one per slot) as the next
    /// record, chained on the current seal. Nothing is written until
    /// [`ProgressLog::append`].
    ///
    /// # Errors
    ///
    /// `InvalidInput` when a count exceeds its format width.
    pub fn encode(&self, points: &[ProgressPoint]) -> io::Result<LogRecord> {
        let mut body = Writer::default();
        body.u16(field(points.len(), "slots")?);
        for point in points {
            body.u64(point.traces)
                .u16(field(point.peak_corr.len(), "candidates")?)
                .f64s(&point.peak_corr);
        }
        let mut rec = Writer::default();
        rec.u32(field(body.as_bytes().len(), "bytes")?)
            .bytes(body.as_bytes());
        let seal = record_seal(self.seal, rec.as_bytes());
        rec.u64(seal);
        let rec = rec.into_bytes();
        Ok(LogRecord { bytes: rec, seal })
    }

    /// Appends a record made by [`ProgressLog::encode`] and syncs the
    /// file's data, so the record is durable before the generation that
    /// commits it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append(&mut self, record: &LogRecord) -> io::Result<()> {
        self.file.write_all(&record.bytes)?;
        self.file.sync_data()?;
        self.seal = record.seal;
        self.records += 1;
        Ok(())
    }
}

/// One encoded progress-log record, ready for [`ProgressLog::append`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// The record's on-disk bytes.
    pub bytes: Vec<u8>,
    seal: u64,
}

/// Newest loadable generation recovered from a [`CheckpointLedger`],
/// with the newer generations that had to be skipped to reach it.
#[derive(Debug)]
pub struct LedgerRecovery<T> {
    /// The generation number that loaded.
    pub generation: u64,
    /// Its parsed payload.
    pub state: T,
    /// Newer generations that failed to load, newest first, with the
    /// reason each was skipped. Non-empty means the campaign degraded
    /// gracefully to an older commit.
    pub skipped: Vec<(u64, String)>,
}

/// Generations kept on disk after a commit. More than one so that a
/// torn or corrupted newest generation still leaves good fallbacks.
const LEDGER_KEEP: usize = 4;

/// An atomic, generation-numbered checkpoint store in one directory.
///
/// Payloads are opaque bytes (the streaming engine stores sealed
/// [`StreamCheckpoint`]s). Durability and recovery semantics are
/// described in the module docs.
#[derive(Debug, Clone)]
pub struct CheckpointLedger {
    dir: PathBuf,
}

impl CheckpointLedger {
    /// Opens (creating if needed) the ledger directory and sweeps any
    /// stale `.tmp` files left by a crash mid-commit.
    ///
    /// # Errors
    ///
    /// Propagates directory creation / listing failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok(CheckpointLedger { dir })
    }

    /// The ledger directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk path of generation `generation`.
    fn generation_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:016}.slmc"))
    }

    /// Generation numbers currently on disk, ascending.
    ///
    /// # Errors
    ///
    /// Propagates directory listing failures.
    fn generations(&self) -> io::Result<Vec<u64>> {
        let mut gens = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(num) = name
                .strip_prefix("gen-")
                .and_then(|rest| rest.strip_suffix(".slmc"))
            {
                if let Ok(g) = num.parse::<u64>() {
                    gens.push(g);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Commits a payload as the next generation: write-to-temp,
    /// `sync_all`, atomic rename, `sync_all` on the directory, then
    /// prune all but the newest `LEDGER_KEEP` (4) generations. Returns the
    /// new generation number.
    ///
    /// The directory sync makes the rename durable before the prune
    /// removes anything. The prune itself becomes durable with the next
    /// commit's directory sync; losing it to power loss only leaves an
    /// older generation behind, which loading ignores while a newer one
    /// parses.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on failure before the rename the
    /// previous generation set is untouched.
    pub fn commit(&self, payload: &[u8]) -> io::Result<u64> {
        let next = self.generations()?.last().map_or(1, |g| g + 1);
        let tmp = self.dir.join(format!("gen-{next:016}.tmp"));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(payload)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, self.generation_path(next))?;
        sync_dir(&self.dir)?;
        let gens = self.generations()?;
        if gens.len() > LEDGER_KEEP {
            for &g in &gens[..gens.len() - LEDGER_KEEP] {
                let _ = std::fs::remove_file(self.generation_path(g));
            }
        }
        Ok(next)
    }

    /// Loads the newest generation whose payload `parse` accepts,
    /// skipping (and reporting) newer torn or corrupt generations.
    ///
    /// Returns `Ok(None)` only for a genuinely empty ledger. If
    /// generations exist but none load, that is an error — restarting a
    /// campaign from scratch because every checkpoint was unreadable
    /// must be an explicit operator decision, never a silent default.
    ///
    /// # Errors
    ///
    /// Propagates directory listing failures; `InvalidData` when all
    /// present generations fail to parse.
    pub fn load_latest<T>(
        &self,
        parse: impl Fn(&[u8]) -> io::Result<T>,
    ) -> io::Result<Option<LedgerRecovery<T>>> {
        let gens = self.generations()?;
        let mut skipped = Vec::new();
        for &g in gens.iter().rev() {
            match std::fs::read(self.generation_path(g)).and_then(|bytes| parse(&bytes)) {
                Ok(state) => {
                    return Ok(Some(LedgerRecovery {
                        generation: g,
                        state,
                        skipped,
                    }))
                }
                Err(e) => skipped.push((g, e.to_string())),
            }
        }
        if skipped.is_empty() {
            Ok(None)
        } else {
            let detail: Vec<String> = skipped
                .iter()
                .map(|(g, e)| format!("gen {g}: {e}"))
                .collect();
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "no loadable checkpoint generation in {} ({})",
                    self.dir.display(),
                    detail.join("; ")
                ),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpaAttack, LastRoundModel};
    use proptest::prelude::*;
    use slm_aes::soft;
    use slm_pdn::noise::Rng64;

    #[test]
    fn checkpoint_roundtrips_through_bytes() {
        let key = [3u8; 16];
        let model = LastRoundModel::paper_target();
        let mut rng = Rng64::new(21);
        let mut attack = CpaAttack::new(model, 3);
        for _ in 0..500 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let ct = soft::encrypt(&key, &pt);
            let counts = [rng.below(64), rng.below(1 << 16), rng.below(2)];
            attack.add_trace(&ct, &counts.map(|x| x as f64));
        }
        let cp = attack.checkpoint();
        let mut bytes = Vec::new();
        write_checkpoint(&mut bytes, &cp).unwrap();
        let back = read_checkpoint(&bytes[..]).unwrap();
        assert_eq!(back, cp);
        let resumed = CpaAttack::resume(back).unwrap();
        assert_eq!(resumed, attack);
        assert_eq!(resumed.correlations(), attack.correlations());
    }

    #[test]
    fn checkpoint_corruption_detected() {
        let attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
        let mut bytes = Vec::new();
        write_checkpoint(&mut bytes, &attack.checkpoint()).unwrap();
        for pos in [0usize, 5, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                read_checkpoint(&bad[..]).is_err(),
                "corruption at byte {pos} undetected"
            );
        }
        assert!(read_checkpoint(&bytes[..bytes.len() - 3]).is_err());
        assert!(read_checkpoint(&b"SLMC"[..]).is_err());
    }

    #[test]
    fn checkpoint_sums_are_whole_numbers_counts_can_reach() {
        let mut attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
        attack.add_trace(&[4; 16], &[9.0, 65_535.0]);
        let encode = |edit: fn(&mut CpaCheckpoint)| {
            let mut cp = attack.checkpoint();
            edit(&mut cp);
            let mut bytes = Vec::new();
            write_checkpoint(&mut bytes, &cp).map(|()| bytes)
        };
        // A sum past 2^53 has no exact f64, so it is refused on write.
        let err = encode(|cp| cp.sum_sq[1] = (1 << 53) + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        // An empty bin with a non-zero sum is refused on read.
        let bytes = encode(|cp| cp.bin_sum[2 * 5] = 3).unwrap();
        let err = read_checkpoint(&bytes[..]).unwrap_err().to_string();
        assert!(err.contains("bin 5 point 0"), "{err}");
        // So is a stored sum that is not a whole number, even resealed.
        let mut bytes = encode(|_| ()).unwrap();
        let at = 18 + 256 * 8 + (4 * 2 + 1) * 8;
        assert_eq!(bytes[at..at + 8], 65_535f64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&65_534.5f64.to_le_bytes());
        reseal(&mut bytes);
        let err = read_checkpoint(&bytes[..]).unwrap_err().to_string();
        assert!(err.contains(&format!("`bin_sum` at byte {at}")), "{err}");
    }

    /// Recomputes the trailing Fletcher-64 seal after a deliberate
    /// header edit, so tests can prove which check fires first.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let mut sum = Fletcher64::default();
        sum.update(&bytes[..body]);
        let digest = sum.finish().to_le_bytes();
        bytes[body..].copy_from_slice(&digest);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("slm-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_stream_checkpoint(points: usize) -> StreamCheckpoint {
        let key = [9u8; 16];
        let model = LastRoundModel::paper_target();
        let mut rng = Rng64::new(5);
        let mut attack = CpaAttack::new(model, points);
        for _ in 0..300 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let ct = soft::encrypt(&key, &pt);
            let samples: Vec<f64> = (0..points).map(|_| rng.below(64) as f64).collect();
            attack.add_trace(&ct, &samples);
        }
        StreamCheckpoint {
            fingerprint: 0xfeed_f00d,
            windows: 2,
            traces: 300,
            log_records: 2,
            log_seal: 0x5ea1_5ea1,
            slots: vec![attack.checkpoint()],
        }
    }

    /// One commit's progress points for `slots` slots.
    fn sample_points(slots: usize, commit: u64) -> Vec<ProgressPoint> {
        (0..slots)
            .map(|s| ProgressPoint {
                traces: 100 * (commit + 1),
                peak_corr: (0..256)
                    .map(|k| (k as f64 + s as f64) / (256.0 + commit as f64))
                    .collect(),
            })
            .collect()
    }

    /// A fresh progress log in `dir` with `records` commits appended;
    /// returns the chained seal after each record.
    fn sample_log(dir: &Path, slots: usize, records: u64, seed: u64) -> Vec<u64> {
        std::fs::create_dir_all(dir).unwrap();
        let mut log = ProgressLog::resume(dir, &LogPrefix::empty(slots, seed)).unwrap();
        (0..records)
            .map(|c| {
                let rec = log.encode(&sample_points(slots, c)).unwrap();
                log.append(&rec).unwrap();
                log.seal()
            })
            .collect()
    }

    #[test]
    fn checkpoint_errors_name_section_and_offset() {
        let attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
        let mut bytes = Vec::new();
        write_checkpoint(&mut bytes, &attack.checkpoint()).unwrap();

        let err = read_checkpoint(&bytes[..10]).unwrap_err().to_string();
        assert!(err.contains("header") && err.contains("byte 10"), "{err}");

        let mut bad = bytes.clone();
        bad[0] = b'X';
        let err = read_checkpoint(&bad[..]).unwrap_err().to_string();
        assert!(err.contains("magic") && err.contains("byte 0"), "{err}");

        // Truncation inside a named section reports that section.
        let err = read_checkpoint(&bytes[..20]).unwrap_err().to_string();
        assert!(err.contains("bin_count"), "{err}");
        let err = read_checkpoint(&bytes[..bytes.len() - 9])
            .unwrap_err()
            .to_string();
        assert!(err.contains("seal") || err.contains("sum_sq"), "{err}");

        // A flipped payload byte reports the seal with both digests.
        let mut bad = bytes.clone();
        bad[100] ^= 0x10;
        let err = read_checkpoint(&bad[..]).unwrap_err().to_string();
        assert!(err.contains("seal") && err.contains("stored"), "{err}");
    }

    #[test]
    fn future_checkpoint_version_rejected_with_clear_error() {
        // A checkpoint stamped by a newer build must fail as a version
        // incompatibility — even with a perfectly valid seal — so the
        // operator learns to upgrade rather than chasing "corruption".
        let attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
        let mut bytes = Vec::new();
        write_checkpoint(&mut bytes, &attack.checkpoint()).unwrap();
        bytes[4..6].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        reseal(&mut bytes);
        let err = read_checkpoint(&bytes[..]).unwrap_err().to_string();
        assert!(
            err.contains("version") && err.contains("not supported"),
            "{err}"
        );
        assert!(
            !err.contains("checksum"),
            "must not misreport as corruption: {err}"
        );

        // Same contract for the streaming format, which also refuses
        // the older version-1 layout that kept progress curves inline.
        for version in [1, STREAM_CHECKPOINT_VERSION + 1] {
            let mut bytes = Vec::new();
            write_stream_checkpoint(&mut bytes, &sample_stream_checkpoint(2)).unwrap();
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            reseal(&mut bytes);
            let err = read_stream_checkpoint(&bytes[..]).unwrap_err().to_string();
            assert!(
                err.contains(&format!("version {version} is not supported")),
                "{err}"
            );
        }
    }

    #[test]
    fn progress_log_replays_any_committed_prefix() {
        let dir = scratch_dir("log-prefix");
        let seals = sample_log(&dir, 2, 3, 0xabc);
        let data = read_progress_log(&dir).unwrap();
        for records in 1..=3u64 {
            let prefix =
                replay_progress_log(&data, 2, records, 0xabc, seals[records as usize - 1]).unwrap();
            assert_eq!(prefix.records, records);
            for (slot, curve) in prefix.progress.iter().enumerate() {
                let expect: Vec<_> = (0..records)
                    .map(|c| sample_points(2, c)[slot].clone())
                    .collect();
                assert_eq!(curve, &expect);
            }
        }
        // A wrong seed, a wrong final seal or a wrong slot count is
        // refused with a named diagnostic.
        for (slots, seed, seal) in [
            (2, 0xabd, seals[2]),
            (2, 0xabc, seals[1]),
            (3, 0xabc, seals[2]),
        ] {
            let err = replay_progress_log(&data, slots, 3, seed, seal).unwrap_err();
            assert!(err.to_string().contains("progress log"), "{err}");
        }
        // More records than the log holds.
        assert!(replay_progress_log(&data, 2, 4, 0xabc, seals[2]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_log_resume_truncates_past_the_prefix() {
        let dir = scratch_dir("log-truncate");
        let seals = sample_log(&dir, 1, 3, 7);
        let path = dir.join(PROGRESS_LOG_FILE);
        let full = std::fs::read(&path).unwrap();
        // Resume from the two-record prefix: the third record goes.
        let prefix = replay_progress_log(&full, 1, 2, 7, seals[1]).unwrap();
        let mut log = ProgressLog::resume(&dir, &prefix).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), prefix.end);
        // The re-appended third record is byte-identical to the old one.
        let rec = log.encode(&sample_points(1, 2)).unwrap();
        log.append(&rec).unwrap();
        assert_eq!(log.seal(), seals[2]);
        assert_eq!(std::fs::read(&path).unwrap(), full);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_checkpoint_roundtrips() {
        let cp = sample_stream_checkpoint(3);
        let mut bytes = Vec::new();
        write_stream_checkpoint(&mut bytes, &cp).unwrap();
        let back = read_stream_checkpoint(&bytes[..]).unwrap();
        assert_eq!(back, cp);
        // Fixed header, one nested accumulator with its length, seal:
        // the size does not depend on how many commits preceded it.
        let mut nested = Vec::new();
        write_checkpoint(&mut nested, &cp.slots[0]).unwrap();
        assert_eq!(bytes.len(), 48 + 8 + nested.len() + 8);
        // The nested accumulator resumes to a live attack.
        let resumed = CpaAttack::resume(back.slots[0].clone()).unwrap();
        assert_eq!(resumed.traces(), 300);
    }

    #[test]
    fn stream_checkpoint_rejects_inconsistent_accounting() {
        let mut cp = sample_stream_checkpoint(2);
        cp.traces = 299; // slot accumulator says 300
        let mut bytes = Vec::new();
        write_stream_checkpoint(&mut bytes, &cp).unwrap();
        let err = read_stream_checkpoint(&bytes[..]).unwrap_err().to_string();
        assert!(err.contains("accumulators") && err.contains("299"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any single-byte flip of a valid checkpoint must fail to
        /// load, and any truncation must fail to load — resuming from
        /// silently wrong state is the one unacceptable outcome.
        #[test]
        fn checkpoint_any_corruption_detected(pos in any::<u32>(), bit in 0u8..8, cut in any::<u32>()) {
            static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
            let bytes = BYTES.get_or_init(|| {
                let attack = CpaAttack::new(LastRoundModel::paper_target(), 3);
                let mut b = Vec::new();
                write_checkpoint(&mut b, &attack.checkpoint()).unwrap();
                b
            });
            let pos = pos as usize % bytes.len();
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            prop_assert!(
                read_checkpoint(&flipped[..]).is_err(),
                "flip of bit {bit} at byte {pos} loaded"
            );
            let cut = cut as usize % bytes.len();
            prop_assert!(
                read_checkpoint(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes loaded"
            );
        }

        /// The streaming checkpoint format upholds the same contract.
        #[test]
        fn stream_checkpoint_any_corruption_detected(pos in any::<u32>(), bit in 0u8..8, cut in any::<u32>()) {
            static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
            let bytes = BYTES.get_or_init(|| {
                let mut b = Vec::new();
                write_stream_checkpoint(&mut b, &sample_stream_checkpoint(2)).unwrap();
                b
            });
            let pos = pos as usize % bytes.len();
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            prop_assert!(
                read_stream_checkpoint(&flipped[..]).is_err(),
                "flip of bit {bit} at byte {pos} loaded"
            );
            let cut = cut as usize % bytes.len();
            prop_assert!(
                read_stream_checkpoint(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes loaded"
            );
        }

        /// A bit flip inside the committed part of a progress log never
        /// loads silently: the ledger falls back to a generation whose
        /// prefix ends before the flipped byte, or errors when none is
        /// left. Trailing garbage past the newest prefix is ignored, and
        /// resuming truncates it.
        #[test]
        fn progress_log_corruption_falls_back_or_errors(
            pos in any::<u32>(),
            bit in 0u8..8,
            garbage in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            const SEED: u64 = 0x51;
            let dir = scratch_dir(&format!("log-prop-{pos}-{bit}-{}", garbage.len()));
            let seals = sample_log(&dir, 2, 3, SEED);
            // One generation per commit, each naming its log prefix.
            let ledger = CheckpointLedger::open(&dir).unwrap();
            for (i, seal) in seals.iter().enumerate() {
                let mut payload = (i as u64 + 1).to_le_bytes().to_vec();
                payload.extend_from_slice(&seal.to_le_bytes());
                ledger.commit(&payload).unwrap();
            }
            let path = dir.join(PROGRESS_LOG_FILE);
            let clean = std::fs::read(&path).unwrap();
            let load = |data: &[u8]| {
                ledger.load_latest(|b| {
                    let records = u64::from_le_bytes(b[..8].try_into().unwrap());
                    let seal = u64::from_le_bytes(b[8..].try_into().unwrap());
                    replay_progress_log(data, 2, records, SEED, seal)
                })
            };

            let pos = pos as usize % clean.len();
            let mut flipped = clean.clone();
            flipped[pos] ^= 1 << bit;
            match load(&flipped) {
                Ok(Some(rec)) => {
                    prop_assert!(rec.generation < 3, "flip at byte {pos} loaded the newest prefix");
                    prop_assert!(
                        (rec.state.end as usize) <= pos,
                        "generation {} covers the flip at byte {pos}", rec.generation
                    );
                    prop_assert!(!rec.skipped.is_empty());
                }
                Ok(None) => prop_assert!(false, "a non-empty ledger loaded nothing"),
                Err(e) => prop_assert!(e.to_string().contains("no loadable checkpoint generation")),
            }

            let mut padded = clean.clone();
            padded.extend_from_slice(&garbage);
            let rec = load(&padded).unwrap().unwrap();
            prop_assert_eq!(rec.generation, 3);
            prop_assert!(rec.skipped.is_empty());
            std::fs::write(&path, &padded).unwrap();
            ProgressLog::resume(&dir, &rec.state).unwrap();
            prop_assert_eq!(std::fs::read(&path).unwrap(), clean);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn checkpoint_every_truncation_rejected_exhaustively() {
        // Short checkpoints allow brute force over *every* truncation
        // length, complementing the sampled property above.
        let attack = CpaAttack::new(LastRoundModel::paper_target(), 1);
        let mut bytes = Vec::new();
        write_checkpoint(&mut bytes, &attack.checkpoint()).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                read_checkpoint(&bytes[..cut]).is_err(),
                "truncation to {cut} of {} bytes loaded",
                bytes.len()
            );
        }
    }

    #[test]
    fn ledger_commit_load_roundtrip_and_prune() {
        let dir = scratch_dir("roundtrip");
        let ledger = CheckpointLedger::open(&dir).unwrap();
        assert!(ledger.load_latest(|b| Ok(b.to_vec())).unwrap().is_none());
        for i in 1u64..=7 {
            let gen = ledger.commit(&i.to_le_bytes()).unwrap();
            assert_eq!(gen, i);
        }
        // Pruned to the newest LEDGER_KEEP generations.
        assert_eq!(ledger.generations().unwrap(), vec![4, 5, 6, 7]);
        let rec = ledger.load_latest(|b| Ok(b.to_vec())).unwrap().unwrap();
        assert_eq!(rec.generation, 7);
        assert_eq!(rec.state, 7u64.to_le_bytes().to_vec());
        assert!(rec.skipped.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_falls_back_past_torn_and_corrupt_generations() {
        let dir = scratch_dir("fallback");
        let ledger = CheckpointLedger::open(&dir).unwrap();
        for i in 1u64..=3 {
            ledger.commit(format!("payload-{i}").as_bytes()).unwrap();
        }
        // Tear the newest generation and corrupt the next.
        std::fs::write(ledger.generation_path(3), b"pay").unwrap();
        std::fs::write(ledger.generation_path(2), b"garbage-XX").unwrap();
        let parse = |b: &[u8]| -> io::Result<String> {
            let s = String::from_utf8_lossy(b);
            if s.starts_with("payload-") {
                Ok(s.into_owned())
            } else {
                Err(io::Error::new(io::ErrorKind::InvalidData, "not a payload"))
            }
        };
        let rec = ledger.load_latest(parse).unwrap().unwrap();
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.state, "payload-1");
        assert_eq!(rec.skipped.len(), 2);
        assert_eq!(rec.skipped[0].0, 3);
        assert_eq!(rec.skipped[1].0, 2);

        // All generations corrupt: an explicit error, never a silent
        // fresh start.
        std::fs::write(ledger.generation_path(1), b"garbage-YY").unwrap();
        let err = ledger.load_latest(parse).unwrap_err().to_string();
        assert!(err.contains("no loadable checkpoint generation"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_sweeps_stale_tmp_files_and_ignores_them() {
        let dir = scratch_dir("tmp-sweep");
        std::fs::create_dir_all(&dir).unwrap();
        // A crash mid-commit leaves a half-written temp file behind.
        std::fs::write(dir.join("gen-0000000000000009.tmp"), b"half").unwrap();
        let ledger = CheckpointLedger::open(&dir).unwrap();
        assert!(ledger.generations().unwrap().is_empty());
        assert!(!dir.join("gen-0000000000000009.tmp").exists());
        // A fresh commit is unaffected by the swept temp file.
        assert_eq!(ledger.commit(b"x").unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
