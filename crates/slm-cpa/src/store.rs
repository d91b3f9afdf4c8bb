//! Trace-file storage.
//!
//! The paper's host script "transmit\[s\], receiv\[es\] and stor\[es\] traces
//! and tuples of plaintexts and ciphertexts. In addition to the raw
//! data, a separate file with traces only containing relevant bits for
//! the CPA is stored." This module is that storage layer: a compact,
//! self-describing binary format for post-processed trace campaigns,
//! written/read through any `std::io` stream so campaigns can be
//! captured once and re-analyzed offline.
//!
//! Trace-file format (all little-endian):
//!
//! ```text
//! magic "SLMT" | version u16 | points u16 | count u64
//! count × ( ciphertext [u8; 16] | points × f32 )
//! fletcher-64 checksum over everything above
//! ```
//!
//! The module also serializes [`CpaCheckpoint`]s —
//! [`write_checkpoint`] / [`read_checkpoint`] — so a long capture
//! campaign can persist its streaming accumulator and resume after a
//! crash without replaying every trace, and provides the durable layer
//! under the streaming campaign engine: [`StreamCheckpoint`] (the full
//! campaign state at a window boundary) and [`CheckpointLedger`] (an
//! atomic, generation-numbered on-disk store with graceful fallback).
//!
//! # On-disk layouts
//!
//! All integers and floats are little-endian. Every format ends with a
//! Fletcher-64 integrity seal computed over everything before it.
//!
//! **Accumulator checkpoint** (`"SLMC"`, version [`CHECKPOINT_VERSION`]):
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
//! +       256×points×8    bin_sum (f64, bin-major)
//! +       points×8        sum_sq (f64)
//! +       8               fletcher-64 seal
//! ```
//!
//! **Streaming campaign checkpoint** (`"SLMS"`, version
//! [`STREAM_CHECKPOINT_VERSION`]): everything a streaming campaign
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
//! version [`PROGRESS_LOG_VERSION`]): an append-only journal of the
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
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Current trace-file format version.
pub const TRACE_FILE_VERSION: u16 = 1;

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Current streaming-campaign checkpoint format version.
pub const STREAM_CHECKPOINT_VERSION: u16 = 2;

/// Current progress-log format version.
pub const PROGRESS_LOG_VERSION: u16 = 1;

/// File name of the progress log inside a ledger directory.
pub const PROGRESS_LOG_FILE: &str = "progress.slmp";

const MAGIC: [u8; 4] = *b"SLMT";

const CHECKPOINT_MAGIC: [u8; 4] = *b"SLMC";

const STREAM_MAGIC: [u8; 4] = *b"SLMS";

const LOG_MAGIC: [u8; 4] = *b"SLMP";

/// Bytes of the progress-log header (magic + version).
const LOG_HEADER_LEN: usize = 6;

/// Builds the section-and-offset diagnostic every reader in this
/// module uses: errors name the failing section and the byte offset
/// where the problem was found, so a corrupt multi-megabyte checkpoint
/// is debuggable without a hex dump.
fn section_err(section: &str, offset: usize, detail: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("checkpoint section `{section}` at byte {offset}: {detail}"),
    )
}

/// One stored trace: the ciphertext and its post-processed points.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Ciphertext returned with the capture.
    pub ciphertext: [u8; 16],
    /// Post-processed trace points (stored as `f32`).
    pub points: Vec<f32>,
}

/// Streaming checksum (Fletcher-64 over 32-bit words, byte-padded).
#[derive(Debug, Clone, Default)]
struct Fletcher64 {
    a: u64,
    b: u64,
    pending: [u8; 4],
    pending_len: usize,
}

impl Fletcher64 {
    fn update(&mut self, data: &[u8]) {
        for &byte in data {
            self.pending[self.pending_len] = byte;
            self.pending_len += 1;
            if self.pending_len == 4 {
                let w = u32::from_le_bytes(self.pending) as u64;
                self.a = (self.a + w) % 0xffff_ffff;
                self.b = (self.b + self.a) % 0xffff_ffff;
                self.pending_len = 0;
            }
        }
    }

    fn finish(mut self) -> u64 {
        if self.pending_len > 0 {
            for i in self.pending_len..4 {
                self.pending[i] = 0;
            }
            let w = u32::from_le_bytes(self.pending) as u64;
            self.a = (self.a + w) % 0xffff_ffff;
            self.b = (self.b + self.a) % 0xffff_ffff;
        }
        (self.b << 32) | self.a
    }
}

/// Writes a trace campaign.
///
/// Records must all have the same point count; the writer validates and
/// maintains the checksum. Call [`TraceWriter::finish`] to seal the
/// stream.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    points: u16,
    count: u64,
    sum: Fletcher64,
    finished: bool,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a new trace file with `points` points per trace.
    ///
    /// The header is written with a zero count placeholder strategy:
    /// because streams may not be seekable, the count is written at
    /// `finish` time into the trailer instead, and readers take the
    /// count from the trailer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn new(mut sink: W, points: u16) -> io::Result<Self> {
        let mut sum = Fletcher64::default();
        let mut header = Vec::with_capacity(8);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&TRACE_FILE_VERSION.to_le_bytes());
        header.extend_from_slice(&points.to_le_bytes());
        sink.write_all(&header)?;
        sum.update(&header);
        Ok(TraceWriter {
            sink,
            points,
            count: 0,
            sum,
            finished: false,
        })
    }

    /// Appends one trace.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the point count differs from the header;
    /// otherwise propagates I/O errors.
    pub fn write_trace(&mut self, ct: &[u8; 16], points: &[f64]) -> io::Result<()> {
        if points.len() != usize::from(self.points) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "expected {} points per trace, got {}",
                    self.points,
                    points.len()
                ),
            ));
        }
        let mut buf = Vec::with_capacity(16 + 4 * points.len());
        buf.extend_from_slice(ct);
        for &p in points {
            buf.extend_from_slice(&(p as f32).to_le_bytes());
        }
        self.sink.write_all(&buf)?;
        self.sum.update(&buf);
        self.count += 1;
        Ok(())
    }

    /// Number of traces written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Writes the trailer (count + checksum) and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(mut self) -> io::Result<W> {
        let count_bytes = self.count.to_le_bytes();
        self.sink.write_all(&count_bytes)?;
        self.sum.update(&count_bytes);
        let digest = std::mem::take(&mut self.sum).finish();
        self.sink.write_all(&digest.to_le_bytes())?;
        self.finished = true;
        Ok(self.sink)
    }
}

/// Reads a trace campaign written by [`TraceWriter`], validating the
/// checksum.
///
/// # Errors
///
/// `InvalidData` on bad magic, version, truncation, or checksum
/// mismatch.
pub fn read_traces<R: Read>(mut source: R) -> io::Result<Vec<TraceRecord>> {
    let mut data = Vec::new();
    source.read_to_end(&mut data)?;
    if data.len() < 8 + 8 + 8 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated file"));
    }
    if data[..4] != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != TRACE_FILE_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported version {version}"),
        ));
    }
    let points = usize::from(u16::from_le_bytes([data[6], data[7]]));
    let body_end = data.len() - 8;
    // verify checksum over everything except the final digest
    let mut sum = Fletcher64::default();
    sum.update(&data[..body_end]);
    let expect = u64::from_le_bytes(data[body_end..].try_into().expect("8 bytes"));
    if sum.finish() != expect {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "checksum mismatch",
        ));
    }
    let count_off = body_end - 8;
    let count = u64::from_le_bytes(data[count_off..body_end].try_into().expect("8 bytes"));
    let record_len = 16 + 4 * points;
    let expected_len = 8 + count as usize * record_len;
    if count_off != expected_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("length mismatch: {count} records of {record_len} bytes"),
        ));
    }
    let mut out = Vec::with_capacity(count as usize);
    let mut off = 8;
    for _ in 0..count {
        let mut ciphertext = [0u8; 16];
        ciphertext.copy_from_slice(&data[off..off + 16]);
        off += 16;
        let mut pts = Vec::with_capacity(points);
        for _ in 0..points {
            pts.push(f32::from_le_bytes(
                data[off..off + 4].try_into().expect("4 bytes"),
            ));
            off += 4;
        }
        out.push(TraceRecord {
            ciphertext,
            points: pts,
        });
    }
    Ok(out)
}

/// Serializes a [`CpaCheckpoint`] with a Fletcher-64 integrity seal.
///
/// # Errors
///
/// `InvalidInput` if the point count exceeds the format's `u16` field;
/// otherwise propagates I/O errors.
pub fn write_checkpoint<W: Write>(mut sink: W, cp: &CpaCheckpoint) -> io::Result<()> {
    if cp.points > usize::from(u16::MAX) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} points exceed the format limit", cp.points),
        ));
    }
    let mut buf = Vec::with_capacity(16 + 256 * 8 + (256 * cp.points + cp.points) * 8);
    buf.extend_from_slice(&CHECKPOINT_MAGIC);
    buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(cp.points as u16).to_le_bytes());
    buf.push(cp.model.ct_byte as u8);
    buf.push(cp.model.bit);
    buf.extend_from_slice(&cp.traces.to_le_bytes());
    for &c in &cp.bin_count {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    for &s in &cp.bin_sum {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    for &q in &cp.sum_sq {
        buf.extend_from_slice(&q.to_le_bytes());
    }
    let mut sum = Fletcher64::default();
    sum.update(&buf);
    buf.extend_from_slice(&sum.finish().to_le_bytes());
    sink.write_all(&buf)
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
/// or a geometry that does not describe a valid accumulator. The error
/// message names the failing section and byte offset.
pub fn read_checkpoint<R: Read>(mut source: R) -> io::Result<CpaCheckpoint> {
    let mut data = Vec::new();
    source.read_to_end(&mut data)?;
    parse_checkpoint(&data)
}

/// [`read_checkpoint`] over an in-memory byte slice (the nested-payload
/// path of [`read_stream_checkpoint`]).
fn parse_checkpoint(data: &[u8]) -> io::Result<CpaCheckpoint> {
    let len = data.len();
    if len < 18 {
        return Err(section_err(
            "header",
            len,
            format!("file is {len} bytes, the fixed header needs 18"),
        ));
    }
    if data[..4] != CHECKPOINT_MAGIC {
        return Err(section_err(
            "magic",
            0,
            format!("got {:02x?}, expected \"SLMC\"", &data[..4]),
        ));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != CHECKPOINT_VERSION {
        return Err(section_err(
            "version",
            4,
            format!(
                "checkpoint version {version} is not supported (this build reads \
                 version {CHECKPOINT_VERSION}); refusing to guess at the layout"
            ),
        ));
    }
    let points = usize::from(u16::from_le_bytes([data[6], data[7]]));
    let traces = u64::from_le_bytes(data[10..18].try_into().expect("8 bytes"));
    // Section table for the variable-size body.
    let bin_count_off = 18;
    let bin_sum_off = bin_count_off + 256 * 8;
    let sum_sq_off = bin_sum_off + 256 * points * 8;
    let seal_off = sum_sq_off + points * 8;
    let expected_len = seal_off + 8;
    if len != expected_len {
        let (section, start) = if len < bin_sum_off {
            ("bin_count", bin_count_off)
        } else if len < sum_sq_off {
            ("bin_sum", bin_sum_off)
        } else if len < seal_off {
            ("sum_sq", sum_sq_off)
        } else {
            ("seal", seal_off)
        };
        return Err(section_err(
            section,
            start,
            format!(
                "file is {len} bytes, format needs {expected_len} for {points} points \
                 (section `{section}` spans bytes {start}..)"
            ),
        ));
    }
    let mut sum = Fletcher64::default();
    sum.update(&data[..seal_off]);
    let got = sum.finish();
    let expect = u64::from_le_bytes(data[seal_off..].try_into().expect("8 bytes"));
    if got != expect {
        return Err(section_err(
            "seal",
            seal_off,
            format!("checksum mismatch: stored {expect:#018x}, computed {got:#018x}"),
        ));
    }
    let model = LastRoundModel {
        ct_byte: usize::from(data[8]),
        bit: data[9],
    };
    if model.ct_byte >= 16 || model.bit >= 8 {
        return Err(section_err(
            "model",
            8,
            format!("ct_byte {} / bit {} out of range", model.ct_byte, model.bit),
        ));
    }
    let mut off = 18;
    let mut bin_count = Vec::with_capacity(256);
    for _ in 0..256 {
        bin_count.push(u64::from_le_bytes(
            data[off..off + 8].try_into().expect("8 bytes"),
        ));
        off += 8;
    }
    let read_f64s = |off: &mut usize, n: usize| -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f64::from_le_bytes(
                data[*off..*off + 8].try_into().expect("8 bytes"),
            ));
            *off += 8;
        }
        out
    };
    let bin_sum = read_f64s(&mut off, 256 * points);
    let sum_sq = read_f64s(&mut off, points);
    Ok(CpaCheckpoint {
        model,
        points,
        bin_count,
        bin_sum,
        sum_sq,
        traces,
    })
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
    fn validate(&self) -> io::Result<()> {
        if self.slots.is_empty() {
            return Err(section_err("slots", 46, "zero accumulator slots"));
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.traces != self.traces {
                return Err(section_err(
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
    if cp.slots.len() > usize::from(u16::MAX) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} slots exceed the format limit", cp.slots.len()),
        ));
    }
    let mut buf = Vec::new();
    buf.extend_from_slice(&STREAM_MAGIC);
    buf.extend_from_slice(&STREAM_CHECKPOINT_VERSION.to_le_bytes());
    buf.extend_from_slice(&cp.fingerprint.to_le_bytes());
    buf.extend_from_slice(&cp.windows.to_le_bytes());
    buf.extend_from_slice(&cp.traces.to_le_bytes());
    buf.extend_from_slice(&cp.log_records.to_le_bytes());
    buf.extend_from_slice(&cp.log_seal.to_le_bytes());
    buf.extend_from_slice(&(cp.slots.len() as u16).to_le_bytes());
    for slot in &cp.slots {
        let mut nested = Vec::new();
        write_checkpoint(&mut nested, slot)?;
        buf.extend_from_slice(&(nested.len() as u64).to_le_bytes());
        buf.extend_from_slice(&nested);
    }
    let mut sum = Fletcher64::default();
    sum.update(&buf);
    buf.extend_from_slice(&sum.finish().to_le_bytes());
    sink.write_all(&buf)
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
pub fn read_stream_checkpoint<R: Read>(mut source: R) -> io::Result<StreamCheckpoint> {
    let mut data = Vec::new();
    source.read_to_end(&mut data)?;
    let len = data.len();
    if len < 48 + 8 {
        return Err(section_err(
            "header",
            len,
            format!("file is {len} bytes, the fixed header plus seal needs 56"),
        ));
    }
    if data[..4] != STREAM_MAGIC {
        return Err(section_err(
            "magic",
            0,
            format!("got {:02x?}, expected \"SLMS\"", &data[..4]),
        ));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != STREAM_CHECKPOINT_VERSION {
        return Err(section_err(
            "version",
            4,
            format!(
                "stream checkpoint version {version} is not supported (this build \
                 reads version {STREAM_CHECKPOINT_VERSION}); refusing to guess at the layout"
            ),
        ));
    }
    let seal_off = len - 8;
    let mut sum = Fletcher64::default();
    sum.update(&data[..seal_off]);
    let got = sum.finish();
    let expect = u64::from_le_bytes(data[seal_off..].try_into().expect("8 bytes"));
    if got != expect {
        return Err(section_err(
            "seal",
            seal_off,
            format!("checksum mismatch: stored {expect:#018x}, computed {got:#018x}"),
        ));
    }
    // Cursor-based reads over the sealed body.
    let body = &data[..seal_off];
    let take = |off: &mut usize, n: usize, section: &str| -> io::Result<&[u8]> {
        let end = off
            .checked_add(n)
            .filter(|&e| e <= body.len())
            .ok_or_else(|| {
                section_err(
                    section,
                    *off,
                    format!(
                        "needs {n} bytes, only {} remain before the seal",
                        body.len() - *off
                    ),
                )
            })?;
        let slice = &body[*off..end];
        *off = end;
        Ok(slice)
    };
    let mut off = 6;
    let fingerprint = u64::from_le_bytes(take(&mut off, 8, "fingerprint")?.try_into().unwrap());
    let windows = u64::from_le_bytes(take(&mut off, 8, "windows")?.try_into().unwrap());
    let traces = u64::from_le_bytes(take(&mut off, 8, "traces")?.try_into().unwrap());
    let log_records = u64::from_le_bytes(take(&mut off, 8, "log_records")?.try_into().unwrap());
    let log_seal = u64::from_le_bytes(take(&mut off, 8, "log_seal")?.try_into().unwrap());
    let slots = usize::from(u16::from_le_bytes(
        take(&mut off, 2, "slots")?.try_into().unwrap(),
    ));
    let mut slot_cps = Vec::with_capacity(slots);
    for slot in 0..slots {
        let section = "accumulators";
        let nested_len =
            u64::from_le_bytes(take(&mut off, 8, section)?.try_into().unwrap()) as usize;
        let start = off;
        let nested = take(&mut off, nested_len, section)?;
        let cp = parse_checkpoint(nested)
            .map_err(|e| section_err(section, start, format!("nested slot {slot}: {e}")))?;
        slot_cps.push(cp);
    }
    if off != body.len() {
        return Err(section_err(
            "trailer",
            off,
            format!(
                "{} unexpected trailing bytes before the seal",
                body.len() - off
            ),
        ));
    }
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
    let section = "progress log";
    let mut prefix = LogPrefix::empty(slots, seed);
    if records == 0 {
        if seal != seed {
            return Err(section_err(
                section,
                0,
                "an empty prefix must end at its seed",
            ));
        }
        return Ok(prefix);
    }
    if data.len() < LOG_HEADER_LEN || data[..4] != LOG_MAGIC {
        return Err(section_err(
            section,
            0,
            format!("header is not \"SLMP\" ({} bytes in the log)", data.len()),
        ));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != PROGRESS_LOG_VERSION {
        return Err(section_err(
            section,
            4,
            format!(
                "progress log version {version} is not supported (this build reads \
                 version {PROGRESS_LOG_VERSION}); refusing to guess at the layout"
            ),
        ));
    }
    let mut off = LOG_HEADER_LEN;
    for record in 0..records {
        let short = |need: usize| {
            section_err(
                section,
                off,
                format!(
                    "record {record} needs {need} bytes, only {} remain",
                    data.len() - off
                ),
            )
        };
        let len_bytes = data.get(off..off + 4).ok_or_else(|| short(4))?;
        let body_len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        let total = body_len
            .checked_add(12)
            .filter(|&t| t <= data.len() - off)
            .ok_or_else(|| short(body_len.saturating_add(12)))?;
        let sealed = &data[off..off + 4 + body_len];
        let stored = u64::from_le_bytes(
            data[off + 4 + body_len..off + total]
                .try_into()
                .expect("8 bytes"),
        );
        let computed = record_seal(prefix.seal, sealed);
        if computed != stored {
            return Err(section_err(
                section,
                off,
                format!(
                    "record {record} seal mismatch: stored {stored:#018x}, computed {computed:#018x}"
                ),
            ));
        }
        parse_log_body(&sealed[4..], &mut prefix.progress)
            .map_err(|why| section_err(section, off, format!("record {record}: {why}")))?;
        prefix.seal = stored;
        off += total;
    }
    if prefix.seal != seal {
        return Err(section_err(
            section,
            off,
            format!(
                "prefix of {records} records ends at seal {:#018x}, the generation \
                 committed {seal:#018x}",
                prefix.seal
            ),
        ));
    }
    prefix.records = records;
    prefix.end = off as u64;
    Ok(prefix)
}

/// Appends one record body's per-slot points to `progress`.
fn parse_log_body(body: &[u8], progress: &mut [Vec<ProgressPoint>]) -> Result<(), String> {
    let mut off = 0usize;
    let mut take = |n: usize| -> Result<&[u8], String> {
        let end = off
            .checked_add(n)
            .filter(|&e| e <= body.len())
            .ok_or_else(|| format!("body needs {n} bytes at {off}, has {}", body.len()))?;
        let slice = &body[off..end];
        off = end;
        Ok(slice)
    };
    let slots = usize::from(u16::from_le_bytes(take(2)?.try_into().expect("2 bytes")));
    if slots != progress.len() {
        return Err(format!(
            "{slots} slots, the checkpoint has {}",
            progress.len()
        ));
    }
    for curve in progress.iter_mut() {
        let traces = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
        let cands = usize::from(u16::from_le_bytes(take(2)?.try_into().expect("2 bytes")));
        let peak_corr = take(cands * 8)?
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        curve.push(ProgressPoint { traces, peak_corr });
    }
    if off != body.len() {
        return Err(format!("{} trailing bytes in the body", body.len() - off));
    }
    Ok(())
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
            file.write_all(&LOG_MAGIC)?;
            file.write_all(&PROGRESS_LOG_VERSION.to_le_bytes())?;
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
        let invalid = |what: &str, n: usize| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{n} {what} exceed the format limit"),
            )
        };
        let slots = u16::try_from(points.len()).map_err(|_| invalid("slots", points.len()))?;
        let mut rec = vec![0u8; 4];
        rec.extend_from_slice(&slots.to_le_bytes());
        for point in points {
            let cands = u16::try_from(point.peak_corr.len())
                .map_err(|_| invalid("candidates", point.peak_corr.len()))?;
            rec.extend_from_slice(&point.traces.to_le_bytes());
            rec.extend_from_slice(&cands.to_le_bytes());
            for &r in &point.peak_corr {
                rec.extend_from_slice(&r.to_le_bytes());
            }
        }
        let body_len = u32::try_from(rec.len() - 4).map_err(|_| invalid("bytes", rec.len()))?;
        rec[..4].copy_from_slice(&body_len.to_le_bytes());
        let seal = record_seal(self.seal, &rec);
        rec.extend_from_slice(&seal.to_le_bytes());
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
    pub fn generation_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:016}.slmc"))
    }

    /// Generation numbers currently on disk, ascending.
    ///
    /// # Errors
    ///
    /// Propagates directory listing failures.
    pub fn generations(&self) -> io::Result<Vec<u64>> {
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

/// Replays a stored campaign into a [`crate::CpaAttack`] — the offline
/// re-analysis path.
pub fn replay_into(records: &[TraceRecord], attack: &mut crate::CpaAttack) {
    let mut buf = Vec::new();
    for r in records {
        buf.clear();
        buf.extend(r.points.iter().map(|&p| f64::from(p)));
        attack.add_trace(&r.ciphertext, &buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpaAttack, LastRoundModel};
    use proptest::prelude::*;
    use slm_aes::soft;
    use slm_pdn::noise::Rng64;

    fn sample_records(n: usize, points: usize, seed: u64) -> Vec<TraceRecord> {
        let mut rng = Rng64::new(seed);
        (0..n)
            .map(|_| {
                let mut ciphertext = [0u8; 16];
                rng.fill_bytes(&mut ciphertext);
                TraceRecord {
                    ciphertext,
                    points: (0..points).map(|_| rng.normal() as f32).collect(),
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let records = sample_records(100, 7, 1);
        let mut w = TraceWriter::new(Vec::new(), 7).unwrap();
        for r in &records {
            let pts: Vec<f64> = r.points.iter().map(|&p| f64::from(p)).collect();
            w.write_trace(&r.ciphertext, &pts).unwrap();
        }
        assert_eq!(w.count(), 100);
        let bytes = w.finish().unwrap();
        let back = read_traces(&bytes[..]).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn empty_campaign_roundtrips() {
        let w = TraceWriter::new(Vec::new(), 3).unwrap();
        let bytes = w.finish().unwrap();
        assert!(read_traces(&bytes[..]).unwrap().is_empty());
    }

    #[test]
    fn wrong_point_count_rejected_at_write() {
        let mut w = TraceWriter::new(Vec::new(), 4).unwrap();
        let err = w.write_trace(&[0; 16], &[1.0]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn corruption_detected() {
        let mut w = TraceWriter::new(Vec::new(), 2).unwrap();
        w.write_trace(&[7; 16], &[1.0, 2.0]).unwrap();
        let mut bytes = w.finish().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let err = read_traces(&bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let w = TraceWriter::new(Vec::new(), 1).unwrap();
        let bytes = w.finish().unwrap();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(read_traces(&bad[..]).is_err());
        let mut badv = bytes;
        badv[4] = 99;
        assert!(read_traces(&badv[..]).is_err());
    }

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
            attack.add_trace(&ct, &[rng.normal(), rng.normal(), rng.normal()]);
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
            let samples: Vec<f64> = (0..points).map(|_| rng.normal()).collect();
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

    #[test]
    fn replay_reproduces_online_attack() {
        // An attack over stored traces must equal the streaming attack.
        let key = [5u8; 16];
        let k10 = soft::key_expansion(&key)[10];
        let model = LastRoundModel::paper_target();
        let mut rng = Rng64::new(9);
        let mut online = CpaAttack::new(model, 1);
        let mut w = TraceWriter::new(Vec::new(), 1).unwrap();
        for _ in 0..1500 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let ct = soft::encrypt(&key, &pt);
            let h = f64::from(u8::from(model.hypothesis(&ct, k10[3])));
            let x = h + rng.normal_scaled(1.0);
            online.add_trace(&ct, &[x]);
            // store the f32-rounded value the file will carry, so both
            // attacks see identical data
            w.write_trace(&ct, &[f64::from(x as f32)]).unwrap();
        }
        let bytes = w.finish().unwrap();
        let records = read_traces(&bytes[..]).unwrap();
        let mut offline = CpaAttack::new(model, 1);
        replay_into(&records, &mut offline);
        assert_eq!(offline.traces(), online.traces());
        assert_eq!(offline.best_candidate().0, k10[3]);
    }
}
