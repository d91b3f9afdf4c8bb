//! Framed UART transport between the FPGA and the workstation.
//!
//! Wire format (all multi-byte fields little-endian):
//!
//! ```text
//! 0xA5 | seq (u8) | len (u16) | payload (len bytes) | crc16 (u16)
//! ```
//!
//! The sequence number lets the host match responses to requests after
//! retries, and the CRC-16/CCITT covers `seq | len | payload` so header
//! corruption is caught as reliably as payload corruption. The decoder
//! is a *scanner*: on corruption it discards the minimum prefix and
//! hunts for the next sync byte instead of giving up, so one glitched
//! byte costs one frame, not the whole capture session.

use crate::error::{FabricError, TransportError};
use crate::wire_faults::{WireFaultInjector, WireFaultPlan, WireFaultStats};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// CRC-16/CCITT-FALSE: polynomial 0x1021, initial value 0xFFFF, no
/// reflection, no final XOR. `crc16(b"123456789") == 0x29B1`.
fn crc16(bytes: &[u8]) -> u16 {
    let mut crc: u16 = 0xffff;
    for &b in bytes {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// One framed message carrying a sequence number and payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UartFrame {
    /// Sequence number; the responder echoes the request's value.
    pub seq: u8,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// Result of scanning a receive buffer for one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// A complete, CRC-clean frame starting at the head of the buffer.
    Frame {
        /// The decoded frame.
        frame: UartFrame,
        /// Bytes consumed from the head of the buffer.
        consumed: usize,
    },
    /// The buffer holds a plausible frame prefix; wait for more bytes.
    NeedMore {
        /// Total frame length implied so far (lower bound while the
        /// header itself is still incomplete).
        need: usize,
    },
    /// The head of the buffer is corrupt; discard `skip` bytes and
    /// rescan.
    Corrupt {
        /// Minimum prefix to discard before rescanning.
        skip: usize,
        /// What was wrong.
        error: TransportError,
    },
}

impl UartFrame {
    /// Frame sync marker.
    pub const SYNC: u8 = 0xa5;
    /// Bytes before the payload: sync + seq + len.
    const HEADER_LEN: usize = 4;
    /// Bytes after the payload: the CRC-16.
    const TRAILER_LEN: usize = 2;
    /// Largest payload the protocol carries. A header declaring more is
    /// corrupt — without this bound a flipped length bit would make the
    /// receiver wait forever for a 64 KiB frame that never comes.
    const MAX_PAYLOAD: usize = 8192;

    /// Creates a frame.
    pub fn new(seq: u8, payload: Vec<u8>) -> Self {
        UartFrame { seq, payload }
    }

    /// Serializes to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.payload.len() <= Self::MAX_PAYLOAD,
            "payload exceeds MAX_PAYLOAD"
        );
        let mut out = Vec::with_capacity(Self::HEADER_LEN + self.payload.len() + Self::TRAILER_LEN);
        out.push(Self::SYNC);
        out.push(self.seq);
        out.extend_from_slice(&(self.payload.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&crc16(&out[1..]).to_le_bytes());
        out
    }

    /// Scans the head of `bytes` for one frame.
    ///
    /// This is the resilient primitive behind [`UartLink`]: unlike
    /// [`UartFrame::decode`] it never conflates "wait" with "corrupt".
    /// On corruption it reports the *minimum* prefix to discard — one
    /// byte for a bad CRC or oversized length — so a corrupted header
    /// cannot swallow a healthy frame right behind it.
    pub fn scan(bytes: &[u8]) -> DecodeOutcome {
        let min = Self::HEADER_LEN + Self::TRAILER_LEN;
        if bytes.is_empty() {
            return DecodeOutcome::NeedMore { need: min };
        }
        if bytes[0] != Self::SYNC {
            // Hunt for the next candidate sync byte.
            let skip = bytes
                .iter()
                .position(|&b| b == Self::SYNC)
                .unwrap_or(bytes.len());
            return DecodeOutcome::Corrupt {
                skip,
                error: TransportError::Desync { skipped: skip },
            };
        }
        if bytes.len() < Self::HEADER_LEN {
            return DecodeOutcome::NeedMore { need: min };
        }
        let len = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
        if len > Self::MAX_PAYLOAD {
            return DecodeOutcome::Corrupt {
                skip: 1,
                error: TransportError::FrameTooLong { len },
            };
        }
        let total = Self::HEADER_LEN + len + Self::TRAILER_LEN;
        if bytes.len() < total {
            return DecodeOutcome::NeedMore { need: total };
        }
        let expected = crc16(&bytes[1..Self::HEADER_LEN + len]);
        let got = u16::from_le_bytes([bytes[total - 2], bytes[total - 1]]);
        if expected != got {
            return DecodeOutcome::Corrupt {
                skip: 1,
                error: TransportError::CrcMismatch { expected, got },
            };
        }
        DecodeOutcome::Frame {
            frame: UartFrame {
                seq: bytes[1],
                payload: bytes[Self::HEADER_LEN..Self::HEADER_LEN + len].to_vec(),
            },
            consumed: total,
        }
    }

    /// Parses one frame from the start of `bytes`, returning the frame
    /// and the number of bytes consumed.
    ///
    /// Strict single-frame view of [`UartFrame::scan`], kept for tests
    /// and tools that hold a complete buffer.
    ///
    /// # Errors
    ///
    /// [`FabricError::Transport`] with [`TransportError::Incomplete`]
    /// when more bytes are needed, or the corrupting fault otherwise.
    pub fn decode(bytes: &[u8]) -> Result<(UartFrame, usize), FabricError> {
        match Self::scan(bytes) {
            DecodeOutcome::Frame { frame, consumed } => Ok((frame, consumed)),
            DecodeOutcome::NeedMore { need } => Err(TransportError::Incomplete {
                have: bytes.len(),
                need,
            }
            .into()),
            DecodeOutcome::Corrupt { error, .. } => Err(error.into()),
        }
    }
}

/// Per-direction resynchronization accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Clean frames delivered.
    pub frames_delivered: u64,
    /// Times the scanner discarded bytes to regain sync.
    pub resyncs: u64,
    /// Total bytes discarded across all resyncs.
    pub bytes_discarded: u64,
}

/// Per-direction sliding resync state: how much was buffered at the
/// last poll, and the wire-time deadline by which the head frame must
/// have completed.
#[derive(Debug, Clone, Copy)]
struct RxState {
    buffered: usize,
    deadline: u64,
}

impl Default for RxState {
    fn default() -> Self {
        RxState {
            buffered: 0,
            deadline: u64::MAX,
        }
    }
}

/// A bidirectional byte link with a finite baud rate and an optional
/// fault injector standing on the wire.
#[derive(Debug, Clone)]
pub struct UartLink {
    baud: u64,
    to_fpga: VecDeque<u8>,
    to_host: VecDeque<u8>,
    bytes_moved: u64,
    injector: Option<WireFaultInjector>,
    stats: LinkStats,
    fpga_rx: RxState,
    host_rx: RxState,
    resync_timeout_bytes: u64,
}

impl UartLink {
    /// Default resync timeout, in wire byte-slots: the time a maximum-
    /// length frame takes to arrive. If the head of the buffer still
    /// has not become a complete frame after this much wire time with
    /// no new bytes, whatever it is, it is not a frame.
    const DEFAULT_RESYNC_TIMEOUT_BYTES: u64 =
        (UartFrame::HEADER_LEN + UartFrame::MAX_PAYLOAD + UartFrame::TRAILER_LEN) as u64;

    /// Creates a clean link at the given baud rate (10 bits per byte on
    /// the wire: start + 8 data + stop).
    pub fn new(baud: u64) -> Self {
        UartLink {
            baud,
            to_fpga: VecDeque::new(),
            to_host: VecDeque::new(),
            bytes_moved: 0,
            injector: None,
            stats: LinkStats::default(),
            fpga_rx: RxState::default(),
            host_rx: RxState::default(),
            resync_timeout_bytes: Self::DEFAULT_RESYNC_TIMEOUT_BYTES,
        }
    }

    /// Overrides the sliding resync timeout (wire byte-slots).
    pub fn with_resync_timeout_bytes(mut self, bytes: u64) -> Self {
        self.resync_timeout_bytes = bytes.max(1);
        self
    }

    /// Creates a link whose wire runs through a seeded fault injector.
    /// Both directions are mangled — requests can die as easily as
    /// responses.
    pub fn with_faults(baud: u64, plan: WireFaultPlan) -> Self {
        let mut link = Self::new(baud);
        link.injector = Some(WireFaultInjector::new(plan));
        link
    }

    fn put(&mut self, to_fpga: bool, frame: &UartFrame) {
        let mut bytes = frame.encode();
        // Wire time is charged for what the sender transmitted, faulted
        // or not — a dropped byte still occupied its slot on the line.
        self.bytes_moved += bytes.len() as u64;
        if let Some(inj) = &mut self.injector {
            bytes = inj.mangle(bytes);
        }
        if to_fpga {
            self.to_fpga.extend(bytes);
        } else {
            self.to_host.extend(bytes);
        }
    }

    /// Queues a frame from the host to the FPGA.
    pub fn host_send(&mut self, frame: &UartFrame) {
        self.put(true, frame);
    }

    /// Queues a frame from the FPGA to the host.
    pub fn fpga_send(&mut self, frame: &UartFrame) {
        self.put(false, frame);
    }

    /// Injects raw bytes onto the host-bound wire, outside any frame:
    /// line noise, a glitching transceiver, or a misbehaving neighbor
    /// driving the shared pin. Wire time is charged exactly as for real
    /// traffic; the bytes land in front of whatever the FPGA sends
    /// next, so the host-side scanner has to resynchronize past them.
    pub fn inject_to_host(&mut self, bytes: &[u8]) {
        self.bytes_moved += bytes.len() as u64;
        self.to_host.extend(bytes.iter().copied());
    }

    /// Receives the next complete frame on the FPGA side, if any.
    pub fn fpga_recv(&mut self) -> Option<UartFrame> {
        Self::recv(
            &mut self.to_fpga,
            &mut self.stats,
            &mut self.fpga_rx,
            self.bytes_moved,
            self.resync_timeout_bytes,
        )
    }

    /// Receives the next complete frame on the host side, if any.
    pub fn host_recv(&mut self) -> Option<UartFrame> {
        Self::recv(
            &mut self.to_host,
            &mut self.stats,
            &mut self.host_rx,
            self.bytes_moved,
            self.resync_timeout_bytes,
        )
    }

    /// Scans the queue for the next clean frame, discarding corrupt
    /// prefixes and counting each discard as a resync. Returns `None`
    /// when the queue holds no complete clean frame — corruption is
    /// *recorded*, never fatal, because the request/response layer above
    /// handles loss by retrying.
    ///
    /// A stuck prefix cannot park the scanner: a fake sync byte whose
    /// implied length promises a frame that never arrives is covered by
    /// a sliding timeout. Every time the buffer grows the deadline
    /// slides forward by the resync timeout; once wire time passes the
    /// deadline with the head still incomplete, the head byte is
    /// discarded and the scan repeats until a clean frame surfaces or
    /// the stale prefix is gone — no driver-level flush required.
    fn recv(
        queue: &mut VecDeque<u8>,
        stats: &mut LinkStats,
        state: &mut RxState,
        now: u64,
        timeout: u64,
    ) -> Option<UartFrame> {
        loop {
            let bytes = queue.make_contiguous();
            match UartFrame::scan(bytes) {
                DecodeOutcome::Frame { frame, consumed } => {
                    queue.drain(..consumed);
                    stats.frames_delivered += 1;
                    *state = RxState {
                        buffered: queue.len(),
                        deadline: now.saturating_add(timeout),
                    };
                    return Some(frame);
                }
                DecodeOutcome::NeedMore { .. } => {
                    if queue.is_empty() {
                        *state = RxState::default();
                        return None;
                    }
                    if queue.len() > state.buffered {
                        // Bytes arrived since the last poll: progress,
                        // so the deadline slides.
                        *state = RxState {
                            buffered: queue.len(),
                            deadline: now.saturating_add(timeout),
                        };
                        return None;
                    }
                    if now < state.deadline {
                        return None;
                    }
                    // Timed out parked on a prefix that never completed:
                    // drop the head byte and rescan. The discard counts
                    // as progress, so the new head gets a fresh
                    // deadline — an expired timer must never burn
                    // through a younger, still-arriving frame behind.
                    queue.drain(..1);
                    stats.resyncs += 1;
                    stats.bytes_discarded += 1;
                    *state = RxState {
                        buffered: queue.len(),
                        deadline: now.saturating_add(timeout),
                    };
                }
                DecodeOutcome::Corrupt { skip, .. } => {
                    let skip = skip.max(1).min(queue.len());
                    queue.drain(..skip);
                    stats.resyncs += 1;
                    stats.bytes_discarded += skip as u64;
                    *state = RxState {
                        buffered: queue.len(),
                        deadline: now.saturating_add(timeout),
                    };
                }
            }
        }
    }

    /// Discards everything in flight in both directions (used between
    /// retry attempts so a stale half-frame cannot poison the next
    /// exchange). Discarded bytes count toward the resync stats.
    pub fn flush(&mut self) {
        let pending = (self.to_fpga.len() + self.to_host.len()) as u64;
        if pending > 0 {
            self.stats.resyncs += 1;
            self.stats.bytes_discarded += pending;
        }
        self.to_fpga.clear();
        self.to_host.clear();
        self.fpga_rx = RxState::default();
        self.host_rx = RxState::default();
    }

    /// Charges `seconds` of idle wire time (retry backoff, reboot
    /// waits). Modeled as the equivalent number of byte slots so the
    /// cost shows up in [`UartLink::elapsed_s`] like real time would.
    pub fn charge_idle(&mut self, seconds: f64) {
        let bytes = (seconds * self.baud as f64 / 10.0).ceil() as u64;
        self.bytes_moved += bytes;
    }

    /// Seconds of wire time consumed so far (for throughput estimates —
    /// the reason capturing 500 k traces takes hours on real hardware).
    pub fn elapsed_s(&self) -> f64 {
        (self.bytes_moved * 10) as f64 / self.baud as f64
    }

    /// Resynchronization accounting (both directions pooled).
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Fault accounting, when a fault plan is mounted.
    pub fn fault_stats(&self) -> Option<&WireFaultStats> {
        self.injector.as_ref().map(WireFaultInjector::stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_check_value() {
        // The CRC-16/CCITT-FALSE catalog check value.
        assert_eq!(crc16(b"123456789"), 0x29b1);
        assert_eq!(crc16(b""), 0xffff);
    }

    #[test]
    fn golden_wire_bytes() {
        // Pin the wire format: sync, seq, len LE, payload, CRC LE.
        // Computed once by hand from the CRC-16/CCITT-FALSE definition;
        // if this test fails the protocol changed and the FPGA side
        // (and any captured .slmt transcripts) are invalidated.
        let frame = UartFrame::new(0x2a, vec![0xde, 0xad, 0xbe, 0xef]);
        let wire = frame.encode();
        let crc = crc16(&[0x2a, 0x04, 0x00, 0xde, 0xad, 0xbe, 0xef]);
        let mut expect = vec![0xa5, 0x2a, 0x04, 0x00, 0xde, 0xad, 0xbe, 0xef];
        expect.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(wire, expect);
        assert_eq!(
            wire.len(),
            UartFrame::HEADER_LEN + 4 + UartFrame::TRAILER_LEN
        );
    }

    #[test]
    fn frame_roundtrip() {
        let f = UartFrame::new(7, vec![1, 2, 3, 0xff]);
        let wire = f.encode();
        let (g, used) = UartFrame::decode(&wire).unwrap();
        assert_eq!(g, f);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn empty_payload() {
        let f = UartFrame::new(0, vec![]);
        let (g, _) = UartFrame::decode(&f.encode()).unwrap();
        assert!(g.payload.is_empty());
        assert_eq!(g.seq, 0);
    }

    #[test]
    fn truncation_reports_incomplete_not_corrupt() {
        let wire = UartFrame::new(1, vec![9, 8, 7]).encode();
        for cut in 0..wire.len() {
            match UartFrame::scan(&wire[..cut]) {
                DecodeOutcome::NeedMore { need } => assert!(need > cut),
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn crc_detects_corruption_of_any_byte() {
        let clean = UartFrame::new(3, vec![0x11, 0x22, 0x33]).encode();
        for i in 1..clean.len() {
            let mut wire = clean.clone();
            wire[i] ^= 0x04;
            match UartFrame::scan(&wire) {
                DecodeOutcome::Frame { frame, .. } => {
                    panic!("corrupted byte {i} decoded as {frame:?}")
                }
                DecodeOutcome::Corrupt { .. } | DecodeOutcome::NeedMore { .. } => {}
            }
        }
    }

    #[test]
    fn oversized_length_is_corrupt_not_wait() {
        let mut wire = UartFrame::new(0, vec![1]).encode();
        wire[2] = 0xff;
        wire[3] = 0xff; // declares a 65535-byte payload
        assert!(matches!(
            UartFrame::scan(&wire),
            DecodeOutcome::Corrupt {
                error: TransportError::FrameTooLong { len: 65535 },
                ..
            }
        ));
    }

    #[test]
    fn bad_sync_skips_to_next_candidate() {
        let mut wire = vec![0x00, 0x13, 0x37];
        wire.extend(UartFrame::new(5, vec![42]).encode());
        match UartFrame::scan(&wire) {
            DecodeOutcome::Corrupt { skip, .. } => assert_eq!(skip, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn link_roundtrip_and_partial_delivery() {
        let mut link = UartLink::new(115_200);
        assert!(link.host_recv().is_none());
        link.host_send(&UartFrame::new(1, vec![0x42; 16]));
        let got = link.fpga_recv().unwrap();
        assert_eq!(got.payload, vec![0x42; 16]);
        assert_eq!(got.seq, 1);
        assert!(link.fpga_recv().is_none());
        link.fpga_send(&UartFrame::new(1, vec![7]));
        assert_eq!(link.host_recv().unwrap().payload, vec![7]);
        assert!(link.elapsed_s() > 0.0);
        assert_eq!(link.stats().frames_delivered, 2);
        assert_eq!(link.stats().resyncs, 0);
    }

    #[test]
    fn link_resyncs_past_garbage_to_next_frame() {
        let mut link = UartLink::new(115_200);
        // Simulate line garbage followed by two good frames. (Garbage
        // containing a fake sync byte is covered separately by the
        // sliding resync timeout.)
        link.to_host.extend([0xff, 0x00, 0x13, 0x37]);
        let f1 = UartFrame::new(9, vec![1, 2, 3]);
        let f2 = UartFrame::new(10, vec![4, 5]);
        link.to_host.extend(f1.encode());
        link.to_host.extend(f2.encode());
        assert_eq!(link.host_recv().unwrap(), f1);
        assert_eq!(link.host_recv().unwrap(), f2);
        assert!(link.stats().resyncs > 0);
        assert!(link.stats().bytes_discarded >= 4);
    }

    #[test]
    fn corrupt_frame_does_not_swallow_the_next_one() {
        let mut link = UartLink::new(115_200);
        let mut bad = UartFrame::new(1, vec![0xaa; 8]).encode();
        bad[6] ^= 0x80; // payload corruption -> CRC mismatch
        let good = UartFrame::new(2, vec![0xbb; 8]);
        link.to_host.extend(bad);
        link.to_host.extend(good.encode());
        assert_eq!(link.host_recv().unwrap(), good);
    }

    #[test]
    fn fake_sync_cannot_park_the_scanner() {
        // A fake sync byte whose implied length (0x1337 > nothing, but
        // within MAX_PAYLOAD bounds) promises a frame that never
        // arrives, with a real frame queued right behind it. The old
        // scanner sat in NeedMore forever; the sliding timeout digs the
        // real frame out once wire time passes the deadline.
        let mut link = UartLink::new(115_200);
        let real = UartFrame::new(7, vec![0xaa, 0xbb]);
        link.to_host.extend([UartFrame::SYNC, 0x00, 0x00, 0x13]); // len = 0x1300
        link.to_host.extend(real.encode());
        // Before the deadline: parked (this is a plausible partial frame).
        assert!(link.host_recv().is_none());
        assert!(link.host_recv().is_none());
        // Let more than a max-frame's worth of wire time pass idle.
        let timeout_s = UartLink::DEFAULT_RESYNC_TIMEOUT_BYTES as f64 * 10.0 / 115_200.0;
        link.charge_idle(timeout_s * 1.1);
        assert_eq!(link.host_recv().unwrap(), real);
        assert!(link.stats().resyncs > 0);
        assert!(link.host_recv().is_none());
    }

    #[test]
    fn deadline_slides_while_bytes_trickle_in() {
        // As long as the buffer keeps growing, an incomplete frame is
        // never condemned — the timeout measures silence, not patience.
        let mut link = UartLink::new(115_200).with_resync_timeout_bytes(64);
        let frame = UartFrame::new(3, vec![0x55; 100]);
        let wire = frame.encode();
        for chunk in wire.chunks(8) {
            assert!(link.host_recv().is_none() || chunk.is_empty());
            link.to_host.extend(chunk);
            link.charge_idle(50.0 * 10.0 / 115_200.0); // 50 byte-slots idle
        }
        assert_eq!(link.host_recv().unwrap(), frame);
        assert_eq!(link.stats().resyncs, 0, "no byte was condemned");
    }

    #[test]
    fn idle_time_is_charged_to_the_wire() {
        let mut link = UartLink::new(115_200);
        let before = link.elapsed_s();
        link.charge_idle(0.25);
        assert!(link.elapsed_s() - before >= 0.25);
    }

    #[test]
    fn faulted_link_counts_faults() {
        let mut link = UartLink::with_faults(115_200, WireFaultPlan::new(5).with_stall(1.0));
        link.host_send(&UartFrame::new(0, vec![1, 2, 3]));
        assert!(link.fpga_recv().is_none());
        assert_eq!(link.fault_stats().unwrap().frames_stalled, 1);
        // Stalled bytes still cost wire time.
        assert!(link.elapsed_s() > 0.0);
    }

    #[test]
    fn trace_campaign_wire_time_is_hours() {
        // 500k traces × (16B pt down + (16B ct + 64B trace) up) at 115200
        // baud: the reason the paper's capture campaigns are slow.
        let bytes_per_trace = (16 + 16 + 64) as f64;
        let s = 500_000.0 * bytes_per_trace * 10.0 / 115_200.0;
        assert!(s > 3600.0, "wire time {s} s should exceed an hour");
    }
}
