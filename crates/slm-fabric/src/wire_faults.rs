//! Deterministic fault injection for the UART wire.
//!
//! Real multi-tenant capture rigs lose bytes: shared-shell crosstalk,
//! marginal level shifters, a host process that deschedules mid-frame.
//! A capture campaign that assumes a clean wire silently corrupts its
//! trace set — the CPA ingests a desynchronized ciphertext/trace pair
//! and the correlation peak washes out. To test the resilient path, a
//! [`WireFaultPlan`] mounts a seeded adversary between the two frame
//! queues: every byte and every frame passes through it, and the same
//! seed replays the exact same fault sequence.

use slm_pdn::noise::Rng64;

/// A declarative description of wire faults, applied deterministically
/// from `seed`.
///
/// Byte-level probabilities are per byte moved; frame-level
/// probabilities are per frame queued. All rates default to zero, so
/// `WireFaultPlan::new(seed)` is a transparent wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFaultPlan {
    /// Seed for the fault stream. The same plan + seed replays
    /// identically, which is what makes fault campaigns debuggable.
    pub seed: u64,
    /// Probability a byte has one random bit flipped.
    pub bit_flip: f64,
    /// Probability a byte is dropped from the stream.
    pub drop_byte: f64,
    /// Probability a byte is duplicated.
    pub dup_byte: f64,
    /// Probability a frame gets a burst of random bytes spliced in.
    pub burst: f64,
    /// Maximum burst length in bytes (uniform in `1..=burst_len`).
    pub burst_len: usize,
    /// Probability a frame is truncated (tail cut off mid-flight).
    pub truncate: f64,
    /// Probability a frame is lost entirely (stalled responder, host
    /// overrun); the receiver sees nothing.
    pub stall: f64,
}

impl WireFaultPlan {
    /// A transparent plan: no faults, but the injector machinery (and
    /// its accounting) stays in the path.
    pub fn new(seed: u64) -> Self {
        WireFaultPlan {
            seed,
            bit_flip: 0.0,
            drop_byte: 0.0,
            dup_byte: 0.0,
            burst: 0.0,
            burst_len: 8,
            truncate: 0.0,
            stall: 0.0,
        }
    }

    /// Uniform byte-fault profile: flips, drops and duplications each
    /// at `rate` per byte, plus rare frame-level faults (burst,
    /// truncation, stall) at `50 × rate` per frame — roughly the shape
    /// of a marginal but usable serial link.
    pub fn byte_noise(seed: u64, rate: f64) -> Self {
        let frame_rate = (50.0 * rate).min(1.0);
        WireFaultPlan {
            bit_flip: rate,
            drop_byte: rate,
            dup_byte: rate,
            burst: frame_rate,
            truncate: frame_rate,
            stall: frame_rate,
            ..WireFaultPlan::new(seed)
        }
    }

    /// Sets the per-frame stall (whole-frame loss) probability.
    pub fn with_stall(mut self, p: f64) -> Self {
        self.stall = p;
        self
    }
}

/// Counters for every fault actually applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireFaultStats {
    /// Frames that passed through the injector.
    pub frames_seen: u64,
    /// Bytes that passed through the injector.
    pub bytes_seen: u64,
    /// Bytes that had a bit flipped.
    pub bits_flipped: u64,
    /// Bytes silently removed.
    pub bytes_dropped: u64,
    /// Bytes duplicated.
    pub bytes_duplicated: u64,
    /// Random-byte bursts spliced into frames.
    pub bursts: u64,
    /// Frames with their tails cut off.
    pub frames_truncated: u64,
    /// Frames lost entirely.
    pub frames_stalled: u64,
}

impl WireFaultStats {
    /// Total individual fault events applied.
    pub fn total_faults(&self) -> u64 {
        self.bits_flipped
            + self.bytes_dropped
            + self.bytes_duplicated
            + self.bursts
            + self.frames_truncated
            + self.frames_stalled
    }
}

/// Applies a [`WireFaultPlan`] to frames crossing the wire.
#[derive(Debug, Clone)]
pub struct WireFaultInjector {
    plan: WireFaultPlan,
    rng: Rng64,
    stats: WireFaultStats,
}

impl WireFaultInjector {
    /// Creates an injector; the fault stream is fully determined by
    /// `plan.seed`.
    pub fn new(plan: WireFaultPlan) -> Self {
        let rng = Rng64::new(plan.seed);
        WireFaultInjector {
            plan,
            rng,
            stats: WireFaultStats::default(),
        }
    }

    /// Runs one encoded frame through the fault model, returning the
    /// bytes that actually reach the far queue (possibly empty).
    pub fn mangle(&mut self, frame: Vec<u8>) -> Vec<u8> {
        self.stats.frames_seen += 1;
        self.stats.bytes_seen += frame.len() as u64;

        if self.rng.chance(self.plan.stall) {
            self.stats.frames_stalled += 1;
            return Vec::new();
        }

        let mut bytes = frame;
        if self.rng.chance(self.plan.truncate) && !bytes.is_empty() {
            let keep = self.rng.below(bytes.len() as u64) as usize;
            bytes.truncate(keep);
            self.stats.frames_truncated += 1;
        }

        let mut out = Vec::with_capacity(bytes.len() + self.plan.burst_len);
        if self.rng.chance(self.plan.burst) {
            // Burst noise lands *before* the frame: the classic shape of
            // line glitches between frames, which is exactly what the
            // scanning decoder must skip over.
            let n = 1 + self.rng.below(self.plan.burst_len as u64) as usize;
            let mut noise = vec![0u8; n];
            self.rng.fill_bytes(&mut noise);
            out.extend_from_slice(&noise);
            self.stats.bursts += 1;
        }
        for b in bytes {
            if self.rng.chance(self.plan.drop_byte) {
                self.stats.bytes_dropped += 1;
                continue;
            }
            let b = if self.rng.chance(self.plan.bit_flip) {
                self.stats.bits_flipped += 1;
                b ^ (1u8 << self.rng.below(8))
            } else {
                b
            };
            out.push(b);
            if self.rng.chance(self.plan.dup_byte) {
                self.stats.bytes_duplicated += 1;
                out.push(b);
            }
        }
        out
    }

    /// Fault accounting so far.
    pub fn stats(&self) -> &WireFaultStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transparent_plan_passes_bytes_untouched() {
        let mut inj = WireFaultInjector::new(WireFaultPlan::new(7));
        let frame: Vec<u8> = (0..64).collect();
        assert_eq!(inj.mangle(frame.clone()), frame);
        assert_eq!(inj.stats().total_faults(), 0);
        assert_eq!(inj.stats().frames_seen, 1);
        assert_eq!(inj.stats().bytes_seen, 64);
    }

    #[test]
    fn same_seed_replays_identical_faults() {
        let plan = WireFaultPlan::byte_noise(42, 0.01);
        let mut a = WireFaultInjector::new(plan.clone());
        let mut b = WireFaultInjector::new(plan);
        for i in 0..200u64 {
            let frame: Vec<u8> = (0..48).map(|j| (i as u8).wrapping_add(j)).collect();
            assert_eq!(a.mangle(frame.clone()), b.mangle(frame));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn noisy_plan_actually_faults() {
        // 0.005/byte keeps the derived frame-level rates at 0.25, so
        // most frames still carry bytes for the byte-level faults.
        let mut inj = WireFaultInjector::new(WireFaultPlan::byte_noise(1, 0.005));
        for _ in 0..500 {
            inj.mangle(vec![0xaa; 64]);
        }
        let s = inj.stats();
        assert!(s.bits_flipped > 0, "expected bit flips: {s:?}");
        assert!(s.bytes_dropped > 0, "expected drops: {s:?}");
        assert!(s.bytes_duplicated > 0, "expected dups: {s:?}");
        assert!(s.frames_stalled > 0, "expected stalls: {s:?}");
    }

    #[test]
    fn stall_swallows_whole_frame() {
        let mut inj = WireFaultInjector::new(WireFaultPlan::new(3).with_stall(1.0));
        assert!(inj.mangle(vec![1, 2, 3]).is_empty());
        assert_eq!(inj.stats().frames_stalled, 1);
    }
}
