//! The digest the campaign and matrix pin tests share: FNV-1a over a
//! stream of little-endian words, with every `f64` taken by its bits,
//! so a digest matches only a bit-identical value. Results are hashed
//! field by field through their public API; nothing here hashes `Debug`
//! text, so a private field never moves a pin.

// Each pin test uses the part of the digest its results need.
#![allow(dead_code)]

use slm_core::experiments::{CpaResult, DefenseArm, DetectorReading};
use slm_cpa::DfaAttack;
use slm_obs::MetricsFrame;

/// An FNV-1a digest in progress.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn opt(&mut self, v: Option<u64>) {
        match v {
            None => self.u64(0),
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
        }
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    pub fn arm(&mut self, arm: &DefenseArm) {
        match *arm {
            DefenseArm::Undefended => self.u64(0),
            DefenseArm::ConstantFence(a) => {
                self.u64(1);
                self.f64(a);
            }
            DefenseArm::PrngFence(a) => {
                self.u64(2);
                self.f64(a);
            }
            DefenseArm::AdaptiveFence(a) => {
                self.u64(3);
                self.f64(a);
            }
            DefenseArm::Ldo(r) => {
                self.u64(4);
                self.f64(r);
            }
            DefenseArm::ClockJitter(c) => {
                self.u64(5);
                self.u64(u64::from(c));
            }
        }
    }

    /// Every public field of a campaign result: key byte, recovered
    /// byte, MTD, each progress point's peaks, final peaks, the pilot's
    /// endpoint choice and the trace count.
    pub fn cpa(&mut self, r: &CpaResult) {
        self.u64(u64::from(r.correct_key_byte));
        self.opt(r.recovered_key_byte.map(u64::from));
        self.opt(r.mtd);
        self.u64(r.progress.len() as u64);
        for point in &r.progress {
            self.u64(point.traces);
            self.u64(point.peak_corr.len() as u64);
            point.peak_corr.iter().for_each(|&c| self.f64(c));
        }
        self.u64(r.final_peaks.len() as u64);
        r.final_peaks.iter().for_each(|&c| self.f64(c));
        self.u64(r.bits_of_interest.len() as u64);
        r.bits_of_interest.iter().for_each(|&b| self.u64(b as u64));
        self.opt(r.selected_bit.map(|b| b as u64));
        self.u64(r.traces);
    }

    /// A DFA accumulator through what it answers: pair counts, each
    /// byte's best and runner-up vote counts, and the master key.
    pub fn dfa(&mut self, dfa: &DfaAttack) {
        let (accepted, unfaulted, discarded) = dfa.pair_counts();
        [accepted, unfaulted, discarded]
            .into_iter()
            .for_each(|v| self.u64(v));
        for jd in 0..16 {
            let (best, second) = dfa.margin(jd);
            self.u64(u64::from(best));
            self.u64(u64::from(second));
        }
        let master = dfa.recovered_master_key();
        self.u64(u64::from(master.is_some()));
        master.iter().for_each(|k| self.key(k));
    }

    pub fn key(&mut self, key: &[u8; 16]) {
        key.iter().for_each(|&b| self.u64(u64::from(b)));
    }

    pub fn reading(&mut self, r: &DetectorReading) {
        self.u64(r.windows);
        self.u64(r.alarm_windows);
        self.u64(r.alarm_events);
        self.f64(r.max_score);
    }

    /// Counters, gauge and histogram bits, and span counts of the
    /// frame's wall-clock-free view.
    pub fn frame(&mut self, frame: &MetricsFrame) {
        let frame = frame.deterministic();
        for (name, &v) in &frame.counters {
            self.str(name);
            self.u64(v);
        }
        for (name, g) in &frame.gauges {
            self.str(name);
            [g.last, g.min, g.max].into_iter().for_each(|v| self.f64(v));
            self.u64(g.count);
        }
        for (name, h) in &frame.histograms {
            self.str(name);
            self.u64(h.count);
            [h.sum, h.min, h.max].into_iter().for_each(|v| self.f64(v));
        }
        for (name, s) in &frame.spans {
            self.str(name);
            self.u64(s.count);
        }
    }
}
