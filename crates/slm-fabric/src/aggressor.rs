//! PDN fault-injection aggressor (FLARE / "Hacking the Fabric" style).
//!
//! The same shared-PDN coupling the paper exploits for *sensing* also
//! works in reverse: a malicious tenant that switches enough current
//! droops the victim region's rail, gate delays stretch under the
//! alpha-power law, and late-arriving bits of the victim's combinational
//! cone miss the clock edge — a timing-violation fault, injected with
//! zero wires crossed.
//!
//! Three pieces live here:
//!
//! * [`AggressorSpec`] — the attacker's current profile: a square-wave
//!   duty cycle over the 300 MHz fabric tick. Deliberately RNG-free: the
//!   drawn current is a pure function of the tick index, so a sharded
//!   campaign needs no seed lane for it and disabled aggressors are
//!   trivially bit-exact (the same discipline as the PR 5 defenses).
//! * [`VictimCone`] — the victim's critical combinational cone, timed
//!   once by [`slm_timing::StaEngine`] and checked per AES cycle against
//!   the voltage-derated clock-period criterion
//!   ([`slm_timing::StaEngine::derated_violations`] pins the linearity
//!   this relies on).
//! * [`FaultTelemetry`] — what actually happened: cycles that violated,
//!   bits flipped, deepest victim droop.

use crate::error::FabricError;
use serde::{Deserialize, Serialize};
use slm_netlist::generators::ripple_carry_adder;
use slm_timing::{DelayModel, StaEngine, VoltageDelayLaw};

/// Duty-cycled current profile of a fault-injection aggressor.
///
/// Within each `period_ticks`-tick period the aggressor draws
/// `peak_current_a` amps for the first `on_ticks` ticks (after the
/// `phase_ticks` offset) and nothing for the rest. The square wave is a
/// faithful model of how FPGA aggressors are actually built — a bank of
/// ring oscillators or clock-gated shift registers toggled by a counter
/// — and its duty period is exactly the knob the
/// [`slm_defense::AlternationDetector`] keys on, which is what the
/// combined SCA/FI matrix sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggressorSpec {
    /// Current drawn during the on-phase, amps.
    pub peak_current_a: f64,
    /// On-phase length, fabric ticks.
    pub on_ticks: u64,
    /// Full duty period, fabric ticks.
    pub period_ticks: u64,
    /// Offset of the first on-phase within the period, ticks (lets
    /// sweeps slide the on-window across the AES schedule).
    pub phase_ticks: u64,
}

impl AggressorSpec {
    /// A square-wave aggressor with zero phase offset.
    ///
    /// # Panics
    ///
    /// Panics if `period_ticks` is zero or `on_ticks > period_ticks`.
    pub fn square(peak_current_a: f64, on_ticks: u64, period_ticks: u64) -> Self {
        assert!(period_ticks > 0, "aggressor period must be positive");
        assert!(on_ticks <= period_ticks, "on-phase exceeds period");
        AggressorSpec {
            peak_current_a,
            on_ticks,
            period_ticks,
            phase_ticks: 0,
        }
    }

    /// The stealthy operating point: a short, *even-length* burst in an
    /// odd, encryption-length-coprime period (12 of 151 ticks).
    ///
    /// Even-length constant runs cancel in the detector's alternating
    /// sum, and gcd(151, ticks-per-encryption) = 1 sweeps the burst
    /// across every phase of the AES schedule, so round-9 cycles are
    /// hit without any synchronization to the victim. The burst is kept
    /// short so the PDN droop peak is narrow: the violating window then
    /// spans only a few AES cycles and frequently lands *inside* round 9
    /// without clipping round 8 — exactly the clean single-round faults
    /// DFA wants. (Longer on-phases at the same peak mostly produce
    /// early-round avalanche faults, which DFA has to discard.)
    pub fn stealthy(peak_current_a: f64) -> Self {
        Self::square(peak_current_a, 12, 151)
    }

    /// The detector's home turf: toggling at the tick rate (1 of 2
    /// ticks), the Nyquist-rate signature the alternation detector was
    /// built to flag.
    pub fn tick_rate(peak_current_a: f64) -> Self {
        Self::square(peak_current_a, 1, 2)
    }

    /// Fraction of each period spent drawing current.
    pub fn duty_fraction(&self) -> f64 {
        self.on_ticks as f64 / self.period_ticks as f64
    }

    /// Current drawn at fabric tick `tick`, amps — a pure function, no
    /// stream state.
    pub fn current_a(&self, tick: u64) -> f64 {
        let phase = tick.wrapping_add(self.period_ticks - self.phase_ticks % self.period_ticks)
            % self.period_ticks;
        if phase < self.on_ticks {
            self.peak_current_a
        } else {
            0.0
        }
    }

    /// A content-derived tag for seed-lane derivation in matrix sweeps
    /// (two distinct specs get distinct lanes with overwhelming
    /// probability; the same spec always gets the same lane).
    pub fn tag(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for w in [
            self.peak_current_a.to_bits(),
            self.on_ticks,
            self.period_ticks,
            self.phase_ticks,
        ] {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// Fraction of the full-round cone depth active in the final AES round:
/// round 10 has no MixColumns, so its combinational cone is much
/// shallower and (at realistic droops) never violates — which is why
/// the induced faults land in rounds 1–9 and classic last-round DFA
/// applies.
const ROUND10_CONE_FRACTION: f64 = 0.62;

/// The victim's per-column combinational cone, timed once at nominal
/// voltage.
///
/// The cone is modeled as a 32-bit carry chain
/// ([`ripple_carry_adder`]`(32)`) calibrated so its critical endpoint
/// arrives at `critical_ns` — the victim column's worst slack against
/// its own clock period. Endpoints are rank-interleaved across the
/// column's four bytes (deepest endpoint → byte 0 bit 0, next → byte 1
/// bit 0, …), matching how synthesis spreads a column's late bits over
/// four byte registers: marginal droop flips one bit in each byte, and
/// deeper droop grows each byte's flipped-low-bit run — small per-byte
/// Hamming distances, the regime single-byte DFA models.
#[derive(Debug, Clone)]
pub struct VictimCone {
    /// Nominal endpoint arrivals, ns, indexed by rank (0 = deepest).
    arrival_ns: Vec<f64>,
    law: VoltageDelayLaw,
    period_ns: f64,
}

impl VictimCone {
    /// Times the victim cone: generates the carry-chain netlist,
    /// calibrates the annotation so the critical path lands at
    /// `critical_ns`, and reads the endpoint arrivals out of a
    /// [`StaEngine`] pass.
    ///
    /// # Errors
    ///
    /// Propagates netlist generation and timing analysis failures.
    pub fn build(
        delay_model: &DelayModel,
        critical_ns: f64,
        period_ns: f64,
    ) -> Result<Self, FabricError> {
        let nl = ripple_carry_adder(32)?;
        let ann = delay_model.annotate_for_period(&nl, critical_ns, 1.0)?;
        let engine = StaEngine::new(&ann)?;
        let mut arrival_ns: Vec<f64> = engine
            .output_arrivals_ps()
            .into_iter()
            .map(|ps| ps / 1000.0)
            .collect();
        // Deepest first; keep the 32 latest endpoints (the carry-out
        // rides along with the 32 sum bits).
        arrival_ns.sort_by(|a, b| b.partial_cmp(a).expect("arrivals are finite"));
        arrival_ns.truncate(32);
        Ok(VictimCone {
            arrival_ns,
            law: VoltageDelayLaw::default(),
            period_ns,
        })
    }

    /// Nominal endpoint arrivals, ns, deepest first.
    pub fn arrival_ns(&self) -> &[f64] {
        &self.arrival_ns
    }

    /// The delay-vs-voltage law the cone is derated with.
    pub fn law(&self) -> &VoltageDelayLaw {
        &self.law
    }

    /// XOR fault mask for one AES column captured while the victim rail
    /// bottomed out at `v_min`: byte `b` of the mask covers state bytes
    /// `4c + b` of the captured column.
    ///
    /// An endpoint flips when its voltage-derated arrival misses the
    /// clock edge: `arrival × scale(v_min) > period` (for the final
    /// round the arrival is first shrunk by `ROUND10_CONE_FRACTION`, 0.62).
    /// All-nominal voltage returns the zero mask.
    ///
    /// `rotation` shifts the rank→byte assignment within the column.
    /// Which endpoints of a carry chain are *actually* near-critical
    /// depends on the operands propagating through it, not just the
    /// static worst case; callers pass a data-derived rotation so that
    /// marginal droops (which only overrun the deepest ranks) fault
    /// different bytes of the column on different encryptions. A fixed
    /// rotation of 0 reproduces the static worst-case ordering.
    pub fn column_fault_mask(&self, v_min: f64, last_round: bool, rotation: usize) -> [u8; 4] {
        let scale = self.law.scale(v_min);
        let depth = if last_round {
            ROUND10_CONE_FRACTION
        } else {
            1.0
        };
        let mut mask = [0u8; 4];
        for (rank, arrival) in self.arrival_ns.iter().enumerate() {
            if arrival * depth * scale > self.period_ns {
                mask[(rank + rotation) % 4] |= 1u8 << (rank / 4);
            }
        }
        mask
    }

    /// The shallowest victim voltage that still meets timing: droops
    /// below this flip at least one bit per column.
    pub fn fault_threshold_v(&self) -> f64 {
        let deepest = self.arrival_ns.first().copied().unwrap_or(0.0);
        if deepest <= 0.0 {
            return 0.0;
        }
        self.law.voltage_for_scale(self.period_ns / deepest)
    }
}

/// Ground-truth accounting of the induced faults (simulation-side
/// telemetry, not attacker-visible data).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultTelemetry {
    /// Encryptions run with the aggressor mounted.
    pub encryptions: u64,
    /// Encryptions whose ciphertext was corrupted.
    pub faulted_encryptions: u64,
    /// AES capture cycles that violated timing.
    pub fault_cycles: u64,
    /// Total state bits flipped across all faults.
    pub flipped_bits: u64,
    /// Deepest victim-rail voltage seen during captures, volts.
    pub min_victim_v: f64,
}

impl FaultTelemetry {
    pub(crate) fn new(v_nominal: f64) -> Self {
        FaultTelemetry {
            encryptions: 0,
            faulted_encryptions: 0,
            fault_cycles: 0,
            flipped_bits: 0,
            min_victim_v: v_nominal,
        }
    }

    /// Induced-fault rate per 1000 encryptions.
    pub fn faults_per_1k(&self) -> f64 {
        if self.encryptions == 0 {
            return 0.0;
        }
        1000.0 * self.faulted_encryptions as f64 / self.encryptions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_wave_shape_and_phase() {
        let a = AggressorSpec::square(2.0, 3, 10);
        let on: Vec<u64> = (0..20).filter(|&t| a.current_a(t) > 0.0).collect();
        assert_eq!(on, vec![0, 1, 2, 10, 11, 12]);
        assert_eq!(a.duty_fraction(), 0.3);
        // A phase offset slides the on-window without changing the duty.
        let shifted = AggressorSpec {
            phase_ticks: 4,
            ..a
        };
        let on: Vec<u64> = (0..20).filter(|&t| shifted.current_a(t) > 0.0).collect();
        assert_eq!(on, vec![4, 5, 6, 14, 15, 16]);
    }

    #[test]
    fn zero_on_ticks_never_draws() {
        let a = AggressorSpec::square(5.0, 0, 7);
        assert!((0..50).all(|t| a.current_a(t) == 0.0));
    }

    #[test]
    #[should_panic(expected = "on-phase exceeds period")]
    fn oversized_on_phase_panics() {
        let _ = AggressorSpec::square(1.0, 11, 10);
    }

    #[test]
    fn tags_distinguish_specs() {
        let a = AggressorSpec::stealthy(3.5);
        let b = AggressorSpec::tick_rate(3.5);
        let c = AggressorSpec::stealthy(3.0);
        assert_ne!(a.tag(), b.tag());
        assert_ne!(a.tag(), c.tag());
        assert_eq!(a.tag(), AggressorSpec::stealthy(3.5).tag());
    }

    #[test]
    fn cone_flips_nothing_at_nominal_and_deepest_first_under_droop() {
        let cone = VictimCone::build(&DelayModel::default(), 9.0, 10.0).unwrap();
        assert_eq!(cone.arrival_ns().len(), 32);
        assert!((cone.arrival_ns()[0] - 9.0).abs() < 1e-9, "calibrated");
        assert_eq!(cone.column_fault_mask(1.0, false, 0), [0u8; 4]);
        // Just past the threshold, only low bits flip; flipped-bit count
        // grows monotonically as the rail sinks.
        let threshold = cone.fault_threshold_v();
        assert!(threshold < 1.0 && threshold > 0.9, "threshold {threshold}");
        let mut prev = 0u32;
        for mv in 1..60 {
            let v = threshold - f64::from(mv) * 1e-3;
            let mask = cone.column_fault_mask(v, false, 0);
            let bits: u32 = mask.iter().map(|b| b.count_ones()).sum();
            assert!(bits >= prev, "monotone at v = {v}");
            prev = bits;
        }
        assert!(prev >= 4, "deep droop flips several bits: {prev}");
        // Marginal droop keeps per-byte Hamming distance at 1 — the
        // single-byte DFA regime.
        let marginal = cone.column_fault_mask(threshold - 2e-3, false, 0);
        assert!(marginal.iter().any(|&b| b != 0));
        assert!(marginal.iter().all(|&b| b.count_ones() <= 1));
    }

    #[test]
    fn round10_cone_is_far_harder_to_fault() {
        let cone = VictimCone::build(&DelayModel::default(), 9.0, 10.0).unwrap();
        // A droop that solidly faults a MixColumns round leaves the
        // shallow final round intact.
        let v = cone.fault_threshold_v() - 0.02;
        assert_ne!(cone.column_fault_mask(v, false, 0), [0u8; 4]);
        assert_eq!(cone.column_fault_mask(v, true, 0), [0u8; 4]);
    }

    #[test]
    fn cone_mask_agrees_with_derated_sta_engine() {
        // The fabric's per-cycle check must be the StaEngine criterion:
        // rebuild the annotation, derate it by scale(v), re-run STA and
        // compare violation sets endpoint by endpoint.
        let model = DelayModel::default();
        let cone = VictimCone::build(&model, 9.0, 10.0).unwrap();
        let nl = ripple_carry_adder(32).unwrap();
        let ann = model.annotate_for_period(&nl, 9.0, 1.0).unwrap();
        let engine = StaEngine::new(&ann).unwrap();
        for v in [0.97, 0.945, 0.93, 0.91] {
            let scale = cone.law().scale(v);
            let violating = engine.derated_violations(scale, 10.0 * 1000.0);
            let mask = cone.column_fault_mask(v, false, 0);
            let flipped: u32 = mask.iter().map(|b| b.count_ones()).sum();
            // Ranks are a sorted view of the same arrivals, so the
            // violation *count* must match exactly (the cone keeps the
            // 32 deepest of 33 endpoints; the dropped shallowest can
            // never violate before all kept ones do).
            assert_eq!(
                flipped.min(32),
                (violating.len() as u32).min(32),
                "at v = {v}"
            );
        }
    }
}
