//! Per-fabric defense state machine.

use serde::{Deserialize, Serialize};
use slm_pdn::noise::Rng64;
use slm_sensors::TdcSensor;

use crate::config::{DefenseConfig, FenceMode};
use crate::detector::AlternationDetector;

/// Counters and extrema accumulated by a [`DefenseRuntime`] over a
/// capture — the defense-side analogue of `PdnTelemetry`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DefenseTelemetry {
    /// Fabric ticks the runtime observed.
    pub ticks: u64,
    /// Largest instantaneous injected fence current, amperes.
    pub injected_max_a: f64,
    /// Sum of per-tick injected currents (divide by `ticks` for the
    /// mean draw — the defense's power bill).
    pub injected_sum_a: f64,
    /// Detector windows completed.
    pub windows: u64,
    /// Windows scoring at or above the alarm threshold.
    pub alarm_windows: u64,
    /// Distinct alarm events (rising edges).
    pub alarm_events: u64,
    /// Most recent window score, taps.
    pub last_score: f64,
    /// Largest window score, taps.
    pub max_score: f64,
    /// Ticks spent with the adaptive fence armed at full power.
    pub armed_ticks: u64,
    /// Extra victim lead-in cycles injected by clock jitter, total.
    pub jitter_cycles: u64,
}

impl DefenseTelemetry {
    /// Mean injected fence current over the run, amperes.
    pub fn injected_mean_a(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.injected_sum_a / self.ticks as f64
        }
    }
}

/// Live defense instance owned by a fabric: the defender's TDC, the
/// detector it feeds, the fence modulation stream, and the jitter
/// stream.
///
/// The co-simulation drives it with two calls per fabric tick:
/// [`next_injection_a`] *before* the PDN step (the fence current that
/// loads the rail during this tick) and [`observe_tick`] *after* it
/// (the defender's sensor sees the settled rail voltage, updating the
/// detector and — for the adaptive fence — the arming state used by the
/// *next* tick's injection). The one-tick feedback latency is the
/// physical sensor→controller loop delay.
///
/// [`next_injection_a`]: DefenseRuntime::next_injection_a
/// [`observe_tick`]: DefenseRuntime::observe_tick
#[derive(Debug, Clone)]
pub struct DefenseRuntime {
    config: DefenseConfig,
    sensor: TdcSensor,
    fence_rng: Rng64,
    jitter_rng: Rng64,
    detector: AlternationDetector,
    armed: bool,
    telemetry: DefenseTelemetry,
}

impl DefenseRuntime {
    /// Instantiates the runtime from its configuration. The defender's
    /// sensor-noise, fence and jitter streams are independent forks of
    /// `config.seed`, so they never perturb the fabric's own streams.
    pub fn new(config: &DefenseConfig) -> Self {
        let root = Rng64::new(config.seed);
        let mut sensor_config = config.sensor;
        sensor_config.seed = root.fork(0x5e).next_u64();
        DefenseRuntime {
            sensor: TdcSensor::new(sensor_config),
            fence_rng: root.fork(0xfe),
            jitter_rng: root.fork(0xc1),
            detector: AlternationDetector::new(config.detector),
            armed: false,
            telemetry: DefenseTelemetry::default(),
            config: config.clone(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DefenseConfig {
        &self.config
    }

    /// Draws the fence current for the upcoming tick, amperes. Consumes
    /// exactly one modulation draw per tick when a PRNG-modulated fence
    /// is deployed (none for constant or absent fences), keeping the
    /// stream position a pure function of tick count.
    pub fn next_injection_a(&mut self) -> f64 {
        self.telemetry.ticks += 1;
        if self.armed {
            self.telemetry.armed_ticks += 1;
        }
        let amps = match self.config.fence {
            None => 0.0,
            Some(fence) => match fence.mode {
                FenceMode::Constant => fence.peak_current_a,
                FenceMode::Prng => self.fence_rng.uniform() * fence.peak_current_a,
                FenceMode::Adaptive(policy) => {
                    let scale = if self.armed {
                        1.0
                    } else {
                        policy.idle_fraction
                    };
                    self.fence_rng.uniform() * fence.peak_current_a * scale
                }
            },
        };
        self.telemetry.injected_max_a = self.telemetry.injected_max_a.max(amps);
        self.telemetry.injected_sum_a += amps;
        amps
    }

    /// Feeds the defender's sensor with the victim-region rail voltage
    /// after this tick's PDN step. Updates the detector and, at window
    /// boundaries, the adaptive fence's arming hysteresis.
    pub fn observe_tick(&mut self, victim_v: f64) {
        let depth = self.sensor.sample(victim_v);
        if let Some(score) = self.detector.observe(depth) {
            self.telemetry.windows = self.detector.windows();
            self.telemetry.alarm_windows = self.detector.alarm_windows();
            self.telemetry.alarm_events = self.detector.alarm_events();
            self.telemetry.last_score = score;
            self.telemetry.max_score = self.detector.max_score();
            if let Some(fence) = self.config.fence {
                if let FenceMode::Adaptive(policy) = fence.mode {
                    if self.armed {
                        if score <= policy.release_score {
                            self.armed = false;
                        }
                    } else if score >= policy.trigger_score {
                        self.armed = true;
                    }
                }
            }
        }
    }

    /// Ticks left in the current detector window: the next
    /// `feedback_horizon()` ticks are the longest run whose injections
    /// all see the current arming state, because only the
    /// [`observe_tick`] that completes a window can change it.
    ///
    /// A fabric may therefore draw that many [`next_injection_a`]
    /// currents, step the PDN over them as one block, and then replay
    /// [`observe_tick`] over the block's victim voltages, bit-identical
    /// to alternating the two calls tick by tick.
    ///
    /// [`next_injection_a`]: DefenseRuntime::next_injection_a
    /// [`observe_tick`]: DefenseRuntime::observe_tick
    pub fn feedback_horizon(&self) -> usize {
        self.detector.ticks_to_window_end() as usize
    }

    /// Draws the extra victim lead-in for one encryption, AES cycles.
    /// Zero (and no stream consumption) when clock jitter is not
    /// deployed.
    pub fn draw_jitter_cycles(&mut self) -> u32 {
        match self.config.clock_jitter {
            None => 0,
            Some(jitter) => {
                let extra = self.jitter_rng.below(u64::from(jitter.max_cycles) + 1) as u32;
                self.telemetry.jitter_cycles += u64::from(extra);
                extra
            }
        }
    }

    /// Whether the adaptive fence is currently armed at full power.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// The detector (read access for monitoring planes).
    pub fn detector(&self) -> &AlternationDetector {
        &self.detector
    }

    /// Telemetry accumulated so far.
    pub fn telemetry(&self) -> &DefenseTelemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdaptivePolicy, ClockJitterConfig, DefenseConfig, FenceSpec};
    use crate::detector::DetectorConfig;

    fn base() -> DefenseConfig {
        DefenseConfig {
            detector: DetectorConfig {
                window_ticks: 60,
                alarm_threshold: 0.5,
            },
            ..DefenseConfig::default()
        }
    }

    #[test]
    fn no_fence_injects_nothing() {
        let mut rt = DefenseRuntime::new(&base());
        for _ in 0..100 {
            assert_eq!(rt.next_injection_a(), 0.0);
            rt.observe_tick(1.0);
        }
        assert_eq!(rt.telemetry().ticks, 100);
        assert_eq!(rt.telemetry().injected_max_a, 0.0);
        assert_eq!(rt.telemetry().injected_mean_a(), 0.0);
    }

    #[test]
    fn constant_fence_injects_peak_every_tick() {
        let mut cfg = base();
        cfg.fence = Some(FenceSpec::constant(0.8));
        let mut rt = DefenseRuntime::new(&cfg);
        for _ in 0..10 {
            assert_eq!(rt.next_injection_a(), 0.8);
        }
        assert!((rt.telemetry().injected_mean_a() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn prng_fence_spans_range_and_is_seeded() {
        let mut cfg = base();
        cfg.fence = Some(FenceSpec::prng(1.2));
        let draws: Vec<f64> = {
            let mut rt = DefenseRuntime::new(&cfg);
            (0..1000).map(|_| rt.next_injection_a()).collect()
        };
        assert!(draws.iter().all(|&a| (0.0..1.2).contains(&a)));
        let spread = draws.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - draws.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.8, "modulation too narrow: {spread}");
        // Same seed → identical stream.
        let mut rt2 = DefenseRuntime::new(&cfg);
        let again: Vec<f64> = (0..1000).map(|_| rt2.next_injection_a()).collect();
        assert_eq!(draws, again);
    }

    #[test]
    fn adaptive_fence_arms_on_alternation_and_releases_when_quiet() {
        let mut cfg = base();
        cfg.fence = Some(FenceSpec {
            mode: FenceMode::Adaptive(AdaptivePolicy {
                trigger_score: 0.5,
                release_score: 0.2,
                idle_fraction: 0.0,
            }),
            peak_current_a: 1.0,
        });
        // Noise-free defender sensor so window scores are exact.
        cfg.sensor.jitter_ps = 0.0;
        let mut rt = DefenseRuntime::new(&cfg);

        // Quiet rail: no arming, idle fence draws nothing.
        for _ in 0..60 {
            assert_eq!(rt.next_injection_a(), 0.0);
            rt.observe_tick(1.0);
        }
        assert!(!rt.armed());

        // Rail alternating by ±4 mV (≈ ±2 taps) every tick: the window
        // score jumps past the trigger and the fence arms.
        for t in 0..60 {
            rt.next_injection_a();
            rt.observe_tick(if t % 2 == 0 { 1.004 } else { 0.996 });
        }
        assert!(rt.armed(), "score {}", rt.detector().last_score());
        // Armed fence now actually injects.
        let armed_draws: Vec<f64> = (0..20).map(|_| rt.next_injection_a()).collect();
        assert!(armed_draws.iter().any(|&a| a > 0.1));
        assert!(rt.telemetry().armed_ticks > 0);

        // Quiet again: the hysteresis releases at the next boundary.
        for _ in 0..60 {
            rt.observe_tick(1.0);
        }
        assert!(!rt.armed());
        assert!(rt.telemetry().alarm_events >= 1);
    }

    #[test]
    fn feedback_horizon_counts_down_to_the_window_end() {
        // base() runs 60-tick windows.
        let mut rt = DefenseRuntime::new(&base());
        assert_eq!(rt.feedback_horizon(), 60);
        for t in 1..60 {
            rt.observe_tick(1.0);
            assert_eq!(rt.feedback_horizon(), 60 - t);
        }
        rt.observe_tick(1.0);
        assert_eq!(rt.telemetry().windows, 1);
        assert_eq!(rt.feedback_horizon(), 60);
    }

    #[test]
    fn jitter_draws_bounded_and_seeded() {
        let mut cfg = base();
        cfg.clock_jitter = Some(ClockJitterConfig { max_cycles: 5 });
        let mut rt = DefenseRuntime::new(&cfg);
        let draws: Vec<u32> = (0..500).map(|_| rt.draw_jitter_cycles()).collect();
        assert!(draws.iter().all(|&c| c <= 5));
        assert!(draws.contains(&0) && draws.contains(&5));
        assert_eq!(
            rt.telemetry().jitter_cycles,
            draws.iter().map(|&c| u64::from(c)).sum::<u64>()
        );
        let mut rt2 = DefenseRuntime::new(&cfg);
        let again: Vec<u32> = (0..500).map(|_| rt2.draw_jitter_cycles()).collect();
        assert_eq!(draws, again);
    }

    #[test]
    fn disabled_jitter_draws_zero_without_consuming_stream() {
        let mut rt = DefenseRuntime::new(&base());
        for _ in 0..10 {
            assert_eq!(rt.draw_jitter_cycles(), 0);
        }
        assert_eq!(rt.telemetry().jitter_cycles, 0);
    }
}
