//! The multi-tenant electrical co-simulation.

use crate::aggressor::{AggressorSpec, FaultTelemetry, VictimCone};
use crate::circuit::BenignCircuit;
use crate::error::FabricError;
use serde::{Deserialize, Serialize};
use slm_aes::{Aes32Rtl, LeakageModel};
use slm_defense::{DefenseConfig, DefenseRuntime, DefenseTelemetry};
use slm_pdn::noise::Rng64;
use slm_pdn::{MultiRegionPdn, PdnConfig};
use slm_sensors::{BenignSensor, BenignSensorConfig, RoArray, SensorSample, TdcConfig, TdcSensor};
use slm_timing::{simulate_transition, DelayModel, Waveform};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Full configuration of the experimental setup (the paper's Fig. 2).
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Which benign circuit the attacker tenant hosts.
    pub benign: BenignCircuit,
    /// The victim's AES-128 key.
    pub aes_key: [u8; 16],
    /// Shared-PDN electrical parameters.
    pub pdn: PdnConfig,
    /// AES datapath leakage parameters.
    pub leakage: LeakageModel,
    /// Benign-sensor operating point (overclock, skew, jitter).
    pub sensor: BenignSensorConfig,
    /// Reference TDC sensor configuration.
    pub tdc: TdcConfig,
    /// Gate/routing delay model for the benign circuit.
    pub delay_model: DelayModel,
    /// Period the benign circuit was *constrained* to, ns (paper: 20 ns
    /// = 50 MHz). Used by the strict-timing checker story.
    pub synth_period_ns: f64,
    /// Critical-path delay the mapper actually achieved, ns. Synthesis
    /// beats its constraint: a carry chain packed into CARRY4-style
    /// primitives lands near 5 ns, not at the 20 ns budget — which is
    /// why a 300 MHz overclock probes the *middle* of the chain and
    /// every few-picosecond delay step is a distinct endpoint threshold.
    pub achieved_critical_ns: f64,
    /// The RO fluctuation-generator array.
    pub ro: RoArray,
    /// Whether the victim AES core uses a first-order-masked datapath
    /// (the "masking" countermeasure of the side-channel literature the
    /// paper cites). Ciphertexts are unchanged; first-order CPA fails.
    pub masked_aes: bool,
    /// Electrical coupling between the victim's PDN region and the
    /// attacker's (1.0 = same region, as the paper's single-die setup;
    /// lower values model greater placement distance between tenants,
    /// the sensitivity Glamočanin et al. measured on cloud FPGAs).
    pub victim_coupling: f64,
    /// Static current of the rest of the design, amps.
    pub background_current_a: f64,
    /// Relative amplitude of the attacker tenant's reset/measure
    /// stimulus alternation. The sensing circuit toggles between its
    /// reset and measure vectors every 300 MHz tick, so its switching
    /// current is not constant: it swings by this fraction of the mean
    /// benign activity current at the tick rate. `0.0` (the default)
    /// models a perfectly balanced stimulus pair and reproduces the
    /// pre-defense electrical behavior bit-for-bit; realistic vector
    /// pairs are asymmetric by tens of percent, which is the signature
    /// the defender's [`DefenseConfig`] anomaly detector keys on.
    pub stimulus_alternation: f64,
    /// Runtime countermeasures deployed by the defender, if any.
    pub defense: Option<DefenseConfig>,
    /// Critical-path delay of the victim's per-column AES cone, ns,
    /// against its 10 ns (100 MHz) clock period. The default 9.0 ns
    /// models a reasonably tight but meeting design: ~47 mV of droop
    /// erases the margin and the deepest endpoint starts missing the
    /// clock edge. Only consulted by the fault-injection path; the CPA
    /// substrate never reads it.
    pub victim_critical_ns: f64,
    /// Optional fault-injection aggressor mounted in the attacker
    /// region. `None` (the default) is bit-exact with the pre-aggressor
    /// fabric.
    pub aggressor: Option<AggressorSpec>,
    /// Master seed (plaintext generation and housekeeping noise).
    pub seed: u64,
}

impl FabricConfig {
    /// The same setup re-seeded for shard `index` of a sharded
    /// campaign.
    ///
    /// Plaintext generation, sensor jitter, TDC jitter and the defense
    /// (if deployed, its fence, clock jitter and defender TDC included)
    /// each get an independent lane derived with [`slm_par::mix_seed`].
    /// The supply-noise stream (`pdn.seed`) is *not* re-laned: the
    /// pilot and every shard fabric replay one supply-noise sequence
    /// from their own first tick, so shards are independent in
    /// everything but the PDN's wideband noise. The mapping depends only on `(config, index)`, never on
    /// which worker executes the shard: that purity is what makes a
    /// parallel campaign bit-identical to the serial shard-by-shard
    /// run.
    ///
    /// The fault-injection aggressor needs no lane: its current is a
    /// pure function of the tick index ([`AggressorSpec::current_a`]),
    /// so every shard drives the identical duty cycle by construction.
    pub fn for_shard(&self, index: usize) -> FabricConfig {
        let lane = index as u64;
        let mut config = self.clone();
        config.seed = slm_par::mix_seed(self.seed, lane);
        config.sensor.seed = slm_par::mix_seed(self.sensor.seed, lane);
        config.tdc.seed = slm_par::mix_seed(self.tdc.seed, lane);
        if let Some(defense) = &mut config.defense {
            defense.seed = slm_par::mix_seed(defense.seed, lane);
        }
        config
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            benign: BenignCircuit::Alu192,
            aes_key: [
                0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                0x4f, 0x3c,
            ],
            pdn: PdnConfig::default(),
            leakage: LeakageModel::default(),
            sensor: BenignSensorConfig::overclocked_300mhz(0xa11ce),
            tdc: TdcConfig::paper_150mhz(0x7dc0),
            delay_model: DelayModel::default(),
            synth_period_ns: 20.0,
            achieved_critical_ns: 5.2,
            ro: RoArray::paper_8000(),
            masked_aes: false,
            victim_coupling: 1.0,
            background_current_a: 0.25,
            stimulus_alternation: 0.0,
            defense: None,
            victim_critical_ns: 9.0,
            aggressor: None,
            seed: 0x5ca1ab1e,
        }
    }
}

/// On/off schedule of the RO array, in 300 MHz ticks.
///
/// Within each period the enabled fraction ramps linearly from 0 to 1
/// over `ramp_ticks`, holds at 1 for `hold_ticks`, then switches off
/// instantly — "gradually enabled and suddenly disabled" (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoSchedule {
    /// Full period, ticks.
    pub period_ticks: u64,
    /// Linear enable ramp, ticks.
    pub ramp_ticks: u64,
    /// Full-on hold after the ramp, ticks.
    pub hold_ticks: u64,
    /// Ticks before the first period starts (array disabled).
    pub lead_in_ticks: u64,
}

impl RoSchedule {
    /// The paper's 4 MHz gating at a 300 MHz tick (75-tick period), with
    /// a 40-sample lead-in so plots show the quiet baseline first.
    pub fn paper_4mhz() -> Self {
        RoSchedule {
            period_ticks: 75,
            ramp_ticks: 50,
            hold_ticks: 15,
            lead_in_ticks: 80,
        }
    }

    /// Enabled fraction at a given tick.
    fn fraction_at(&self, tick: u64) -> f64 {
        if tick < self.lead_in_ticks {
            return 0.0;
        }
        let phase = (tick - self.lead_in_ticks) % self.period_ticks;
        if phase < self.ramp_ticks {
            (phase as f64 + 1.0) / self.ramp_ticks as f64
        } else if phase < self.ramp_ticks + self.hold_ticks {
            1.0
        } else {
            0.0
        }
    }
}

/// What the AES tenant does during an activity run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AesActivity {
    /// Victim idle (constant background only).
    Idle,
    /// Victim encrypts random blocks back to back.
    Continuous,
}

/// Captured record of one encryption (ciphertext plus synchronized
/// sensor streams), as the BRAM + UART path would deliver it to the
/// workstation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaptureRecord {
    /// The ciphertext returned to the workstation.
    pub ciphertext: [u8; 16],
    /// Benign-sensor captures, one per measure edge (150 MS/s effective).
    pub benign: Vec<SensorSample>,
    /// TDC thermometer depths on the same edges.
    pub tdc: Vec<u32>,
}

/// A free-running activity capture (no per-trace alignment), used by the
/// preliminary RO/AES influence experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityTrace {
    /// Benign-sensor captures per measure edge.
    pub benign: Vec<SensorSample>,
    /// TDC depths per measure edge.
    pub tdc: Vec<u32>,
    /// True supply voltage at each measure edge (simulation ground
    /// truth, not attacker-visible).
    pub voltage: Vec<f64>,
    /// Enabled RO count at each measure edge.
    pub ro_enabled: Vec<usize>,
}

/// The expensive, noise-independent slice of a fabric build: the benign
/// circuit's simulated endpoint waveforms and the activity current
/// derived from them.
///
/// Everything in a prototype is a pure function of
/// `(benign, delay_model, achieved_critical_ns)` — netlist generation,
/// delay annotation, and the reset→measure event simulation involve no
/// noise streams. Sharded campaigns re-seed only noise lanes
/// ([`FabricConfig::for_shard`]), so the pilot fabric and all shard
/// fabrics of a campaign share one prototype instead of re-running the
/// ~12 ms netlist + STA + event-sim build per shard. Profiling showed
/// that redundant rebuild was ~80% of a 4k-trace campaign's wall clock
/// and the reason the parallel pipeline didn't scale.
#[derive(Debug)]
pub struct FabricPrototype {
    /// Endpoint (output) waveforms under the reset→measure stimulus.
    waves: Vec<Waveform>,
    /// Mean switching current of the benign circuit, amps.
    benign_activity_current_a: f64,
    /// The victim's per-column combinational cone, timed once — pure in
    /// `(delay_model, victim_critical_ns)`, so it belongs to the
    /// noise-free prototype slice and shard reseeds share it.
    victim_cone: VictimCone,
}

impl FabricPrototype {
    /// Builds the prototype from scratch: generates the netlist,
    /// calibrates delays for the achieved critical path, and event-
    /// simulates the reset→measure transition once.
    ///
    /// # Errors
    ///
    /// Propagates circuit generation and timing analysis failures.
    pub fn build(config: &FabricConfig) -> Result<Self, FabricError> {
        let built = config.benign.build()?;
        let ann = config.delay_model.annotate_for_period(
            &built.netlist,
            config.achieved_critical_ns,
            1.0,
        )?;
        let waves = simulate_transition(&ann, &built.reset, &built.measure)?;
        // The benign circuit's own switching draws a roughly constant
        // current every measure cycle, proportional to its activity.
        let benign_activity_current_a = 1.0e-6 * waves.total_transitions() as f64;
        let victim_period_ns = MultiTenantFabric::TICKS_PER_AES_CYCLE as f64 * 1e9 / 300.0e6;
        let victim_cone = VictimCone::build(
            &config.delay_model,
            config.victim_critical_ns,
            victim_period_ns,
        )?;
        Ok(FabricPrototype {
            waves: waves.into_output_waves(),
            benign_activity_current_a,
            victim_cone,
        })
    }

    /// Fetches (or builds and caches) the prototype for a configuration.
    ///
    /// The cache key covers every input the prototype depends on; noise
    /// seeds and electrical parameters are deliberately excluded, which
    /// is what lets `for_shard` reseeds hit. Build errors are not
    /// cached. The cache is process-global and bounded: it resets once
    /// it holds 32 distinct prototypes (campaigns use one or two).
    fn cached(config: &FabricConfig) -> Result<Arc<Self>, FabricError> {
        static CACHE: OnceLock<Mutex<HashMap<String, Arc<FabricPrototype>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = format!(
            "{:?}|{:?}|{}|{}",
            config.benign,
            config.delay_model,
            config.achieved_critical_ns,
            config.victim_critical_ns
        );
        if let Some(hit) = cache.lock().expect("prototype cache poisoned").get(&key) {
            return Ok(Arc::clone(hit));
        }
        // Build outside the lock so concurrent shard workers aren't
        // serialized behind one builder (worst case: a few redundant
        // builds on a cold cache, last writer wins — all bit-identical).
        let proto = Arc::new(Self::build(config)?);
        let mut map = cache.lock().expect("prototype cache poisoned");
        if map.len() >= 32 {
            map.clear();
        }
        Ok(Arc::clone(
            map.entry(key).or_insert_with(|| Arc::clone(&proto)),
        ))
    }
}

/// Live aggressor state: the spec, the timed cone it attacks, and the
/// ground-truth fault accounting.
#[derive(Debug, Clone)]
struct AggressorState {
    spec: AggressorSpec,
    cone: VictimCone,
    telemetry: FaultTelemetry,
}

/// The living fabric: all tenants sharing one PDN, stepped on the
/// 300 MHz sensor clock (one tick = 3.33 ns; the 100 MHz AES core
/// advances every 3 ticks; sensors capture every 2nd tick, giving the
/// paper's 150 MS/s effective rate).
#[derive(Debug, Clone)]
pub struct MultiTenantFabric {
    config: FabricConfig,
    aes: Aes32Rtl,
    sensor: BenignSensor,
    tdc: TdcSensor,
    /// Two coupled regions: 0 = attacker (sensors, ROs, background),
    /// 1 = victim (AES).
    pdn: MultiRegionPdn,
    /// Capture scratch, reused across encryptions and activity runs:
    /// every tick's `[attacker, victim]` currents, then the PDN voltages
    /// over them.
    capture_currents: Vec<f64>,
    capture_volts: Vec<f64>,
    /// One region's voltages gathered from `capture_volts` for a TDC
    /// block: the victim rail of each defence segment, then the
    /// attacker rail at the capture's in-window measure edges.
    rail_volts: Vec<f64>,
    ro: RoArray,
    rng: Rng64,
    /// Defender-side countermeasure state, when deployed.
    defense: Option<DefenseRuntime>,
    /// Fault-injection aggressor state, when mounted.
    aggressor: Option<AggressorState>,
    /// Fabric ticks elapsed since construction (drives the attacker's
    /// reset/measure stimulus parity).
    tick_count: u64,
    /// PDN step length, seconds: one 300 MHz tick.
    dt_s: f64,
    lead_in_cycles: usize,
    benign_activity_current_a: f64,
}

impl MultiTenantFabric {
    /// Ticks per AES (100 MHz) cycle at the 300 MHz base tick.
    const TICKS_PER_AES_CYCLE: usize = 3;
    /// PDN regions: 0 = attacker, 1 = victim.
    const REGIONS: usize = 2;
    /// Idle AES cycles simulated before an encryption starts.
    const LEAD_IN_CYCLES: usize = 2;
    /// Idle AES cycles simulated after an encryption completes.
    const LEAD_OUT_CYCLES: usize = 2;

    /// Builds the fabric: generates the benign circuit, calibrates its
    /// delays for the synthesis clock, simulates its reset→measure
    /// waveforms once, and wires every tenant to the shared PDN.
    ///
    /// The expensive circuit work is shared through the process-global
    /// [`FabricPrototype`] cache, so rebuilding a fabric for another
    /// noise lane of the same physical setup costs microseconds, not
    /// milliseconds. The result is bit-identical to an uncached build.
    ///
    /// # Errors
    ///
    /// Propagates circuit generation and timing analysis failures.
    pub fn new(config: &FabricConfig) -> Result<Self, FabricError> {
        let proto = FabricPrototype::cached(config)?;
        Ok(Self::from_prototype(&proto, config))
    }

    /// Builds a fabric from an already-built prototype, wiring fresh
    /// noise streams from `config`'s seeds. The caller is responsible
    /// for the prototype matching `(benign, delay_model,
    /// achieved_critical_ns)` — [`MultiTenantFabric::new`] does this via
    /// the cache.
    fn from_prototype(proto: &FabricPrototype, config: &FabricConfig) -> Self {
        let sensor = BenignSensor::new(proto.waves.clone(), config.sensor);
        let benign_activity_current_a = proto.benign_activity_current_a;
        // Supply regulation attenuates how much of one region's current
        // transient reaches the other region's rail. Applied only when
        // deployed so an undefended fabric keeps its coupling matrix
        // bit-for-bit.
        let coupling = match config.defense.as_ref().and_then(|d| d.ldo) {
            Some(ldo) => config.victim_coupling * ldo.residual,
            None => config.victim_coupling,
        };
        MultiTenantFabric {
            aes: Aes32Rtl::new(config.aes_key),
            sensor,
            tdc: TdcSensor::new(config.tdc),
            pdn: MultiRegionPdn::new(
                config.pdn,
                Self::REGIONS,
                vec![vec![1.0, coupling], vec![coupling, 1.0]],
            ),
            capture_currents: Vec::new(),
            capture_volts: Vec::new(),
            rail_volts: Vec::new(),
            ro: config.ro,
            rng: Rng64::new(config.seed),
            defense: config.defense.as_ref().map(DefenseRuntime::new),
            aggressor: config.aggressor.map(|spec| AggressorState {
                spec,
                cone: proto.victim_cone.clone(),
                telemetry: FaultTelemetry::new(config.pdn.v_nominal),
            }),
            tick_count: 0,
            dt_s: 1.0 / 300.0e6,
            lead_in_cycles: Self::LEAD_IN_CYCLES,
            benign_activity_current_a,
            config: config.clone(),
        }
    }

    /// The configuration the fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Number of benign-sensor endpoints.
    pub fn endpoints(&self) -> usize {
        self.sensor.len()
    }

    /// Immutable access to the benign sensor (for threshold analysis).
    pub fn sensor(&self) -> &BenignSensor {
        &self.sensor
    }

    /// The victim's AES core (test access to ground truth).
    pub fn aes(&self) -> &Aes32Rtl {
        &self.aes
    }

    /// Number of measure-edge samples an un-jittered encryption
    /// captures. A capture under the clock-jitter defense has more: its
    /// random extra lead-in cycles add edges in front of the AES.
    pub fn samples_per_encryption(&self) -> usize {
        let cycles = self.lead_in_cycles + Aes32Rtl::CYCLES_PER_BLOCK + Self::LEAD_OUT_CYCLES;
        cycles * Self::TICKS_PER_AES_CYCLE / 2
    }

    /// The measure-sample indices during which AES cycle `c` is active —
    /// where the leakage of that cycle lands in the capture.
    fn samples_for_aes_cycle(&self, c: usize) -> std::ops::Range<usize> {
        let first_tick = (self.lead_in_cycles + c) * Self::TICKS_PER_AES_CYCLE;
        let last_tick = first_tick + Self::TICKS_PER_AES_CYCLE;
        // measure edges happen on odd ticks (tick % 2 == 1): sample k is
        // tick 2k+1.
        let first = first_tick / 2;
        let last = last_tick.div_ceil(2);
        first..last
    }

    /// The sample window covering the AES final round — the "relevant
    /// bits for the CPA" the paper's host script stores separately.
    pub fn last_round_window(&self) -> std::ops::Range<usize> {
        let first = self
            .samples_for_aes_cycle(Aes32Rtl::last_round_cycle_for_byte(0))
            .start;
        let last = self
            .samples_for_aes_cycle(Aes32Rtl::last_round_cycle_for_byte(15))
            .end;
        first..last
    }

    /// Writes the `[attacker, victim]` currents of the next `ticks`
    /// fabric ticks into `currents`, before any defense injection, and
    /// advances the tick counter. `ro_a(t)` and `victim_a(t)` are the RO
    /// array's and the victim core's current at tick `t` of the block.
    fn build_currents(
        &mut self,
        currents: &mut Vec<f64>,
        ticks: usize,
        ro_a: impl Fn(usize) -> f64,
        victim_a: impl Fn(usize) -> f64,
    ) {
        // The sensing circuit alternates reset/measure vectors every
        // tick, so its switching current swings around the mean with
        // tick parity (even ticks first). With a balanced stimulus pair
        // (alternation 0.0) the factor is exactly 1.0 — bitwise identity.
        let stimulus = [1.0, -1.0].map(|parity| {
            self.benign_activity_current_a * (1.0 + self.config.stimulus_alternation * parity)
        });
        let background = self.config.background_current_a;
        let first = self.tick_count;
        // The fault-injection aggressor draws from the *attacker*
        // region: its droop reaches the victim rail through the
        // coupling matrix, which is exactly why supply regulation (LDO
        // residual on the coupling) is the arm that suppresses the
        // faults. Its duty phase is walked tick by tick; 0.0 when
        // unmounted, which leaves the sum bit-exact.
        let mut aggressor = self.aggressor.as_ref().map(|a| a.spec.currents_from(first));
        currents.resize(ticks * Self::REGIONS, 0.0);
        for (t, tick) in currents.chunks_exact_mut(Self::REGIONS).enumerate() {
            let tick_count = first + t as u64;
            let aggressor = aggressor.as_mut().and_then(Iterator::next).unwrap_or(0.0);
            tick[0] = background + ro_a(t) + stimulus[(tick_count % 2) as usize] + aggressor;
            tick[1] = victim_a(t);
        }
        self.tick_count += ticks as u64;
    }

    /// Droop extrema and settling accounting of the sensed (attacker)
    /// PDN region since the fabric was built — the electrical telemetry
    /// the observability layer exports.
    pub fn pdn_telemetry(&self) -> slm_pdn::PdnTelemetry {
        self.pdn.telemetry()
    }

    /// Defense-side telemetry (injected current, detector scores and
    /// alarms), when a defense is deployed.
    pub fn defense_telemetry(&self) -> Option<&DefenseTelemetry> {
        self.defense.as_ref().map(DefenseRuntime::telemetry)
    }

    /// Ground-truth fault-injection accounting, when an aggressor is
    /// mounted. Faults are evaluated only on the capture path
    /// ([`Self::encrypt_and_capture`] and friends); a free-running
    /// [`Self::run_activity`] draws the aggressor current (so detectors
    /// see it) but discards no ciphertexts, hence flips nothing here.
    pub fn fault_telemetry(&self) -> Option<&FaultTelemetry> {
        self.aggressor.as_ref().map(|a| &a.telemetry)
    }

    /// Deepest droop the victim rail has seen since construction
    /// (simulation ground truth from the shared PDN, attacker-invisible).
    pub fn victim_min_voltage(&self) -> f64 {
        self.pdn.min_voltage(1)
    }

    /// Steps the shared PDN over the tick-major `currents` of a capture
    /// or an activity run, writing the voltages to `volts`.
    ///
    /// Undefended, the capture is one PDN block, of which the caller
    /// reads the ticks in `observed` (see
    /// [`MultiRegionPdn::step_block`]). With a defense
    /// deployed, the defender's loop runs per tick: the fence current
    /// drawn for a tick loads the victim region *before* the step, and
    /// the defender's TDC observes the settled victim rail *after* it
    /// (one-tick feedback latency for the adaptive fence). The capture
    /// is cut into segments that end where the detector completes a
    /// window ([`DefenseRuntime::feedback_horizon`]): only that last
    /// observation can re-arm the fence, so each segment's injections
    /// are added with one [`DefenseRuntime::inject_segment`] before it
    /// is stepped, and its victim voltages observed with one
    /// [`DefenseRuntime::observe_segment`] after, bit-identical to
    /// alternating the two tick by tick. The defender reads every tick,
    /// so every segment is observed whole.
    fn step_capture(
        &mut self,
        currents: &mut [f64],
        volts: &mut [f64],
        observed: std::ops::Range<usize>,
    ) {
        let dt = self.dt_s;
        let Some(defense) = &mut self.defense else {
            self.pdn.step_block(currents, dt, volts, observed);
            return;
        };
        let mut start = 0;
        while start < currents.len() {
            let end = currents
                .len()
                .min(start + Self::REGIONS * defense.feedback_horizon());
            let segment = &mut currents[start..end];
            defense.inject_segment(segment.iter_mut().skip(1).step_by(Self::REGIONS));
            let ticks = segment.len() / Self::REGIONS;
            self.pdn
                .step_block(segment, dt, &mut volts[start..end], 0..ticks);
            self.rail_volts.clear();
            self.rail_volts
                .extend(volts[start..end].iter().skip(1).step_by(Self::REGIONS));
            defense.observe_segment(&self.rail_volts);
            start = end;
        }
    }

    /// Runs one encryption while capturing every sensor on each measure
    /// edge.
    pub fn encrypt_and_capture(&mut self, plaintext: [u8; 16]) -> CaptureRecord {
        self.encrypt_internal(plaintext, None, None)
    }

    /// Runs one encryption capturing only the measure edges in
    /// `window` (sample indices) and only the listed benign endpoints —
    /// the fast path for large CPA campaigns.
    pub fn encrypt_windowed(
        &mut self,
        plaintext: [u8; 16],
        window: std::ops::Range<usize>,
        endpoints: &[usize],
    ) -> CaptureRecord {
        self.encrypt_internal(plaintext, Some(window), Some(endpoints))
    }

    fn encrypt_internal(
        &mut self,
        plaintext: [u8; 16],
        window: Option<std::ops::Range<usize>>,
        endpoints: Option<&[usize]>,
    ) -> CaptureRecord {
        let (ciphertext, power) = self.aes_power(plaintext);
        // Clock-jitter defense: a random extra lead-in shifts where the
        // leaky cycles land relative to the attacker's fixed capture
        // window, trace by trace. Zero when not deployed.
        let jitter_cycles = match &mut self.defense {
            Some(d) => d.draw_jitter_cycles() as usize,
            None => 0,
        };
        let lead_in = self.lead_in_cycles + jitter_cycles;
        let ticks = (lead_in + power.len() + Self::LEAD_OUT_CYCLES) * Self::TICKS_PER_AES_CYCLE;
        // The whole capture's currents first, then the PDN over them,
        // then the sensors and the fault model over the voltages. Every
        // noise stream (PDN, defense, sensors) is its own RNG, so each
        // is still consumed in tick order.
        let mut currents = std::mem::take(&mut self.capture_currents);
        let mut volts = std::mem::take(&mut self.capture_volts);
        let ro_a = self.ro.current_a();
        let idle_a = self.config.leakage.idle_a;
        self.build_currents(
            &mut currents,
            ticks,
            |_| ro_a,
            |t| {
                (t / Self::TICKS_PER_AES_CYCLE)
                    .checked_sub(lead_in)
                    .and_then(|c| power.get(c).copied())
                    .unwrap_or(idle_a)
            },
        );
        // Measure edges are the odd ticks: edge `k` is tick `2k+1`. Only
        // the in-window edges are visited. An undefended windowed
        // capture without an aggressor reads nothing else, so the PDN
        // may skip the noise of every other tick; the defender and the
        // fault model read every tick.
        let edges = ticks / 2;
        let windowed = window.is_some() && self.defense.is_none() && self.aggressor.is_none();
        let window = window.map_or(0..edges, |w| w.start.min(edges)..w.end.min(edges));
        let observed = if windowed {
            2 * window.start + 1..2 * window.end
        } else {
            0..ticks
        };
        volts.resize(currents.len(), 0.0);
        self.step_capture(&mut currents, &mut volts, observed);
        self.rail_volts.clear();
        self.rail_volts
            .extend(window.map(|k| volts[(2 * k + 1) * Self::REGIONS]));
        let benign = self
            .rail_volts
            .iter()
            .map(|&v| match endpoints {
                Some(e) => self.sensor.sample_endpoints(v, e),
                None => self.sensor.sample(v),
            })
            .collect();
        // Per-round XOR fault masks accumulated as the aggressor pushes
        // capture cycles past their derated timing (empty when no cycle
        // violates — the common case even with an aggressor mounted).
        // The sensors and the fault model share no state, so the
        // aggressor's pass over the victim rail runs on its own.
        let mut fault_masks: Vec<(usize, [u8; 16])> = Vec::new();
        if self.aggressor.is_some() {
            for (c, cycle) in volts
                .chunks_exact(Self::TICKS_PER_AES_CYCLE * Self::REGIONS)
                .enumerate()
                .skip(lead_in)
            {
                let victim_vmin = cycle
                    .iter()
                    .skip(1)
                    .step_by(Self::REGIONS)
                    .fold(f64::INFINITY, |m, &v| m.min(v));
                self.evaluate_fault_cycle(c - lead_in, victim_vmin, &plaintext, &mut fault_masks);
            }
        }
        self.capture_currents = currents;
        self.capture_volts = volts;
        let mut tdc = vec![0; self.rail_volts.len()];
        self.tdc.sample_block(&self.rail_volts, &mut tdc);
        let ciphertext = if fault_masks.is_empty() {
            ciphertext
        } else {
            if let Some(agg) = &mut self.aggressor {
                agg.telemetry.faulted_encryptions += 1;
            }
            slm_aes::soft::encrypt_with_state_faults(&self.config.aes_key, &plaintext, &fault_masks)
        };
        if let Some(agg) = &mut self.aggressor {
            agg.telemetry.encryptions += 1;
        }
        CaptureRecord {
            ciphertext,
            benign,
            tdc,
        }
    }

    /// Checks one AES datapath cycle (`cycle` = 0 is the block load)
    /// against the voltage-derated timing criterion and folds any
    /// violation into the per-round fault masks.
    ///
    /// Cycle `1 + 4·(r−1) + col` computes column `col` of round `r`
    /// ([`Aes32Rtl`]'s schedule), so a violation there flips bits of
    /// state bytes `4·col .. 4·col+4` in the round-`r` register — the
    /// mask [`slm_aes::soft::encrypt_with_state_faults`] consumes. The
    /// load cycle is skipped (no combinational depth to speak of), and
    /// the final round's cone is shallow enough
    /// ([`crate::aggressor::VictimCone::column_fault_mask`]) that
    /// realistic droops leave it alone: induced faults land in rounds
    /// 1–9, where last-round DFA wants them.
    fn evaluate_fault_cycle(
        &mut self,
        cycle: usize,
        victim_vmin: f64,
        plaintext: &[u8; 16],
        fault_masks: &mut Vec<(usize, [u8; 16])>,
    ) {
        let Some(agg) = &mut self.aggressor else {
            return;
        };
        agg.telemetry.min_victim_v = agg.telemetry.min_victim_v.min(victim_vmin);
        if !(1..=4 * slm_aes::soft::ROUNDS).contains(&cycle) {
            return;
        }
        let round = (cycle - 1) / 4 + 1;
        let col = (cycle - 1) % 4;
        // Data-derived rank rotation: which carry-chain endpoints are
        // near-critical depends on the operands flowing through the
        // column, so marginal droops don't pin the same byte of every
        // column on every encryption. Deterministic (a pure function of
        // the plaintext), so replays and shards stay bit-exact.
        let rotation = usize::from(plaintext[cycle % 16] & 0x3);
        let mask4 =
            agg.cone
                .column_fault_mask(victim_vmin, round == slm_aes::soft::ROUNDS, rotation);
        if mask4 == [0u8; 4] {
            return;
        }
        agg.telemetry.fault_cycles += 1;
        agg.telemetry.flipped_bits += mask4.iter().map(|b| u64::from(b.count_ones())).sum::<u64>();
        let entry = match fault_masks.iter_mut().find(|(r, _)| *r == round) {
            Some((_, m)) => m,
            None => {
                fault_masks.push((round, [0u8; 16]));
                &mut fault_masks.last_mut().expect("just pushed").1
            }
        };
        for b in 0..4 {
            entry[4 * col + b] ^= mask4[b];
        }
    }

    /// Encrypts one block on the victim core, masked or not as
    /// configured: the ciphertext and the core's current per AES cycle.
    fn aes_power(&mut self, plaintext: [u8; 16]) -> ([u8; 16], [f64; Aes32Rtl::CYCLES_PER_BLOCK]) {
        let leakage = &self.config.leakage;
        if self.config.masked_aes {
            self.aes
                .encrypt_with_power_masked(plaintext, leakage, &mut self.rng)
        } else {
            self.aes
                .encrypt_with_power(plaintext, leakage, &mut self.rng)
        }
    }

    /// Free-runs the fabric for `samples` measure edges with the given
    /// RO schedule and AES activity — the preliminary experiments of
    /// Figs. 5–8 and 14–16.
    ///
    /// The run steps like a capture: every tick's currents first (the
    /// continuous victim encrypts random blocks back to back), then the
    /// PDN and the defender over them in the capture's segments, then
    /// the benign sensor and one TDC block over the measure edges.
    pub fn run_activity(
        &mut self,
        schedule: Option<&RoSchedule>,
        aes: AesActivity,
        samples: usize,
    ) -> ActivityTrace {
        // Measure edges are the odd ticks, so `samples` edges take
        // twice as many ticks.
        let ticks = 2 * samples;
        let base_ro = self.ro;
        let ro_at = |tick: usize| {
            let mut ro = base_ro;
            if let Some(s) = schedule {
                ro.set_enabled_fraction(s.fraction_at(tick as u64));
            }
            ro
        };
        let ro_enabled = (0..samples).map(|k| ro_at(2 * k + 1).enabled()).collect();
        let cycles = ticks.div_ceil(Self::TICKS_PER_AES_CYCLE);
        let mut aes_currents = Vec::with_capacity(cycles);
        match aes {
            AesActivity::Idle => aes_currents.resize(cycles, self.config.leakage.idle_a),
            AesActivity::Continuous => {
                while aes_currents.len() < cycles {
                    let pt = self.random_plaintext();
                    aes_currents.extend(self.aes_power(pt).1);
                }
            }
        }
        let mut currents = std::mem::take(&mut self.capture_currents);
        let mut volts = std::mem::take(&mut self.capture_volts);
        self.build_currents(
            &mut currents,
            ticks,
            |t| ro_at(t).current_a(),
            |t| aes_currents[t / Self::TICKS_PER_AES_CYCLE],
        );
        if let Some(last) = ticks.checked_sub(1) {
            self.ro = ro_at(last);
        }
        volts.resize(currents.len(), 0.0);
        self.step_capture(&mut currents, &mut volts, 0..ticks);
        // The attacker rail at every odd tick.
        let voltage: Vec<f64> = volts
            .iter()
            .skip(Self::REGIONS)
            .step_by(2 * Self::REGIONS)
            .copied()
            .collect();
        self.capture_currents = currents;
        self.capture_volts = volts;
        let benign = voltage.iter().map(|&v| self.sensor.sample(v)).collect();
        let mut tdc = vec![0; samples];
        self.tdc.sample_block(&voltage, &mut tdc);
        ActivityTrace {
            benign,
            tdc,
            voltage,
            ro_enabled,
        }
    }

    /// Generates a random plaintext from the fabric's seed stream.
    pub fn random_plaintext(&mut self) -> [u8; 16] {
        let mut pt = [0u8; 16];
        self.rng.fill_bytes(&mut pt);
        pt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slm_aes::soft;
    use slm_defense::{ClockJitterConfig, DetectorConfig, FenceSpec, LdoConfig};

    fn small_config() -> FabricConfig {
        FabricConfig {
            benign: BenignCircuit::DualC6288,
            ..FabricConfig::default()
        }
    }

    #[test]
    fn ciphertext_is_correct() {
        let config = small_config();
        let mut fabric = MultiTenantFabric::new(&config).unwrap();
        let pt = [0x11; 16];
        let rec = fabric.encrypt_and_capture(pt);
        assert_eq!(rec.ciphertext, soft::encrypt(&config.aes_key, &pt));
    }

    #[test]
    fn capture_counts_line_up() {
        let mut fabric = MultiTenantFabric::new(&small_config()).unwrap();
        let rec = fabric.encrypt_and_capture([0; 16]);
        assert_eq!(rec.benign.len(), fabric.samples_per_encryption());
        assert_eq!(rec.tdc.len(), rec.benign.len());
        // 2 + 41 + 2 cycles × 3 ticks / 2 = 67 samples
        assert_eq!(rec.benign.len(), 67);
        assert_eq!(rec.benign[0].len, 64);
    }

    #[test]
    fn windowed_capture_restricts() {
        let mut fabric = MultiTenantFabric::new(&small_config()).unwrap();
        let window = fabric.last_round_window();
        let width = window.len();
        let rec = fabric.encrypt_windowed([0; 16], window, &[3, 7, 28]);
        assert_eq!(rec.benign.len(), width);
        assert_eq!(rec.benign[0].len, 3);
    }

    #[test]
    fn last_round_window_covers_final_cycles() {
        let fabric = MultiTenantFabric::new(&small_config()).unwrap();
        let w = fabric.last_round_window();
        // final round = cycles 37..41 of 41, with 2 lead-in cycles:
        // ticks 117..129 → samples 58..65
        assert_eq!(w, 58..65);
        assert!(w.end <= fabric.samples_per_encryption());
    }

    #[test]
    fn ro_schedule_shape() {
        let s = RoSchedule::paper_4mhz();
        assert_eq!(s.fraction_at(0), 0.0);
        assert_eq!(s.fraction_at(79), 0.0); // lead-in
        assert!(s.fraction_at(100) > 0.0 && s.fraction_at(100) < 1.0);
        assert_eq!(s.fraction_at(80 + 60), 1.0); // hold phase
        assert_eq!(s.fraction_at(80 + 74), 0.0); // off phase
                                                 // periodicity
        assert_eq!(s.fraction_at(100), s.fraction_at(100 + 75));
    }

    #[test]
    fn activity_run_sees_ro_droop() {
        let mut fabric = MultiTenantFabric::new(&small_config()).unwrap();
        let schedule = RoSchedule::paper_4mhz();
        let trace = fabric.run_activity(Some(&schedule), AesActivity::Idle, 120);
        assert_eq!(trace.voltage.len(), 120);
        let quiet_v = trace.voltage[..30].iter().sum::<f64>() / 30.0;
        let vmin = trace.voltage.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            quiet_v - vmin > 0.010,
            "RO burst should droop ≥ 10 mV: quiet {quiet_v}, min {vmin}"
        );
        // TDC must dip during the droop.
        let tdc_min = *trace.tdc.iter().min().unwrap();
        let tdc_start = trace.tdc[..30].iter().copied().min().unwrap();
        assert!(tdc_min < tdc_start.saturating_sub(3));
    }

    #[test]
    fn continuous_aes_produces_fluctuation() {
        let mut fabric = MultiTenantFabric::new(&small_config()).unwrap();
        let trace = fabric.run_activity(None, AesActivity::Continuous, 300);
        let mean = trace.voltage.iter().sum::<f64>() / trace.voltage.len() as f64;
        let var = trace
            .voltage
            .iter()
            .map(|v| (v - mean).powi(2))
            .sum::<f64>()
            / trace.voltage.len() as f64;
        assert!(var.sqrt() > 1e-5, "AES activity must modulate the rail");
    }

    #[test]
    fn alu_fabric_has_193_endpoints() {
        let fabric = MultiTenantFabric::new(&FabricConfig::default()).unwrap();
        assert_eq!(fabric.endpoints(), 193);
    }

    #[test]
    fn cached_prototype_build_is_bit_identical_to_uncached() {
        let config = small_config();
        // A fresh, cache-bypassing build vs. the cached path.
        let proto = FabricPrototype::build(&config).unwrap();
        let mut uncached = MultiTenantFabric::from_prototype(&proto, &config);
        let mut cached = MultiTenantFabric::new(&config).unwrap();
        for i in 0..3 {
            let pt = [i as u8; 16];
            assert_eq!(
                uncached.encrypt_and_capture(pt),
                cached.encrypt_and_capture(pt)
            );
        }
        assert_eq!(proto.waves.len(), config.benign.endpoints());
    }

    #[test]
    fn prototype_cache_hits_across_shard_reseeds() {
        let config = small_config();
        // for_shard only touches noise seeds, so every shard must share
        // the lane-0 prototype (same Arc, not merely equal contents).
        let p0 = FabricPrototype::cached(&config).unwrap();
        let p1 = FabricPrototype::cached(&config.for_shard(3)).unwrap();
        assert!(Arc::ptr_eq(&p0, &p1));
    }

    #[test]
    fn shards_are_independent_streams() {
        // Distinct shards of the same config must not replay each
        // other's noise: the same plaintext captured on shard 0 and
        // shard 1 sees different sensor samples.
        let base = small_config();
        let c0 = base.for_shard(0);
        let c1 = base.for_shard(1);
        assert_ne!(c0.seed, c1.seed);
        assert_ne!(c0.sensor.seed, c1.sensor.seed);
        assert_ne!(c0.tdc.seed, c1.tdc.seed);
        assert_ne!(c0.seed, base.seed, "shard 0 is a fresh stream too");
        let mut f0 = MultiTenantFabric::new(&c0).unwrap();
        let mut f1 = MultiTenantFabric::new(&c1).unwrap();
        let w0 = f0.last_round_window();
        let w1 = f1.last_round_window();
        let r0 = f0.encrypt_windowed([7; 16], w0, &[0, 1, 2]);
        let r1 = f1.encrypt_windowed([7; 16], w1, &[0, 1, 2]);
        assert_eq!(r0.ciphertext, r1.ciphertext, "same key, same plaintext");
        assert_ne!(r0.tdc, r1.tdc, "independent noise streams");
    }

    #[test]
    fn deterministic_capture() {
        let config = small_config();
        let mut f1 = MultiTenantFabric::new(&config).unwrap();
        let mut f2 = MultiTenantFabric::new(&config).unwrap();
        let r1 = f1.encrypt_and_capture([5; 16]);
        let r2 = f2.encrypt_and_capture([5; 16]);
        assert_eq!(r1, r2);
    }

    fn defended_config(defense: DefenseConfig) -> FabricConfig {
        FabricConfig {
            defense: Some(defense),
            stimulus_alternation: 0.3,
            ..small_config()
        }
    }

    #[test]
    fn monitor_only_defense_does_not_perturb_captures() {
        // A detector-only defense is electrically inert: the defender's
        // sensor draws from its own noise streams, so the attacker-side
        // capture must be bit-identical to the undefended fabric.
        let undefended = small_config();
        let defended = FabricConfig {
            defense: Some(DefenseConfig::monitor_only(99)),
            ..small_config()
        };
        let mut f1 = MultiTenantFabric::new(&undefended).unwrap();
        let mut f2 = MultiTenantFabric::new(&defended).unwrap();
        assert_eq!(
            f1.encrypt_and_capture([9; 16]),
            f2.encrypt_and_capture([9; 16])
        );
    }

    #[test]
    fn defended_capture_is_deterministic() {
        let defense = DefenseConfig {
            fence: Some(FenceSpec::prng(0.8)),
            clock_jitter: Some(ClockJitterConfig { max_cycles: 6 }),
            ..Default::default()
        };
        let config = defended_config(defense);
        let mut f1 = MultiTenantFabric::new(&config).unwrap();
        let mut f2 = MultiTenantFabric::new(&config).unwrap();
        for i in 0..4 {
            let pt = [i as u8; 16];
            assert_eq!(f1.encrypt_and_capture(pt), f2.encrypt_and_capture(pt));
        }
        assert_eq!(f1.defense_telemetry(), f2.defense_telemetry());
    }

    #[test]
    fn prng_fence_perturbs_victim_capture() {
        let defense = DefenseConfig {
            fence: Some(FenceSpec::prng(1.0)),
            ..Default::default()
        };
        let defended = defended_config(defense);
        let undefended = FabricConfig {
            defense: None,
            ..defended.clone()
        };
        let mut f1 = MultiTenantFabric::new(&undefended).unwrap();
        let mut f2 = MultiTenantFabric::new(&defended).unwrap();
        let r1 = f1.encrypt_and_capture([7; 16]);
        let r2 = f2.encrypt_and_capture([7; 16]);
        assert_eq!(r1.ciphertext, r2.ciphertext, "fence must not corrupt data");
        assert_ne!(r1.tdc, r2.tdc, "fence must perturb the sensed rail");
        let telemetry = f2.defense_telemetry().unwrap();
        assert!(telemetry.injected_max_a > 0.5);
        assert!(telemetry.injected_mean_a() > 0.1);
    }

    #[test]
    fn deployed_fence_deepens_the_victim_rail() {
        // A fence is current the fabric adds to the victim region before
        // each PDN step; through the coupling it also loads the
        // attacker's rail.
        let monitored = defended_config(DefenseConfig::monitor_only(5));
        let fenced = defended_config(DefenseConfig {
            fence: Some(FenceSpec::constant(2.0)),
            ..DefenseConfig::monitor_only(5)
        });
        let mut quiet = MultiTenantFabric::new(&monitored).unwrap();
        let mut loud = MultiTenantFabric::new(&fenced).unwrap();
        for i in 0..3 {
            quiet.encrypt_and_capture([i; 16]);
            loud.encrypt_and_capture([i; 16]);
        }
        let deepening = quiet.victim_min_voltage() - loud.victim_min_voltage();
        assert!(deepening > 0.02, "victim rail only {deepening} V lower");
        assert!(loud.pdn_telemetry().v_min < quiet.pdn_telemetry().v_min - 0.02);
    }

    #[test]
    fn clock_jitter_lengthens_captures_and_varies_alignment() {
        let defense = DefenseConfig {
            clock_jitter: Some(ClockJitterConfig { max_cycles: 8 }),
            ..Default::default()
        };
        let config = defended_config(defense);
        let mut fabric = MultiTenantFabric::new(&config).unwrap();
        let baseline = fabric.samples_per_encryption();
        let lens: Vec<usize> = (0..12)
            .map(|i| fabric.encrypt_and_capture([i as u8; 16]).benign.len())
            .collect();
        assert!(lens.iter().all(|&l| l >= baseline));
        assert!(
            lens.iter().any(|&l| l != lens[0]),
            "jitter should vary capture length: {lens:?}"
        );
        assert!(fabric.defense_telemetry().unwrap().jitter_cycles > 0);
    }

    /// A TDC-only capture of every measure edge — an unbounded window
    /// with no benign endpoints — is the full capture minus the benign
    /// sensor: same ciphertext and TDC depths, and the same PDN, defense
    /// and fault state after each capture. Only the benign sensor's own
    /// noise stream diverges. The bound must be open-ended: a
    /// clock-jittered capture has more edges than
    /// [`MultiTenantFabric::samples_per_encryption`].
    #[test]
    fn unbounded_tdc_only_capture_matches_full_capture() {
        let fast_adaptive = DefenseConfig {
            fence: Some(FenceSpec::adaptive(1.5)),
            detector: DetectorConfig {
                window_ticks: 64,
                alarm_threshold: 0.5,
            },
            ..Default::default()
        };
        let configs = [
            ("undefended", small_config()),
            (
                "prng fence",
                defended_config(DefenseConfig {
                    fence: Some(FenceSpec::prng(1.5)),
                    ..Default::default()
                }),
            ),
            ("adaptive fence", defended_config(fast_adaptive)),
            (
                "clock jitter",
                defended_config(DefenseConfig {
                    clock_jitter: Some(ClockJitterConfig { max_cycles: 8 }),
                    ..Default::default()
                }),
            ),
            (
                "aggressor",
                FabricConfig {
                    aggressor: Some(AggressorSpec::stealthy(3.0)),
                    ..small_config()
                },
            ),
        ];
        for (what, config) in configs {
            let mut full = MultiTenantFabric::new(&config).unwrap();
            let mut tdc_only = MultiTenantFabric::new(&config).unwrap();
            for i in 0..12 {
                let pt = full.random_plaintext();
                assert_eq!(pt, tdc_only.random_plaintext(), "{what}: plaintext {i}");
                let a = full.encrypt_and_capture(pt);
                let b = tdc_only.encrypt_windowed(pt, 0..usize::MAX, &[]);
                assert_eq!(a.ciphertext, b.ciphertext, "{what}: ciphertext {i}");
                assert_eq!(a.tdc, b.tdc, "{what}: tdc {i}");
                assert_eq!(a.benign.len(), b.benign.len(), "{what}: edges {i}");
                assert!(b.benign.iter().all(|s| s.len == 0), "{what}");
                assert_eq!(full.pdn_telemetry(), tdc_only.pdn_telemetry(), "{what}");
                assert_eq!(
                    full.victim_min_voltage(),
                    tdc_only.victim_min_voltage(),
                    "{what}"
                );
                assert_eq!(
                    full.defense_telemetry(),
                    tdc_only.defense_telemetry(),
                    "{what}"
                );
                assert_eq!(full.fault_telemetry(), tdc_only.fault_telemetry(), "{what}");
            }
        }
        // Narrow windows: an undefended capture reads only its window's
        // measure edges, so the PDN skips the noise transform of most
        // other ticks. With jitter- and drift-free sensors every depth
        // and bit is a pure function of the edge voltage, so the
        // windowed fabric's edges must match the full capture's.
        let mut config = small_config();
        config.tdc.jitter_ps = 0.0;
        config.sensor.jitter_sigma_ps = 0.0;
        config.sensor.drift_sigma_ps = 0.0;
        let mut full = MultiTenantFabric::new(&config).unwrap();
        let mut windowed = MultiTenantFabric::new(&config).unwrap();
        let edges = full.samples_per_encryption() as u64;
        let endpoints = [0, 5, 17, 40, 63];
        let mut picks = Rng64::new(0x3d9e);
        for i in 0..240 {
            let window = match i % 3 {
                0 => full.last_round_window(),
                1 => {
                    let (a, b) = (picks.below(edges + 1), picks.below(edges + 1));
                    a.min(b) as usize..a.max(b) as usize
                }
                _ => 0..0,
            };
            let pt = full.random_plaintext();
            assert_eq!(pt, windowed.random_plaintext(), "plaintext {i}");
            let a = full.encrypt_and_capture(pt);
            let b = windowed.encrypt_windowed(pt, window.clone(), &endpoints);
            assert_eq!(a.ciphertext, b.ciphertext, "ciphertext {i}");
            assert_eq!(b.tdc, a.tdc[window.clone()], "tdc {i}, window {window:?}");
            assert_eq!(b.benign.len(), window.len(), "edges {i}");
            for (k, sample) in window.clone().zip(&b.benign) {
                for (slot, &e) in endpoints.iter().enumerate() {
                    assert_eq!(sample.bit(slot), a.benign[k].bit(e), "capture {i} edge {k}");
                }
            }
            assert_eq!(
                full.pdn_telemetry(),
                windowed.pdn_telemetry(),
                "capture {i}"
            );
            assert_eq!(
                full.victim_min_voltage().to_bits(),
                windowed.victim_min_voltage().to_bits(),
                "capture {i}"
            );
        }
        assert_eq!(full.pdn.skipped_ticks(), 0, "full captures read every tick");
        assert!(windowed.pdn.skipped_ticks() > 0, "windowed captures skip");
    }

    #[test]
    fn ldo_attenuates_cross_region_coupling() {
        // With strong regulation the attacker-visible trace barely
        // responds to the victim's AES activity: compare the capture
        // variance across two different plaintexts' last-round windows.
        let defense = DefenseConfig {
            ldo: Some(LdoConfig { residual: 0.0 }),
            ..Default::default()
        };
        let defended = defended_config(defense);
        let mut fabric = MultiTenantFabric::new(&defended).unwrap();
        let w = fabric.last_round_window();
        let a = fabric.encrypt_windowed([0x00; 16], w.clone(), &[5]);
        let b = fabric.encrypt_windowed([0xff; 16], w, &[5]);
        // Perfect isolation: the attacker region never sees the AES
        // droop, so both windows read the same (up to sensor noise,
        // which stays within a tap or two).
        let max_delta = a
            .tdc
            .iter()
            .zip(&b.tdc)
            .map(|(&x, &y)| (i64::from(x) - i64::from(y)).unsigned_abs())
            .max()
            .unwrap();
        assert!(
            max_delta <= 2,
            "isolated regions still coupled: Δ={max_delta}"
        );
    }

    #[test]
    fn zero_peak_aggressor_is_bit_exact_with_none() {
        // An aggressor drawing 0 A must leave every sample untouched:
        // the fault path only rewrites ciphertexts when a mask actually
        // accumulates, and 0 A of injected current never droops the
        // rail past the cone threshold.
        let baseline = small_config();
        let zeroed = FabricConfig {
            aggressor: Some(AggressorSpec::stealthy(0.0)),
            ..small_config()
        };
        let mut a = MultiTenantFabric::new(&baseline).unwrap();
        let mut b = MultiTenantFabric::new(&zeroed).unwrap();
        for _ in 0..20 {
            let pt = a.random_plaintext();
            assert_eq!(pt, b.random_plaintext());
            let ra = a.encrypt_and_capture(pt);
            let rb = b.encrypt_and_capture(pt);
            assert_eq!(ra.ciphertext, rb.ciphertext);
            assert_eq!(ra.benign, rb.benign);
            assert_eq!(ra.tdc, rb.tdc);
        }
        let t = b.fault_telemetry().unwrap();
        assert_eq!(t.faulted_encryptions, 0);
        assert_eq!(t.fault_cycles, 0);
    }

    #[test]
    fn aggressor_faults_are_deterministic_and_round9_shaped() {
        // Calibrated point: stealthy bursts at 3.0 A push the victim
        // rail ~75 mV down at the droop peak, past the 0.953 V cone
        // threshold, for a few cycles per burst.
        let config = FabricConfig {
            aggressor: Some(AggressorSpec::stealthy(3.0)),
            ..small_config()
        };
        let mut a = MultiTenantFabric::new(&config).unwrap();
        let mut b = MultiTenantFabric::new(&config).unwrap();
        let mut faulted = 0usize;
        let mut clean_round9 = 0usize;
        for _ in 0..200 {
            let pt = a.random_plaintext();
            assert_eq!(pt, b.random_plaintext());
            let ra = a.encrypt_windowed(pt, 0..0, &[]);
            let rb = b.encrypt_windowed(pt, 0..0, &[]);
            // Same seed, same tick history ⇒ the same faults, bit for bit.
            assert_eq!(ra.ciphertext, rb.ciphertext);
            let gold = soft::encrypt(&config.aes_key, &pt);
            let ndiff = (0..16).filter(|&i| ra.ciphertext[i] != gold[i]).count();
            if ndiff > 0 {
                faulted += 1;
            }
            if (1..=4).contains(&ndiff) {
                clean_round9 += 1;
            }
        }
        assert_eq!(
            a.fault_telemetry().unwrap().faulted_encryptions,
            b.fault_telemetry().unwrap().faulted_encryptions,
        );
        let t = a.fault_telemetry().unwrap();
        assert_eq!(t.encryptions, 200);
        assert_eq!(t.faulted_encryptions as usize, faulted);
        assert!(t.fault_cycles >= t.faulted_encryptions);
        assert!(t.flipped_bits >= t.fault_cycles);
        assert!(t.min_victim_v < 0.953, "no droop: {}", t.min_victim_v);
        assert!(faulted >= 20, "too few faults: {faulted}/200");
        assert!(
            clean_round9 >= 3,
            "no clean single-column round-9 faults: {clean_round9}"
        );
    }

    #[test]
    fn ldo_suppresses_aggressor_faults() {
        // The aggressor droops the *attacker* rail; the victim only sees
        // it through cross-region coupling, which is exactly what the
        // LDO attenuates. A 0.25 residual turns a ~75 mV coupled droop
        // into ~19 mV — well inside the victim's timing margin.
        let attack = FabricConfig {
            aggressor: Some(AggressorSpec::stealthy(3.0)),
            ..small_config()
        };
        let defended = FabricConfig {
            defense: Some(DefenseConfig {
                ldo: Some(LdoConfig { residual: 0.25 }),
                ..Default::default()
            }),
            ..attack.clone()
        };
        let mut hot = MultiTenantFabric::new(&attack).unwrap();
        let mut cold = MultiTenantFabric::new(&defended).unwrap();
        for _ in 0..120 {
            let pt = hot.random_plaintext();
            hot.encrypt_windowed(pt, 0..0, &[]);
            cold.encrypt_windowed(pt, 0..0, &[]);
        }
        assert!(hot.fault_telemetry().unwrap().faulted_encryptions > 0);
        let t = cold.fault_telemetry().unwrap();
        assert_eq!(
            t.faulted_encryptions, 0,
            "LDO failed to suppress: vmin {}",
            t.min_victim_v
        );
        assert!(t.min_victim_v > hot.fault_telemetry().unwrap().min_victim_v);
    }

    #[test]
    fn faulted_ciphertext_matches_reference_fault_model() {
        // The fabric's faulted ciphertexts must be *explained* by the
        // reference model: re-encrypting with the accumulated masks on
        // the software AES reproduces them exactly. We can't read the
        // masks back out, but a fabric restarted from the same config
        // replays the identical sequence, so comparing faulted outputs
        // against the no-fault golden run pins the XOR-mask semantics:
        // any diff must decompose into ShiftRows-consistent positions.
        let config = FabricConfig {
            aggressor: Some(AggressorSpec::stealthy(3.0)),
            ..small_config()
        };
        let mut fabric = MultiTenantFabric::new(&config).unwrap();
        let mut checked = 0usize;
        for _ in 0..300 {
            let pt = fabric.random_plaintext();
            let rec = fabric.encrypt_windowed(pt, 0..0, &[]);
            let gold = soft::encrypt(&config.aes_key, &pt);
            let diffs: Vec<usize> = (0..16).filter(|&i| rec.ciphertext[i] != gold[i]).collect();
            if !(1..=4).contains(&diffs.len()) {
                continue;
            }
            // A clean single-column round-9 fault: there must exist a
            // column c and per-row deltas reproducing the ciphertext via
            // the reference state-fault encryption.
            checked += 1;
            let sources: Vec<usize> = diffs
                .iter()
                .map(|&jd| (0..16).find(|&j| soft::shift_rows_dest(j) == jd).unwrap())
                .collect();
            // A small fault touches at most two adjacent round-9
            // columns (a violating run of ≤2 cycles).
            let cols: std::collections::BTreeSet<usize> = sources.iter().map(|&j| j / 4).collect();
            assert!(cols.len() <= 2, "small fault spans columns: {sources:?}");
            // Recover the per-byte state-9 deltas and replay them.
            let mut mask = [0u8; 16];
            let state9 = soft::encrypt_round_states(&config.aes_key, &pt)[9];
            let rk10 = soft::key_expansion(&config.aes_key)[soft::ROUNDS];
            for (&j, &jd) in sources.iter().zip(&diffs) {
                let faulty_s9 = soft::INV_SBOX[(rec.ciphertext[jd] ^ rk10[jd]) as usize];
                mask[j] = state9[j] ^ faulty_s9;
                assert_ne!(mask[j], 0);
            }
            let replay = soft::encrypt_with_state_faults(&config.aes_key, &pt, &[(9, mask)]);
            assert_eq!(replay, rec.ciphertext, "mask replay diverged");
        }
        assert!(checked >= 5, "too few clean faults to check: {checked}");
    }

    #[test]
    fn detector_flags_alternating_stimulus_not_benign_activity() {
        let defense = DefenseConfig {
            detector: DetectorConfig {
                window_ticks: 4098, // even, divisible by 6
                alarm_threshold: 0.05,
            },
            ..Default::default()
        };
        // Attacker running its sensing stimulus with a 30% reset/measure
        // current asymmetry.
        let attacker = defended_config(defense.clone());
        let mut fabric = MultiTenantFabric::new(&attacker).unwrap();
        fabric.run_activity(None, AesActivity::Continuous, 8200);
        let hot = fabric.defense_telemetry().unwrap();
        assert!(hot.windows >= 2);
        assert!(
            hot.alarm_windows > 0,
            "alternating stimulus must alarm: max score {}",
            hot.max_score
        );

        // Same fabric, balanced (benign) activity: AES runs, the benign
        // circuit switches, but nothing alternates at the tick rate.
        let benign = FabricConfig {
            stimulus_alternation: 0.0,
            ..defended_config(defense)
        };
        let mut fabric = MultiTenantFabric::new(&benign).unwrap();
        fabric.run_activity(None, AesActivity::Continuous, 8200);
        let quiet = fabric.defense_telemetry().unwrap();
        assert!(quiet.windows >= 2);
        assert_eq!(
            quiet.alarm_windows, 0,
            "benign activity false-alarmed: max score {}",
            quiet.max_score
        );
    }

    /// A windowed DualC6288 + TDC capture (the `TdcAll` campaign's)
    /// skips the supply-noise transform of at least 85 % of its ticks,
    /// so a change cannot silently fall back to the exact PDN kernel.
    #[test]
    fn windowed_captures_skip_most_supply_noise_transforms() {
        let mut fabric = MultiTenantFabric::new(&small_config()).unwrap();
        let window = fabric.last_round_window();
        for _ in 0..300 {
            let pt = fabric.random_plaintext();
            fabric.encrypt_windowed(pt, window.clone(), &[]);
        }
        let ticks = fabric.pdn_telemetry().steps;
        let skipped = fabric.pdn.skipped_ticks();
        assert!(
            skipped * 100 >= ticks * 85,
            "{skipped} of {ticks} ticks skipped"
        );
    }

    /// The certified polynomial TDC path serves at least 99.9 % of a
    /// PRNG-fenced capture's samples, defender and attacker alike, so a
    /// change cannot silently degrade the kernel to always-exact.
    #[test]
    fn defended_captures_take_the_polynomial_tdc_path() {
        let defense = DefenseConfig {
            fence: Some(FenceSpec::prng(1.5)),
            ..DefenseConfig::monitor_only(0xdef)
        };
        let mut fabric = MultiTenantFabric::new(&defended_config(defense)).unwrap();
        let mut attacker_samples = 0u64;
        for _ in 0..300 {
            let pt = fabric.random_plaintext();
            attacker_samples += fabric.encrypt_and_capture(pt).tdc.len() as u64;
        }
        let defender = fabric.defense.as_ref().unwrap();
        let ticks = defender.telemetry().ticks;
        assert!(ticks > 30_000, "{ticks} defender ticks");
        let exact = defender.sensor().exact_samples();
        assert!(exact * 1000 <= ticks, "defender: {exact} of {ticks} exact");
        let exact = fabric.tdc.exact_samples();
        assert!(
            exact * 1000 <= attacker_samples,
            "attacker: {exact} of {attacker_samples} exact"
        );
    }
}
