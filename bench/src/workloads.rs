//! The four workloads: how each one's inputs are generated from the
//! seed, what one timed operation ("op") runs, and what counts as a
//! failed op.

use slm_checker::{ScanCache, Severity};
use slm_cloud::{
    AdmissionDecision, AdmissionGate, AdmissionVerdict, CampaignKind, CampaignOutcome,
    ClockContract, CloudService, ServiceConfig, TenantQuota, TenantStatus, TenantSubmission,
    WorkloadSpec,
};
use slm_core::experiments::{
    run_cpa_parallel_recorded, run_streaming_with_recorded, CpaExperiment, DefenseArm, ParallelCpa,
    SensorSource, StreamingCpa,
};
use slm_cpa::DfaModel;
use slm_fabric::{AggressorSpec, BenignCircuit, DetectorConfig, FabricConfig, FabricPrototype};
use slm_netlist::{generators, Netlist, NetlistError};
use slm_obs::Obs;
use slm_par::mix_seed;
use slm_pdn::noise::Rng64;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Worker threads (or client threads) every workload runs with: the
/// core count of the host the baseline was recorded on, fixed so the
/// workload is the same on any host.
pub const WORKERS: usize = 2;

/// Pilot traces of every CPA campaign the benchmark starts itself.
const PILOT_TRACES: usize = 40;

/// The defender's alternation detector, as the streaming study deploys it.
const DETECTOR: DetectorConfig = DetectorConfig {
    window_ticks: 4098,
    alarm_threshold: 0.05,
};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignLong,
    StreamDefended,
    ScanCold,
    CloudFleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CampaignLong,
        Workload::StreamDefended,
        Workload::ScanCold,
        Workload::CloudFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignLong => "campaign-long",
            Workload::StreamDefended => "stream-defended",
            Workload::ScanCold => "scan-cold",
            Workload::CloudFleet => "cloud-fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is what the benchmark measures,
/// [`Scale::TRACED`] what a traced run repeats three times, and
/// [`Scale::TINY`] what the smoke test runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Traces per `campaign-long` campaign.
    pub campaign_traces: u64,
    /// Traces per `stream-defended` campaign.
    pub stream_traces: u64,
    /// Divides the design count of every generated `scan-cold` family.
    pub corpus_divisor: usize,
    /// Tenants in the `cloud-fleet` submission sequence.
    pub fleet_tenants: usize,
    /// Campaigns each `cloud-fleet` tenant requests.
    pub fleet_campaigns: u32,
    /// Traces (or captures) per `cloud-fleet` campaign.
    pub fleet_traces: u64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        campaign_traces: 100_000,
        stream_traces: 1_000_000,
        corpus_divisor: 1,
        fleet_tenants: 480,
        fleet_campaigns: 4,
        fleet_traces: 200,
    };

    pub const TRACED: Scale = Scale {
        campaign_traces: 400_000,
        stream_traces: 250_000,
        fleet_tenants: 240,
        ..Scale::FULL
    };

    pub const TINY: Scale = Scale {
        campaign_traces: 8_000,
        stream_traces: 4_000,
        corpus_divisor: 25,
        fleet_tenants: 8,
        fleet_campaigns: 2,
        fleet_traces: 40,
    };
}

/// What one op produced.
#[derive(Debug, Clone)]
pub struct Op {
    pub seconds: f64,
    /// Work completed: traces, admission decisions or campaigns.
    pub work: f64,
    /// Latency samples in ms: one per decision on `scan-cold`, the op's
    /// own duration elsewhere.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over everything the op computed.
    pub digest: u64,
    /// Work counters that must not depend on the worker count.
    pub counts: Vec<(&'static str, u64)>,
}

/// A workload with its inputs generated and its caches warm.
pub trait Bench: Sync {
    /// Runs op number `index` on `workers` threads, recording into `obs`.
    ///
    /// # Errors
    ///
    /// A library error, or a broken invariant such as a streaming window
    /// retaining more raw traces than its size.
    fn op(&self, index: usize, workers: usize, obs: &Obs) -> Result<Op, String>;

    /// The designs this workload admits or instantiates, with their
    /// contracts: the inputs of the checker and timing probes.
    fn submissions(&self) -> &[TenantSubmission];

    /// Seconds spent generating the workload's netlists during set-up.
    fn generate_s(&self) -> f64;
}

/// Generates `workload`'s inputs from `seed`, builds the fabric
/// prototype cold (every workload but `scan-cold`) and runs a small
/// warm-up.
///
/// # Errors
///
/// A generator that fails, or a failing warm-up op.
pub fn prepare(workload: Workload, seed: u64, scale: &Scale) -> Result<Box<dyn Bench>, String> {
    let bench: Box<dyn Bench> = match workload {
        Workload::CampaignLong => Box::new(CampaignLong::prepare(seed, scale.campaign_traces)?),
        Workload::StreamDefended => Box::new(StreamDefended::prepare(seed, scale.stream_traces)?),
        Workload::ScanCold => Box::new(ScanCold::prepare(seed, scale.corpus_divisor)?),
        Workload::CloudFleet => Box::new(CloudFleet::prepare(seed, scale)?),
    };
    Ok(bench)
}

/// FNV-1a, the digest every op folds its results into.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn digest_of(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(FNV_OFFSET, format!("{value:?}").as_bytes())
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The undefended co-tenant fabric every campaign workload attacks.
pub fn fabric_config(seed: u64) -> FabricConfig {
    FabricConfig {
        benign: BenignCircuit::DualC6288,
        seed,
        ..FabricConfig::default()
    }
}

/// Deploys the PRNG active fence against an attacker whose stimulus
/// alternates by 30 %, as the streaming defense study does.
pub fn defend(config: &mut FabricConfig, seed: u64) {
    config.stimulus_alternation = 0.3;
    config.defense = DefenseArm::PrngFence(1.5).deployment(DETECTOR, mix_seed(seed, 0xdef));
}

/// The stealthy fault-injection aggressor the fleet's fault tenants mount.
pub fn aggressor() -> AggressorSpec {
    AggressorSpec::stealthy(3.0)
}

/// Generates the DualC6288 netlist and builds its fabric prototype
/// without the process-wide cache, so every set-up pays the cold build.
fn cold_fabric(seed: u64) -> Result<(Vec<TenantSubmission>, f64), String> {
    let t = Instant::now();
    let built = BenignCircuit::DualC6288
        .build()
        .map_err(|e| e.to_string())?;
    let generate_s = t.elapsed().as_secs_f64();
    FabricPrototype::build(&fabric_config(seed)).map_err(|e| e.to_string())?;
    let subs = vec![TenantSubmission::new("dual_c6288", built.netlist)];
    Ok((subs, generate_s))
}

fn cpa_experiment(traces: u64, seed: u64) -> CpaExperiment {
    CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces,
        checkpoints: 8,
        pilot_traces: PILOT_TRACES,
        seed,
    }
}

// ---- campaign-long ---------------------------------------------------

/// Sharded undefended TDC campaigns, one per op.
struct CampaignLong {
    seed: u64,
    traces: u64,
    subs: Vec<TenantSubmission>,
    generate_s: f64,
}

impl CampaignLong {
    fn prepare(seed: u64, traces: u64) -> Result<Self, String> {
        let (subs, generate_s) = cold_fabric(seed)?;
        let warm = CampaignLong {
            seed: mix_seed(seed, u64::MAX),
            traces: 3_200,
            subs: Vec::new(),
            generate_s,
        };
        warm.op(0, WORKERS, &Obs::null())?;
        Ok(CampaignLong {
            seed,
            traces,
            subs,
            generate_s,
        })
    }
}

impl Bench for CampaignLong {
    fn op(&self, index: usize, workers: usize, obs: &Obs) -> Result<Op, String> {
        let exp = ParallelCpa {
            base: cpa_experiment(self.traces, mix_seed(self.seed, index as u64)),
            shard_traces: self.traces / 16,
            workers,
        };
        let t = Instant::now();
        let r = run_cpa_parallel_recorded(&exp, obs).map_err(|e| e.to_string())?;
        let ms = ms_since(t);
        Ok(Op {
            seconds: ms / 1e3,
            work: self.traces as f64,
            latencies_ms: vec![ms],
            attempted: 1,
            failed: u64::from(r.recovered_key_byte != Some(r.correct_key_byte)),
            digest: digest_of(&r),
            counts: vec![("fabric.captures", r.traces)],
        })
    }

    fn submissions(&self) -> &[TenantSubmission] {
        &self.subs
    }

    fn generate_s(&self) -> f64 {
        self.generate_s
    }
}

// ---- stream-defended -------------------------------------------------

/// Traces per streaming window; every second window is committed.
pub const STREAM_WINDOW: u64 = 1_000;

/// One streaming campaign under the PRNG fence per op, journalled to
/// a ledger under `bench/target`.
struct StreamDefended {
    seed: u64,
    traces: u64,
    subs: Vec<TenantSubmission>,
    generate_s: f64,
}

impl StreamDefended {
    fn prepare(seed: u64, traces: u64) -> Result<Self, String> {
        let (subs, generate_s) = cold_fabric(seed)?;
        let warm = StreamDefended {
            seed: mix_seed(seed, u64::MAX),
            traces: 4 * STREAM_WINDOW,
            subs: Vec::new(),
            generate_s,
        };
        warm.op(0, WORKERS, &Obs::null())?;
        Ok(StreamDefended {
            seed,
            traces,
            subs,
            generate_s,
        })
    }
}

/// A fresh directory path for a ledger: inside the benchmark's own
/// directory, unique to the process and the call.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("scratch-{}-{call}-{tag}", std::process::id()))
}

impl Bench for StreamDefended {
    fn op(&self, index: usize, workers: usize, obs: &Obs) -> Result<Op, String> {
        let exp = StreamingCpa::new(cpa_experiment(
            self.traces,
            mix_seed(self.seed, index as u64),
        ))
        .with_window(STREAM_WINDOW)
        .with_commit_every(2)
        .with_workers(workers)
        .with_config_tag(1);
        let windows = exp.plan().shard_count() as u64;
        let dir = scratch_dir("ledger");
        let t = Instant::now();
        let run = run_streaming_with_recorded(&exp, &dir, |c| defend(c, self.seed), obs);
        let ms = ms_since(t);
        let _ = std::fs::remove_dir_all(&dir);
        let r = run.map_err(|e| e.to_string())?;
        if r.peak_raw_traces > STREAM_WINDOW {
            return Err(format!(
                "streaming window retained {} raw traces, more than its {STREAM_WINDOW}",
                r.peak_raw_traces
            ));
        }
        Ok(Op {
            seconds: ms / 1e3,
            work: r.traces as f64,
            latencies_ms: vec![ms],
            attempted: windows,
            failed: windows.saturating_sub(r.windows) + u64::from(r.traces != self.traces),
            digest: digest_of(&r),
            counts: vec![("fabric.captures", r.traces), ("stream.windows", r.windows)],
        })
    }

    fn submissions(&self) -> &[TenantSubmission] {
        &self.subs
    }

    fn generate_s(&self) -> f64 {
        self.generate_s
    }
}

// ---- scan-cold -------------------------------------------------------

/// A generated design family of the admission corpus.
struct Family {
    name: &'static str,
    count: usize,
    widths: (usize, usize),
    sensor: bool,
    /// Builds the design of a width; the second argument is the tap
    /// spacing, which only the carry sensor reads.
    build: fn(usize, usize) -> Result<Netlist, NetlistError>,
}

/// Width ranges are those where every design of a benign family is
/// admitted and every sensor is denied (tapped chains below 16 bits
/// pass the signature pass, so they start at 16).
#[rustfmt::skip]
const FAMILIES: [Family; 9] = [
    Family { name: "rca", count: 125, widths: (8, 640), sensor: false, build: |w, _| generators::ripple_carry_adder(w) },
    Family { name: "cla", count: 125, widths: (8, 640), sensor: false, build: |w, _| generators::carry_lookahead_adder(w) },
    Family { name: "csa", count: 125, widths: (8, 640), sensor: false, build: |w, _| generators::carry_select_adder(w) },
    Family { name: "ksa", count: 125, widths: (8, 640), sensor: false, build: |w, _| generators::kogge_stone_adder(w) },
    Family { name: "alu", count: 125, widths: (8, 256), sensor: false, build: |w, _| generators::alu(w) },
    Family { name: "array_mult", count: 24, widths: (4, 32), sensor: false, build: |w, _| generators::array_multiplier(w) },
    Family { name: "wallace", count: 24, widths: (4, 32), sensor: false, build: |w, _| generators::wallace_multiplier(w) },
    Family { name: "tapped_chain", count: 150, widths: (16, 640), sensor: true, build: |w, _| generators::tapped_carry_chain(w) },
    Family { name: "carry_sensor", count: 150, widths: (8, 640), sensor: true, build: generators::carry_sensor },
];

/// Kogge-Stone adders up to this width meet a 300 MHz clock under the
/// default delay model; those tenants request it in their contract.
const KSA_300MHZ_MAX_WIDTH: usize = 64;

/// `count` distinct widths, log-uniform over `lo..=hi`: one draw per
/// equal-probability stratum, moved to the nearest free width on a
/// collision, so every seed gets the same width distribution.
fn stratified_widths(rng: &mut Rng64, count: usize, (lo, hi): (usize, usize)) -> Vec<usize> {
    assert!(count <= hi - lo + 1, "more designs than widths");
    let mut taken = BTreeSet::new();
    (0..count)
        .map(|j| {
            let u = (j as f64 + rng.uniform()) / count as f64;
            let w = ((lo as f64) * (hi as f64 / lo as f64).powf(u)).round() as usize;
            let w = w.clamp(lo, hi);
            let free = (0..=hi - lo)
                .flat_map(|d| [w + d, w.wrapping_sub(d)])
                .find(|c| (lo..=hi).contains(c) && !taken.contains(c))
                .expect("a free width exists");
            taken.insert(free);
            free
        })
        .collect()
}

/// The admission corpus: every zoo design plus the generated families,
/// deduplicated by scan key (a shared key would let two clients race
/// one cache entry) and shuffled. Returns each submission with whether
/// it is a sensor the gate must deny.
pub fn corpus(seed: u64, divisor: usize) -> Result<Vec<(TenantSubmission, bool)>, String> {
    let mut rng = Rng64::new(mix_seed(seed, 0x5ca9));
    let mut out: Vec<(TenantSubmission, bool)> = generators::zoo()
        .into_iter()
        .map(|e| {
            let contract = ClockContract {
                declared_clocks: e.declared_clocks.iter().map(|c| c.to_string()).collect(),
                clock_mhz: None,
            };
            let sub =
                TenantSubmission::new(format!("zoo-{}", e.name), e.netlist).with_contract(contract);
            (sub, e.malicious)
        })
        .collect();
    for family in &FAMILIES {
        let count = family.count.div_ceil(divisor);
        for width in stratified_widths(&mut rng, count, family.widths) {
            let tap = [2, 3, 4, 6, 8][rng.below(5) as usize];
            let nl =
                (family.build)(width, tap).map_err(|e| format!("{}{width}: {e}", family.name))?;
            let contract = ClockContract {
                declared_clocks: if family.name == "carry_sensor" {
                    vec!["sense".to_string()]
                } else {
                    Vec::new()
                },
                clock_mhz: (family.name == "ksa" && width <= KSA_300MHZ_MAX_WIDTH).then_some(300.0),
            };
            let sub = TenantSubmission::new(format!("{}{width}", family.name), nl)
                .with_contract(contract);
            out.push((sub, family.sensor));
        }
    }
    let gate = AdmissionGate::new(ScanCache::in_memory());
    let mut keys = BTreeSet::new();
    out.retain(|(sub, _)| keys.insert(gate.dedup_key(sub).0));
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Ok(out)
}

/// Cold admission: each op is one pass over the corpus through a
/// fresh gate, with client threads pulling designs in a closed loop.
struct ScanCold {
    subs: Vec<TenantSubmission>,
    sensor: Vec<bool>,
    generate_s: f64,
}

impl ScanCold {
    fn prepare(seed: u64, divisor: usize) -> Result<Self, String> {
        let t = Instant::now();
        let (subs, sensor) = corpus(seed, divisor)?.into_iter().unzip();
        let scan = ScanCold {
            subs,
            sensor,
            generate_s: t.elapsed().as_secs_f64(),
        };
        let warm = AdmissionGate::new(ScanCache::in_memory());
        for sub in scan.subs.iter().take(16) {
            warm.decide(sub);
        }
        Ok(scan)
    }
}

impl Bench for ScanCold {
    fn op(&self, _index: usize, workers: usize, _obs: &Obs) -> Result<Op, String> {
        let gate = AdmissionGate::new(ScanCache::in_memory());
        // The next design to decide; it publishes no data (the corpus
        // is immutable), so relaxed increments suffice.
        let next = AtomicUsize::new(0);
        let t = Instant::now();
        let mut decided: Vec<Decided> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let j = next.fetch_add(1, Ordering::Relaxed);
                            let Some(sub) = self.subs.get(j) else {
                                return out;
                            };
                            let t = Instant::now();
                            let d = gate.decide(sub);
                            out.push(Decided::new(j, ms_since(t), d));
                        }
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("admission client panicked"))
                .collect()
        });
        let seconds = t.elapsed().as_secs_f64();
        decided.sort_by_key(|d| d.index);
        let mut digest = FNV_OFFSET;
        let mut failed = 0;
        for d in &decided {
            digest = fnv1a(digest, d.summary.as_bytes());
            failed += u64::from(d.denied != self.sensor[d.index]);
        }
        Ok(Op {
            seconds,
            work: decided.len() as f64,
            latencies_ms: decided.iter().map(|d| d.ms).collect(),
            attempted: decided.len() as u64,
            failed,
            digest,
            counts: vec![
                ("checker.cache_hits", gate.cache_hits()),
                ("checker.cache_misses", gate.cache_misses()),
                (
                    "checker.findings_reject",
                    decided.iter().map(|d| d.rejects).sum(),
                ),
            ],
        })
    }

    fn submissions(&self) -> &[TenantSubmission] {
        &self.subs
    }

    fn generate_s(&self) -> f64 {
        self.generate_s
    }
}

/// What a `scan-cold` client keeps of one decision.
struct Decided {
    index: usize,
    ms: f64,
    denied: bool,
    rejects: u64,
    /// Verdict and diagnostics, the part of the decision the digest covers.
    summary: String,
}

impl Decided {
    fn new(index: usize, ms: f64, d: AdmissionDecision) -> Self {
        Decided {
            index,
            ms,
            denied: d.verdict == AdmissionVerdict::Denied,
            rejects: d
                .report
                .active()
                .filter(|f| f.severity == Severity::Reject)
                .count() as u64,
            summary: format!("{index}|{:?}|{:?}", d.verdict, d.diagnostics),
        }
    }
}

// ---- cloud-fleet -----------------------------------------------------

/// The fleet's submission sequence: tenants resubmitting four small
/// benign netlists, three quarters running CPA campaigns and one
/// quarter fault campaigns, plus one denied specimen per 120 tenants.
/// Returns each submission with the status it must end in.
pub fn fleet(
    seed: u64,
    tenants: usize,
    campaigns: u32,
    traces: u64,
) -> Result<Vec<(TenantSubmission, TenantStatus)>, String> {
    let e = |r: Result<Netlist, NetlistError>| r.map_err(|e| e.to_string());
    let designs = [
        generators::c17(),
        e(generators::kogge_stone_adder(16))?,
        e(generators::ripple_carry_adder(24))?,
        e(generators::alu(32))?,
    ];
    let specimens = [
        (e(generators::ring_oscillator(8))?, None),
        (e(generators::tdc_delay_line(32))?, None),
        (e(generators::tapped_carry_chain(64))?, None),
        (e(generators::carry_sensor(64, 4))?, Some("sense")),
    ];
    let specimen_count = tenants.div_ceil(120).min(tenants);
    let mut rng = Rng64::new(mix_seed(seed, 0xf1ee7));
    let mut out = Vec::with_capacity(tenants);
    for i in 0..tenants {
        let workload = |kind| WorkloadSpec {
            circuit: BenignCircuit::DualC6288,
            kind,
            traces,
            campaigns,
            defense: None,
        };
        let cpa = CampaignKind::Cpa {
            source: SensorSource::TdcAll,
        };
        let sub = if i < specimen_count {
            let (nl, clock) = &specimens[i % specimens.len()];
            let contract = ClockContract {
                declared_clocks: clock.iter().map(|c| c.to_string()).collect(),
                clock_mhz: None,
            };
            let sub = TenantSubmission::new(format!("specimen{i}"), nl.clone())
                .with_contract(contract)
                .with_workload(workload(cpa));
            (sub, TenantStatus::Denied)
        } else {
            let j = i - specimen_count;
            let kind = if (j / designs.len()) % 4 == 3 {
                CampaignKind::Fault {
                    aggressor: aggressor(),
                    model: DfaModel::SingleByte { max_fault_bits: 2 },
                }
            } else {
                cpa
            };
            let sub =
                TenantSubmission::new(format!("tenant{i}"), designs[j % designs.len()].clone())
                    .with_workload(workload(kind))
                    .with_quota(TenantQuota {
                        max_traces_per_round: 2 * traces,
                        ..TenantQuota::default()
                    });
            (sub, TenantStatus::Completed)
        };
        out.push(sub);
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Ok(out)
}

/// The multi-tenant service draining one fleet per op.
struct CloudFleet {
    seed: u64,
    subs: Vec<TenantSubmission>,
    expected: Vec<TenantStatus>,
    generate_s: f64,
}

impl CloudFleet {
    fn prepare(seed: u64, scale: &Scale) -> Result<Self, String> {
        let t = Instant::now();
        let (subs, expected) = fleet(
            seed,
            scale.fleet_tenants,
            scale.fleet_campaigns,
            scale.fleet_traces,
        )?
        .into_iter()
        .unzip();
        let generate_s = t.elapsed().as_secs_f64();
        FabricPrototype::build(&fabric_config(seed)).map_err(|e| e.to_string())?;
        let (warm_subs, warm_expected) = fleet(mix_seed(seed, u64::MAX), 4, 1, 40)?
            .into_iter()
            .unzip();
        let warm = CloudFleet {
            seed,
            subs: warm_subs,
            expected: warm_expected,
            generate_s,
        };
        warm.op(0, WORKERS, &Obs::null())?;
        Ok(CloudFleet {
            seed,
            subs,
            expected,
            generate_s,
        })
    }
}

impl Bench for CloudFleet {
    fn op(&self, index: usize, workers: usize, obs: &Obs) -> Result<Op, String> {
        let service = CloudService::new(ServiceConfig {
            intake_per_round: 4,
            admission_queue_depth: 4,
            // Every admitted tenant waits for a region rather than being
            // shed: throughput under contention is the point.
            wait_queue_depth: self.subs.len() + 1,
            max_campaigns_per_round: 8,
            workers,
            seed: mix_seed(self.seed, index as u64),
            ..ServiceConfig::default()
        });
        let t = Instant::now();
        let report = service
            .run_recorded(self.subs.clone(), obs)
            .map_err(|e| e.to_string())?;
        let ms = ms_since(t);
        let (mut attempted, mut failed, mut captures, mut rejects) = (0, 0, 0, 0);
        for ((rec, sub), expected) in report.tenants.iter().zip(&self.subs).zip(&self.expected) {
            let requested = u64::from(sub.workload.campaigns);
            attempted += requested;
            failed += if rec.status != *expected {
                requested
            } else {
                requested.saturating_sub(u64::from(rec.campaigns_delivered))
                    * u64::from(*expected == TenantStatus::Completed)
            };
            captures += rec
                .outcomes
                .iter()
                .map(|o| match o {
                    CampaignOutcome::Cpa { traces, .. } => *traces,
                    CampaignOutcome::Fault { captures, .. } => *captures,
                })
                .sum::<u64>();
            rejects += rec
                .diagnostics
                .iter()
                .filter(|d| d.starts_with("[reject]"))
                .count() as u64;
        }
        Ok(Op {
            seconds: ms / 1e3,
            work: report.campaigns_delivered as f64,
            latencies_ms: vec![ms],
            attempted,
            failed,
            digest: digest_of(&report),
            counts: vec![
                ("cloud.rounds", report.rounds),
                ("fabric.captures", captures),
                ("checker.cache_hits", report.cache_hits),
                ("checker.cache_misses", report.cache_misses),
                ("checker.findings_reject", rejects),
            ],
        })
    }

    fn submissions(&self) -> &[TenantSubmission] {
        &self.subs
    }

    fn generate_s(&self) -> f64 {
        self.generate_s
    }
}
