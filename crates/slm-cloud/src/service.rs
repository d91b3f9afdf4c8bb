//! The cloud service proper: a deterministic round-based event loop
//! that takes a submission sequence from intake through admission,
//! placement, quota-bounded campaign execution and teardown.
//!
//! # Determinism contract
//!
//! The loop is the service's logical clock. Every decision — intake
//! order, admission verdicts, placements, dispatch order, eviction —
//! is a pure function of the submission sequence, the [`ServiceConfig`]
//! and its seed. No campaign outcome feeds a decision, so rounds only
//! plan: each round's admission scans fan out over [`slm_par::par_map`]
//! (order-preserving), and every dispatched campaign runs after the
//! loop on one pool, seeded per lane via [`slm_par::mix_seed`], its
//! metric frame absorbed in dispatch order. Consequently the same
//! submissions + seed produce a bit-identical [`ServiceReport`] — and
//! worker-invariant
//! [`deterministic`](slm_obs::MetricsFrame::deterministic) metrics —
//! at any worker count. The admission-latency histogram records
//! *rounds*, not wall time, for the same reason; wall-clock latency is
//! the benchmark's job.
//!
//! # Backpressure
//!
//! Both queues are bounded. A full admission queue defers intake (the
//! submission stays outside, `cloud.intake.deferred` counts the
//! refusals); a full wait queue sheds the tenant at admission
//! (`cloud.shed` — admission succeeded, capacity did not). Placed
//! tenants dispatch at most [`ServiceConfig::max_campaigns_per_round`]
//! campaigns per round, round-robin in submission order, each charged
//! against the tenant's [`TenantQuota`](crate::submission::TenantQuota).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use slm_checker::ScanCache;
use slm_core::experiments::{run_cpa, run_fault_campaign, CpaExperiment, FaultCampaign};
use slm_fabric::{DetectorConfig, FabricConfig, FabricError};
use slm_obs::Obs;

use crate::admission::{AdmissionDecision, AdmissionGate, AdmissionVerdict};
use crate::queue::BoundedQueue;
use crate::quota::{QuotaDecision, QuotaLedger};
use crate::scheduler::{CoResidencyPolicy, Occupant, Placement, RegionScheduler};
use crate::submission::{CampaignKind, TenantSubmission, WorkloadSpec};

/// Service-wide tunables. Everything here is part of the determinism
/// key: two runs with equal configs, seeds and submissions match
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Boards in the fleet, each a zynq7020-sized grid.
    pub boards: usize,
    /// Region lattice rows per board.
    pub region_rows: usize,
    /// Region lattice columns per board.
    pub region_cols: usize,
    /// Packing density: netlist nets per grid cell when converting a
    /// design's size into region demand.
    pub nets_per_cell: usize,
    /// Who may share a board with whom.
    pub policy: CoResidencyPolicy,
    /// Admission queue capacity (backpressure boundary for intake).
    pub admission_queue_depth: usize,
    /// Submissions moved from intake into the admission queue per
    /// round.
    pub intake_per_round: usize,
    /// Admitted-but-unplaced queue capacity; overflow is shed.
    pub wait_queue_depth: usize,
    /// Campaign dispatch budget per round (across all tenants).
    pub max_campaigns_per_round: usize,
    /// Rounds after which a non-empty service errors out as stalled
    /// (deadlock guard; generous by default).
    pub max_rounds: u64,
    /// Worker threads for admission scans and campaigns (0 = machine
    /// parallelism).
    pub workers: usize,
    /// Master seed; campaign lanes split from it deterministically.
    pub seed: u64,
    /// Detector operating point used when a workload deploys a
    /// defense arm.
    pub detector: DetectorConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            boards: 2,
            region_rows: 2,
            region_cols: 2,
            nets_per_cell: 16,
            policy: CoResidencyPolicy::open(),
            admission_queue_depth: 16,
            intake_per_round: 8,
            wait_queue_depth: 16,
            max_campaigns_per_round: 16,
            max_rounds: 10_000,
            workers: 0,
            seed: 0x51_c10d,
            detector: DetectorConfig::default(),
        }
    }
}

/// Where a tenant's journey through the service ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TenantStatus {
    /// Admission denied; no fabric was provisioned.
    Denied,
    /// Admitted, but the wait queue was full: dropped under load.
    Shed,
    /// Every requested campaign was delivered.
    Completed,
    /// Preempted mid-flight on quota exhaustion (traces or lease).
    Evicted,
    /// Service shut down before the tenant reached another terminal
    /// state (graceful drain).
    Cancelled,
}

/// The distilled result of one delivered campaign. Plain data — what
/// the determinism property test compares across worker counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignOutcome {
    /// A CPA key-recovery campaign.
    Cpa {
        /// The leading candidate at the end, if it strictly led.
        recovered_key_byte: Option<u8>,
        /// Ground-truth last-round key byte.
        correct_key_byte: u8,
        /// Traces processed.
        traces: u64,
    },
    /// A fault-injection campaign.
    Fault {
        /// Encryptions captured.
        captures: u64,
        /// Encryptions whose ciphertext came back corrupted.
        faulted: u64,
        /// Last-round key bytes unambiguously recovered by the DFA.
        recovered_bytes: usize,
        /// Whether the full master key fell out.
        key_recovered: bool,
    },
}

/// Everything the service records about one submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantRecord {
    /// Tenant name.
    pub tenant: String,
    /// Index in the submission sequence.
    pub id: usize,
    /// Terminal status.
    pub status: TenantStatus,
    /// Admission outcome (set for every tenant that reached the gate).
    pub verdict: Option<AdmissionVerdict>,
    /// Admission diagnostics (why denied / why flagged).
    pub diagnostics: Vec<String>,
    /// Where the tenant ran, if it was ever placed.
    pub placement: Option<Placement>,
    /// Rounds between intake and the admission verdict.
    pub admission_latency_rounds: Option<u64>,
    /// Campaigns delivered before the terminal state.
    pub campaigns_delivered: u32,
    /// Traces charged against the quota.
    pub traces_charged: u64,
    /// Rounds the tenant held its region.
    pub region_rounds: u64,
    /// Per-campaign results, in delivery order.
    pub outcomes: Vec<CampaignOutcome>,
}

/// The service's summary of a full run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// One record per submission, in submission order.
    pub tenants: Vec<TenantRecord>,
    /// Rounds the event loop ran.
    pub rounds: u64,
    /// Campaigns delivered across all tenants.
    pub campaigns_delivered: u64,
    /// Tenants admitted (flagged or not).
    pub admitted: u64,
    /// Tenants denied at the gate.
    pub denied: u64,
    /// Tenants preempted on quota exhaustion.
    pub evicted: u64,
    /// Tenants shed on wait-queue overflow.
    pub shed: u64,
    /// Tenants cancelled by shutdown.
    pub cancelled: u64,
    /// Scan-cache hits over the run.
    pub cache_hits: u64,
    /// Scan-cache misses over the run.
    pub cache_misses: u64,
}

impl ServiceReport {
    /// The record for `tenant`, if it was ever submitted.
    #[cfg(test)]
    fn tenant(&self, tenant: &str) -> Option<&TenantRecord> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }

    /// Scan-cache hit rate in `[0, 1]` (0 when no lookups ran).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Why a run aborted.
#[derive(Debug)]
pub enum ServiceError {
    /// A campaign's fabric failed to construct.
    Fabric(FabricError),
    /// The event loop exceeded [`ServiceConfig::max_rounds`] with work
    /// still queued — the deadlock guard tripped.
    Stalled {
        /// The round at which the guard fired.
        round: u64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Fabric(e) => write!(f, "campaign fabric failed: {e}"),
            ServiceError::Stalled { round } => {
                write!(f, "service stalled with work queued after round {round}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<FabricError> for ServiceError {
    fn from(e: FabricError) -> Self {
        ServiceError::Fabric(e)
    }
}

/// A submission waiting in (or bound for) the admission queue.
struct Queued {
    id: usize,
    sub: TenantSubmission,
    intake_round: u64,
}

/// A placed tenant with live campaign state.
struct Resident {
    id: usize,
    sub: TenantSubmission,
    placement: Placement,
    ledger: QuotaLedger,
    delivered: u32,
}

impl Resident {
    /// Leaves the fabric in a terminal `status`: releases the region
    /// and closes the tenant's record with what it was delivered and
    /// charged.
    fn retire(
        self,
        status: TenantStatus,
        scheduler: &mut RegionScheduler,
        records: &mut [TenantRecord],
    ) {
        scheduler.release(self.placement);
        let rec = &mut records[self.id];
        rec.status = status;
        rec.campaigns_delivered = self.delivered;
        rec.traces_charged = self.ledger.traces_used;
        rec.region_rounds = self.ledger.region_rounds;
    }
}

/// The multi-tenant fabric service.
pub struct CloudService {
    config: ServiceConfig,
    gate: AdmissionGate,
}

impl CloudService {
    /// A service over an in-memory scan cache.
    pub fn new(config: ServiceConfig) -> Self {
        CloudService {
            config,
            gate: AdmissionGate::new(ScanCache::in_memory()),
        }
    }

    /// Replaces the admission gate's base checker configuration
    /// (thresholds, suppressions, opt-in heuristics). Per-submission
    /// contract clocks still layer on top at decision time.
    pub fn with_checker_config(mut self, base: slm_checker::CheckerConfig) -> Self {
        self.gate = self.gate.with_config(base);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Runs the submission sequence to completion, emitting `cloud.*`
    /// counters, queue-depth gauges, the admission-latency histogram
    /// (in rounds) and per-stage spans into `obs`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Fabric`] for the first campaign, in dispatch
    /// order, whose fabric fails to build; otherwise
    /// [`ServiceError::Stalled`] if the deadlock guard trips.
    pub fn run(
        &self,
        submissions: Vec<TenantSubmission>,
        obs: &Obs,
    ) -> Result<ServiceReport, ServiceError> {
        self.run_until(submissions, u64::MAX, obs)
    }

    /// [`CloudService::run`] under the name the `bench/` package calls.
    ///
    /// # Errors
    ///
    /// See [`CloudService::run`].
    #[doc(hidden)]
    pub fn run_recorded(
        &self,
        submissions: Vec<TenantSubmission>,
        obs: &Obs,
    ) -> Result<ServiceReport, ServiceError> {
        self.run(submissions, obs)
    }

    /// Runs at most `round_budget` rounds, then drains gracefully:
    /// tenants that have not reached a terminal state are marked
    /// [`TenantStatus::Cancelled`], their regions released, and the
    /// report returned — the shutdown path.
    ///
    /// # Errors
    ///
    /// See [`CloudService::run`]; the stall guard still applies when
    /// `round_budget` exceeds [`ServiceConfig::max_rounds`].
    fn run_until(
        &self,
        submissions: Vec<TenantSubmission>,
        round_budget: u64,
        obs: &Obs,
    ) -> Result<ServiceReport, ServiceError> {
        let cfg = &self.config;
        let plan = slm_fabric::floorplan::Floorplan::zynq7020();
        let mut scheduler =
            RegionScheduler::new(cfg.boards, &plan, cfg.region_rows, cfg.region_cols);

        // Records start as placeholders and are finalized in place;
        // submission order is report order.
        let mut records: Vec<TenantRecord> = submissions
            .iter()
            .enumerate()
            .map(|(id, s)| TenantRecord {
                tenant: s.tenant.clone(),
                id,
                status: TenantStatus::Cancelled,
                verdict: None,
                diagnostics: Vec::new(),
                placement: None,
                admission_latency_rounds: None,
                campaigns_delivered: 0,
                traces_charged: 0,
                region_rounds: 0,
                outcomes: Vec::new(),
            })
            .collect();
        obs.add("cloud.submitted", submissions.len() as u64);

        let mut intake: std::collections::VecDeque<Queued> = submissions
            .into_iter()
            .enumerate()
            .map(|(id, sub)| Queued {
                id,
                sub,
                intake_round: 0,
            })
            .collect();
        let mut admission_queue: BoundedQueue<Queued> =
            BoundedQueue::new(cfg.admission_queue_depth);
        let mut wait_queue: BoundedQueue<Queued> = BoundedQueue::new(cfg.wait_queue_depth);
        let mut residents: Vec<Resident> = Vec::new();

        let mut round: u64 = 0;
        let mut counts = Tally::default();
        // Every campaign planned, in dispatch order: (id, workload, index).
        let mut dispatched: Vec<(usize, WorkloadSpec, u32)> = Vec::new();
        let mut stalled = None;

        while !(intake.is_empty()
            && admission_queue.is_empty()
            && wait_queue.is_empty()
            && residents.is_empty())
        {
            if round >= round_budget {
                break;
            }
            if round >= cfg.max_rounds {
                stalled = Some(round);
                break;
            }
            round += 1;
            let _round_span = obs.span("cloud.round");

            // ---- intake: feed the admission queue, deferring on
            // backpressure ---------------------------------------------
            let mut moved = 0;
            while moved < cfg.intake_per_round {
                let Some(mut item) = intake.pop_front() else {
                    break;
                };
                item.intake_round = round;
                match admission_queue.push(item) {
                    Ok(()) => moved += 1,
                    Err(item) => {
                        obs.incr("cloud.intake.deferred");
                        intake.push_front(item);
                        break;
                    }
                }
            }
            obs.gauge("cloud.queue.admission.depth", admission_queue.len() as f64);

            // ---- admission: drain the queue through the gate ---------
            let batch = admission_queue.drain_all();
            let decisions = self.admit_batch(&batch, obs);
            for (item, decision) in batch.into_iter().zip(decisions) {
                let rec = &mut records[item.id];
                rec.verdict = Some(decision.verdict);
                rec.diagnostics = decision.diagnostics;
                let latency = round - item.intake_round;
                rec.admission_latency_rounds = Some(latency);
                obs.observe("cloud.admission.latency_rounds", latency as f64);
                match decision.verdict {
                    AdmissionVerdict::Denied => {
                        rec.status = TenantStatus::Denied;
                        counts.denied += 1;
                        obs.incr("cloud.admission.denied");
                    }
                    verdict => {
                        counts.admitted += 1;
                        obs.incr("cloud.admitted");
                        if verdict == AdmissionVerdict::AdmittedWithFlags {
                            obs.incr("cloud.admission.flagged");
                        }
                        if let Err(item) = wait_queue.push(item) {
                            records[item.id].status = TenantStatus::Shed;
                            counts.shed += 1;
                            obs.incr("cloud.shed");
                        }
                    }
                }
            }
            obs.gauge("cloud.queue.wait.depth", wait_queue.len() as f64);

            // ---- placement: one pass over the wait queue, in order ---
            let waiting = wait_queue.drain_all();
            for item in waiting {
                let flagged = records[item.id].verdict == Some(AdmissionVerdict::AdmittedWithFlags);
                let demand = item.sub.demand_cells(cfg.nets_per_cell);
                let occupant = Occupant {
                    tenant: item.sub.tenant.clone(),
                    flagged,
                };
                match scheduler.place(occupant, demand, &cfg.policy) {
                    Some(placement) => {
                        let _span = obs.span("cloud.scheduler.place");
                        obs.incr("cloud.placed");
                        records[item.id].placement = Some(placement);
                        residents.push(Resident {
                            id: item.id,
                            sub: item.sub,
                            placement,
                            ledger: QuotaLedger::default(),
                            delivered: 0,
                        });
                    }
                    None => {
                        // No slot this round; the push cannot overflow
                        // because the queue just drained this item.
                        let _ = wait_queue.push(item);
                    }
                }
            }
            residents.sort_by_key(|r| r.id);
            obs.gauge("cloud.regions.free", scheduler.free_regions() as f64);

            // ---- dispatch: plan round-robin campaigns under quota ----
            let (dispatch, evictions) = plan_dispatch(cfg, &residents);
            for (resident_idx, campaign) in dispatch {
                let resident = &mut residents[resident_idx];
                resident.ledger.charge(resident.sub.workload.traces);
                resident.delivered += 1;
                obs.incr("cloud.campaigns.delivered");
                dispatched.push((resident.id, resident.sub.workload, campaign));
            }
            // Evictions are planned as indexes into the pre-dispatch
            // resident list and removed in descending order, after the
            // dispatch indexes are done being used.
            for idx in evictions {
                residents
                    .remove(idx)
                    .retire(TenantStatus::Evicted, &mut scheduler, &mut records);
                counts.evicted += 1;
                obs.incr("cloud.evicted");
            }

            // ---- completion & round close ----------------------------
            let mut i = 0;
            while i < residents.len() {
                if residents[i].delivered >= residents[i].sub.workload.campaigns {
                    residents.remove(i).retire(
                        TenantStatus::Completed,
                        &mut scheduler,
                        &mut records,
                    );
                    obs.incr("cloud.completed");
                } else {
                    residents[i].ledger.tick_round();
                    i += 1;
                }
            }
        }

        // ---- execution: one pool runs every planned campaign; the
        // first failure in dispatch order wins over a stall ------------
        let results = slm_par::par_map(cfg.workers, &dispatched, |&(id, workload, campaign)| {
            let task_obs = obs.fork();
            let outcome = {
                let _span = task_obs.span("cloud.campaign");
                self.run_campaign(id, &workload, campaign)
            };
            (outcome, task_obs.snapshot())
        });
        for (&(id, ..), (outcome, frame)) in dispatched.iter().zip(results) {
            obs.absorb(&frame);
            records[id].outcomes.push(outcome?);
        }
        if let Some(round) = stalled {
            return Err(ServiceError::Stalled { round });
        }

        // ---- graceful drain: whatever is still live is cancelled -----
        for resident in residents {
            resident.retire(TenantStatus::Cancelled, &mut scheduler, &mut records);
            counts.cancelled += 1;
            obs.incr("cloud.cancelled");
        }
        for item in intake
            .into_iter()
            .chain(admission_queue.drain_all())
            .chain(wait_queue.drain_all())
        {
            records[item.id].status = TenantStatus::Cancelled;
            counts.cancelled += 1;
            obs.incr("cloud.cancelled");
        }

        Ok(ServiceReport {
            tenants: records,
            rounds: round,
            campaigns_delivered: dispatched.len() as u64,
            admitted: counts.admitted,
            denied: counts.denied,
            evicted: counts.evicted,
            shed: counts.shed,
            cancelled: counts.cancelled,
            cache_hits: self.gate.cache_hits(),
            cache_misses: self.gate.cache_misses(),
        })
    }

    /// Scans a drained admission batch, deduplicating identical scans
    /// so concurrent submissions of one design cost one scan — which
    /// also keeps the cache's hit/miss counters a pure function of the
    /// submission sequence.
    ///
    /// The fan-out is keyed on the checker scan key (netlist content +
    /// checker config, requested clock included): two parallel scans of
    /// one key would race the cache's hit/miss counters, so each unique
    /// key scans exactly once and its duplicates share the decision.
    fn admit_batch(&self, batch: &[Queued], obs: &Obs) -> Vec<AdmissionDecision> {
        // Unique keys in first-appearance order (determinism: the
        // fan-out order must not depend on hash iteration).
        let mut unique: Vec<&Queued> = Vec::new();
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        let slots: Vec<usize> = batch
            .iter()
            .map(|item| {
                let key = self.gate.dedup_key(&item.sub).0;
                *slot_of.entry(key).or_insert_with(|| {
                    unique.push(item);
                    unique.len() - 1
                })
            })
            .collect();
        let scanned = slm_par::par_map(self.config.workers, &unique, |item| {
            let scan_obs = obs.fork();
            let decision = {
                let _span = scan_obs.span("cloud.admission.scan");
                self.gate.decide(&item.sub)
            };
            (decision, scan_obs.snapshot())
        });
        let decisions: Vec<AdmissionDecision> = scanned
            .into_iter()
            .map(|(decision, frame)| {
                obs.absorb(&frame);
                decision
            })
            .collect();
        slots.into_iter().map(|i| decisions[i].clone()).collect()
    }

    /// Runs campaign `campaign` of submission `id`. The seed lane is a
    /// pure function of the master seed, the submission index and the
    /// campaign index — never of scheduling.
    fn run_campaign(
        &self,
        id: usize,
        workload: &WorkloadSpec,
        campaign: u32,
    ) -> Result<CampaignOutcome, FabricError> {
        let lane = ((id as u64) << 32) | campaign as u64;
        let seed = slm_par::mix_seed(self.config.seed, lane);
        let defense = workload
            .defense
            .as_ref()
            .and_then(|arm| arm.deployment(self.config.detector, slm_par::mix_seed(seed, 0xdef)));
        match workload.kind {
            CampaignKind::Cpa { source } => {
                let exp = CpaExperiment {
                    circuit: workload.circuit,
                    source,
                    traces: workload.traces,
                    checkpoints: 2,
                    pilot_traces: 16,
                    seed,
                };
                let result = run_cpa(
                    &exp,
                    |fc| {
                        fc.defense = defense;
                    },
                    &Obs::null(),
                )?;
                Ok(CampaignOutcome::Cpa {
                    recovered_key_byte: result.recovered_key_byte,
                    correct_key_byte: result.correct_key_byte,
                    traces: result.traces,
                })
            }
            CampaignKind::Fault { aggressor, model } => {
                let fault = FaultCampaign {
                    config: FabricConfig {
                        benign: workload.circuit,
                        seed,
                        aggressor: Some(aggressor),
                        defense,
                        ..FabricConfig::default()
                    },
                    model,
                    captures: workload.traces,
                    shard_captures: workload.traces.max(1),
                    // The service parallelism is the campaign fan-out;
                    // shards inside one campaign stay serial.
                    workers: 1,
                };
                let outcome = run_fault_campaign(&fault, &Obs::null())?;
                Ok(CampaignOutcome::Fault {
                    captures: outcome.captures,
                    faulted: outcome.faulted,
                    recovered_bytes: outcome.dfa.recovered_bytes(),
                    key_recovered: outcome.dfa.recovered_master_key().is_some(),
                })
            }
        }
    }
}

/// Per-run terminal-state tallies.
#[derive(Default)]
struct Tally {
    admitted: u64,
    denied: u64,
    evicted: u64,
    shed: u64,
    cancelled: u64,
}

/// Plans this round's dispatch: round-robin over residents in
/// submission order, one campaign per turn, until the round budget is
/// spent or nobody can dispatch. Also returns the residents to evict
/// (quota-exhausted), as indexes in **descending** order so removal is
/// safe.
fn plan_dispatch(cfg: &ServiceConfig, residents: &[Resident]) -> DispatchPlan {
    let mut planned: Vec<(usize, u32)> = Vec::new();
    let mut evict: Vec<usize> = Vec::new();
    // Shadow ledgers: quota decisions for later turns must see the
    // charges planned in earlier turns of the same round.
    let mut shadow: Vec<QuotaLedger> = residents.iter().map(|r| r.ledger).collect();
    let mut next_campaign: Vec<u32> = residents.iter().map(|r| r.delivered).collect();
    let mut blocked: Vec<bool> = residents
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let remaining = r.delivered < r.sub.workload.campaigns;
            if !remaining {
                return true; // completes this round without dispatching
            }
            match r.ledger.admit(&r.sub.quota, r.sub.workload.traces) {
                QuotaDecision::ExhaustedTraces | QuotaDecision::ExhaustedLease => {
                    evict.push(i);
                    true
                }
                QuotaDecision::Throttle => true,
                QuotaDecision::Allow => false,
            }
        })
        .collect();

    'budget: while planned.len() < cfg.max_campaigns_per_round {
        let mut progressed = false;
        for i in 0..residents.len() {
            if blocked[i] {
                continue;
            }
            let r = &residents[i];
            if next_campaign[i] >= r.sub.workload.campaigns {
                blocked[i] = true;
                continue;
            }
            match shadow[i].admit(&r.sub.quota, r.sub.workload.traces) {
                QuotaDecision::Allow => {
                    planned.push((i, next_campaign[i]));
                    shadow[i].charge(r.sub.workload.traces);
                    next_campaign[i] += 1;
                    progressed = true;
                    if planned.len() >= cfg.max_campaigns_per_round {
                        break 'budget;
                    }
                }
                _ => blocked[i] = true,
            }
        }
        if !progressed {
            break;
        }
    }
    evict.sort_unstable_by(|a, b| b.cmp(a));
    (planned, evict)
}

type DispatchPlan = (Vec<(usize, u32)>, Vec<usize>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submission::{ClockContract, TenantQuota, WorkloadSpec};
    use slm_netlist::generators;

    fn tiny_workload(campaigns: u32) -> WorkloadSpec {
        WorkloadSpec {
            traces: 24,
            campaigns,
            ..WorkloadSpec::default()
        }
    }

    fn quick_config() -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn benign_tenant_completes_with_outcomes() {
        let service = CloudService::new(quick_config());
        let sub = TenantSubmission::new("alice", generators::alu(192).unwrap())
            .with_workload(tiny_workload(2));
        let report = service.run(vec![sub], &Obs::null()).unwrap();
        let alice = report.tenant("alice").unwrap();
        assert_eq!(alice.status, TenantStatus::Completed);
        assert_eq!(alice.verdict, Some(AdmissionVerdict::Admitted));
        assert!(alice.placement.is_some());
        assert_eq!(alice.campaigns_delivered, 2);
        assert_eq!(alice.outcomes.len(), 2);
        assert_eq!(alice.traces_charged, 48);
        assert_eq!(report.campaigns_delivered, 2);
    }

    #[test]
    fn malicious_tenant_is_denied_and_never_placed() {
        let service = CloudService::new(quick_config());
        let sub = TenantSubmission::new("mallory", generators::ring_oscillator(8).unwrap());
        let report = service.run(vec![sub], &Obs::null()).unwrap();
        let mallory = report.tenant("mallory").unwrap();
        assert_eq!(mallory.status, TenantStatus::Denied);
        assert!(mallory.placement.is_none());
        assert!(!mallory.diagnostics.is_empty());
        assert_eq!(report.denied, 1);
        assert_eq!(report.campaigns_delivered, 0);
    }

    #[test]
    fn quota_exhaustion_evicts_and_frees_the_region() {
        let mut cfg = quick_config();
        cfg.boards = 1;
        cfg.region_rows = 1;
        cfg.region_cols = 1; // one region: b must wait for a's slot
        let service = CloudService::new(cfg);
        let a = TenantSubmission::new("a", generators::alu(192).unwrap())
            .with_workload(tiny_workload(4))
            .with_quota(TenantQuota {
                max_traces: 30, // one 24-trace campaign fits, two do not
                ..TenantQuota::default()
            });
        let b = TenantSubmission::new("b", generators::alu(192).unwrap())
            .with_workload(tiny_workload(1));
        let report = service.run(vec![a, b], &Obs::null()).unwrap();
        let a = report.tenant("a").unwrap();
        assert_eq!(a.status, TenantStatus::Evicted);
        assert_eq!(a.campaigns_delivered, 1, "delivered until the budget died");
        let b = report.tenant("b").unwrap();
        assert_eq!(b.status, TenantStatus::Completed, "freed region was reused");
        assert_eq!(report.evicted, 1);
    }

    #[test]
    fn rate_cap_throttles_across_rounds_instead_of_evicting() {
        let service = CloudService::new(quick_config());
        let sub = TenantSubmission::new("slow", generators::alu(192).unwrap())
            .with_workload(tiny_workload(3))
            .with_quota(TenantQuota {
                max_traces_per_round: 24, // one campaign per round
                ..TenantQuota::default()
            });
        let report = service.run(vec![sub], &Obs::null()).unwrap();
        let slow = report.tenant("slow").unwrap();
        assert_eq!(slow.status, TenantStatus::Completed);
        assert_eq!(slow.campaigns_delivered, 3);
        assert!(
            slow.region_rounds >= 2,
            "throttling must stretch delivery over rounds (held {} rounds)",
            slow.region_rounds
        );
    }

    #[test]
    fn wait_queue_overflow_sheds() {
        let mut cfg = quick_config();
        cfg.boards = 1;
        cfg.region_rows = 1;
        cfg.region_cols = 1;
        cfg.wait_queue_depth = 2;
        cfg.intake_per_round = 8;
        cfg.admission_queue_depth = 8;
        // Give the resident tenant a long-running workload so the
        // region stays occupied while later admissions pile into the
        // two-slot wait queue; the third admitted tenant overflows it.
        let service = CloudService::new(cfg);
        let subs = vec![
            TenantSubmission::new("hold", generators::alu(192).unwrap())
                .with_workload(tiny_workload(3))
                .with_quota(TenantQuota {
                    max_traces_per_round: 24,
                    ..TenantQuota::default()
                }),
            TenantSubmission::new("wait", generators::alu(192).unwrap())
                .with_workload(tiny_workload(1)),
            TenantSubmission::new("shed", generators::alu(192).unwrap())
                .with_workload(tiny_workload(1)),
        ];
        let report = service.run(subs, &Obs::null()).unwrap();
        assert_eq!(
            report.tenant("hold").unwrap().status,
            TenantStatus::Completed
        );
        assert_eq!(
            report.tenant("wait").unwrap().status,
            TenantStatus::Completed
        );
        assert_eq!(report.tenant("shed").unwrap().status, TenantStatus::Shed);
        assert_eq!(report.shed, 1);
    }

    #[test]
    fn graceful_shutdown_cancels_remaining_work() {
        let service = CloudService::new(quick_config());
        let subs = vec![TenantSubmission::new("a", generators::alu(192).unwrap())
            .with_workload(tiny_workload(50))];
        let report = service.run_until(subs, 2, &Obs::null()).unwrap();
        let a = report.tenant("a").unwrap();
        assert_eq!(a.status, TenantStatus::Cancelled);
        assert_eq!(report.rounds, 2);
        assert_eq!(report.cancelled, 1);
        assert!(
            a.campaigns_delivered > 0,
            "work done before shutdown is reported"
        );
    }

    #[test]
    fn stall_guard_trips_on_unplaceable_tenant() {
        let mut cfg = quick_config();
        cfg.nets_per_cell = 0; // demand = nets; alu192 >> one cell
        cfg.region_rows = 50;
        cfg.region_cols = 50; // 1-cell regions: nothing fits
        cfg.max_rounds = 5;
        let service = CloudService::new(cfg);
        let sub = TenantSubmission::new("big", generators::alu(192).unwrap());
        match service.run(vec![sub], &Obs::null()) {
            Err(ServiceError::Stalled { round }) => assert_eq!(round, 5),
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_submissions_scan_once_per_batch() {
        let mut cfg = quick_config();
        cfg.intake_per_round = 8;
        cfg.admission_queue_depth = 8;
        let service = CloudService::new(cfg);
        let nl = generators::alu(192).unwrap();
        let subs: Vec<TenantSubmission> = (0..4)
            .map(|i| TenantSubmission::new(format!("t{i}"), nl.clone()))
            .collect();
        let report = service.run(subs, &Obs::null()).unwrap();
        assert_eq!(report.admitted, 4);
        // One scan's worth of misses, zero hits: the batch deduped
        // instead of racing four identical scans through the cache.
        assert_eq!(report.cache_hits, 0);
        assert!(report.cache_misses > 0);
    }

    #[test]
    fn clock_variants_in_one_batch_decide_per_frequency() {
        // One netlist under two clock contracts, each submitted twice in
        // a single intake batch: the frequency alone splits the verdict.
        let nl = generators::kogge_stone_adder(32).unwrap();
        let subs: Vec<TenantSubmission> = [100.0, 100.0, 2_000.0, 2_000.0]
            .into_iter()
            .enumerate()
            .map(|(i, mhz)| {
                TenantSubmission::new(format!("t{i}"), nl.clone())
                    .with_workload(tiny_workload(1))
                    .with_contract(ClockContract {
                        declared_clocks: Vec::new(),
                        clock_mhz: Some(mhz),
                    })
            })
            .collect();
        let run = |workers: usize| {
            let mut cfg = quick_config();
            cfg.workers = workers;
            cfg.intake_per_round = 4;
            cfg.admission_queue_depth = 4;
            CloudService::new(cfg)
                .run(subs.clone(), &Obs::null())
                .unwrap()
        };
        let reference = run(1);
        let status = |name: &str| reference.tenant(name).unwrap().status;
        assert_eq!(status("t0"), TenantStatus::Completed);
        assert_eq!(status("t1"), TenantStatus::Completed);
        assert_eq!(status("t2"), TenantStatus::Denied);
        assert_eq!(status("t3"), TenantStatus::Denied);
        assert_eq!(reference.denied, 2);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), reference, "diverged at {workers} workers");
        }
    }
}
