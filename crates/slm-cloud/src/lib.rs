//! `slm-cloud` — the multi-tenant fabric **service**: what the rest of
//! the workspace models as isolated experiments, packaged as a cloud
//! provider's control plane.
//!
//! The paper's threat model assumes an FPGA cloud that rents fabric
//! regions to mutually distrusting tenants. This crate builds that
//! provider:
//!
//! * **Intake & admission** — tenant submissions (netlist + clock
//!   contract + workload) flow through bounded queues into the full
//!   `slm-checker` pass suite. `Reject` findings deny the tenant with
//!   diagnostics; `Warn` findings admit it *flagged*; scans replay
//!   through a shared [`ScanCache`](slm_checker::ScanCache).
//! * **Region scheduling** — admitted tenants are best-fit packed onto
//!   partial-reconfiguration slots carved from
//!   [`Floorplan`](slm_fabric::floorplan::Floorplan) boards, under an
//!   explicit [`CoResidencyPolicy`]: attacker/victim pairing is a
//!   scenario the operator opts into, never an accident.
//! * **Campaign runtime** — placed tenants drive capture/defense
//!   campaigns (CPA or PDN fault injection), planned round by round
//!   and run on one `slm-par` pool, with per-tenant quotas (lifetime
//!   traces, per-round rate, region lease), preemption on exhaustion,
//!   load shedding on queue overflow, and graceful drain.
//! * **Observability** — every stage records `cloud.*` counters,
//!   queue-depth gauges, an admission-latency histogram (in logical
//!   rounds) and spans through `slm-obs`.
//!
//! The whole service is deterministic under a seed: the same
//! submission sequence and [`ServiceConfig`] produce a bit-identical
//! [`ServiceReport`] — and worker-invariant deterministic metrics — at
//! any worker count. The property tests in `tests/cloud_service.rs`
//! pin exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod queue;
pub mod quota;
pub mod scheduler;
pub mod service;
pub mod submission;

pub use admission::{AdmissionDecision, AdmissionGate, AdmissionVerdict};
pub use queue::BoundedQueue;
pub use quota::{QuotaDecision, QuotaLedger};
pub use scheduler::{CoResidencyMode, CoResidencyPolicy, Occupant, Placement, RegionScheduler};
pub use service::{
    CampaignOutcome, CloudService, ServiceConfig, ServiceError, ServiceReport, TenantRecord,
    TenantStatus,
};
pub use submission::{
    CampaignKind, ClockContract, DefenseArm, SensorSource, TenantQuota, TenantSubmission,
    WorkloadSpec,
};
