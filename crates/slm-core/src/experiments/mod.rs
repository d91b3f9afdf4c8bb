//! Experiment runners, one per paper figure (see the crate root for the
//! figure ↔ runner table).
//!
//! Every CPA campaign engine — serial [`run_cpa`], sharded
//! [`run_cpa_parallel`] and checkpointed [`run_streaming`] — captures
//! and absorbs its traces through one lane kernel; they differ only in
//! which fabric a lane runs on and how lane accumulators are folded.
//! Each engine has one entry point taking the fabric-configuration
//! tweak and the observability handle.
//!
//! Every fan-out over matrix cells or campaign shards runs through one
//! crate-private function, `fan_out`: each item forks the recorder,
//! runs inside one named span on its fork, and its frame folds back in
//! item order; the first error in item order wins.

mod arch_study;
mod audits;
mod cpa;
mod defense_matrix;
mod extensions;
mod fan_out;
mod fault_matrix;
mod parallel;
mod preliminary;
mod streaming;

pub use arch_study::{architecture_study, ArchRow, ArchStudy};
pub use audits::{
    atpg_stimulus_study, floorplan_views, timing_audit, AtpgStudy, FloorplanView, TimingAudit,
    TimingVerdict,
};
pub use cpa::{aes_pilot_activity, run_cpa, CpaExperiment, CpaResult, SensorSource};
pub use defense_matrix::{
    defense_matrix, DefenseArm, DefenseMatrix, DefenseMatrixExperiment, DetectorEval,
    DetectorReading, MatrixCell,
};
pub use extensions::{full_key_recovery, tvla_study, FullKeyResult, TvlaResult};
pub use fault_matrix::{
    fault_matrix, run_fault_campaign, AggressorDetectorReading, FaultCampaign,
    FaultCampaignOutcome, FaultMatrix, FaultMatrixCell, FaultMatrixExperiment,
};
pub use parallel::{run_cpa_parallel, run_cpa_parallel_recorded, ParallelCpa};
pub use preliminary::{
    activity_study, ro_response, ActivityStudy, CensusResult, RoResponse, VarianceResult,
};
pub use streaming::{
    run_streaming, run_streaming_crashing, run_streaming_with_recorded, CrashPlan, CrashSite,
    EarlyStop, StreamOutcome, StreamingCpa, StreamingError, StreamingResult,
};
