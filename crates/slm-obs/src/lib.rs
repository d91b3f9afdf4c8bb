//! Dependency-free observability for the campaign stack: counters,
//! gauges, histograms and timed spans, recorded through a [`Recorder`]
//! trait that is **zero-cost when disabled** and **deterministic under
//! merge** when enabled.
//!
//! # Model
//!
//! Instrumented code holds an [`Obs`] handle (a cheap `Arc` clone; the
//! default is the null recorder, one virtual call per event and
//! nothing kept). Enabling metrics means passing [`Obs::memory`] (wall
//! clock) or [`Obs::manual`] (logical clock, reproducible span
//! durations) instead; nothing else in the pipeline changes.
//!
//! # Determinism under merge
//!
//! Parallel campaigns follow the `slm-par` discipline: work is split
//! into shards whose identity depends only on the plan, and per-shard
//! partials are folded **in shard index order**. Metrics ride the same
//! rails — a worker [`Obs::fork`]s a private recorder, the shard's
//! [`MetricsFrame`] snapshot travels with the shard result, and the
//! campaign thread [`Obs::absorb`]s the frames in shard order. Every
//! merged quantity is then a pure function of the plan: counters and
//! counts are commutative anyway, f64 sums and gauge `last` values are
//! made order-stable by the fixed fold, and only wall-clock span
//! durations vary run to run ([`MetricsFrame::deterministic`] strips
//! exactly those for equivalence tests).
//!
//! # Example
//!
//! ```
//! use slm_obs::{MetricsReport, Obs};
//!
//! let obs = Obs::memory();
//! obs.incr("campaign.requested");
//! obs.gauge("pdn.v_min", 0.947);
//! {
//!     let _span = obs.span("fabric.host_encrypt");
//!     // ... timed work ...
//! }
//! let report = MetricsReport::new("demo", obs.snapshot());
//! assert_eq!(report.frame.counter("campaign.requested"), 1);
//! println!("{}", report.to_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frame;
mod recorder;
mod report;

pub use frame::{GaugeAgg, HistAgg, MetricsFrame, SpanAgg};
pub use recorder::{Obs, Recorder, SpanGuard};
pub use report::MetricsReport;
