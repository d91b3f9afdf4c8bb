//! The pass abstraction and the manager that drives a scan.
//!
//! Passes declare data dependencies on earlier-registered passes by
//! name ([`Pass::depends_on`]); the [`PassManager`] runs them one after
//! another in registration order, optionally replaying per-pass results
//! from a content-addressed [`ScanCache`] ([`PassManager::scan`]).
//! Findings are concatenated in registration order, so cached and
//! uncached runs emit bit-identical reports — the property the scan
//! determinism proptests pin. Parallelism lives across designs (the
//! callers fan [`PassManager::scan`] out over a batch), never inside
//! one scan.

use crate::analysis::Analysis;
use crate::cache::ScanCache;
use crate::config::{apply_suppressions, CheckerConfig};
use crate::diag::{CheckReport, Finding};
use crate::passes;
use crate::timing::StrictTimingPass;
use slm_netlist::Netlist;

/// One structural or semantic analysis over a netlist.
///
/// Passes are stateless: all tunables come from the [`CheckerConfig`]
/// section they own, and all shared graph facts from the [`Analysis`]
/// context, so a [`PassManager`] can compose any subset whose
/// dependencies are registered first. The `Send + Sync` bound is what
/// lets one manager scan many designs concurrently.
pub trait Pass: Send + Sync {
    /// Short stable identifier (used in findings, suppressions, cache
    /// keys and the detection matrix).
    fn name(&self) -> &'static str;

    /// One-line description for `--list-passes` style output.
    fn description(&self) -> &'static str;

    /// Names of passes whose findings this pass consumes via [`Prior`].
    ///
    /// Dependencies bind to *earlier-registered* passes only; a name
    /// that is not registered (or registered later) resolves to an
    /// empty finding list, so registration order is always a valid run
    /// order.
    fn depends_on(&self) -> &'static [&'static str] {
        &[]
    }

    /// Runs the analysis, appending findings. `prior` exposes the
    /// findings of the passes named in [`Pass::depends_on`].
    fn run(
        &self,
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        prior: &Prior<'_>,
        findings: &mut Vec<Finding>,
    );
}

/// Read-only view of dependency passes' findings, handed to
/// [`Pass::run`].
///
/// Only the passes named in [`Pass::depends_on`] are visible — never
/// "whatever happened to run earlier" — so a pass's findings do not
/// depend on which other passes share the pipeline.
pub struct Prior<'a> {
    entries: Vec<(&'static str, &'a [Finding])>,
}

impl<'a> Prior<'a> {
    /// A view with no dependencies (for running a pass standalone).
    pub fn empty() -> Prior<'static> {
        Prior {
            entries: Vec::new(),
        }
    }

    /// The findings of dependency `pass`, or an empty slice when the
    /// dependency is absent from the pipeline.
    pub fn findings_of(&self, pass: &str) -> &[Finding] {
        self.entries
            .iter()
            .find(|(name, _)| *name == pass)
            .map(|(_, f)| *f)
            .unwrap_or(&[])
    }
}

/// Runs an ordered set of passes over a netlist and assembles the
/// report.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// A manager with no passes; use [`PassManager::push`] to compose a
    /// custom pipeline.
    pub fn empty() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// The structural pipeline, in the order findings appear in
    /// reports: loops, delay lines, trivial arrays, clock misuse,
    /// SCOAP sensor-likeness, subgraph signatures, and the opt-in
    /// observation-density heuristic.
    pub fn structural() -> Self {
        let mut pm = PassManager::empty();
        pm.push(Box::new(passes::SccLoopPass));
        pm.push(Box::new(passes::DelayLinePass));
        pm.push(Box::new(passes::TrivialArrayPass));
        pm.push(Box::new(passes::ClockAsDataPass));
        pm.push(Box::new(passes::ScoapSensorPass));
        pm.push(Box::new(passes::SignaturePass));
        pm.push(Box::new(passes::ObservationDensityPass));
        pm
    }

    /// The semantic pipeline alone: clock-taint dataflow, the static
    /// switching-activity estimator, and observation bandwidth.
    ///
    /// Note the activity pass upgrades SCOAP findings only when the
    /// SCOAP pass is present (as in [`PassManager::full`]); standalone
    /// it still performs its own taps/glitch analysis.
    pub fn semantic() -> Self {
        let mut pm = PassManager::empty();
        pm.push(Box::new(passes::ClockTaintPass));
        pm.push(Box::new(passes::SwitchingActivityPass));
        pm.push(Box::new(passes::ObservationBandwidthPass));
        pm
    }

    /// The full admission pipeline: every structural pass, every
    /// semantic pass, and last the strict timing check, which reports
    /// only when the config carries a requested clock.
    pub fn full() -> Self {
        let mut pm = PassManager::structural();
        pm.push(Box::new(passes::ClockTaintPass));
        pm.push(Box::new(passes::SwitchingActivityPass));
        pm.push(Box::new(passes::ObservationBandwidthPass));
        pm.push(Box::new(StrictTimingPass));
        pm
    }

    /// Appends a pass to the pipeline.
    pub fn push(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// The registered pass names, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// The registered passes.
    pub fn passes(&self) -> impl Iterator<Item = &dyn Pass> {
        self.passes.iter().map(Box::as_ref)
    }

    /// Builds the [`Prior`] view for pass `i` from completed results.
    fn prior_for<'a>(&self, i: usize, results: &'a [Option<Vec<Finding>>]) -> Prior<'a> {
        let entries = self.passes[i]
            .depends_on()
            .iter()
            .filter_map(|dep| {
                let j = self.passes[..i].iter().position(|p| p.name() == *dep)?;
                let findings = results[j].as_deref()?;
                Some((*dep, findings))
            })
            .collect();
        Prior { entries }
    }

    /// Scans `nl` with every option spelled out — the executor behind
    /// every other run mode.
    ///
    /// `cache` replays per-pass findings keyed by netlist + config
    /// content hashes and stores the findings of the passes that had to
    /// run; when *every* pass hits, the report is assembled without even
    /// building the [`Analysis`]. `obs` receives a wall-time span per
    /// pass and the post-suppression finding counts by severity.
    /// Passes run in registration order, findings are concatenated in
    /// that order and suppressed afterwards, so a cached scan emits a
    /// report bit-identical to [`PassManager::run`].
    pub fn scan(
        &self,
        nl: &Netlist,
        config: &CheckerConfig,
        cache: Option<&ScanCache>,
        obs: &slm_obs::Obs,
    ) -> CheckReport {
        let n = self.passes.len();
        let scan_key = cache.map(|c| c.scan_key(nl, config));
        let cached: Vec<Option<Vec<Finding>>> = match (cache, scan_key) {
            (Some(cache), Some(key)) => self
                .passes
                .iter()
                .map(|p| cache.get(key, p.name()))
                .collect(),
            _ => vec![None; n],
        };
        let mut report = CheckReport::for_netlist(nl);
        if n > 0 && cached.iter().all(Option::is_some) {
            // Full cache hit: no analysis, no pass runs.
            for findings in cached.into_iter().flatten() {
                report.findings.extend(findings);
            }
            self.finish(config, &mut report, obs);
            return report;
        }
        let cx = {
            let _span = obs.span("checker.analysis");
            Analysis::new(nl)
        };
        let mut results: Vec<Option<Vec<Finding>>> = cached;
        for (i, pass) in self.passes.iter().enumerate() {
            if results[i].is_some() {
                continue;
            }
            let mut out = Vec::new();
            {
                let _span = obs.span(pass.name());
                pass.run(&cx, config, &self.prior_for(i, &results), &mut out);
            }
            if let (Some(cache), Some(key)) = (cache, scan_key) {
                cache.put(key, pass.name(), &out);
            }
            results[i] = Some(out);
        }
        for findings in results.into_iter().flatten() {
            report.findings.extend(findings);
        }
        self.finish(config, &mut report, obs);
        report
    }

    /// Applies suppressions and records severity counters.
    fn finish(&self, config: &CheckerConfig, report: &mut CheckReport, obs: &slm_obs::Obs) {
        apply_suppressions(config, &mut report.findings);
        if obs.enabled() {
            for f in report.active() {
                match f.severity {
                    crate::diag::Severity::Info => obs.incr("checker.findings.info"),
                    crate::diag::Severity::Warn => obs.incr("checker.findings.warn"),
                    crate::diag::Severity::Reject => obs.incr("checker.findings.reject"),
                }
            }
        }
    }

    /// Scans `nl`: builds the shared [`Analysis`] once, runs every
    /// pass in registration order, then applies the suppression rules
    /// (which never hide a `Reject`). Records a wall-time span per pass
    /// (named after the pass) and counts post-suppression active
    /// findings by severity (`checker.findings.info` / `.warn` /
    /// `.reject`).
    pub fn run(&self, nl: &Netlist, config: &CheckerConfig, obs: &slm_obs::Obs) -> CheckReport {
        self.scan(nl, config, None, obs)
    }

    /// [`PassManager::run`] under the name the `bench/` package calls.
    #[doc(hidden)]
    pub fn run_recorded(
        &self,
        nl: &Netlist,
        config: &CheckerConfig,
        obs: &slm_obs::Obs,
    ) -> CheckReport {
        self.run(nl, config, obs)
    }
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager::full()
    }
}
