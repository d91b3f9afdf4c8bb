//! Scan-gated admission: every tenant submission runs the full
//! `slm-checker` pass suite — ending in the strict timing pass when the
//! contract requests a frequency — before any fabric is provisioned.
//!
//! The gate is the service's security boundary, so its verdict
//! vocabulary is deliberately small: `Reject` findings deny the
//! tenant outright, `Warn` findings admit it *flagged* — visible to
//! the co-residency policy — and a clean report admits it unmarked.
//! Scans replay through a shared [`ScanCache`], so a workload that
//! resubmits the same netlist (the common case for campaign fleets)
//! pays for one scan.

use crate::submission::TenantSubmission;
use serde::{Deserialize, Serialize};
use slm_checker::{CheckReport, CheckerConfig, PassManager, ScanCache, Severity};
use slm_obs::Obs;

/// The gate's three-way outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionVerdict {
    /// Clean report: deploy unmarked.
    Admitted,
    /// `Warn`-level findings: deploy, but flag the tenant for the
    /// co-residency policy.
    AdmittedWithFlags,
    /// `Reject`-level findings: no fabric for this netlist.
    Denied,
}

/// The gate's full answer for one submission.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionDecision {
    /// Three-way outcome.
    pub verdict: AdmissionVerdict,
    /// Human-readable lines, one per active finding — what a denied
    /// tenant is told.
    pub diagnostics: Vec<String>,
    /// The underlying scan report (timing findings last when the
    /// contract requested a frequency).
    pub report: CheckReport,
}

/// The admission gate: one full pass pipeline plus the scan cache it
/// warms. Shared (`&self`) across worker threads — the pass manager is
/// stateless and the cache is internally synchronised.
pub struct AdmissionGate {
    pm: PassManager,
    cache: ScanCache,
    base: CheckerConfig,
}

impl AdmissionGate {
    /// A gate running [`PassManager::full`] with default thresholds
    /// over `cache`.
    pub fn new(cache: ScanCache) -> Self {
        AdmissionGate {
            pm: PassManager::full(),
            cache,
            base: CheckerConfig::default(),
        }
    }

    /// Replaces the base checker configuration (thresholds,
    /// suppressions). Per-submission declared clocks and the requested
    /// frequency are layered on top of this at decision time.
    pub fn with_config(mut self, base: CheckerConfig) -> Self {
        self.base = base;
        self
    }

    /// The checker configuration a submission is scanned under: the
    /// gate's base config with the contract's declared clocks merged
    /// into the taint section and its requested clock set in the timing
    /// section.
    pub fn config_for(&self, sub: &TenantSubmission) -> CheckerConfig {
        let mut config = self.base.clone();
        for clk in &sub.contract.declared_clocks {
            if !config.taint.declared_clocks.contains(clk) {
                config.taint.declared_clocks.push(clk.clone());
            }
        }
        config.timing.clock_mhz = sub.contract.clock_mhz;
        config
    }

    /// The content key under which `sub`'s scan is cached and
    /// deduplicated. `.0` is the checker scan key (netlist content +
    /// full config, declared clocks and requested clock included) and
    /// alone identifies the verdict; `.1` repeats the requested clock
    /// bits for callers that key on the pair.
    pub fn dedup_key(&self, sub: &TenantSubmission) -> (u64, u64) {
        let config = self.config_for(sub);
        let scan = self.cache.scan_key(&sub.netlist, &config);
        let mhz = sub.contract.clock_mhz.map_or(0, f64::to_bits);
        (scan, mhz)
    }

    /// Scans one submission and renders the verdict.
    pub fn decide(&self, sub: &TenantSubmission) -> AdmissionDecision {
        let config = self.config_for(sub);
        let report = self
            .pm
            .scan(&sub.netlist, &config, Some(&self.cache), &Obs::null());
        let verdict = match report.max_severity() {
            Some(Severity::Reject) => AdmissionVerdict::Denied,
            Some(Severity::Warn) => AdmissionVerdict::AdmittedWithFlags,
            _ => AdmissionVerdict::Admitted,
        };
        let diagnostics = report
            .active()
            .filter(|f| f.severity >= Severity::Warn)
            .map(|f| {
                format!(
                    "[{}] {} ({}): {}",
                    f.severity.as_str(),
                    f.kind.as_str(),
                    f.pass,
                    f.detail
                )
            })
            .collect();
        AdmissionDecision {
            verdict,
            diagnostics,
            report,
        }
    }

    /// Entries the cache served without re-scanning.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Lookups that had to run a pass.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submission::ClockContract;
    use slm_netlist::generators;

    fn gate() -> AdmissionGate {
        AdmissionGate::new(ScanCache::in_memory())
    }

    #[test]
    fn benign_design_is_admitted_clean() {
        let g = gate();
        let d = g.decide(&TenantSubmission::new(
            "alice",
            generators::alu(192).unwrap(),
        ));
        assert_eq!(d.verdict, AdmissionVerdict::Admitted);
        assert!(d.diagnostics.is_empty());
        assert!(d.report.is_clean());
    }

    #[test]
    fn ring_oscillator_is_denied_with_diagnostics() {
        let g = gate();
        let d = g.decide(&TenantSubmission::new(
            "mallory",
            generators::ring_oscillator(8).unwrap(),
        ));
        assert_eq!(d.verdict, AdmissionVerdict::Denied);
        assert!(!d.diagnostics.is_empty(), "denial must explain itself");
        assert!(d.diagnostics.iter().any(|l| l.contains("[reject]")));
    }

    #[test]
    fn contract_clocks_change_the_verdict_and_the_key() {
        let g = gate();
        // carry_sensor misuses a declared clock as data: with the
        // contract declaring "sense" the taint pass rejects it, without
        // the declaration the structural heuristics still flag it.
        let sub = TenantSubmission::new("eve", generators::carry_sensor(64, 4).unwrap())
            .with_contract(ClockContract {
                declared_clocks: vec!["sense".into()],
                clock_mhz: None,
            });
        let bare = TenantSubmission::new("eve", generators::carry_sensor(64, 4).unwrap());
        assert_ne!(
            g.dedup_key(&sub),
            g.dedup_key(&bare),
            "declared clocks are part of the scan identity"
        );
        let d = g.decide(&sub);
        assert_eq!(d.verdict, AdmissionVerdict::Denied);
    }

    #[test]
    fn overclock_contract_denies_via_timing_check() {
        let g = gate();
        let nl = generators::kogge_stone_adder(32).unwrap();
        let ok = TenantSubmission::new("a", nl.clone()).with_contract(ClockContract {
            declared_clocks: vec![],
            clock_mhz: Some(100.0),
        });
        let hot = TenantSubmission::new("a", nl).with_contract(ClockContract {
            declared_clocks: vec![],
            clock_mhz: Some(2_000.0),
        });
        assert_ne!(
            g.dedup_key(&ok).0,
            g.dedup_key(&hot).0,
            "requested frequency is part of the scan key"
        );
        assert_eq!(g.decide(&ok).verdict, AdmissionVerdict::Admitted);
        let d = g.decide(&hot);
        assert_eq!(d.verdict, AdmissionVerdict::Denied);
        assert!(d.diagnostics.iter().any(|l| l.contains("timing")));
    }

    #[test]
    fn repeat_submissions_hit_the_cache() {
        let g = gate();
        let sub = TenantSubmission::new("alice", generators::alu(192).unwrap());
        let first = g.decide(&sub);
        let misses_after_first = g.cache_misses();
        let second = g.decide(&sub);
        assert_eq!(first, second, "cached replay is bit-identical");
        assert_eq!(g.cache_misses(), misses_after_first, "no new pass runs");
        assert!(g.cache_hits() > 0);
    }
}
