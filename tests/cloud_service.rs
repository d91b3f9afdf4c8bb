//! End-to-end tests of the `slm-cloud` multi-tenant fabric service:
//! the zoo is denied at admission with diagnostics while benign
//! designs place and complete, a hundred-plus concurrent campaigns
//! drain under tight quotas and queue backpressure without deadlock,
//! and the whole service — report *and* deterministic metrics — is
//! bit-identical at 1/2/4/8 workers (property-tested) and pinned by
//! digest on one fixed run.

use proptest::prelude::*;
use slm_cloud::{
    CampaignKind, ClockContract, CloudService, SensorSource, ServiceConfig, ServiceReport,
    TenantQuota, TenantRecord, TenantStatus, TenantSubmission, WorkloadSpec,
};
use slm_netlist::generators::{self, zoo};
use slm_obs::Obs;

/// The report's record for a submitted tenant.
fn tenant<'a>(report: &'a ServiceReport, name: &str) -> &'a TenantRecord {
    let rec = report.tenants.iter().find(|t| t.tenant == name);
    rec.expect("the tenant was submitted")
}

/// A small CPA workload that keeps campaign runtime in the
/// milliseconds while still exercising the full capture pipeline.
fn tiny_workload(campaigns: u32, traces: u64) -> WorkloadSpec {
    WorkloadSpec {
        kind: CampaignKind::Cpa {
            source: SensorSource::TdcAll,
        },
        traces,
        campaigns,
        ..WorkloadSpec::default()
    }
}

#[test]
fn zoo_is_denied_at_admission_and_benign_tenants_complete() {
    let service = CloudService::new(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    });
    let subs: Vec<TenantSubmission> = zoo()
        .into_iter()
        .map(|entry| {
            TenantSubmission::new(entry.name, entry.netlist)
                .with_contract(ClockContract {
                    declared_clocks: entry
                        .declared_clocks
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                    clock_mhz: None,
                })
                .with_workload(tiny_workload(1, 16))
        })
        .collect();
    let report = service.run(subs, &Obs::null()).unwrap();

    for entry in zoo() {
        let rec = tenant(&report, entry.name);
        if entry.malicious {
            assert_eq!(
                rec.status,
                TenantStatus::Denied,
                "{} must be denied at admission",
                entry.name
            );
            assert!(
                !rec.diagnostics.is_empty(),
                "{} denial must carry diagnostics",
                entry.name
            );
            assert!(rec.placement.is_none(), "{} must never place", entry.name);
        } else {
            assert_eq!(
                rec.status,
                TenantStatus::Completed,
                "benign {} must be admitted, placed and completed",
                entry.name
            );
            assert!(rec.placement.is_some());
            assert_eq!(rec.campaigns_delivered, 1);
        }
    }
    let malicious = zoo().iter().filter(|e| e.malicious).count() as u64;
    assert_eq!(report.denied, malicious);
    assert_eq!(report.admitted, zoo().len() as u64 - malicious);
}

#[test]
fn hundred_concurrent_campaigns_drain_under_quota_and_backpressure() {
    // Tight queues force intake deferral and rate caps force
    // multi-round residency: the classic deadlock shapes. 30 tenants x
    // 4 campaigns = 120 campaigns must all still be delivered.
    let config = ServiceConfig {
        admission_queue_depth: 4,
        intake_per_round: 4,
        wait_queue_depth: 30, // bounded, but nothing shed in this test
        max_campaigns_per_round: 12,
        workers: 0,
        ..ServiceConfig::default()
    };
    let service = CloudService::new(config);
    let nl = generators::c17();
    let subs: Vec<TenantSubmission> = (0..30)
        .map(|i| {
            TenantSubmission::new(format!("tenant{i:02}"), nl.clone())
                .with_workload(tiny_workload(4, 8))
                .with_quota(TenantQuota {
                    max_traces_per_round: 16, // at most 2 campaigns/round
                    ..TenantQuota::default()
                })
        })
        .collect();
    let report = service.run(subs, &Obs::null()).unwrap();
    assert_eq!(report.campaigns_delivered, 120);
    assert!(report.campaigns_delivered >= 100);
    for rec in &report.tenants {
        assert_eq!(
            rec.status,
            TenantStatus::Completed,
            "{} stalled: {rec:?}",
            rec.tenant
        );
        assert_eq!(rec.campaigns_delivered, 4);
        assert_eq!(rec.outcomes.len(), 4);
    }
    // One netlist, thirty submissions: the scan cache and the batch
    // dedup must have absorbed the duplicate scans, so the
    // duplicate-heavy fleet is served mostly from the cache: only the
    // first scan misses, once per pass.
    assert_eq!((report.cache_hits, report.cache_misses), (77, 11));
    assert!(
        report.cache_hit_rate() > 0.5,
        "hit rate {}",
        report.cache_hit_rate()
    );
    assert!(
        report.rounds >= 2,
        "rate caps must stretch the run over rounds"
    );
}

/// The submission mix used by the determinism property: a benign CPA
/// fleet, a denied specimen, and a fault-injection tenant, under
/// small queues so deferral/backpressure paths execute too.
fn determinism_mix(fleet: usize) -> Vec<TenantSubmission> {
    let mut subs: Vec<TenantSubmission> = (0..fleet)
        .map(|i| {
            TenantSubmission::new(format!("cpa{i}"), generators::c17())
                .with_workload(tiny_workload(2, 8))
        })
        .collect();
    subs.push(TenantSubmission::new(
        "mallory",
        generators::ring_oscillator(8).unwrap(),
    ));
    subs.push(
        TenantSubmission::new("eve", generators::c17()).with_workload(WorkloadSpec {
            kind: CampaignKind::Fault {
                aggressor: slm_fabric::AggressorSpec::stealthy(3.0),
                model: slm_cpa::DfaModel::SingleByte { max_fault_bits: 2 },
            },
            traces: 60,
            campaigns: 1,
            ..WorkloadSpec::default()
        }),
    );
    subs
}

fn run_mix(
    seed: u64,
    fleet: usize,
    workers: usize,
) -> (slm_cloud::ServiceReport, slm_obs::MetricsFrame) {
    let config = ServiceConfig {
        admission_queue_depth: 3,
        intake_per_round: 3,
        max_campaigns_per_round: 4,
        seed,
        workers,
        ..ServiceConfig::default()
    };
    let service = CloudService::new(config);
    let obs = Obs::memory();
    let report = service
        .run(determinism_mix(fleet), &obs)
        .expect("service drains");
    (report, obs.snapshot().deterministic())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same submissions + seed => bit-identical report and
    /// worker-invariant deterministic metrics at 1, 2, 4 and 8
    /// workers. This is the service-level analogue of the campaign
    /// stack's shard-order-invariance properties.
    #[test]
    fn service_is_bit_identical_at_1_2_4_8_workers(
        seed in 0u64..1_000,
        fleet in 2usize..5,
    ) {
        let (reference, reference_frame) = run_mix(seed, fleet, 1);
        prop_assert!(reference.campaigns_delivered > 0);
        prop_assert_eq!(reference.denied, 1);
        for workers in [2usize, 4, 8] {
            let (report, frame) = run_mix(seed, fleet, workers);
            prop_assert_eq!(&reference, &report, "report diverged at {} workers", workers);
            prop_assert_eq!(
                &reference_frame,
                &frame,
                "deterministic metrics diverged at {} workers",
                workers
            );
        }
    }
}

/// FNV-1a over the `Debug` rendering of `value`.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{value:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Exact-value pin of a whole service run: the report and the
/// deterministic metrics of the determinism mix (four CPA tenants, the
/// fault tenant and the denied specimen) at a fixed seed. Intake moves
/// three tenants a round and the dispatch budget is four, so the run
/// spans several rounds and the budget caps the first dispatch (three
/// placed tenants want six campaigns). A change to how campaigns are
/// scheduled onto workers must leave both digests unchanged.
#[test]
fn service_report_is_pinned() {
    for workers in [1, 2] {
        let (report, frame) = run_mix(0x5eed, 4, workers);
        assert!(report.rounds >= 3, "{} rounds", report.rounds);
        assert_eq!((report.campaigns_delivered, report.denied), (9, 1));
        let got = (digest(&report), digest(&frame));
        assert_eq!(
            got,
            (0x18df_2b19_8d94_e65d, 0xa979_44ea_cd88_aa6e),
            "{workers} workers: digests ({:#018x}, {:#018x})",
            got.0,
            got.1
        );
    }
}

#[test]
fn recorded_metrics_cover_every_stage() {
    let service = CloudService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let obs = Obs::memory();
    let subs = vec![
        TenantSubmission::new("alice", generators::alu(192).unwrap())
            .with_workload(tiny_workload(2, 8)),
        TenantSubmission::new("mallory", generators::ring_oscillator(8).unwrap()),
    ];
    let report = service.run(subs, &obs).unwrap();
    let frame = obs.snapshot();
    assert_eq!(frame.counter("cloud.submitted"), 2);
    assert_eq!(frame.counter("cloud.admitted"), 1);
    assert_eq!(frame.counter("cloud.admission.denied"), 1);
    assert_eq!(frame.counter("cloud.campaigns.delivered"), 2);
    assert_eq!(frame.counter("cloud.completed"), 1);
    assert!(frame.gauge("cloud.queue.admission.depth").is_some());
    assert!(frame.gauge("cloud.queue.wait.depth").is_some());
    assert!(frame.gauge("cloud.regions.free").is_some());
    let latency = frame
        .histogram("cloud.admission.latency_rounds")
        .expect("latency histogram");
    assert_eq!(latency.count, 2, "one observation per gated submission");
    assert!(frame.span("cloud.round").is_some());
    assert!(frame.span("cloud.admission.scan").is_some());
    assert!(frame.span("cloud.scheduler.place").is_some());
    assert!(frame.span("cloud.campaign").is_some());
    assert_eq!(report.campaigns_delivered, 2);
    let span_count = |name: &str| frame.span(name).map_or(0, |s| s.count);
    assert_eq!(span_count("cloud.campaign"), report.campaigns_delivered);
    assert_eq!(span_count("cloud.round"), report.rounds);
}

#[test]
fn fault_workload_tenant_faults_the_victim_through_the_service() {
    // The stealthy co-residency scenario end to end: eve's netlist is
    // structurally benign (admission passes), but her workload mounts
    // the calibrated PDN aggressor at runtime and the DFA recovers key
    // material from the faulted ciphertexts.
    let service = CloudService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let sub = TenantSubmission::new("eve", generators::c17()).with_workload(WorkloadSpec {
        kind: CampaignKind::Fault {
            aggressor: slm_fabric::AggressorSpec::stealthy(3.0),
            model: slm_cpa::DfaModel::SingleByte { max_fault_bits: 2 },
        },
        circuit: slm_fabric::BenignCircuit::DualC6288,
        traces: 300,
        campaigns: 1,
        defense: None,
    });
    let report = service.run(vec![sub], &Obs::null()).unwrap();
    let eve = tenant(&report, "eve");
    assert_eq!(eve.status, TenantStatus::Completed);
    match &eve.outcomes[0] {
        slm_cloud::CampaignOutcome::Fault {
            captures, faulted, ..
        } => {
            assert_eq!(*captures, 300);
            assert!(*faulted > 0, "calibrated aggressor must fault the victim");
        }
        other => panic!("expected a fault outcome, got {other:?}"),
    }
}
