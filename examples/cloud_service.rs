//! The multi-tenant fabric service end to end: a mixed tenant batch —
//! benign workloads, a structural specimen that admission denies, a
//! flagged-but-admitted design, and a stealthy aggressor whose netlist
//! passes the scan while its *runtime* faults a co-resident victim —
//! scheduled onto two boards under an isolate-flagged co-residency
//! policy with one explicit attacker/victim pairing.
//!
//! Run with: `cargo run --release --example cloud_service`

use slm_checker::CheckerConfig;
use slm_cloud::{
    CampaignKind, CampaignOutcome, ClockContract, CloudService, CoResidencyPolicy, SensorSource,
    ServiceConfig, TenantQuota, TenantSubmission, WorkloadSpec,
};
use slm_cpa::DfaModel;
use slm_fabric::{AggressorSpec, BenignCircuit};
use slm_netlist::generators;
use slm_obs::Obs;

fn main() {
    // Two boards, four PR slots each; flagged tenants are quarantined
    // unless the operator explicitly pairs them — which we do for the
    // victim/eve pair, making the paper's co-residency scenario an
    // opt-in configuration line rather than an accident.
    let config = ServiceConfig {
        policy: CoResidencyPolicy::isolate_flagged().allow("victim", "eve"),
        workers: 0,
        ..ServiceConfig::default()
    };
    // Opt into the over-aggressive observation-density heuristic so a
    // plain ripple-carry adder comes back admitted-with-flags — the
    // paper's point about structural screening's false positives.
    let mut checker = CheckerConfig::default();
    checker.observation.enable = true;
    let service = CloudService::new(config).with_checker_config(checker);

    let cpa_workload = WorkloadSpec {
        kind: CampaignKind::Cpa {
            source: SensorSource::TdcAll,
        },
        traces: 2_000,
        campaigns: 2,
        ..WorkloadSpec::default()
    };
    let submissions = vec![
        // Benign fleet.
        TenantSubmission::new("alice", generators::alu(192).expect("alu"))
            .with_workload(cpa_workload),
        TenantSubmission::new("bob", generators::array_multiplier(16).expect("c6288"))
            .with_workload(WorkloadSpec {
                campaigns: 1,
                traces: 150,
                ..cpa_workload
            })
            .with_quota(TenantQuota {
                max_traces_per_round: 150,
                ..TenantQuota::default()
            }),
        // The victim: a clean tenant that will share a board with eve.
        TenantSubmission::new("victim", generators::kogge_stone_adder(32).expect("ksa"))
            .with_workload(WorkloadSpec {
                campaigns: 1,
                traces: 100,
                ..cpa_workload
            }),
        // Structural specimen: the clock-declared carry sensor. The
        // contract declaration is what lets the taint pass catch it.
        TenantSubmission::new("mallory", generators::carry_sensor(64, 4).expect("sensor"))
            .with_contract(ClockContract {
                declared_clocks: vec!["sense".into()],
                clock_mhz: None,
            }),
        // False positive: a ripple-carry adder the opt-in heuristic
        // flags (admitted, but quarantined by the policy).
        TenantSubmission::new("carol", generators::ripple_carry_adder(64).expect("rca")),
        // The stealthy aggressor: netlist is a harmless c17 cutting —
        // admission passes clean — but the workload mounts the
        // calibrated PDN burst aggressor and runs last-round DFA.
        TenantSubmission::new("eve", generators::c17()).with_workload(WorkloadSpec {
            kind: CampaignKind::Fault {
                aggressor: AggressorSpec::stealthy(3.0),
                model: DfaModel::SingleByte { max_fault_bits: 2 },
            },
            circuit: BenignCircuit::DualC6288,
            traces: 400,
            campaigns: 1,
            defense: None,
        }),
    ];

    let obs = Obs::memory();
    let report = service.run(submissions, &obs).expect("service drains");

    println!("== admission & placement ==");
    println!(
        "{:<8} {:<20} {:<12} {:<10} {:>5} {:>8}",
        "tenant", "verdict", "status", "placed", "camps", "traces"
    );
    for rec in &report.tenants {
        let verdict = rec.verdict.map_or("-".to_string(), |v| format!("{v:?}"));
        let placed = rec
            .placement
            .map_or("-".to_string(), |p| format!("b{}/r{}", p.board, p.region));
        println!(
            "{:<8} {:<20} {:<12} {:<10} {:>5} {:>8}",
            rec.tenant,
            verdict,
            format!("{:?}", rec.status),
            placed,
            rec.campaigns_delivered,
            rec.traces_charged,
        );
        for line in &rec.diagnostics {
            println!("         {line}");
        }
    }

    println!("\n== campaign outcomes ==");
    for rec in &report.tenants {
        for (i, outcome) in rec.outcomes.iter().enumerate() {
            match outcome {
                CampaignOutcome::Cpa {
                    recovered_key_byte,
                    correct_key_byte,
                    traces,
                } => println!(
                    "{}#{i}: CPA {traces} traces, key byte {correct_key_byte:#04x} -> {}",
                    rec.tenant,
                    recovered_key_byte.map_or("not recovered".to_string(), |b| format!(
                        "recovered {b:#04x}"
                    )),
                ),
                CampaignOutcome::Fault {
                    captures,
                    faulted,
                    recovered_bytes,
                    key_recovered,
                } => println!(
                    "{}#{i}: FI {captures} captures, {faulted} faulted, {recovered_bytes} key bytes via DFA{}",
                    rec.tenant,
                    if *key_recovered { " (FULL KEY)" } else { "" },
                ),
            }
        }
    }

    let frame = obs.snapshot();
    println!("\n== service metrics ==");
    println!(
        "rounds {} | delivered {} | admitted {} | denied {} | shed {} | evicted {}",
        report.rounds,
        report.campaigns_delivered,
        report.admitted,
        report.denied,
        report.shed,
        report.evicted,
    );
    println!(
        "scan cache: {} hits / {} misses ({:.0}% hit rate)",
        report.cache_hits,
        report.cache_misses,
        100.0 * report.cache_hit_rate(),
    );
    if let Some(latency) = frame.histogram("cloud.admission.latency_rounds") {
        println!(
            "admission latency (rounds): mean {:.2}, max {:.0}",
            latency.mean(),
            latency.max
        );
    }
    if let Some(free) = frame.gauge("cloud.regions.free") {
        println!(
            "regions free: min {:.0}, final {:.0} of {}",
            free.min,
            free.last,
            service.config().boards * service.config().region_rows * service.config().region_cols,
        );
    }
}
