//! The `slm-scan` command-line scanner.
//!
//! Thin, dependency-free argument handling around the pass framework;
//! the binary in `src/bin/slm-scan.rs` is a three-line wrapper so the
//! whole CLI stays unit-testable.

use crate::cache::ScanCache;
use crate::config::CheckerConfig;
use crate::diag::{CheckReport, Severity};
use crate::pass::PassManager;
use crate::timing::StrictTimingPass;
use serde::Serialize;
use slm_netlist::generators::zoo;
use slm_netlist::Netlist;

const USAGE: &str = "\
slm-scan: structural + semantic static analysis of tenant netlists

USAGE:
    slm-scan --zoo [--assert-matrix]
    slm-scan --generator NAME
    slm-scan --bench FILE
    slm-scan --batch FILE
    slm-scan --list-passes

OPTIONS:
    --zoo              scan every design in the generator zoo
    --assert-matrix    with --zoo: exit 2 unless every malicious design
                       is flagged and every benign design is clean
    --generator NAME   scan one zoo design by name
    --bench FILE       scan an ISCAS-85 .bench netlist
    --batch FILE       scan every .bench path listed in FILE (one path
                       per line, blank lines and '#' comments skipped);
                       emits one JSONL verdict per input and exits with
                       the maximum exit code across inputs
    --declare-clock N  treat input pin N as a contract-declared clock
                       for the semantic clock-taint pass (repeatable)
    --structural-only  run only the structural passes (skip the
                       semantic clock-taint/activity/bandwidth suite)
    --cache-dir DIR    replay and populate the content-hash-keyed
                       per-pass scan cache stored in DIR
    --clock-mhz F      request an F MHz clock: the strict timing pass
                       rejects designs whose STA fmax is below F (also
                       with --structural-only)
    --jobs N           scan designs on N threads (0 = all cores; default 0)
    --metrics FILE     write a JSON metrics report of the scan to FILE
                       (per-pass wall time, findings by severity)
    --compact          emit compact JSON instead of pretty-printed
    --list-passes      print the pass pipeline in run order, with each
                       pass's dependencies, then exit

EXIT CODES:
    0   clean: no active finding above Info
    1   warnings: at least one active Warn, no Reject
    2   rejected: at least one active Reject, or the --assert-matrix
        verdict failed
    3   usage, I/O or parse error";

/// One scanned design in the JSON output.
#[derive(Debug, Serialize)]
struct ScanEntry {
    name: String,
    /// `Some` for zoo designs (malicious-by-construction or benign);
    /// `None` for external `.bench` input.
    malicious: Option<bool>,
    clean: bool,
    report: CheckReport,
}

/// Detection-matrix verdict (only with `--zoo --assert-matrix`).
#[derive(Debug, Serialize)]
struct MatrixVerdict {
    holds: bool,
    violations: Vec<String>,
}

/// Top-level JSON envelope emitted by `slm-scan`.
#[derive(Debug, Serialize)]
struct ScanOutput {
    tool: String,
    version: String,
    passes: Vec<String>,
    reports: Vec<ScanEntry>,
    matrix: Option<MatrixVerdict>,
}

/// One line of `--batch` JSONL output.
#[derive(Debug, Serialize)]
struct BatchVerdict {
    path: String,
    name: Option<String>,
    exit_code: i32,
    max_severity: Option<Severity>,
    findings: usize,
    error: Option<String>,
}

#[derive(Debug, Default)]
struct Options {
    zoo: bool,
    assert_matrix: bool,
    generator: Option<String>,
    bench: Option<String>,
    batch: Option<String>,
    declared_clocks: Vec<String>,
    structural_only: bool,
    cache_dir: Option<String>,
    clock_mhz: Option<f64>,
    jobs: usize,
    metrics: Option<String>,
    compact: bool,
    list_passes: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--zoo" => opts.zoo = true,
            "--assert-matrix" => opts.assert_matrix = true,
            "--structural-only" => opts.structural_only = true,
            "--compact" => opts.compact = true,
            "--list-passes" => opts.list_passes = true,
            "--generator" => {
                opts.generator = Some(it.next().ok_or("--generator needs a design name")?.clone());
            }
            "--bench" => {
                opts.bench = Some(it.next().ok_or("--bench needs a file path")?.clone());
            }
            "--batch" => {
                opts.batch = Some(it.next().ok_or("--batch needs a file path")?.clone());
            }
            "--declare-clock" => {
                opts.declared_clocks
                    .push(it.next().ok_or("--declare-clock needs a pin name")?.clone());
            }
            "--cache-dir" => {
                opts.cache_dir = Some(it.next().ok_or("--cache-dir needs a directory")?.clone());
            }
            "--clock-mhz" => {
                let raw = it.next().ok_or("--clock-mhz needs a frequency")?;
                let mhz: f64 = raw
                    .parse()
                    .map_err(|_| format!("--clock-mhz: not a number: {raw}"))?;
                if !(mhz.is_finite() && mhz > 0.0) {
                    return Err(format!("--clock-mhz: must be positive, got {raw}"));
                }
                opts.clock_mhz = Some(mhz);
            }
            "--jobs" => {
                let raw = it.next().ok_or("--jobs needs a thread count")?;
                opts.jobs = raw
                    .parse()
                    .map_err(|_| format!("--jobs: not a count: {raw}"))?;
            }
            "--metrics" => {
                opts.metrics = Some(it.next().ok_or("--metrics needs a file path")?.clone());
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument: {other}\n\n{USAGE}")),
        }
    }
    let modes = usize::from(opts.zoo)
        + usize::from(opts.generator.is_some())
        + usize::from(opts.bench.is_some())
        + usize::from(opts.batch.is_some());
    if !opts.list_passes && modes != 1 {
        return Err(format!(
            "exactly one of --zoo, --generator, --bench, --batch is required\n\n{USAGE}"
        ));
    }
    if opts.assert_matrix && !opts.zoo {
        return Err("--assert-matrix requires --zoo".to_string());
    }
    Ok(opts)
}

/// The scan config for one design: the defaults plus every declared
/// clock pin (the zoo entry's contract declaration and any
/// `--declare-clock` flags) and the `--clock-mhz` request.
fn config_for(declared: &[&str], clock_mhz: Option<f64>) -> CheckerConfig {
    let mut config = CheckerConfig::default();
    for name in declared {
        config.taint.declared_clocks.push((*name).to_string());
    }
    config.timing.clock_mhz = clock_mhz;
    config
}

/// Maps a report's strongest active finding to the process exit code.
fn severity_code(report: &CheckReport) -> i32 {
    match report.max_severity() {
        Some(Severity::Reject) => 2,
        Some(Severity::Warn) => 1,
        _ => 0,
    }
}

fn scan_one(
    pm: &PassManager,
    config: &CheckerConfig,
    nl: &Netlist,
    malicious: Option<bool>,
    cache: Option<&ScanCache>,
    obs: &slm_obs::Obs,
) -> ScanEntry {
    obs.incr("scan.designs");
    let report = pm.scan(nl, config, cache, obs);
    ScanEntry {
        name: nl.name().to_owned(),
        malicious,
        clean: report.is_clean(),
        report,
    }
}

/// Scans every `.bench` path listed in `list_path`, one JSONL verdict
/// per line; the returned code is the maximum across inputs.
fn run_batch(
    pm: &PassManager,
    opts: &Options,
    cache: Option<&ScanCache>,
    obs: &slm_obs::Obs,
) -> Result<(String, i32), String> {
    let list_path = opts.batch.as_deref().expect("batch mode");
    let listing = std::fs::read_to_string(list_path).map_err(|e| format!("{list_path}: {e}"))?;
    let paths: Vec<&str> = listing
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let declared: Vec<&str> = opts.declared_clocks.iter().map(String::as_str).collect();
    let config = config_for(&declared, opts.clock_mhz);
    // Inputs are independent; fan them out, keeping verdict order (and
    // metrics, absorbed in input order) identical at any job count.
    let scanned = slm_par::par_map(opts.jobs, &paths, |&path| {
        let scan_obs = obs.fork();
        let verdict = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|src| slm_netlist::bench::parse(&src, path).map_err(|e| e.to_string()))
        {
            Ok(nl) => {
                let entry = scan_one(pm, &config, &nl, None, cache, &scan_obs);
                BatchVerdict {
                    path: path.to_string(),
                    name: Some(entry.name),
                    exit_code: severity_code(&entry.report),
                    max_severity: entry.report.max_severity(),
                    findings: entry.report.active().count(),
                    error: None,
                }
            }
            Err(e) => BatchVerdict {
                path: path.to_string(),
                name: None,
                exit_code: 3,
                max_severity: None,
                findings: 0,
                error: Some(e),
            },
        };
        (verdict, scan_obs.snapshot())
    });
    let verdicts: Vec<BatchVerdict> = scanned
        .into_iter()
        .map(|(verdict, frame)| {
            obs.absorb(&frame);
            verdict
        })
        .collect();
    let code = verdicts.iter().map(|v| v.exit_code).max().unwrap_or(0);
    let text = verdicts
        .iter()
        .map(|v| serde_json::to_string(v).expect("verdict serialization is infallible"))
        .collect::<Vec<_>>()
        .join("\n");
    Ok((text, code))
}

/// Runs the scanner. Returns the text to print on stdout and the
/// process exit code; `Err` is a usage/IO/parse error (exit code 3).
pub fn run(args: &[String]) -> Result<(String, i32), String> {
    let opts = parse_args(args)?;
    let pm = if opts.structural_only {
        // A requested clock keeps its meaning without the semantic
        // suite: the timing pass still runs, last.
        let mut pm = PassManager::structural();
        if opts.clock_mhz.is_some() {
            pm.push(Box::new(StrictTimingPass));
        }
        pm
    } else {
        PassManager::full()
    };
    if opts.list_passes {
        let listing: Vec<String> = pm
            .passes()
            .map(|p| {
                let deps = p.depends_on();
                let after = if deps.is_empty() {
                    String::new()
                } else {
                    format!("  [after: {}]", deps.join(", "))
                };
                format!("{:<22} {}{after}", p.name(), p.description())
            })
            .collect();
        return Ok((listing.join("\n"), 0));
    }
    let cache = match &opts.cache_dir {
        Some(dir) => Some(ScanCache::with_dir(dir).map_err(|e| format!("{dir}: {e}"))?),
        None => None,
    };
    let cache = cache.as_ref();
    // Metrics stay a NullRecorder unless --metrics asked for them, so
    // the plain scan path records nothing and pays (almost) nothing.
    let obs = if opts.metrics.is_some() {
        slm_obs::Obs::memory()
    } else {
        slm_obs::Obs::null()
    };
    if opts.batch.is_some() {
        let (text, code) = run_batch(&pm, &opts, cache, &obs)?;
        if let Some(path) = &opts.metrics {
            let report = slm_obs::MetricsReport::new("slm-scan", obs.snapshot());
            std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        }
        return Ok((text, code));
    }
    let extra: Vec<&str> = opts.declared_clocks.iter().map(String::as_str).collect();
    let mut reports = Vec::new();
    if opts.zoo {
        // Designs are independent scans; fan them out over the worker
        // pool. par_map preserves input order, so the report sequence
        // (and thus the JSON and exit code) is identical at any job
        // count. Each scan records into a forked recorder; the frames
        // are folded back in input order, keeping the metrics report
        // job-count invariant too. Each entry's contract-declared
        // clocks (shell-known pin roles) seed its taint config.
        let entries = zoo();
        let scanned = slm_par::par_map(opts.jobs, &entries, |entry| {
            let scan_obs = obs.fork();
            let declared: Vec<&str> = entry
                .declared_clocks
                .iter()
                .copied()
                .chain(extra.iter().copied())
                .collect();
            let report = scan_one(
                &pm,
                &config_for(&declared, opts.clock_mhz),
                &entry.netlist,
                Some(entry.malicious),
                cache,
                &scan_obs,
            );
            (report, scan_obs.snapshot())
        });
        reports = scanned
            .into_iter()
            .map(|(report, frame)| {
                obs.absorb(&frame);
                report
            })
            .collect();
    } else if let Some(name) = &opts.generator {
        let entry = zoo()
            .into_iter()
            .find(|e| e.name == name.as_str())
            .ok_or_else(|| {
                let known: Vec<&str> = zoo().iter().map(|e| e.name).collect();
                format!("unknown generator '{name}'; known: {}", known.join(", "))
            })?;
        let declared: Vec<&str> = entry
            .declared_clocks
            .iter()
            .copied()
            .chain(extra.iter().copied())
            .collect();
        reports.push(scan_one(
            &pm,
            &config_for(&declared, opts.clock_mhz),
            &entry.netlist,
            Some(entry.malicious),
            cache,
            &obs,
        ));
    } else if let Some(path) = &opts.bench {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let nl = slm_netlist::bench::parse(&src, path).map_err(|e| format!("{path}: {e}"))?;
        reports.push(scan_one(
            &pm,
            &config_for(&extra, opts.clock_mhz),
            &nl,
            None,
            cache,
            &obs,
        ));
    }
    // Exit semantics: plain scans take the strongest verdict across
    // reports (0 clean / 1 Warn / 2 Reject); matrix assertion fails
    // with 2 on any deviation from the expected verdicts.
    let matrix = if opts.assert_matrix {
        let mut violations = Vec::new();
        for entry in &reports {
            match entry.malicious {
                Some(true) if entry.clean => {
                    violations.push(format!("{}: malicious but passed every pass", entry.name));
                }
                Some(false) if !entry.clean => {
                    violations.push(format!("{}: benign but flagged", entry.name));
                }
                _ => {}
            }
        }
        Some(MatrixVerdict {
            holds: violations.is_empty(),
            violations,
        })
    } else {
        None
    };
    let code = match &matrix {
        Some(m) => {
            if m.holds {
                0
            } else {
                2
            }
        }
        None => reports
            .iter()
            .map(|r| severity_code(&r.report))
            .max()
            .unwrap_or(0),
    };
    let output = ScanOutput {
        tool: "slm-scan".to_string(),
        version: env!("CARGO_PKG_VERSION").to_string(),
        passes: pm.pass_names().iter().map(|s| s.to_string()).collect(),
        reports,
        matrix,
    };
    let text = if opts.compact {
        serde_json::to_string(&output)
    } else {
        serde_json::to_string_pretty(&output)
    }
    .expect("scan output serialization is infallible");
    if let Some(path) = &opts.metrics {
        let report = slm_obs::MetricsReport::new("slm-scan", obs.snapshot());
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok((text, code))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("slm_scan_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Eight sparsely tapped 12-deep buffer chains: deep enough and
    /// chain-shaped enough for a SCOAP `Warn`, but below every `Reject`
    /// threshold (taps too sparse for the signature matcher, endpoint
    /// glitch sum 8 × 0.5 < 8.0, no clock pins).
    fn warn_only_netlist() -> Netlist {
        let mut b = slm_netlist::NetlistBuilder::new("warnish");
        for c in 0..8 {
            let mut n = b.input(format!("d{c}"));
            for _ in 0..12 {
                n = b.buf(n);
            }
            b.output(format!("q{c}"), n);
        }
        b.finish().unwrap()
    }

    #[test]
    fn zoo_matrix_holds_at_default_thresholds() {
        let (out, code) = run(&argv(&["--zoo", "--assert-matrix"])).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"holds\": true"));
    }

    #[test]
    fn structural_only_matrix_misses_the_carry_sensor() {
        // The tentpole claim at CLI level: drop the semantic suite and
        // the declared-clock carry sensor sails through admission.
        let (out, code) = run(&argv(&["--zoo", "--assert-matrix", "--structural-only"])).unwrap();
        assert_eq!(code, 2, "{out}");
        assert!(
            out.contains("carry_sensor64: malicious but passed"),
            "{out}"
        );
    }

    #[test]
    fn single_generator_scan_flags_the_ro() {
        let (out, code) = run(&argv(&["--generator", "ring_oscillator"])).unwrap();
        assert_eq!(code, 2, "a Reject exits 2");
        assert!(out.contains("combinational-loop") || out.contains("CombinationalLoop"));
    }

    #[test]
    fn benign_generator_scan_is_clean_and_exit_zero() {
        let (_, code) = run(&argv(&["--generator", "alu192"])).unwrap();
        assert_eq!(code, 0);
        // A requested overclock still reaches the timing pass when the
        // semantic suite is dropped.
        let (out, code) = run(&argv(&[
            "--generator",
            "alu192",
            "--structural-only",
            "--clock-mhz",
            "2000",
        ]))
        .unwrap();
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("\"pass\": \"timing\""), "{out}");
        assert!(out.contains("exceeds fmax"), "{out}");
    }

    #[test]
    fn warn_only_scan_exits_one() {
        let dir = temp_dir("warn");
        let path = dir.join("warnish.bench");
        std::fs::write(&path, slm_netlist::bench::write(&warn_only_netlist())).unwrap();
        let (out, code) = run(&argv(&["--bench", path.to_str().unwrap()])).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(code, 1, "{out}");
        assert!(
            out.contains("sensor-like-endpoints") || out.contains("scoap"),
            "{out}"
        );
    }

    #[test]
    fn declared_clock_flag_feeds_the_taint_pass() {
        // carry_sensor's zoo entry declares "sense"; scanning the raw
        // netlist from .bench needs the flag to reach the same verdict.
        let nl = slm_netlist::generators::carry_sensor(64, 4).unwrap();
        let dir = temp_dir("declare");
        let path = dir.join("carry_sensor.bench");
        std::fs::write(&path, slm_netlist::bench::write(&nl)).unwrap();
        let p = path.to_str().unwrap();
        let (_, undeclared) = run(&argv(&["--bench", p])).unwrap();
        let (out, declared) = run(&argv(&["--bench", p, "--declare-clock", "sense"])).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(undeclared, 0, "without the contract clock it looks clean");
        assert_eq!(declared, 2, "{out}");
        assert!(out.contains("clock-taint"), "{out}");
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(run(&argv(&[])).is_err());
        assert!(run(&argv(&["--generator"])).is_err());
        assert!(run(&argv(&["--assert-matrix"])).is_err());
        assert!(run(&argv(&["--bogus"])).is_err());
        assert!(run(&argv(&["--zoo", "--clock-mhz", "nope"])).is_err());
        assert!(run(&argv(&["--generator", "no_such_design"])).is_err());
        assert!(run(&argv(&["--zoo", "--jobs", "many"])).is_err());
        assert!(run(&argv(&["--zoo", "--metrics"])).is_err());
        assert!(run(&argv(&["--declare-clock"])).is_err());
        assert!(run(&argv(&["--zoo", "--batch", "x"])).is_err(), "two modes");
        assert!(run(&argv(&["--bench", "/nonexistent/input.bench"])).is_err());
        let usage = run(&argv(&["--help"])).unwrap_err();
        assert!(usage.contains("EXIT CODES"), "{usage}");
        assert!(usage.contains("3   usage, I/O or parse error"), "{usage}");
    }

    #[test]
    fn batch_scan_emits_jsonl_and_max_code() {
        let dir = temp_dir("batch");
        let benign = dir.join("benign.bench");
        let reject = dir.join("reject.bench");
        std::fs::write(
            &benign,
            slm_netlist::bench::write(&slm_netlist::generators::c17()),
        )
        .unwrap();
        std::fs::write(
            &reject,
            slm_netlist::bench::write(&slm_netlist::generators::tapped_carry_chain(64).unwrap()),
        )
        .unwrap();
        let garbled = dir.join("garbled.bench");
        std::fs::write(&garbled, "INPUT(\nnot bench at all").unwrap();
        let list = dir.join("inputs.txt");
        std::fs::write(
            &list,
            format!(
                "# admission queue\n{}\n\n{}\n{}\n",
                benign.display(),
                reject.display(),
                garbled.display()
            ),
        )
        .unwrap();
        let (out, code) = run(&argv(&["--batch", list.to_str().unwrap()])).unwrap();
        assert_eq!(code, 3, "parse failure dominates: {out}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "one JSONL verdict per input: {out}");
        assert!(lines[0].contains("\"exit_code\":0"), "{}", lines[0]);
        assert!(lines[1].contains("\"exit_code\":2"), "{}", lines[1]);
        assert!(lines[2].contains("\"exit_code\":3"), "{}", lines[2]);
        assert!(lines[2].contains("\"error\":\""), "{}", lines[2]);

        // Without the garbled input the verdict is the scan maximum,
        // and the JSONL stream is job-count invariant.
        std::fs::write(
            &list,
            format!("{}\n{}\n", benign.display(), reject.display()),
        )
        .unwrap();
        let (serial, c1) = run(&argv(&["--batch", list.to_str().unwrap(), "--jobs", "1"])).unwrap();
        let (wide, c4) = run(&argv(&["--batch", list.to_str().unwrap(), "--jobs", "4"])).unwrap();
        assert_eq!(c1, 2);
        assert_eq!(c1, c4);
        assert_eq!(serial, wide);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_scan_is_job_count_invariant_at_1_2_4_8() {
        // A corpus wide enough that every job count actually splits it:
        // benign designs, two rejecting specimens, and one unparsable
        // file mixed through the middle of the list. The JSONL verdict
        // stream (input order, bit for bit) and the max exit code must
        // be identical at every parallelism level.
        let dir = temp_dir("jobsweep");
        let designs: Vec<(&str, String)> = vec![
            (
                "c17",
                slm_netlist::bench::write(&slm_netlist::generators::c17()),
            ),
            (
                "ro",
                slm_netlist::bench::write(&slm_netlist::generators::ring_oscillator(8).unwrap()),
            ),
            (
                "ksa",
                slm_netlist::bench::write(&slm_netlist::generators::kogge_stone_adder(16).unwrap()),
            ),
            (
                "tap",
                slm_netlist::bench::write(
                    &slm_netlist::generators::tapped_carry_chain(32).unwrap(),
                ),
            ),
            (
                "rca",
                slm_netlist::bench::write(
                    &slm_netlist::generators::ripple_carry_adder(24).unwrap(),
                ),
            ),
            ("garbled", "INPUT(\nnot bench at all".to_string()),
            (
                "mult",
                slm_netlist::bench::write(&slm_netlist::generators::array_multiplier(8).unwrap()),
            ),
        ];
        let mut list_body = String::new();
        for (name, body) in &designs {
            let path = dir.join(format!("{name}.bench"));
            std::fs::write(&path, body).unwrap();
            list_body.push_str(&format!("{}\n", path.display()));
        }
        let list = dir.join("inputs.txt");
        std::fs::write(&list, list_body).unwrap();

        let (reference, ref_code) =
            run(&argv(&["--batch", list.to_str().unwrap(), "--jobs", "1"])).unwrap();
        assert_eq!(ref_code, 3, "the garbled input dominates: {reference}");
        assert_eq!(reference.lines().count(), designs.len());
        for jobs in ["2", "4", "8"] {
            let (out, code) =
                run(&argv(&["--batch", list.to_str().unwrap(), "--jobs", jobs])).unwrap();
            assert_eq!(code, ref_code, "max exit code diverged at --jobs {jobs}");
            assert_eq!(out, reference, "JSONL stream diverged at --jobs {jobs}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_dir_round_trips_across_invocations() {
        let dir = temp_dir("cachedir");
        let cache_dir = dir.join("cache");
        let cd = cache_dir.to_str().unwrap().to_string();
        let (cold, code1) = run(&argv(&["--zoo", "--cache-dir", &cd])).unwrap();
        let (warm, code2) = run(&argv(&["--zoo", "--cache-dir", &cd])).unwrap();
        assert_eq!(code1, code2);
        assert_eq!(cold, warm, "replayed scan is bit-identical");
        assert!(
            std::fs::read_dir(&cache_dir).unwrap().count() > 0,
            "cache populated on disk"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_flag_writes_a_scan_report() {
        let dir = temp_dir("metrics");
        let path = dir.join("metrics.json");
        let path_str = path.to_str().unwrap().to_string();
        let (_, code) = run(&argv(&["--zoo", "--metrics", &path_str])).unwrap();
        assert_eq!(code, 2, "the zoo contains rejected designs");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(json.contains("\"label\": \"slm-scan\""), "{json}");
        assert!(json.contains("scan.designs"));
        assert!(json.contains("checker.findings.reject"));
        // per-pass spans are keyed by pass name, semantic ones included
        assert!(json.contains("\"comb-loop\""), "{json}");
        assert!(json.contains("\"clock-taint\""), "{json}");
    }

    #[test]
    fn parallel_zoo_scan_matches_serial() {
        // The full JSON output — report order, findings, verdicts, exit
        // code — must not depend on the job count.
        let (serial, code1) = run(&argv(&["--zoo", "--assert-matrix", "--jobs", "1"])).unwrap();
        let (wide, code4) = run(&argv(&["--zoo", "--assert-matrix", "--jobs", "4"])).unwrap();
        assert_eq!(serial, wide);
        assert_eq!(code1, code4);
    }

    #[test]
    fn list_passes_prints_the_pipeline() {
        let (out, code) = run(&argv(&["--list-passes"])).unwrap();
        assert_eq!(code, 0);
        for name in PassManager::full().pass_names() {
            assert!(out.contains(name), "missing {name}");
        }
        assert!(out.contains("[after: clock-taint]"), "{out}");
        let (structural, _) = run(&argv(&["--list-passes", "--structural-only"])).unwrap();
        assert!(!structural.contains("clock-taint"), "{structural}");
    }
}
