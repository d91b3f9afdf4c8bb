//! Command line of the layered benchmark.
//!
//! ```text
//! slm-perfbench run --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--trace-out <file>]
//! slm-perfbench compare <base.jsonl> <new.jsonl>
//! ```
//!
//! `run` prints two JSON lines: the run record (workload, seed, host
//! metadata and metrics), then the result line `{correct, attempted,
//! failed, metrics}`. `--trace 1` reports the per-layer metrics of a
//! separate traced run instead of the end-to-end ones; `--trace-out`
//! also writes the benchmark's own spans to a file. `compare` reads
//! files of run records and prints a verdict per workload and metric.

use slm_perfbench::layers::{self, Tracer};
use slm_perfbench::{compare, host_json, json, measure, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage:\n  slm-perfbench run --workload <name> --seed <n> [--seconds <s>] \
[--trace 0|1] [--trace-out <file>]\n  slm-perfbench compare <base.jsonl> <new.jsonl>\n\
workloads: campaign-long, stream-defended, scan-cold, cloud-fleet";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        trace_out,
    })
}

fn run(args: &RunArgs) -> Result<(), String> {
    let mut tracer = Tracer::default();
    let outcome = if args.trace {
        layers::traced(args.workload, args.seed, &Scale::TRACED, &mut tracer)?
    } else {
        measure(args.workload, args.seed, args.seconds, &Scale::FULL)?
    };
    if let Some(path) = &args.trace_out {
        std::fs::write(path, tracer.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    let metrics = outcome.metrics_json();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        json::string(args.workload.name()),
        args.seed,
        json::number(args.seconds),
        u8::from(args.trace),
        host_json(),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
    );
    Ok(())
}

fn compare_files(base: &str, new: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let (table, clean) = compare::report(&read(base)?, &read(new)?, &read(benchmark)?)?;
    print!("{table}");
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a)).map(|()| true),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("slm-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
