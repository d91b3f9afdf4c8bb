//! Layered end-to-end benchmark of the stealthy-logic-misuse workspace.
//!
//! One process runs one workload: it generates the workload's inputs
//! from a seed, sets up (cold fabric prototype build plus one warm-up
//! op) several times, then repeats ops for a fixed number of seconds
//! with two workers and reports the end-to-end metrics. A traced run
//! ([`layers::traced`]) instead repeats a fixed amount of work three
//! times and reports where the time went, module by module. See
//! `bench/README.md` for the workloads, metrics and baseline.

pub mod compare;
pub mod json;
pub mod layers;
mod probes;
mod stats;
mod workloads;

use slm_obs::Obs;
use std::time::Instant;
pub use workloads::{Scale, Workload, WORKERS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The end-to-end metrics as `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics as a JSON object of `{"value", "unit"}` members.
    pub fn metrics_json(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(name),
                    json::number(*value),
                    json::string(unit)
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}

/// Prepares `workload` [`SETUP_REPS`] times and returns the last
/// preparation with the median set-up time in seconds.
///
/// # Errors
///
/// Propagates a failing preparation.
fn set_up(
    workload: Workload,
    seed: u64,
    scale: &Scale,
) -> Result<(Box<dyn workloads::Bench>, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        // Free the previous preparation first, so set-up holds one
        // copy of the inputs at a time.
        drop(bench.take());
        let t = Instant::now();
        bench = Some(workloads::prepare(workload, seed, scale)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((bench.expect("SETUP_REPS > 0"), stats::median(&times)))
}

/// The untraced run: set up, then repeat ops on [`WORKERS`] threads
/// while another op of typical length still fits in `seconds`.
///
/// # Errors
///
/// A failing set-up or op, or an unreadable peak RSS.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: &Scale,
) -> Result<Outcome, String> {
    let (bench, setup_s) = set_up(workload, seed, scale)?;
    let start = Instant::now();
    let mut ops = Vec::new();
    loop {
        ops.push(bench.op(ops.len(), WORKERS, &Obs::null())?);
        let op_seconds: Vec<f64> = ops.iter().map(|o: &workloads::Op| o.seconds).collect();
        if start.elapsed().as_secs_f64() + stats::median(&op_seconds) > seconds {
            break;
        }
    }
    let rates: Vec<f64> = ops.iter().map(|o| o.work / o.seconds).collect();
    let latencies: Vec<f64> = ops.iter().flat_map(|o| o.latencies_ms.clone()).collect();
    let values = [
        setup_s,
        stats::median(&rates),
        stats::percentile(&latencies, 0.50),
        stats::percentile(&latencies, 0.99),
        peak_rss_mb()?,
    ];
    Ok(Outcome {
        attempted: ops.iter().map(|o| o.attempted).sum(),
        failed: ops.iter().map(|o| o.failed).sum(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
    })
}

/// The process's peak resident set (`VmHWM`), MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Host metadata printed beside every record, as a JSON object.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"nproc\": {nproc}, \"workers\": {WORKERS}, \"commit\": {}}}",
        json::string(&git_commit())
    )
}

/// The commit the checkout was built from, read from `.git` without
/// running git; "unknown" outside a repository.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
