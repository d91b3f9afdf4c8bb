//! The traced run: where a workload's time goes, module by module.
//!
//! The workload runs three times on the same inputs — untraced at two
//! workers, recorded into [`Obs::memory`] at two workers, and recorded
//! at one worker — and the three results must be bit-identical, with
//! every deterministic work counter equal at one and two workers. Self
//! times come from the spans the library already records, taken from
//! the one-worker run so they hold up on an oversubscribed host; busy
//! against waiting comes from the two-worker run. Probe calls into each
//! module's public functions (see `probes.rs`), multiplied by
//! deterministic counts, cover the layers that record no spans.

use crate::probes::{self, Probes};
use crate::workloads::{self, Bench, Op, Scale, Workload, WORKERS};
use crate::{json, Outcome};
use slm_obs::{MetricsFrame, Obs};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric as `(name, unit)`, in `BENCHMARK.json`
/// order. A metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("core.pilot_s", "s"),
    ("core.capture_s", "s"),
    ("core.absorb_s", "s"),
    ("core.eval_s", "s"),
    ("core.unattributed_share", "ratio"),
    ("core.stream_pilot_s", "s"),
    ("core.stream_window_s", "s"),
    ("core.stream_rest_s", "s"),
    ("par.busy_share", "ratio"),
    ("par.wait_s", "s"),
    ("obs.overhead_share", "ratio"),
    ("fabric.windowed_capture_us", "us"),
    ("fabric.defended_capture_us", "us"),
    ("fabric.full_capture_us", "us"),
    ("fabric.fault_capture_us", "us"),
    ("fabric.new_us", "us"),
    ("fabric.prototype_build_ms", "ms"),
    ("fabric.capture_explained_share", "ratio"),
    ("pdn.step_ns", "ns"),
    ("pdn.ticks", "count"),
    ("sensors.tdc_sample_ns", "ns"),
    ("sensors.benign_sample_us", "us"),
    ("aes.encrypt_us", "us"),
    ("defense.tick_ns", "ns"),
    ("timing.event_sim_ms", "ms"),
    ("timing.check_ms", "ms"),
    ("cpa.batch_absorb_ns", "ns"),
    ("cpa.scalar_absorb_ns", "ns"),
    ("cpa.eval_us", "us"),
    ("cpa.dfa_pair_ns", "ns"),
    ("cpa.ledger_commit_ms", "ms"),
    ("cpa.accumulator_traces", "count"),
    ("stream.commits", "count"),
    ("stream.bytes_journaled", "bytes"),
    ("checker.analysis_s", "s"),
    ("checker.pass.comb-loop_s", "s"),
    ("checker.pass.delay-line_s", "s"),
    ("checker.pass.trivial-array_s", "s"),
    ("checker.pass.clock-as-data_s", "s"),
    ("checker.pass.scoap-sensor_s", "s"),
    ("checker.pass.signature_s", "s"),
    ("checker.pass.observation-density_s", "s"),
    ("checker.pass.clock-taint_s", "s"),
    ("checker.pass.switching-activity_s", "s"),
    ("checker.pass.observation-bandwidth_s", "s"),
    ("checker.cache_hits", "count"),
    ("checker.cache_misses", "count"),
    ("checker.findings_reject", "count"),
    ("checker.scan_key_us", "us"),
    ("cloud.campaign_s", "s"),
    ("cloud.admission_scan_s", "s"),
    ("cloud.round_overhead_s", "s"),
    ("cloud.decide_warm_us", "us"),
    ("cloud.place_ns", "ns"),
    ("netlist.generate_s", "s"),
];

/// The benchmark's own spans: name, start, end and parent, kept in
/// memory and written out once the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.epoch.elapsed().as_nanos(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos();
        out
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent}`,
    /// where `parent` indexes the array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                    json::string(&s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Total seconds of a recorded span (0 when it never ran).
pub(crate) fn span_s(frame: &MetricsFrame, name: &str) -> f64 {
    frame.span(name).map_or(0.0, |s| s.total_ns as f64 / 1e9)
}

fn count(op: &Op, name: &str) -> u64 {
    op.counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, c)| c)
}

/// The deterministic part of a frame: counters and span counts.
fn work_counts(frame: &MetricsFrame) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let spans = frame
        .spans
        .iter()
        .map(|(name, s)| (name.clone(), s.count))
        .collect();
    (frame.counters.clone(), spans)
}

/// Runs one op of `workload` at `scale` three times, checks the
/// results and work counts agree, probes every module and returns the
/// per-layer metrics.
///
/// # Errors
///
/// A failing op or probe, differing result digests, or a work count
/// that moved with the worker count.
pub fn traced(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let bench = tracer.span("setup", |_| workloads::prepare(workload, seed, scale))?;
    let pass = |tracer: &mut Tracer, name: &str, workers: usize, obs: &Obs| {
        tracer.span(name, |_| bench.op(0, workers, obs))
    };
    let untraced = pass(tracer, "run.untraced.2w", WORKERS, &Obs::null())?;
    let obs2 = Obs::memory();
    let traced2 = pass(tracer, "run.traced.2w", WORKERS, &obs2)?;
    let obs1 = Obs::memory();
    let traced1 = pass(tracer, "run.traced.1w", 1, &obs1)?;
    let runs = Runs {
        untraced,
        traced2,
        frame2: obs2.snapshot(),
        traced1,
        frame1: obs1.snapshot(),
    };
    runs.check_invariance()?;

    let payload = runs
        .frame1
        .counter("stream.bytes_journaled")
        .checked_div(runs.frame1.counter("stream.commits"))
        .unwrap_or(0) as usize;
    let p = tracer.span("probes", |t| probes::measure(t, &*bench, seed, payload))?;
    let values = per_layer(workload, &*bench, &p, &runs);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(Outcome {
        attempted: runs.untraced.attempted,
        failed: runs.untraced.failed,
        metrics,
    })
}

/// The three passes of a traced run, with the frames the recorded
/// ones filled.
struct Runs {
    untraced: Op,
    traced2: Op,
    frame2: MetricsFrame,
    traced1: Op,
    frame1: MetricsFrame,
}

impl Runs {
    /// Equal result digests across the passes, and equal work counts
    /// at one and two workers.
    fn check_invariance(&self) -> Result<(), String> {
        let ops = [&self.untraced, &self.traced2, &self.traced1];
        if ops.iter().any(|o| o.digest != self.untraced.digest) {
            return Err(format!(
                "result digests differ across passes: {:#018x} / {:#018x} / {:#018x}",
                ops[0].digest, ops[1].digest, ops[2].digest
            ));
        }
        if ops.iter().any(|o| o.counts != self.untraced.counts) {
            return Err(format!(
                "work counts moved: {:?} / {:?} / {:?}",
                ops[0].counts, ops[1].counts, ops[2].counts
            ));
        }
        let (two, one) = (work_counts(&self.frame2), work_counts(&self.frame1));
        if two != one {
            return Err(format!(
                "recorded counts differ between 2 and 1 workers: {two:?} vs {one:?}"
            ));
        }
        Ok(())
    }
}

fn per_layer(
    workload: Workload,
    bench: &dyn Bench,
    p: &Probes,
    runs: &Runs,
) -> BTreeMap<&'static str, f64> {
    let Runs {
        untraced,
        traced2,
        frame2,
        traced1,
        frame1,
    } = runs;
    let mut v = p.values.clone();
    let wall1 = traced1.seconds;
    let wall2 = traced2.seconds;
    let captures = count(traced1, "fabric.captures") as f64;

    // slm-core: self times of the campaign phases at one worker.
    let phases = [
        ("core.pilot_s", "cpa.pilot"),
        ("core.capture_s", "cpa.capture"),
        ("core.absorb_s", "cpa.absorb"),
        ("core.eval_s", "cpa.eval"),
    ];
    for (metric, span) in phases {
        v.insert(metric, span_s(frame1, span));
    }
    if workload == Workload::CampaignLong {
        let attributed: f64 = phases.iter().map(|(_, s)| span_s(frame1, s)).sum();
        v.insert("core.unattributed_share", 1.0 - attributed / wall1);
        v.insert(
            "fabric.capture_explained_share",
            p.values["fabric.windowed_capture_us"] * 1e-6 * captures
                / span_s(frame1, "cpa.capture"),
        );
    }

    // The streaming window body records no span of its own: estimate it
    // from probe costs times the windows and traces it processed.
    let window_cost = |op: &Op| {
        count(op, "stream.windows") as f64 * p.values["fabric.new_us"] * 1e-6
            + count(op, "fabric.captures") as f64
                * (p.values["fabric.defended_capture_us"] * 1e-6
                    + p.values["cpa.scalar_absorb_ns"] * 1e-9)
    };
    if workload == Workload::StreamDefended {
        let pilot = span_s(frame1, "stream.pilot");
        let windows = window_cost(traced1);
        v.insert("core.stream_pilot_s", pilot);
        v.insert("core.stream_window_s", windows);
        v.insert("core.stream_rest_s", wall1 - pilot - windows);
    }

    // slm-par: busy against waiting over both workers' wall time.
    let busy = match workload {
        Workload::CampaignLong => span_s(frame2, "cpa.shard") + span_s(frame2, "cpa.pilot"),
        Workload::StreamDefended => window_cost(traced2),
        Workload::ScanCold => traced2.latencies_ms.iter().sum::<f64>() / 1e3,
        Workload::CloudFleet => {
            span_s(frame2, "cloud.campaign") + span_s(frame2, "cloud.admission.scan")
        }
    };
    let capacity = WORKERS as f64 * wall2;
    v.insert("par.busy_share", busy / capacity);
    v.insert("par.wait_s", capacity - busy);
    v.insert("obs.overhead_share", wall2 / untraced.seconds - 1.0);

    v.insert("pdn.ticks", captures * p.ticks_per_capture);
    for counter in [
        "cpa.accumulator_traces",
        "stream.commits",
        "stream.bytes_journaled",
    ] {
        v.insert(counter, frame1.counter(counter) as f64);
    }
    for name in [
        "checker.cache_hits",
        "checker.cache_misses",
        "checker.findings_reject",
    ] {
        v.insert(name, count(traced1, name) as f64);
    }

    // slm-cloud: round time not spent in campaigns or admission scans.
    let campaign = span_s(frame1, "cloud.campaign");
    let scan = span_s(frame1, "cloud.admission.scan");
    v.insert("cloud.campaign_s", campaign);
    v.insert("cloud.admission_scan_s", scan);
    v.insert(
        "cloud.round_overhead_s",
        (span_s(frame1, "cloud.round") - campaign - scan).max(0.0),
    );
    v.insert("netlist.generate_s", bench.generate_s());
    v
}
