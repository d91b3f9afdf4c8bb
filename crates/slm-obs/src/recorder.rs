//! The recorder trait, its null and in-memory implementations, and the
//! cheap cloneable handle ([`Obs`]) the pipeline threads around.

use crate::frame::MetricsFrame;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of independently locked frame shards in a
/// [`MemoryRecorder`]. Metric names hash to a fixed shard, so two hot
/// paths recording different metrics rarely contend on one lock.
const SINK_SHARDS: usize = 8;

/// A metrics sink.
///
/// All methods take `&self`: recorders use interior mutability so one
/// handle can be shared across worker threads (the parallel campaign
/// and scan paths) or cloned into retry loops. The default implementation of
/// every recording method is a no-op, which is what makes
/// the null recorder trivial and instrumentation zero-cost when
/// disabled: the only price on the null path is one virtual call.
pub trait Recorder: std::fmt::Debug + Send + Sync {
    /// Whether this recorder keeps anything. Instrumented code may
    /// skip expensive metric *computation* (not just recording) when
    /// this is false.
    fn is_enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to a counter.
    fn add(&self, _name: &'static str, _delta: u64) {}

    /// Records a gauge sample.
    fn gauge(&self, _name: &'static str, _value: f64) {}

    /// Records a histogram observation.
    fn observe(&self, _name: &'static str, _value: f64) {}

    /// Reads the recorder's clock (nanoseconds for wall clocks,
    /// monotone ticks for the manual clock). Used by span guards.
    fn now_ns(&self) -> u64 {
        0
    }

    /// Records a completed span.
    fn span_ns(&self, _name: &'static str, _elapsed_ns: u64) {}

    /// Folds a finished shard's frame into this recorder. Callers fold
    /// shard frames in shard index order to keep the merged state
    /// deterministic (see [`MetricsFrame::absorb`]).
    fn absorb(&self, _frame: &MetricsFrame) {}

    /// Snapshots everything recorded so far.
    fn snapshot(&self) -> MetricsFrame {
        MetricsFrame::default()
    }

    /// A fresh sibling recorder of the same kind (and clock mode) for
    /// a worker to record into privately. Null forks to null, so a
    /// disabled campaign stays disabled in every shard.
    fn fork(&self) -> Arc<dyn Recorder>;
}

/// The disabled recorder: keeps nothing, costs one virtual call.
#[derive(Debug, Default)]
struct NullRecorder;

impl Recorder for NullRecorder {
    fn fork(&self) -> Arc<dyn Recorder> {
        null_arc()
    }
}

fn null_arc() -> Arc<dyn Recorder> {
    static NULL: OnceLock<Arc<NullRecorder>> = OnceLock::new();
    NULL.get_or_init(|| Arc::new(NullRecorder)).clone()
}

/// The recorder's time source.
#[derive(Debug)]
enum ClockSource {
    /// Real elapsed nanoseconds since the recorder was built.
    Wall(Instant),
    /// A logical clock: every read returns the next integer. Span
    /// durations become deterministic call counts, which is what lets
    /// a fixed-seed campaign pin its whole metrics report to a golden
    /// file.
    Manual(AtomicU64),
}

impl ClockSource {
    fn now_ns(&self) -> u64 {
        match self {
            ClockSource::Wall(start) => {
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            ClockSource::Manual(ticks) => ticks.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn fork(&self) -> ClockSource {
        match self {
            ClockSource::Wall(_) => ClockSource::Wall(Instant::now()),
            ClockSource::Manual(_) => ClockSource::Manual(AtomicU64::new(0)),
        }
    }
}

/// The enabled in-memory sink: a lock-striped [`MetricsFrame`].
///
/// Each metric name hashes (FNV-1a) to one of `SINK_SHARDS` (8) frame
/// stripes with its own mutex, so concurrent recorders of *different*
/// metrics do not serialize on a single lock; a name always lands on
/// the same stripe, so no metric is ever split across stripes.
/// [`Recorder::absorb`]ed shard frames go to a dedicated merge slot
/// folded last, keeping the snapshot a deterministic function of what
/// was recorded and the fold order.
#[derive(Debug)]
struct MemoryRecorder {
    stripes: Vec<Mutex<MetricsFrame>>,
    absorbed: Mutex<MetricsFrame>,
    clock: ClockSource,
}

impl MemoryRecorder {
    /// An enabled recorder on the wall clock.
    fn wall() -> Self {
        Self::with_clock(ClockSource::Wall(Instant::now()))
    }

    /// An enabled recorder on the deterministic logical clock.
    fn manual() -> Self {
        Self::with_clock(ClockSource::Manual(AtomicU64::new(0)))
    }

    fn with_clock(clock: ClockSource) -> Self {
        MemoryRecorder {
            stripes: (0..SINK_SHARDS)
                .map(|_| Mutex::new(MetricsFrame::default()))
                .collect(),
            absorbed: Mutex::new(MetricsFrame::default()),
            clock,
        }
    }

    fn stripe(&self, name: &str) -> &Mutex<MetricsFrame> {
        // FNV-1a over the name bytes; any stable hash works, the only
        // requirement is that a name maps to exactly one stripe.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.stripes[(h % SINK_SHARDS as u64) as usize]
    }
}

impl Recorder for MemoryRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn add(&self, name: &'static str, delta: u64) {
        self.stripe(name)
            .lock()
            .expect("metrics stripe poisoned")
            .record_count(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.stripe(name)
            .lock()
            .expect("metrics stripe poisoned")
            .record_gauge(name, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.stripe(name)
            .lock()
            .expect("metrics stripe poisoned")
            .record_observation(name, value);
    }

    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn span_ns(&self, name: &'static str, elapsed_ns: u64) {
        self.stripe(name)
            .lock()
            .expect("metrics stripe poisoned")
            .record_span(name, elapsed_ns);
    }

    fn absorb(&self, frame: &MetricsFrame) {
        self.absorbed
            .lock()
            .expect("metrics merge slot poisoned")
            .absorb(frame);
    }

    fn snapshot(&self) -> MetricsFrame {
        let mut out = MetricsFrame::default();
        for stripe in &self.stripes {
            out.absorb(&stripe.lock().expect("metrics stripe poisoned"));
        }
        out.absorb(&self.absorbed.lock().expect("metrics merge slot poisoned"));
        out
    }

    fn fork(&self) -> Arc<dyn Recorder> {
        Arc::new(MemoryRecorder::with_clock(self.clock.fork()))
    }
}

/// The handle instrumented code holds: a cheap-to-clone `Arc` around a
/// [`Recorder`]. `Default` is the null recorder, so every layer can
/// carry an `Obs` field without anyone opting in.
#[derive(Debug, Clone)]
pub struct Obs(Arc<dyn Recorder>);

impl Default for Obs {
    fn default() -> Self {
        Obs::null()
    }
}

impl Obs {
    /// The disabled handle (a shared static — no allocation).
    pub fn null() -> Obs {
        Obs(null_arc())
    }

    /// An enabled in-memory recorder on the wall clock.
    pub fn memory() -> Obs {
        Obs(Arc::new(MemoryRecorder::wall()))
    }

    /// An enabled in-memory recorder on the deterministic logical
    /// clock — span durations become call counts, reproducible across
    /// runs and machines.
    pub fn manual() -> Obs {
        Obs(Arc::new(MemoryRecorder::manual()))
    }

    /// Whether recording is enabled (see [`Recorder::is_enabled`]).
    pub fn enabled(&self) -> bool {
        self.0.is_enabled()
    }

    /// Increments a counter by one.
    pub fn incr(&self, name: &'static str) {
        self.0.add(name, 1);
    }

    /// Adds `delta` to a counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        self.0.add(name, delta);
    }

    /// Records a gauge sample.
    pub fn gauge(&self, name: &'static str, value: f64) {
        self.0.gauge(name, value);
    }

    /// Records a histogram observation.
    pub fn observe(&self, name: &'static str, value: f64) {
        self.0.observe(name, value);
    }

    /// Opens a timed span; the span is recorded when the guard drops.
    /// On a disabled handle the guard is inert and the clock is never
    /// read.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        if self.enabled() {
            SpanGuard {
                obs: Some(self.clone()),
                name,
                start_ns: self.0.now_ns(),
            }
        } else {
            SpanGuard {
                obs: None,
                name,
                start_ns: 0,
            }
        }
    }

    /// Folds a finished shard's frame into this recorder (callers keep
    /// shard order — see [`MetricsFrame::absorb`]).
    pub fn absorb(&self, frame: &MetricsFrame) {
        self.0.absorb(frame);
    }

    /// Snapshots everything recorded so far.
    pub fn snapshot(&self) -> MetricsFrame {
        self.0.snapshot()
    }

    /// A fresh sibling recorder for a worker to record into privately;
    /// forking a disabled handle yields a disabled handle.
    pub fn fork(&self) -> Obs {
        Obs(self.0.fork())
    }
}

/// Guard returned by [`Obs::span`]; records the elapsed time between
/// construction and drop under the span's name.
#[derive(Debug)]
pub struct SpanGuard {
    obs: Option<Obs>,
    name: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(obs) = &self.obs {
            let elapsed = obs.0.now_ns().saturating_sub(self.start_ns);
            obs.0.span_ns(self.name, elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_records_nothing_and_forks_null() {
        let obs = Obs::null();
        assert!(!obs.enabled());
        obs.incr("a");
        obs.gauge("b", 1.0);
        obs.observe("c", 2.0);
        drop(obs.span("d"));
        assert!(obs.snapshot().is_empty());
        let fork = obs.fork();
        assert!(!fork.enabled());
        fork.incr("a");
        assert!(fork.snapshot().is_empty());
    }

    #[test]
    fn memory_records_everything() {
        let obs = Obs::memory();
        assert!(obs.enabled());
        obs.incr("req");
        obs.add("req", 2);
        obs.gauge("v", -0.5);
        obs.observe("w", 1.5);
        {
            let _s = obs.span("phase");
        }
        let f = obs.snapshot();
        assert_eq!(f.counter("req"), 3);
        assert_eq!(f.gauges["v"].last, -0.5);
        assert_eq!(f.histograms["w"].count, 1);
        assert_eq!(f.spans["phase"].count, 1);
    }

    #[test]
    fn manual_clock_makes_spans_reproducible() {
        let run = || {
            let obs = Obs::manual();
            for _ in 0..3 {
                let _outer = obs.span("outer");
                let _inner = obs.span("inner");
            }
            obs.snapshot()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "logical clock must be run-invariant");
        assert!(a.spans["outer"].total_ns > 0, "ticks advance");
    }

    #[test]
    fn fork_and_absorb_mirror_shard_merge() {
        let parent = Obs::memory();
        let frames: Vec<MetricsFrame> = (0..4)
            .map(|i| {
                let shard = parent.fork();
                assert!(shard.enabled());
                shard.add("traces", 10 + i);
                shard.gauge("v_min", -(i as f64));
                shard.snapshot()
            })
            .collect();
        for f in &frames {
            parent.absorb(f);
        }
        let merged = parent.snapshot();
        assert_eq!(merged.counter("traces"), 46);
        assert_eq!(merged.gauges["v_min"].min, -3.0);
        assert_eq!(merged.gauges["v_min"].last, -3.0, "shard order fixes last");
    }

    #[test]
    fn concurrent_counts_from_many_threads_all_land() {
        let obs = Obs::memory();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let obs = obs.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        obs.incr("hits");
                    }
                });
            }
        });
        assert_eq!(obs.snapshot().counter("hits"), 8000);
    }

    #[test]
    fn default_obs_is_disabled() {
        assert!(!Obs::default().enabled());
    }
}
