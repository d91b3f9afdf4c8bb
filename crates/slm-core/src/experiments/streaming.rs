//! Crash-safe streaming CPA campaigns.
//!
//! Million-trace campaigns (the cloud-FPGA case study's 10⁵–10⁷-trace
//! defended runs) cannot hold their raw traces in memory and cannot
//! afford to lose hours of capture to a process death. The streaming
//! engine runs the budget as bounded-memory *windows*: run the CPA lane
//! kernel over a window on its own re-seeded fabric
//! ([`FabricConfig::for_shard`], exactly the parallel runner's shard
//! lanes), which holds at most one absorb chunk of raw traces at a
//! time, and fold the window's accumulators into the merged ones. Every
//! `commit_every_windows` windows the engine appends the new progress
//! points to an append-only [`ProgressLog`], then seals the
//! accumulator state — plus the log prefix it commits and a
//! campaign-parameter fingerprint — into a [`StreamCheckpoint`] and
//! commits it to an atomic generation ledger ([`CheckpointLedger`]:
//! write-to-temp, checksum, rename).
//!
//! # The pipeline
//!
//! `workers` capture threads pull window indices continuously; none
//! starts a window more than `workers + commit_every_windows` windows
//! past the last folded one, so the windows in flight, and with them
//! memory, stay bounded. The calling thread takes the finished windows
//! through a reorder buffer and folds them strictly in window order,
//! then evaluates, logs and commits at each group boundary while the
//! workers capture the next windows. The fold order, and so the result
//! and the merged metrics, never depend on the worker count or on
//! which window finished first.
//!
//! # Exact-once window accounting
//!
//! A window is the unit of durability. Because window `i`'s capture
//! stream depends only on the campaign seed and `i` — never on which
//! worker ran it, wall-clock time, or what happened to earlier windows
//! in this process — a window that dies mid-capture or mid-fold is
//! simply re-captured from its seed lane on resume, bit-identically.
//! A committed window is never re-captured: resume starts at the first
//! window past the last committed generation. The resume path verifies
//! the checkpoint's window/trace accounting against the current shard
//! plan's prefix, so a checkpoint can never be silently merged into a
//! campaign whose window layout it does not prefix.
//!
//! # Crash injection
//!
//! [`CrashPlan`] injects simulated process deaths at the boundaries of
//! the capture → fold → log → commit pipeline ([`CrashSite`]),
//! including a *torn* log append and a *torn commit* that persist a
//! truncated record or generation before dying — the on-disk faults
//! (bit flips, truncation, stale temp files) are exercised directly
//! against the store layer. The kill/resume property tests assert that
//! a run killed at arbitrary sites and resumed produces a
//! [`CpaResult`] bit-identical to the uninterrupted run, at any worker
//! count.

use super::cpa::{
    assemble_result, campaign_config, lane_setup, record_fabric_telemetry, run_lane, CampaignSetup,
    CheckpointGrid, CpaExperiment, CpaResult, ABSORB_BATCH,
};
use serde::{Deserialize, Serialize};
use slm_cpa::store::{
    read_progress_log, read_stream_checkpoint, replay_progress_log, write_stream_checkpoint,
    CheckpointLedger, LogPrefix, ProgressLog, StreamCheckpoint, PROGRESS_LOG_FILE,
};
use slm_cpa::{leader_margin, CpaAttack, ProgressPoint};
use slm_fabric::{FabricConfig, FabricError, MultiTenantFabric, TransportError};
use slm_obs::{MetricsFrame, Obs};
use slm_par::codec::{fnv1a, FNV_OFFSET};
use slm_par::{ShardPlan, ShardSpec};
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{mpsc, Condvar, Mutex, PoisonError};

/// A streaming, checkpointed CPA campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingCpa {
    /// The campaign parameters (budget, source, seed).
    pub base: CpaExperiment,
    /// Traces per window — the unit of capture, fold and re-capture on
    /// resume. Like the parallel runner's shard size, the window layout
    /// depends only on this and the budget, never on `workers`.
    pub window_traces: u64,
    /// Windows folded between ledger commits. Commit cadence is
    /// defined in windows — never derived from the worker count — so
    /// the progress curve and checkpoint stream are worker-invariant.
    pub commit_every_windows: u64,
    /// Capture threads (0 = machine parallelism). Folding, evaluation
    /// and commits run on the calling thread beside them.
    pub workers: usize,
    /// Optional online-MTD early stop, evaluated at every commit.
    pub early_stop: Option<EarlyStop>,
    /// Caller-chosen tag folded into the campaign fingerprint. A
    /// fabric tweak passed to [`run_streaming`] is opaque to the
    /// engine; callers that tweak the config must tag the tweak here
    /// so a checkpoint from a differently-defended campaign is refused
    /// on resume.
    pub config_tag: u64,
}

impl StreamingCpa {
    /// Wraps a campaign with a window of one sixteenth of the budget
    /// (clamped to 1..=4096 traces), commits at every window, machine
    /// parallelism, and no early stop.
    pub fn new(base: CpaExperiment) -> Self {
        StreamingCpa {
            base,
            window_traces: (base.traces / 16).clamp(1, 4096),
            commit_every_windows: 1,
            workers: 0,
            early_stop: None,
            config_tag: 0,
        }
    }

    /// Sets the window size in traces (minimum 1).
    pub fn with_window(mut self, window_traces: u64) -> Self {
        self.window_traces = window_traces.max(1);
        self
    }

    /// Sets the commit cadence in windows (minimum 1).
    pub fn with_commit_every(mut self, windows: u64) -> Self {
        self.commit_every_windows = windows.max(1);
        self
    }

    /// Sets the worker count (0 = machine parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables the online-MTD early stop.
    pub fn with_early_stop(mut self, rule: EarlyStop) -> Self {
        self.early_stop = Some(rule);
        self
    }

    /// Tags the campaign fingerprint (see [`StreamingCpa::config_tag`]).
    pub fn with_config_tag(mut self, tag: u64) -> Self {
        self.config_tag = tag;
        self
    }

    /// The window layout this campaign will execute.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan::new(self.base.traces, self.window_traces)
    }

    /// The campaign-parameter fingerprint stored in every checkpoint.
    ///
    /// Covers everything that determines the capture stream and the
    /// checkpoint cadence: circuit, sensor source, pilot size, seed,
    /// window size, commit cadence and the caller's `config_tag`. It
    /// deliberately excludes the trace budget (a resumed campaign may
    /// extend its budget), the worker count (results are
    /// worker-invariant) and the early-stop rule (a stop policy, not a
    /// capture parameter).
    pub fn fingerprint(&self) -> u64 {
        let params = format!(
            "{:?}|{:?}|pilot={}|seed={}|window={}|commit={}|tag={}",
            self.base.circuit,
            self.base.source,
            self.base.pilot_traces,
            self.base.seed,
            self.window_traces,
            self.commit_every_windows,
            self.config_tag,
        );
        fnv1a(FNV_OFFSET, params.as_bytes())
    }
}

/// Online-MTD early stop, evaluated over the persisted progress curves
/// at every commit — so a killed and resumed campaign makes the same
/// stop decision at the same commit as the uninterrupted run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EarlyStop {
    /// Never stop before this many traces.
    pub min_traces: u64,
    /// The same candidate must lead for this many consecutive commits.
    pub stable_commits: usize,
    /// ... each with at least this leader margin.
    pub min_margin: f64,
}

impl EarlyStop {
    /// Whether the rule fires on these progress curves (the slot with
    /// the best final leader margin decides, matching the slot
    /// selection in [`assemble_result`]).
    fn satisfied(&self, progress_per: &[Vec<ProgressPoint>]) -> bool {
        let slot = progress_per
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                let ma = a.last().map_or(0.0, |p| leader_margin(&p.peak_corr));
                let mb = b.last().map_or(0.0, |p| leader_margin(&p.peak_corr));
                ma.partial_cmp(&mb).expect("margins are finite")
            })
            .map_or(0, |(i, _)| i);
        let curve = &progress_per[slot];
        let Some(last) = curve.last() else {
            return false;
        };
        if last.traces < self.min_traces || curve.len() < self.stable_commits.max(1) {
            return false;
        }
        let leader = leading_candidate(&last.peak_corr);
        curve[curve.len() - self.stable_commits.max(1)..]
            .iter()
            .all(|p| {
                leading_candidate(&p.peak_corr) == leader
                    && leader_margin(&p.peak_corr) >= self.min_margin
            })
    }
}

/// Index of the highest peak — the leading key candidate.
fn leading_candidate(peaks: &[f64]) -> usize {
    peaks
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("peaks are finite"))
        .map_or(0, |(i, _)| i)
}

/// Outcome of a completed streaming campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamingResult {
    /// The campaign result, bit-identical to the same campaign run
    /// uninterrupted at any worker count.
    pub result: CpaResult,
    /// Windows captured, folded and committed.
    pub windows: u64,
    /// Traces those windows contributed (less than the budget when the
    /// early stop fired).
    pub traces: u64,
    /// Whether the online-MTD early stop ended the campaign.
    pub early_stopped: bool,
    /// The ledger generation this run resumed from, if any.
    pub resumed_generation: Option<u64>,
    /// Newer generations that were torn/corrupt and skipped during
    /// resume — non-zero means the ledger degraded gracefully.
    pub recovered_generations: u64,
    /// Peak raw traces retained in memory by any window of this
    /// process: one lane-kernel chunk, `min(window_traces, 32)`,
    /// regardless of budget.
    pub peak_raw_traces: u64,
}

/// Outcome of a fault-injected streaming run.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOutcome {
    /// The campaign ran to its budget (or early stop).
    Complete(StreamingResult),
    /// A [`CrashPlan`] kill site fired: the process "died" with this
    /// much work durably committed. Resume by running again over the
    /// same ledger directory.
    Killed {
        /// Windows committed before the kill.
        windows_committed: u64,
        /// Traces committed before the kill.
        traces_committed: u64,
    },
}

/// Where in the window pipeline a [`CrashPlan`] kill fires, in
/// pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// After the commit group's windows are captured, before its last
    /// window is folded.
    AfterCapture,
    /// After folding into the merged accumulators, before the commit.
    AfterFold,
    /// Mid-append: half of the group's progress-log record reaches the
    /// log, then the process dies — the torn record resume must
    /// truncate.
    TornLogAppend,
    /// After the group's progress-log record is durably appended,
    /// before the generation that commits it — resume must drop the
    /// uncommitted record.
    AfterLogAppend,
    /// Mid-commit: a truncated generation reaches the ledger directory
    /// under its final name, then the process dies — the torn-write
    /// case the generation ledger must fall back past.
    TornCommit,
    /// Immediately after a successful commit.
    AfterCommit,
}

/// A deterministic schedule of simulated process deaths, in the spirit
/// of the fault-study `WireFaultPlan`: each entry kills the run the first
/// time the named commit group reaches the named site. Kills fire in
/// list order; a consumed plan (all kills fired) lets the run complete,
/// so one plan can drive a whole kill/resume/kill/resume chain.
///
/// A plan can also fail the capture of chosen windows, on every run,
/// with a transport error: the mid-run [`FabricError`] case.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPlan {
    kills: Vec<(u64, CrashSite)>,
    fired: usize,
    failing_windows: Vec<u64>,
}

impl CrashPlan {
    /// No injected crashes.
    pub fn none() -> Self {
        CrashPlan {
            kills: Vec::new(),
            fired: 0,
            failing_windows: Vec::new(),
        }
    }

    /// Adds a kill the first time commit group `group` reaches `site`.
    pub fn kill_at(mut self, group: u64, site: CrashSite) -> Self {
        self.kills.push((group, site));
        self
    }

    /// Makes every capture of window `window` fail with
    /// [`TransportError::NoResponse`].
    pub fn fail_window(mut self, window: u64) -> Self {
        self.failing_windows.push(window);
        self
    }

    /// How many scheduled kills have fired.
    pub fn fired(&self) -> usize {
        self.fired
    }

    /// Consumes the next scheduled kill if it matches this site.
    fn should_kill(&mut self, group: u64, site: CrashSite) -> bool {
        if self.kills.get(self.fired) == Some(&(group, site)) {
            self.fired += 1;
            true
        } else {
            false
        }
    }
}

/// Why a streaming campaign could not run.
#[derive(Debug)]
pub enum StreamingError {
    /// Fabric construction failed.
    Fabric(FabricError),
    /// The checkpoint ledger could not be read or written.
    Io(std::io::Error),
    /// A resume checkpoint exists but belongs to a different campaign
    /// (fingerprint, slot geometry or window accounting mismatch).
    /// Refusing is the safe default: merging it would silently corrupt
    /// the result.
    Incompatible(String),
}

impl std::fmt::Display for StreamingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamingError::Fabric(e) => write!(f, "fabric error: {e}"),
            StreamingError::Io(e) => write!(f, "checkpoint store error: {e}"),
            StreamingError::Incompatible(why) => {
                write!(f, "checkpoint incompatible with this campaign: {why}")
            }
        }
    }
}

impl std::error::Error for StreamingError {}

impl From<FabricError> for StreamingError {
    fn from(e: FabricError) -> Self {
        StreamingError::Fabric(e)
    }
}

impl From<std::io::Error> for StreamingError {
    fn from(e: std::io::Error) -> Self {
        StreamingError::Io(e)
    }
}

/// Runs (or resumes) a streaming campaign against the checkpoint
/// ledger in `dir`.
///
/// `tweak` edits the fabric configuration before the pilot and before
/// window re-seeding (pass `|_| {}` for none); callers that tweak the
/// config must set [`StreamingCpa::config_tag`] so checkpoints from
/// differently-tweaked campaigns are refused. Emits `stream.*`
/// counters and gauges (windows committed, commits, resumes, recovered
/// generations, bytes journaled, peak retained raw traces, traces/sec)
/// on top of the usual `cpa.*` stream into `obs`.
///
/// # Errors
///
/// Fabric construction, ledger I/O, or an incompatible checkpoint.
pub fn run_streaming(
    exp: &StreamingCpa,
    dir: impl AsRef<Path>,
    tweak: impl FnOnce(&mut FabricConfig),
    obs: &Obs,
) -> Result<StreamingResult, StreamingError> {
    match run_streaming_crashing(exp, dir, tweak, obs, &mut CrashPlan::none())? {
        StreamOutcome::Complete(r) => Ok(r),
        StreamOutcome::Killed { .. } => unreachable!("empty crash plan never kills"),
    }
}

/// [`run_streaming`] under the name the `bench/` package calls.
#[doc(hidden)]
pub fn run_streaming_with_recorded(
    exp: &StreamingCpa,
    dir: impl AsRef<Path>,
    tweak: impl FnOnce(&mut FabricConfig),
    obs: &Obs,
) -> Result<StreamingResult, StreamingError> {
    run_streaming(exp, dir, tweak, obs)
}

/// One captured-and-folded window, travelling from a worker back to
/// the fold loop with its private metrics frame.
struct WindowPartial {
    attacks: Vec<CpaAttack>,
    frame: MetricsFrame,
}

/// What a capture worker sends back for one window: the partial, the
/// capture's error, or the payload of a panic, which the fold loop
/// resumes on the calling thread.
type WindowOutcome = std::thread::Result<Result<WindowPartial, FabricError>>;

/// Hands window indices to the capture workers in order, never more
/// than `lookahead` windows past the last folded one.
struct WindowGate {
    state: Mutex<GateState>,
    moved: Condvar,
    lookahead: u64,
    end: u64,
}

struct GateState {
    next: u64,
    folded: u64,
    stopped: bool,
}

impl WindowGate {
    fn new(start: u64, end: u64, lookahead: u64) -> Self {
        WindowGate {
            state: Mutex::new(GateState {
                next: start,
                folded: start,
                stopped: false,
            }),
            moved: Condvar::new(),
            lookahead,
            end,
        }
    }

    /// The next window to capture, blocking while it lies beyond the
    /// lookahead; `None` once every window is handed out or the gate
    /// is stopped.
    fn claim(&self) -> Option<u64> {
        let mut s = self.state.lock().expect("window gate poisoned");
        loop {
            if s.stopped || s.next >= self.end {
                return None;
            }
            if s.next < s.folded + self.lookahead {
                s.next += 1;
                return Some(s.next - 1);
            }
            s = self.moved.wait(s).expect("window gate poisoned");
        }
    }

    /// Records that `windows` windows are folded, releasing workers
    /// waiting on the lookahead.
    fn folded(&self, windows: u64) {
        self.state.lock().expect("window gate poisoned").folded = windows;
        self.moved.notify_all();
    }
}

/// Stops the gate when the fold loop ends by any path — completion,
/// kill, error or panic — so no worker waits on the lookahead forever
/// and the thread scope can join them all.
struct StopOnDrop<'a>(&'a WindowGate);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        // Setting a flag leaves the state valid even after a panic
        // elsewhere, so a poisoned lock is safe to recover here.
        self.0
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stopped = true;
        self.0.moved.notify_all();
    }
}

/// Captures one window: the lane kernel on the window's own re-seeded
/// fabric over the window's global trace range, all of it inside one
/// `stream.window` span on the window's fork.
fn capture_window(
    setup: &CampaignSetup,
    config: &FabricConfig,
    spec: &ShardSpec,
    grid: CheckpointGrid,
    obs: &Obs,
) -> Result<WindowPartial, FabricError> {
    let w_obs = obs.fork();
    let attacks = {
        let _span = w_obs.span("stream.window");
        let mut fabric = MultiTenantFabric::new(&config.for_shard(spec.index))?;
        let range = spec.start..spec.start + spec.traces;
        let attacks = run_lane(&mut fabric, setup, range, grid, &w_obs, |_, _| {});
        record_fabric_telemetry(&fabric, &w_obs);
        attacks
    };
    Ok(WindowPartial {
        attacks,
        frame: w_obs.snapshot(),
    })
}

/// The full fault-injectable engine: runs (or resumes) the campaign,
/// dying at the [`CrashPlan`]'s kill sites.
///
/// # Errors
///
/// Fabric construction, ledger I/O, or an incompatible checkpoint.
pub fn run_streaming_crashing(
    exp: &StreamingCpa,
    dir: impl AsRef<Path>,
    tweak: impl FnOnce(&mut FabricConfig),
    obs: &Obs,
    crash: &mut CrashPlan,
) -> Result<StreamOutcome, StreamingError> {
    let started = std::time::Instant::now();
    let base = &exp.base;
    let commit_every = exp.commit_every_windows.max(1);
    let config = campaign_config(base, tweak);
    // The pilot is not streamed: it is cheap, deterministic, and reruns
    // identically on every resume, so its decisions never need to be
    // persisted. A pilot-independent source runs none.
    let setup = lane_setup(base, &config, obs, "stream.pilot")?;

    let fingerprint = exp.fingerprint();
    let plan = exp.plan();
    let windows = plan.shards();
    // The window layout is the lanes' checkpoint grid: no window holds
    // a checkpoint before its end.
    let grid = CheckpointGrid {
        every: plan.shard_size,
        total: plan.total,
    };
    let ledger = CheckpointLedger::open(dir.as_ref())?;

    // ---- resume ---------------------------------------------------------
    let mut merged = setup.fresh_attacks();
    let mut log_prefix = LogPrefix::empty(setup.single_bit_slots, fingerprint);
    let mut windows_done = 0u64;
    let mut traces_done = 0u64;
    let mut resumed_generation = None;
    let mut recovered_generations = 0u64;
    // A generation loads only if the log prefix it commits replays and
    // verifies, so a corrupt prefix record falls back to an older
    // generation exactly like a corrupt generation file does.
    let log_bytes = read_progress_log(ledger.dir())?;
    let recovery = ledger.load_latest(|bytes| {
        let cp = read_stream_checkpoint(bytes)?;
        let log_prefix = replay_progress_log(
            &log_bytes,
            cp.slots.len(),
            cp.log_records,
            cp.fingerprint,
            cp.log_seal,
        )?;
        Ok((cp, log_prefix))
    })?;
    drop(log_bytes);
    if let Some(recovery) = recovery {
        let (cp, cp_prefix) = recovery.state;
        let incompatible = |why: String| Err(StreamingError::Incompatible(why));
        if cp.fingerprint != fingerprint {
            return incompatible(format!(
                "checkpoint fingerprint {:#018x} != campaign fingerprint {:#018x} \
                 (different circuit/source/seed/window/commit/tag)",
                cp.fingerprint, fingerprint
            ));
        }
        if cp.slots.len() != setup.single_bit_slots {
            return incompatible(format!(
                "checkpoint has {} accumulator slots, pilot derived {}",
                cp.slots.len(),
                setup.single_bit_slots
            ));
        }
        for (i, slot) in cp.slots.iter().enumerate() {
            if slot.points != setup.points
                || slot.model.ct_byte != setup.model.ct_byte
                || slot.model.bit != setup.model.bit
            {
                return incompatible(format!(
                    "slot {i} geometry ({} points, ct_byte {}, bit {}) does not match \
                     the pilot ({} points, ct_byte {}, bit {})",
                    slot.points,
                    slot.model.ct_byte,
                    slot.model.bit,
                    setup.points,
                    setup.model.ct_byte,
                    setup.model.bit
                ));
            }
        }
        // Exact-once accounting: the committed windows must be a prefix
        // of the current plan, trace for trace. (A budget extension
        // keeps the prefix intact only if the old budget was a whole
        // number of windows — otherwise the old final partial window
        // would silently change its capture stream, which this check
        // refuses.)
        if cp.windows as usize > windows.len() {
            return incompatible(format!(
                "checkpoint committed {} windows but this budget only has {}",
                cp.windows,
                windows.len()
            ));
        }
        let prefix: u64 = windows[..cp.windows as usize]
            .iter()
            .map(|w| w.traces)
            .sum();
        if prefix != cp.traces {
            return incompatible(format!(
                "checkpoint claims {} traces over {} windows; this plan's prefix \
                 holds {prefix} — window layouts differ",
                cp.traces, cp.windows
            ));
        }
        // The committed windows must also sit on this plan's commit
        // grid: the old run's final (budget-truncated) commit group is
        // only a valid resume point if no further windows follow it —
        // otherwise the extended run would emit a progress point a
        // from-scratch run of the same budget would not, breaking
        // bit-identical equivalence.
        if cp.windows % commit_every != 0 && (cp.windows as usize) < windows.len() {
            return incompatible(format!(
                "checkpoint's {} committed windows are not a multiple of the \
                 commit cadence ({commit_every}); extend the budget in whole \
                 commit groups",
                cp.windows
            ));
        }
        windows_done = cp.windows;
        traces_done = cp.traces;
        log_prefix = cp_prefix;
        merged = cp
            .slots
            .into_iter()
            .map(CpaAttack::resume)
            .collect::<std::io::Result<_>>()?;
        resumed_generation = Some(recovery.generation);
        recovered_generations = recovery.skipped.len() as u64;
        obs.incr("stream.resumes");
        obs.add("stream.recovered_generations", recovered_generations);
    }

    let mut log = ProgressLog::resume(ledger.dir(), &log_prefix)?;
    let mut progress_per = log_prefix.progress;

    // ---- pipelined main phase ------------------------------------------
    let total = windows.len() as u64;
    let mut committed = (windows_done, traces_done);
    let mut peak_raw = 0u64;
    let mut captured_this_run = 0u64;
    let mut early_stopped = exp
        .early_stop
        .is_some_and(|rule| rule.satisfied(&progress_per));
    let killed = |(windows_committed, traces_committed): (u64, u64)| -> Result<_, StreamingError> {
        Ok(Some(StreamOutcome::Killed {
            windows_committed,
            traces_committed,
        }))
    };
    let workers = slm_par::resolve_workers(exp.workers);
    let gate = WindowGate::new(windows_done, total, workers as u64 + commit_every);
    let failing = crash.failing_windows.clone();
    let (tx, rx) = mpsc::channel::<(u64, WindowOutcome)>();
    let stopped_by_kill = std::thread::scope(|scope| -> Result<_, StreamingError> {
        let _stop = StopOnDrop(&gate);
        if windows_done < total && !early_stopped {
            for _ in 0..workers.min((total - windows_done) as usize) {
                let (tx, gate, windows, setup, config) =
                    (tx.clone(), &gate, &windows, &setup, &config);
                let failing = &failing;
                scope.spawn(move || {
                    while let Some(i) = gate.claim() {
                        let out = catch_unwind(AssertUnwindSafe(|| {
                            if failing.contains(&i) {
                                return Err(FabricError::Transport(TransportError::NoResponse));
                            }
                            capture_window(setup, config, &windows[i as usize], grid, obs)
                        }));
                        if tx.send((i, out)).is_err() {
                            break;
                        }
                    }
                });
            }
        }
        drop(tx);

        // Fold strictly in window order through the reorder buffer —
        // the same prefix-merge discipline as the parallel runner, so
        // results and merged metrics are worker-count invariant.
        let mut pending: BTreeMap<u64, WindowOutcome> = BTreeMap::new();
        while windows_done < total && !early_stopped {
            let outcome = loop {
                if let Some(outcome) = pending.remove(&windows_done) {
                    break outcome;
                }
                let (i, outcome) = rx
                    .recv()
                    .expect("the window being waited for is claimed by a live worker");
                pending.insert(i, outcome);
            };
            let partial = outcome.unwrap_or_else(|payload| resume_unwind(payload))?;
            let group_index = windows_done / commit_every;
            let group_start = group_index * commit_every;
            let group_end = (group_start + commit_every).min(total);
            if windows_done + 1 == group_end
                && crash.should_kill(group_index, CrashSite::AfterCapture)
            {
                return killed(committed);
            }
            obs.absorb(&partial.frame);
            // The window's only checkpoint is its end, so the lane's
            // chunks, and with them its raw traces, are bounded by
            // ABSORB_BATCH alone.
            let traces = windows[windows_done as usize].traces;
            peak_raw = peak_raw.max(traces.min(ABSORB_BATCH));
            for (acc, part) in merged.iter_mut().zip(&partial.attacks) {
                acc.merge(part);
                obs.incr("cpa.merge_events");
                obs.add("cpa.traces_merged", part.traces());
            }
            traces_done += traces;
            captured_this_run += traces;
            windows_done += 1;
            gate.folded(windows_done);
            if windows_done < group_end {
                continue;
            }
            if crash.should_kill(group_index, CrashSite::AfterFold) {
                return killed(committed);
            }

            // Checkpoint: a progress point per slot (the serial
            // evaluation, which leaves the cores to the capture
            // workers), early-stop evaluation, the fsync'd log append,
            // then the sealed generation that commits it.
            let points: Vec<ProgressPoint> = merged
                .iter()
                .map(|acc| ProgressPoint {
                    traces: traces_done,
                    peak_corr: acc.peak_correlations().to_vec(),
                })
                .collect();
            obs.observe(
                "stream.checkpoint_margin",
                leader_margin(&points[0].peak_corr),
            );
            let record = log.encode(&points)?;
            for (curve, point) in progress_per.iter_mut().zip(points) {
                curve.push(point);
            }
            early_stopped = exp
                .early_stop
                .is_some_and(|rule| rule.satisfied(&progress_per));
            if crash.should_kill(group_index, CrashSite::TornLogAppend) {
                std::fs::OpenOptions::new()
                    .append(true)
                    .open(ledger.dir().join(PROGRESS_LOG_FILE))?
                    .write_all(&record.bytes[..record.bytes.len() / 2])?;
                return killed(committed);
            }
            log.append(&record)?;
            if crash.should_kill(group_index, CrashSite::AfterLogAppend) {
                return killed(committed);
            }
            let cp = StreamCheckpoint {
                fingerprint,
                windows: windows_done,
                traces: traces_done,
                log_records: log.records(),
                log_seal: log.seal(),
                slots: merged.iter().map(CpaAttack::checkpoint).collect(),
            };
            let mut bytes = Vec::new();
            write_stream_checkpoint(&mut bytes, &cp)?;
            if crash.should_kill(group_index, CrashSite::TornCommit) {
                ledger.commit(&bytes[..bytes.len() / 2])?;
                return killed(committed);
            }
            ledger.commit(&bytes)?;
            obs.add("stream.windows_committed", group_end - group_start);
            obs.incr("stream.commits");
            obs.add(
                "stream.bytes_journaled",
                (record.bytes.len() + bytes.len()) as u64,
            );
            committed = (windows_done, traces_done);
            if crash.should_kill(group_index, CrashSite::AfterCommit) {
                return killed(committed);
            }
        }
        Ok(None)
    })?;
    if let Some(outcome) = stopped_by_kill {
        return Ok(outcome);
    }

    if early_stopped {
        obs.incr("stream.early_stop");
    }
    obs.gauge("stream.peak_raw_traces", peak_raw as f64);
    if obs.enabled() {
        let secs = started.elapsed().as_secs_f64();
        if secs > 0.0 && captured_this_run > 0 {
            obs.gauge("stream.traces_per_sec", captured_this_run as f64 / secs);
        }
    }

    let result = assemble_result(&setup, &merged, progress_per, traces_done);
    Ok(StreamOutcome::Complete(StreamingResult {
        result,
        windows: windows_done,
        traces: traces_done,
        early_stopped,
        resumed_generation,
        recovered_generations,
        peak_raw_traces: peak_raw,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SensorSource;
    use slm_fabric::BenignCircuit;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("slm-streaming-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_exp(seed: u64) -> StreamingCpa {
        StreamingCpa::new(CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 300,
            checkpoints: 3,
            pilot_traces: 20,
            seed,
        })
        .with_window(60)
        .with_commit_every(2)
        .with_workers(1)
    }

    #[test]
    fn each_window_span_encloses_its_capture_and_absorb() {
        let dir = scratch_dir("window-span");
        let obs = Obs::manual();
        let r = run_streaming(&small_exp(21).with_workers(2), &dir, |_| {}, &obs).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let frame = obs.snapshot();
        let window = frame.spans["stream.window"];
        let (capture, absorb) = (frame.spans["cpa.capture"], frame.spans["cpa.absorb"]);
        assert_eq!(window.count, r.windows);
        // Each window's fork reads its logical clock once per span open
        // and close: the window span reads it first and last, around
        // two reads per nested span. A span that closed before the
        // capture would be one tick long.
        let nested = capture.count + absorb.count;
        assert!(nested >= 2 * r.windows, "{nested} nested spans");
        assert_eq!(window.total_ns, 2 * nested + r.windows);
        assert_eq!(capture.total_ns + absorb.total_ns, nested);
    }

    #[test]
    fn streaming_matches_itself_across_worker_counts() {
        let d1 = scratch_dir("wc1");
        let d3 = scratch_dir("wc3");
        let r1 = run_streaming(&small_exp(21), &d1, |_| {}, &Obs::null()).unwrap();
        let r3 = run_streaming(&small_exp(21).with_workers(3), &d3, |_| {}, &Obs::null()).unwrap();
        assert_eq!(r1.result, r3.result);
        assert_eq!(r1.windows, 5);
        assert_eq!(r1.traces, 300);
        assert!(!r1.early_stopped);
        assert_eq!(r1.resumed_generation, None);
        // 5 windows at commit-every-2 ⇒ commits after windows 2, 4, 5.
        assert_eq!(r1.result.progress.len(), 3);
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d3);
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let clean_dir = scratch_dir("clean");
        let clean = run_streaming(&small_exp(22), &clean_dir, |_| {}, &Obs::null()).unwrap();

        let dir = scratch_dir("killed");
        let exp = small_exp(22);
        let mut plan = CrashPlan::none()
            .kill_at(0, CrashSite::AfterCommit)
            .kill_at(1, CrashSite::AfterFold);
        let k1 = run_streaming_crashing(&exp, &dir, |_| {}, &Obs::null(), &mut plan).unwrap();
        assert_eq!(
            k1,
            StreamOutcome::Killed {
                windows_committed: 2,
                traces_committed: 120
            }
        );
        let k2 = run_streaming_crashing(&exp, &dir, |_| {}, &Obs::null(), &mut plan).unwrap();
        // Second kill fires after the fold of group 1, before its
        // commit — so only group 0's commit is durable.
        assert_eq!(
            k2,
            StreamOutcome::Killed {
                windows_committed: 2,
                traces_committed: 120
            }
        );
        let resumed = run_streaming(&exp, &dir, |_| {}, &Obs::null()).unwrap();
        assert_eq!(resumed.result, clean.result);
        assert_eq!(resumed.resumed_generation, Some(1));
        assert_eq!(resumed.recovered_generations, 0);
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_commit_degrades_to_previous_generation() {
        let clean_dir = scratch_dir("torn-clean");
        let clean = run_streaming(&small_exp(23), &clean_dir, |_| {}, &Obs::null()).unwrap();

        let dir = scratch_dir("torn");
        let exp = small_exp(23);
        let mut plan = CrashPlan::none().kill_at(1, CrashSite::TornCommit);
        let killed = run_streaming_crashing(&exp, &dir, |_| {}, &Obs::null(), &mut plan).unwrap();
        assert_eq!(
            killed,
            StreamOutcome::Killed {
                windows_committed: 2,
                traces_committed: 120
            }
        );
        let obs = Obs::memory();
        let resumed = run_streaming(&exp, &dir, |_| {}, &obs).unwrap();
        assert_eq!(resumed.result, clean.result);
        // Generation 2 is torn; resume fell back to generation 1.
        assert_eq!(resumed.resumed_generation, Some(1));
        assert_eq!(resumed.recovered_generations, 1);
        let frame = obs.snapshot();
        assert_eq!(frame.counter("stream.resumes"), 1);
        assert_eq!(frame.counter("stream.recovered_generations"), 1);
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_checkpoint_is_refused() {
        let dir = scratch_dir("foreign");
        let exp = small_exp(24);
        let mut plan = CrashPlan::none().kill_at(0, CrashSite::AfterCommit);
        run_streaming_crashing(&exp, &dir, |_| {}, &Obs::null(), &mut plan).unwrap();
        // Same directory, different seed ⇒ different fingerprint.
        let err = run_streaming(&small_exp(25), &dir, |_| {}, &Obs::null()).unwrap_err();
        match err {
            StreamingError::Incompatible(why) => {
                assert!(why.contains("fingerprint"), "unhelpful error: {why}")
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn early_stop_ends_campaign_under_budget() {
        let dir = scratch_dir("early");
        let exp = StreamingCpa::new(CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 4_000,
            checkpoints: 4,
            pilot_traces: 100,
            seed: 7,
        })
        .with_window(500)
        .with_commit_every(1)
        .with_workers(2)
        .with_early_stop(EarlyStop {
            min_traces: 1_000,
            stable_commits: 2,
            min_margin: 0.01,
        });
        let obs = Obs::memory();
        let r = run_streaming(&exp, &dir, |_| {}, &obs).unwrap();
        assert!(r.early_stopped);
        assert!(
            r.traces < 4_000,
            "TDC converges well before 4k; stopped at {}",
            r.traces
        );
        assert_eq!(r.result.recovered_key_byte, Some(r.result.correct_key_byte));
        assert_eq!(r.result.traces, r.traces);
        assert_eq!(obs.snapshot().counter("stream.early_stop"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_campaign_parameters() {
        let base = small_exp(30);
        assert_eq!(base.fingerprint(), small_exp(30).fingerprint());
        assert_ne!(base.fingerprint(), small_exp(31).fingerprint());
        assert_ne!(
            base.fingerprint(),
            small_exp(30).with_window(61).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            small_exp(30).with_commit_every(3).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            small_exp(30).with_config_tag(1).fingerprint()
        );
        // Budget, workers and early stop are deliberately excluded.
        let mut extended = small_exp(30);
        extended.base.traces = 600;
        assert_eq!(base.fingerprint(), extended.fingerprint());
        assert_eq!(
            base.fingerprint(),
            small_exp(30).with_workers(8).fingerprint()
        );
    }

    #[test]
    fn budget_extension_resumes_from_completed_run() {
        let dir = scratch_dir("extend");
        // 240 traces = 4 windows = 2 whole commit groups, so the
        // completed run sits on the extended plan's commit grid.
        let mut exp = small_exp(26);
        exp.base.traces = 240;
        let first = run_streaming(&exp, &dir, |_| {}, &Obs::null()).unwrap();
        assert_eq!(first.traces, 240);
        let mut extended = exp;
        extended.base.traces = 480;
        let obs = Obs::memory();
        let second = run_streaming(&extended, &dir, |_| {}, &obs).unwrap();
        assert_eq!(second.resumed_generation, Some(2));
        assert_eq!(second.traces, 480);
        assert_eq!(second.windows, 8);
        // Only the 4 new windows were captured in this process.
        assert_eq!(obs.snapshot().counter("cpa.traces_absorbed"), 240);
        // The extended run's result equals a from-scratch 480-trace run.
        let fresh_dir = scratch_dir("extend-fresh");
        let fresh = run_streaming(&extended, &fresh_dir, |_| {}, &Obs::null()).unwrap();
        assert_eq!(second.result, fresh.result);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fresh_dir);
    }

    #[test]
    fn off_grid_budget_extension_is_refused() {
        let dir = scratch_dir("offgrid");
        // 300 traces = 5 windows: the final commit group is truncated
        // (windows 4..5), so it is not a resume point for a larger
        // budget whose group 2 would span windows 4..6.
        let exp = small_exp(27);
        run_streaming(&exp, &dir, |_| {}, &Obs::null()).unwrap();
        let mut extended = exp;
        extended.base.traces = 480;
        match run_streaming(&extended, &dir, |_| {}, &Obs::null()).unwrap_err() {
            StreamingError::Incompatible(why) => {
                assert!(why.contains("commit"), "unhelpful error: {why}")
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
