//! Per-layer counters and spans, recorded from outside the engine.
//!
//! Every wrapped call opens a [`span`] of one [`Kind`]. Spans nest on a
//! per-thread stack, and a span's *self time* is its duration minus the
//! part its child spans cover. Coarse spans (setup phases, trials, store
//! and checkpoint I/O, slot materialisation) are always timed. Fine spans
//! (one scheduler draw, one count update, one protocol call) can take no
//! longer than a clock read, so they are timed on a sample:
//!
//! - inside a trial, each top-level `next_change` starts a *change-point
//!   window* that lasts until the next one; one window in
//!   `SAMPLE_PERIOD` is sampled, and inside a sampled window every span
//!   is timed. The part of a sampled window no span covers is the
//!   engine's own work, so the engine's self time is measured, not
//!   inferred from the others. The sampled windows give each kind's
//!   *share*; the unsampled windows, which carry no clock reads, give the
//!   *total* the shares are scaled to when the trial ends (a ratio
//!   estimate). What the sampled windows took beyond that total is the
//!   cost of sampling, kept apart;
//! - elsewhere a fine span directly under a coarse span (or under
//!   nothing) is timed with probability `1 / SAMPLE_PERIOD` and then
//!   weighs `SAMPLE_PERIOD`;
//! - a span under a fine span inherits its parent's decision and weight,
//!   so a sampled `next_change` times the `sample_change` nested in it
//!   exactly and its self time excludes it.
//!
//! Outside windows, totals are Horvitz–Thompson estimates: each timed
//! span adds `weight · self` to its kind, and `weight · cost` to what its
//! parent saw covered. The clock reads a timed span pays for are
//! calibrated once and taken out. Call counts are exact. Counters live in
//! per-thread atomics written only by their own thread, so the sweep's
//! worker threads never contend.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One change-point window, or one fine span outside windows, in this
/// many is timed.
pub const SAMPLE_PERIOD: u32 = 32;

/// A span or counter kind: one per layer boundary the benchmark wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `CountScheduler::next_change` (fine).
    NextChange,
    /// `PairSampling::sample_change` (fine; nested in `NextChange`).
    SampleChange,
    /// `Activity::count_changed` (fine).
    CountChanged,
    /// `Activity::settle` (fine).
    Settle,
    /// `Activity::add_slot` and `add_slot_symmetric` (coarse).
    AddSlot,
    /// `Activity::add_slot_from_lists` (coarse).
    AddSlotFromLists,
    /// `Protocol::transition` and `is_null_interaction` (fine).
    Transition,
    /// `quotient_table` (coarse).
    Discovery,
    /// `transition_store::save_quotient` (coarse).
    StoreSave,
    /// `transition_store::load` (coarse).
    StoreLoad,
    /// `CountEngine::checkpoint` plus `run_checkpoint::save` (coarse).
    CheckpointSave,
    /// `run_checkpoint::load` (coarse).
    CheckpointLoad,
    /// `CountEngine::resume_with_snapshot` (coarse).
    Resume,
    /// `CountEngine::export_to` (coarse).
    Export,
    /// One trial, from engine construction to its last check (coarse;
    /// its self time is the engine's own work).
    Trial,
    /// The set-up phase of a workload (coarse).
    Setup,
    /// The timed phase of a workload (coarse).
    Run,
    /// The recovery phase of a workload (coarse).
    Recover,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = Kind::Recover as usize + 1;

impl Kind {
    /// Every kind, in declaration order.
    pub const ALL: [Kind; KINDS] = [
        Kind::NextChange,
        Kind::SampleChange,
        Kind::CountChanged,
        Kind::Settle,
        Kind::AddSlot,
        Kind::AddSlotFromLists,
        Kind::Transition,
        Kind::Discovery,
        Kind::StoreSave,
        Kind::StoreLoad,
        Kind::CheckpointSave,
        Kind::CheckpointLoad,
        Kind::Resume,
        Kind::Export,
        Kind::Trial,
        Kind::Setup,
        Kind::Run,
        Kind::Recover,
    ];

    /// Whether calls of this kind are short enough to need sampling.
    pub fn is_fine(self) -> bool {
        matches!(
            self,
            Kind::NextChange
                | Kind::SampleChange
                | Kind::CountChanged
                | Kind::Settle
                | Kind::Transition
        )
    }

    /// The span name used in trace files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::NextChange => "scheduler.next_change",
            Kind::SampleChange => "activity.sample_change",
            Kind::CountChanged => "activity.count_changed",
            Kind::Settle => "activity.settle",
            Kind::AddSlot => "activity.add_slot",
            Kind::AddSlotFromLists => "activity.add_slot_from_lists",
            Kind::Transition => "protocol.transition",
            Kind::Discovery => "discovery.build",
            Kind::StoreSave => "store.save",
            Kind::StoreLoad => "store.load",
            Kind::CheckpointSave => "checkpoint.save",
            Kind::CheckpointLoad => "checkpoint.load",
            Kind::Resume => "checkpoint.resume",
            Kind::Export => "table.export",
            Kind::Trial => "trial",
            Kind::Setup => "phase.setup",
            Kind::Run => "phase.run",
            Kind::Recover => "phase.recover",
        }
    }

    /// Whether this kind marks a workload phase. Phase spans frame the
    /// others; their self time is harness overhead and, on the sweep,
    /// they run on another thread than the trials they frame.
    pub fn is_phase(self) -> bool {
        matches!(self, Kind::Setup | Kind::Run | Kind::Recover)
    }
}

/// Plain event counters (no span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// 64-bit words drawn from the trial RNG.
    RngWords,
    /// Null interactions the scheduler skipped over.
    SkippedSteps,
}

const COUNTS: usize = Count::SkippedSteps as usize + 1;

/// One coarse span as it happened, for the trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the process.
    pub id: u64,
    /// The enclosing coarse span on the same thread, if any.
    pub parent: Option<u64>,
    /// What the span covers.
    pub kind: Kind,
    /// Registration index of the recording thread.
    pub thread: usize,
    /// Start, in seconds since the first span of the process.
    pub start_s: f64,
    /// End, in seconds since the first span of the process.
    pub end_s: f64,
}

/// One thread's accumulators. Only the owning thread writes them, with a
/// load-then-store, so reads from the reporting thread after a join see
/// exact values.
#[derive(Default)]
struct ThreadStats {
    calls: [AtomicU64; KINDS],
    /// Estimated self nanoseconds, as `f64` bits.
    self_ns: [AtomicU64; KINDS],
    counts: [AtomicU64; COUNTS],
    /// Time the sampled windows took beyond what they stand for, ns, as
    /// `f64` bits.
    sampling_ns: AtomicU64,
    /// Coarse spans, kept in memory until [`spans`] collects them.
    log: Mutex<Vec<SpanRecord>>,
}

fn bump(cell: &AtomicU64, by: u64) {
    cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

fn bump_f64(cell: &AtomicU64, by: f64) {
    let v = f64::from_bits(cell.load(Ordering::Relaxed)) + by;
    cell.store(v.to_bits(), Ordering::Relaxed);
}

/// An open span on the thread's stack.
struct Frame {
    kind: Kind,
    /// Span-log id of a coarse span.
    id: Option<u64>,
    /// `Some` when this instance is timed.
    start: Option<Instant>,
    /// How many calls this instance stands for (1 when untimed or when
    /// its weight is settled with its window's).
    weight: f64,
    /// Whether it was timed as part of a sampled change-point window, so
    /// its self time is scaled when its trial ends.
    in_window: bool,
    /// Cost of timed children as this instance saw it, in its own units
    /// (already divided by `weight`).
    covered_ns: f64,
    /// For a trial: when its first change-point window opened. Until then
    /// `covered_ns` collects its head (engine construction); afterwards
    /// its children report to the windows.
    head_end: Option<Instant>,
}

/// The change-point windows of the running trial. A window lasts from
/// one top-level `next_change` to the next; one in `SAMPLE_PERIOD` is
/// sampled, and inside a sampled window every span is timed.
#[derive(Default)]
struct Windows {
    /// Start of the running window and the cost its children covered so
    /// far, when it is sampled.
    open: Option<(Instant, f64)>,
    /// Windows so far, and how many of them were sampled.
    count: u64,
    sampled: u64,
    /// Total duration of the sampled windows.
    sampled_ns: f64,
    /// Cost of the coarse spans (always timed) inside sampled and inside
    /// unsampled windows.
    sampled_coarse_ns: f64,
    unsampled_coarse_ns: f64,
    /// Self time found in the sampled windows per kind, the engine's
    /// under [`Kind::Trial`]: the shares, scaled when the trial ends.
    found_ns: [f64; KINDS],
}

/// Clock costs of a timed span, subtracted so that layer self times hold
/// only the layer's work.
#[derive(Debug, Clone, Copy, Default)]
struct Calibration {
    /// What an empty timed span measures between its two clock reads.
    inner_ns: f64,
    /// What an empty timed span costs the code around it.
    outer_ns: f64,
    /// What an empty untimed span costs the code around it.
    untimed_ns: f64,
}

struct Local {
    stats: Arc<ThreadStats>,
    thread: usize,
    stack: Vec<Frame>,
    windows: Windows,
    calibration: Calibration,
    /// xorshift64 state for sampling decisions; never touches the engine's
    /// RNG.
    sampler: u64,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadStats>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadStats>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(0);

/// Measures the clock costs once per process, on a scratch recorder whose
/// counters are thrown away.
fn calibration() -> Calibration {
    static CALIBRATION: OnceLock<Calibration> = OnceLock::new();
    *CALIBRATION.get_or_init(|| {
        let mut scratch = Local::new(Arc::new(ThreadStats::default()), usize::MAX);
        scratch.push(Kind::Trial, true, 1.0);
        let reps = 2000;
        let inner: Vec<f64> = (0..reps)
            .map(|_| {
                scratch.push(Kind::Settle, true, 1.0);
                scratch.close()
            })
            .collect();
        let mut per_span = |timed: bool| {
            let batches: Vec<f64> = (0..25)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..reps {
                        scratch.push(Kind::Settle, timed, 1.0);
                        scratch.close();
                    }
                    t.elapsed().as_nanos() as f64 / f64::from(reps)
                })
                .collect();
            median(&batches)
        };
        let outer = per_span(true);
        let untimed = per_span(false);
        Calibration {
            inner_ns: median(&inner),
            outer_ns: outer,
            untimed_ns: untimed,
        }
    })
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new({
        let stats = Arc::new(ThreadStats::default());
        let mut threads = registry()
            .lock()
            .expect("trace registry poisoned by a panicking thread");
        threads.push(Arc::clone(&stats));
        let mut local = Local::new(stats, threads.len() - 1);
        local.calibration = calibration();
        local
    });
}

impl Local {
    fn new(stats: Arc<ThreadStats>, thread: usize) -> Local {
        Local {
            stats,
            thread,
            stack: Vec::new(),
            windows: Windows::default(),
            calibration: Calibration::default(),
            sampler: 0x9E37_79B9_7F4A_7C15 ^ (thread as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        }
    }

    fn sample(&mut self) -> bool {
        let mut x = self.sampler;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.sampler = x;
        x.is_multiple_of(u64::from(SAMPLE_PERIOD))
    }

    /// Closes the running window, if sampled, crediting the engine with
    /// the part of it no child covered.
    fn end_window(&mut self, now: Instant) {
        if let Some((start, covered)) = self.windows.open.take() {
            let dur = (now - start).as_nanos() as f64;
            self.windows.sampled_ns += dur;
            self.windows.found_ns[Kind::Trial as usize] += dur - covered;
        }
    }

    /// Ends the trial's windows at `end`: the shares found in the sampled
    /// windows are scaled to the fine-grained time of all windows, taken
    /// from the unsampled ones, which carry no clock reads. What the
    /// sampled windows took beyond that is the cost of sampling them.
    fn settle_windows(&mut self, head_end: Instant, end: Instant) {
        self.end_window(end);
        let w = std::mem::take(&mut self.windows);
        let all_ns = (end - head_end).as_nanos() as f64;
        let sampled_fine_ns = w.sampled_ns - w.sampled_coarse_ns;
        let unsampled_fine_ns = all_ns - w.sampled_ns - w.unsampled_coarse_ns;
        let unsampled = w.count - w.sampled;
        let found: f64 = w.found_ns.iter().sum();
        if w.sampled == 0 || found <= 0.0 {
            // Nothing sampled: the engine is all that can be named.
            bump_f64(
                &self.stats.self_ns[Kind::Trial as usize],
                unsampled_fine_ns + sampled_fine_ns,
            );
            return;
        }
        let target = if unsampled == 0 {
            found
        } else {
            unsampled_fine_ns / unsampled as f64 * w.count as f64
        };
        for (k, ns) in w.found_ns.iter().enumerate() {
            bump_f64(&self.stats.self_ns[k], ns * target / found);
        }
        bump_f64(
            &self.stats.sampling_ns,
            sampled_fine_ns + unsampled_fine_ns - target,
        );
    }

    /// Opens a span of `kind`; returns whether a frame was pushed (and
    /// must be closed). Untimed fine spans inside a trial's windows push
    /// nothing: their children decide from the window alone, which keeps
    /// the untimed path to a counter bump.
    fn open(&mut self, kind: Kind) -> bool {
        bump(&self.stats.calls[kind as usize], 1);
        let parent = self.stack.last().map(|f| {
            (
                f.kind,
                f.start.is_some(),
                f.weight,
                f.in_window,
                f.head_end.is_some(),
            )
        });
        let in_windows = match parent {
            Some((Kind::Trial, _, _, _, windowed)) => windowed || kind == Kind::NextChange,
            _ => false,
        };
        let (timed, weight, in_window) = match parent {
            _ if !kind.is_fine() => (true, 1.0, false),
            Some((pk, p_timed, p_weight, p_in, _)) if pk.is_fine() => (p_timed, p_weight, p_in),
            Some((Kind::Trial, ..)) if kind == Kind::NextChange => {
                // A change-point boundary: the running window ends and the
                // next one is sampled.
                let now = Instant::now();
                if let Some(trial) = self.stack.last_mut() {
                    trial.head_end.get_or_insert(now);
                }
                self.end_window(now);
                self.windows.count += 1;
                let sampled = self.sample();
                if sampled {
                    self.windows.sampled += 1;
                    self.windows.open = Some((now, 0.0));
                }
                (sampled, 1.0, true)
            }
            _ if in_windows => (self.windows.open.is_some(), 1.0, true),
            _ => (self.sample(), f64::from(SAMPLE_PERIOD), false),
        };
        if !timed && in_windows {
            return false;
        }
        self.push(kind, timed, weight);
        if let Some(frame) = self.stack.last_mut() {
            frame.in_window = in_window;
        }
        true
    }

    fn push(&mut self, kind: Kind, timed: bool, weight: f64) {
        let id = (!kind.is_fine()).then(|| NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed));
        self.stack.push(Frame {
            kind,
            id,
            start: timed.then(Instant::now),
            weight: if timed { weight } else { 1.0 },
            in_window: false,
            covered_ns: 0.0,
            head_end: None,
        });
    }

    /// Pops the innermost span and returns the nanoseconds it measured
    /// (zero when untimed).
    fn close(&mut self) -> f64 {
        let frame = self.stack.pop().expect("span closed twice");
        let Some(start) = frame.start else {
            return 0.0;
        };
        let end = Instant::now();
        let raw = (end - start).as_nanos() as f64;
        let cal = self.calibration;
        let work = (raw - cal.inner_ns).max(0.0);
        let self_ns = match frame.head_end {
            Some(head_end) => {
                self.settle_windows(head_end, end);
                (head_end - start).as_nanos() as f64 - frame.covered_ns
            }
            None => work - frame.covered_ns,
        };
        if let Some(id) = frame.id {
            let parent = self.stack.iter().rev().find_map(|f| f.id);
            let at = |t: Instant| t.saturating_duration_since(epoch()).as_secs_f64();
            self.stats
                .log
                .lock()
                .expect("span log poisoned")
                .push(SpanRecord {
                    id,
                    parent,
                    kind: frame.kind,
                    thread: self.thread,
                    start_s: at(start),
                    end_s: at(end),
                });
        }
        if frame.in_window {
            self.windows.found_ns[frame.kind as usize] += self_ns;
        } else {
            bump_f64(
                &self.stats.self_ns[frame.kind as usize],
                self_ns * frame.weight,
            );
        }
        // What the enclosing code paid for this span and, when it was
        // sampled alone, for the untimed calls it stands for.
        let seen = work + cal.outer_ns;
        match self.stack.last_mut() {
            Some(parent) if parent.kind == Kind::Trial && parent.head_end.is_some() => {
                match &mut self.windows.open {
                    Some((_, covered)) => {
                        *covered += seen;
                        if !frame.kind.is_fine() {
                            self.windows.sampled_coarse_ns += seen;
                        }
                    }
                    None => self.windows.unsampled_coarse_ns += seen,
                }
            }
            Some(parent) if parent.start.is_some() && parent.kind.is_fine() => {
                // Timed with its parent: one instance inside one instance.
                parent.covered_ns += seen;
            }
            Some(parent) if parent.start.is_some() => {
                let stood_for = (frame.weight - 1.0) * (work + cal.untimed_ns);
                parent.covered_ns += seen + stood_for;
            }
            _ => {}
        }
        raw
    }
}

/// The calibrated clock costs, in nanoseconds: what an empty timed span
/// measures, what it costs around it, and what an empty untimed span
/// costs around it.
pub fn clock_costs() -> (f64, f64, f64) {
    let c = calibration();
    (c.inner_ns, c.outer_ns, c.untimed_ns)
}

/// Runs `f` inside a span of `kind` on this thread. Phase and discovery
/// spans also record the [`Totals`] accrued while they ran (see
/// [`sections`]); open those only while no other thread is recording.
#[inline]
pub fn span<T>(kind: Kind, f: impl FnOnce() -> T) -> T {
    epoch();
    let sectioned = kind.is_phase() || kind == Kind::Discovery;
    let before = sectioned.then(Totals::now);
    let pushed = LOCAL.with(|l| l.borrow_mut().open(kind));
    let out = f();
    if pushed {
        LOCAL.with(|l| l.borrow_mut().close());
    }
    if let Some(before) = before {
        let delta = Totals::now().since(&before);
        sections_log()
            .lock()
            .expect("section log poisoned")
            .push((kind, delta));
    }
    out
}

fn sections_log() -> &'static Mutex<Vec<(Kind, Totals)>> {
    static SECTIONS: OnceLock<Mutex<Vec<(Kind, Totals)>>> = OnceLock::new();
    SECTIONS.get_or_init(|| Mutex::new(Vec::new()))
}

/// The totals accrued inside each phase and discovery span so far, in the
/// order the spans ended.
pub fn sections() -> Vec<(Kind, Totals)> {
    sections_log().lock().expect("section log poisoned").clone()
}

/// Adds `by` to counter `count` on this thread.
#[inline]
pub fn count(count: Count, by: u64) {
    LOCAL.with(|l| bump(&l.borrow().stats.counts[count as usize], by));
}

/// Totals over every thread that ever recorded, at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Totals {
    /// Calls per [`Kind`].
    pub calls: [u64; KINDS],
    /// Estimated self seconds per [`Kind`].
    pub self_s: [f64; KINDS],
    /// Event counters per [`Count`].
    pub counts: [u64; COUNTS],
    /// Seconds the sampled change-point windows took beyond the time
    /// they stand for: the clock reads of sampling.
    pub sampling_s: f64,
}

impl Totals {
    /// Reads the current totals. Call it only while no other thread is
    /// recording (between phases), so the figures are exact.
    pub fn now() -> Totals {
        let mut t = Totals::default();
        for stats in registry().lock().expect("trace registry poisoned").iter() {
            for k in 0..KINDS {
                t.calls[k] += stats.calls[k].load(Ordering::Relaxed);
                t.self_s[k] += f64::from_bits(stats.self_ns[k].load(Ordering::Relaxed)) * 1e-9;
            }
            for c in 0..COUNTS {
                t.counts[c] += stats.counts[c].load(Ordering::Relaxed);
            }
            t.sampling_s += f64::from_bits(stats.sampling_ns.load(Ordering::Relaxed)) * 1e-9;
        }
        t
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut d = Totals::default();
        for k in 0..KINDS {
            d.calls[k] = self.calls[k] - earlier.calls[k];
            d.self_s[k] = self.self_s[k] - earlier.self_s[k];
        }
        for c in 0..COUNTS {
            d.counts[c] = self.counts[c] - earlier.counts[c];
        }
        d.sampling_s = self.sampling_s - earlier.sampling_s;
        d
    }

    /// Calls of `kind`.
    pub fn calls(&self, kind: Kind) -> u64 {
        self.calls[kind as usize]
    }

    /// Estimated self seconds of `kind`.
    pub fn self_s(&self, kind: Kind) -> f64 {
        self.self_s[kind as usize]
    }

    /// Counter `count`.
    pub fn count(&self, count: Count) -> u64 {
        self.counts[count as usize]
    }

    /// Sum of the self times of every non-phase kind: the busy time of
    /// all recorded layer and trial spans.
    pub fn busy_s(&self) -> f64 {
        Kind::ALL
            .iter()
            .filter(|k| !k.is_phase())
            .map(|&k| self.self_s(k))
            .sum()
    }
}

/// Every coarse span recorded so far, ordered by start time.
pub fn spans() -> Vec<SpanRecord> {
    let mut all: Vec<SpanRecord> = registry()
        .lock()
        .expect("trace registry poisoned")
        .iter()
        .flat_map(|t| t.log.lock().expect("span log poisoned").clone())
        .collect();
    all.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.id.cmp(&b.id)));
    all
}

/// The `q`-quantile of `values` (`0 ≤ q ≤ 1`) by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    // The tests below each run on a fresh thread, so their counters start
    // at zero and no other test's spans land in them.
    fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        // Timing tests run one at a time so they do not slow each other
        // down on a small machine.
        static SERIAL: Mutex<()> = Mutex::new(());
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        std::thread::scope(|s| s.spawn(f).join().expect("test thread panicked"))
    }

    /// Runs a sampled scenario three times and returns, per kind, the
    /// median estimate: one preemption inside a sampled span weighs
    /// `SAMPLE_PERIOD` times its length, and the median sets it aside.
    fn median_of_three(scenario: impl Fn() -> Totals + Sync) -> Totals {
        let runs: Vec<Totals> = (0..3).map(|_| on_fresh_thread(&scenario)).collect();
        let mut t = runs[0];
        for k in 0..KINDS {
            t.self_s[k] = median(&runs.iter().map(|r| r.self_s[k]).collect::<Vec<_>>());
        }
        t
    }

    fn local_totals() -> Totals {
        LOCAL.with(|l| {
            let l = l.borrow();
            let mut t = Totals::default();
            for k in 0..KINDS {
                t.calls[k] = l.stats.calls[k].load(Ordering::Relaxed);
                t.self_s[k] = f64::from_bits(l.stats.self_ns[k].load(Ordering::Relaxed)) * 1e-9;
            }
            for c in 0..COUNTS {
                t.counts[c] = l.stats.counts[c].load(Ordering::Relaxed);
            }
            t.sampling_s = f64::from_bits(l.stats.sampling_ns.load(Ordering::Relaxed)) * 1e-9;
            t
        })
    }

    #[test]
    fn coarse_self_time_excludes_children() {
        let t = on_fresh_thread(|| {
            span(Kind::Trial, || {
                busy(Duration::from_millis(20));
                span(Kind::Export, || busy(Duration::from_millis(30)));
            });
            local_totals()
        });
        assert_eq!(t.calls(Kind::Trial), 1);
        assert_eq!(t.calls(Kind::Export), 1);
        let (engine, export) = (t.self_s(Kind::Trial), t.self_s(Kind::Export));
        assert!((0.019..0.027).contains(&engine), "engine self {engine}");
        assert!((0.029..0.037).contains(&export), "export self {export}");
    }

    #[test]
    fn sample_change_nested_in_next_change_is_subtracted_exactly() {
        // A trial of change-points: a 2 µs draw with a 2 µs nested
        // sample_change, then 1 µs of engine work and a 1 µs count update.
        // One window in SAMPLE_PERIOD is timed; the estimates must recover
        // each part and, with the cost of sampling, add back up to the
        // trial's wall clock.
        let changes = 6_000;
        let t = median_of_three(|| {
            let start = Instant::now();
            span(Kind::Trial, || {
                for _ in 0..changes {
                    span(Kind::NextChange, || {
                        busy(Duration::from_micros(2));
                        span(Kind::SampleChange, || busy(Duration::from_micros(2)));
                    });
                    busy(Duration::from_micros(1));
                    span(Kind::CountChanged, || busy(Duration::from_micros(1)));
                }
            });
            let wall = start.elapsed().as_secs_f64();
            let t = local_totals();
            let sum = t.busy_s() + t.sampling_s;
            assert!(
                (sum - wall).abs() < 0.02 * wall,
                "self times and sampling sum {sum}, wall {wall}"
            );
            t
        });
        assert_eq!(t.calls(Kind::NextChange), changes);
        assert_eq!(t.calls(Kind::SampleChange), changes);
        for (kind, each) in [
            (Kind::NextChange, 2e-6),
            (Kind::SampleChange, 2e-6),
            (Kind::CountChanged, 1e-6),
            (Kind::Trial, 1e-6),
        ] {
            let expect = changes as f64 * each;
            let got = t.self_s(kind);
            assert!(
                (0.6 * expect..1.6 * expect).contains(&got),
                "{} self {got}, expected about {expect}",
                kind.name()
            );
        }
    }

    #[test]
    fn fine_span_without_parent_weighs_the_sample_period() {
        let t = median_of_three(|| {
            for _ in 0..(SAMPLE_PERIOD * 200) {
                span(Kind::Transition, || busy(Duration::from_micros(1)));
            }
            local_totals()
        });
        let expect = f64::from(SAMPLE_PERIOD * 200) * 1e-6;
        let got = t.self_s(Kind::Transition);
        assert!(
            (0.6 * expect..1.6 * expect).contains(&got),
            "transition self {got}, expected about {expect}"
        );
    }

    #[test]
    fn trial_head_before_the_first_change_is_engine_time() {
        let t = on_fresh_thread(|| {
            span(Kind::Trial, || {
                busy(Duration::from_millis(10));
                span(Kind::AddSlot, || busy(Duration::from_millis(5)));
            });
            local_totals()
        });
        let engine = t.self_s(Kind::Trial);
        assert!((0.009..0.014).contains(&engine), "engine self {engine}");
        let add = t.self_s(Kind::AddSlot);
        assert!((0.0045..0.008).contains(&add), "add_slot self {add}");
    }

    #[test]
    fn counters_and_differences_are_exact() {
        let t = on_fresh_thread(|| {
            count(Count::RngWords, 3);
            let before = local_totals();
            count(Count::RngWords, 4);
            count(Count::SkippedSteps, 9);
            span(Kind::Settle, || ());
            local_totals().since(&before)
        });
        assert_eq!(t.count(Count::RngWords), 4);
        assert_eq!(t.count(Count::SkippedSteps), 9);
        assert_eq!(t.calls(Kind::Settle), 1);
    }

    #[test]
    fn worker_threads_fold_into_the_totals() {
        let before = Totals::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..5 {
                        span(Kind::Export, || ());
                    }
                });
            }
        });
        // Other tests may record concurrently, so only a lower bound holds.
        let d = Totals::now().since(&before);
        assert!(d.calls(Kind::Export) >= 10);
    }
}
