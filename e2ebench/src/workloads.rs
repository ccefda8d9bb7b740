//! The three Circles workloads, written once over a [`Stack`] of engine
//! types: [`Plain`] is the unmodified engine, [`Tracing`] the same engine
//! with every generic seam wrapped in [`Traced`].

use std::fmt::Debug;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use circles_core::{CirclesProtocol, CirclesState, Color};
use pp_analysis::runner::{run_seeded, trial_rng};
use pp_analysis::trial::{Backend, TrialResult, TrialRunner};
use pp_analysis::workloads::margin_counts;
use pp_protocol::{
    quotient_table, run_checkpoint, transition_store, Activity, CompactActivity, CountConfig,
    CountEngine, CountScheduler, EnumerableProtocol, Protocol, ResumableRng, RunReport,
    SparseActivity, TableSnapshot, TransitionTable, UniformCountScheduler,
};
use rand::rngs::Philox4x32;

use crate::trace::{self, Kind};
use crate::wrap::Traced;

/// The engine types one run is built from.
pub trait Stack {
    /// The Circles protocol, plain or wrapped.
    type P: EnumerableProtocol<State = CirclesState, Input = Color, Output = Color> + Sync;
    /// The count scheduler.
    type CS: CountScheduler<CirclesState>;
    /// The activity index of single-run workloads.
    type Sparse: Activity;
    /// The activity index the trial runner picks for warm sweeps.
    type Compact: Activity;
    /// The trial RNG.
    type R: ResumableRng;

    /// The protocol for `k` colors.
    fn protocol(k: u16) -> Self::P;
    /// A fresh scheduler.
    fn scheduler() -> Self::CS;
    /// The RNG stream `(sweep_seed, trial)`.
    fn rng(sweep_seed: u64, trial: u64) -> Self::R;
    /// Runs `f` as a span of `kind` (plainly, without tracing).
    fn span<T>(kind: Kind, f: impl FnOnce() -> T) -> T;
    /// Runs every seed of a warm sweep from `table` on `threads` threads,
    /// noting each trial's engine in `facts` where the stack can see it.
    #[allow(clippy::too_many_arguments)]
    fn sweep(
        protocol: &Self::P,
        inputs: &[Color],
        winner: Color,
        sweep_seed: u64,
        seeds: &[u64],
        threads: usize,
        table: &TransitionTable<Self::P>,
        facts: &Mutex<Facts>,
    ) -> Vec<TrialResult>;
}

/// The unmodified engine, swept through [`TrialRunner::run_with_table`].
pub struct Plain;

impl Stack for Plain {
    type P = CirclesProtocol;
    type CS = UniformCountScheduler;
    type Sparse = SparseActivity;
    type Compact = CompactActivity;
    type R = Philox4x32;

    fn protocol(k: u16) -> CirclesProtocol {
        CirclesProtocol::new(k).expect("k is positive")
    }

    fn scheduler() -> UniformCountScheduler {
        UniformCountScheduler::new()
    }

    fn rng(sweep_seed: u64, trial: u64) -> Philox4x32 {
        trial_rng(sweep_seed, trial)
    }

    fn span<T>(_kind: Kind, f: impl FnOnce() -> T) -> T {
        f()
    }

    fn sweep(
        protocol: &CirclesProtocol,
        inputs: &[Color],
        winner: Color,
        sweep_seed: u64,
        seeds: &[u64],
        threads: usize,
        table: &TransitionTable<CirclesProtocol>,
        _facts: &Mutex<Facts>,
    ) -> Vec<TrialResult> {
        TrialRunner::new(Backend::Count)
            .threads(threads)
            .seed_list(seeds.to_vec())
            .sweep_seed(sweep_seed)
            .run_with_table(protocol, inputs, winner, table)
    }
}

/// The engine with every seam wrapped; its sweep drives the same trials
/// as [`TrialRunner::run_with_table`] through [`run_seeded`], because the
/// runner fixes the scheduler, activity and RNG types.
pub struct Tracing;

impl Stack for Tracing {
    type P = Traced<CirclesProtocol>;
    type CS = Traced<UniformCountScheduler>;
    type Sparse = Traced<SparseActivity>;
    type Compact = Traced<CompactActivity>;
    type R = Traced<Philox4x32>;

    fn protocol(k: u16) -> Self::P {
        Traced(Plain::protocol(k))
    }

    fn scheduler() -> Self::CS {
        Traced(UniformCountScheduler::new())
    }

    fn rng(sweep_seed: u64, trial: u64) -> Self::R {
        Traced(trial_rng(sweep_seed, trial))
    }

    fn span<T>(kind: Kind, f: impl FnOnce() -> T) -> T {
        trace::span(kind, f)
    }

    fn sweep(
        protocol: &Self::P,
        inputs: &[Color],
        winner: Color,
        sweep_seed: u64,
        seeds: &[u64],
        threads: usize,
        table: &TransitionTable<Self::P>,
        facts: &Mutex<Facts>,
    ) -> Vec<TrialResult> {
        assert!(
            !table.is_empty(),
            "the traced sweep mirrors the runner's warm-table path only"
        );
        let snap = table.snapshot();
        run_seeded(seeds, threads, |seed| {
            trace::span(Kind::Trial, || {
                let config: CountConfig<CirclesState> =
                    inputs.iter().map(|c| protocol.input(c)).collect();
                let mut engine = CountEngine::<_, _, Self::Compact, _>::with_snapshot_rng(
                    protocol,
                    config,
                    Self::scheduler(),
                    Self::rng(sweep_seed, seed),
                    Arc::clone(&snap),
                );
                let report = engine.run_until_silent(u64::MAX / 2).expect("sweep trial");
                trace::span(Kind::Export, || engine.export_to(table));
                facts
                    .lock()
                    .expect("facts poisoned by a panicking trial")
                    .note_engine(&engine);
                trial_result(&report, winner)
            })
        })
    }
}

/// The runner's measurement record of a silent run.
fn trial_result(report: &RunReport<Color>, winner: Color) -> TrialResult {
    TrialResult {
        steps_to_silence: report.steps_to_silence,
        steps_to_consensus: report.steps_to_consensus,
        state_changes: report.state_changes,
        stabilized: true,
        correct: report.consensus == Some(winner),
    }
}

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `k = 3`, `n = 10^7`, cold sparse engine, two trials per pass.
    K3LargeN,
    /// `k = 30`, `n = 2·10^4`, warm from a saved and reloaded table.
    K30Cliff,
    /// `k = 30`, `n = 3000`, 32 warm trials on two threads.
    K30Sweep,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [Workload::K3LargeN, Workload::K30Cliff, Workload::K30Sweep];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::K3LargeN => "k3-large-n",
            Workload::K30Cliff => "k30-cliff",
            Workload::K30Sweep => "k30-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload on stack `S`.
    pub fn run<S: Stack>(self, cfg: &Config) -> Outcome {
        match self {
            Workload::K3LargeN => single_run::<S>(cfg, &K3_LARGE_N),
            Workload::K30Cliff => single_run::<S>(cfg, &K30_CLIFF),
            Workload::K30Sweep => sweep::<S>(cfg),
        }
    }
}

/// Seconds of `--seconds` that buy one round of passes.
const ROUND_S: f64 = 10.0;

/// How long and where one invocation runs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: picks the winning color and keys every trial stream.
    pub seed: u64,
    /// Length of the timed phase: it buys `round(seconds / ROUND_S)`
    /// rounds of passes, at least one, so the work done never depends on
    /// the speed of the machine. Zero runs exactly one pass, one set-up
    /// and one recovery.
    pub seconds: f64,
    /// Scratch directory for stores and checkpoints.
    pub dir: PathBuf,
}

impl Config {
    fn single(&self) -> bool {
        self.seconds <= 0.0
    }

    /// Passes to run, at `per_round` a round.
    fn passes(&self, per_round: u64) -> u64 {
        if self.single() {
            return 1;
        }
        (self.seconds / ROUND_S).round().max(1.0) as u64 * per_round
    }
}

/// What one workload invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of each timed pass.
    pub run_s: Vec<f64>,
    /// State changes of each timed pass.
    pub changes: Vec<u64>,
    /// Seconds of each recovery repetition (checkpoint load plus resume).
    pub recover_s: Vec<f64>,
    /// Debug renderings of every report and result, in order: the bytes a
    /// traced run must reproduce.
    pub results: Vec<String>,
    /// Checks attempted.
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
    /// Engine facts for the trace.
    pub facts: Facts,
}

/// Engine-level facts the trace reports next to its spans.
#[derive(Debug, Default, Clone)]
pub struct Facts {
    /// Slots materialised, summed over trials.
    pub slots: u64,
    /// Active pairs indexed, summed over trials.
    pub active_pairs: u64,
    /// Largest adjacency footprint of one trial's index.
    pub adjacency_bytes: u64,
    /// Bytes of the saved transition store.
    pub store_bytes: u64,
    /// Bytes of the last checkpoint file.
    pub checkpoint_bytes: u64,
    /// States the sweep's exports added to the shared table.
    pub states_added: u64,
    /// Worker threads of the timed phase.
    pub threads: usize,
}

impl Facts {
    fn note_engine<P, CS, A, R>(&mut self, engine: &CountEngine<'_, P, CS, A, R>)
    where
        P: Protocol,
        CS: CountScheduler<P::State>,
        A: Activity,
        R: rand::RngCore,
    {
        self.slots += engine.slots() as u64;
        self.active_pairs += engine.active_pairs() as u64;
        self.adjacency_bytes = self.adjacency_bytes.max(engine.adjacency_bytes() as u64);
    }
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn record(&mut self, value: &impl Debug) {
        self.results.push(format!("{value:?}"));
    }
}

/// The 10 %-margin input over `k` colors, with the winner rotated to color
/// `seed mod k` so the seed picks the input. Rotating colors is a symmetry
/// of Circles, so every seed poses the same problem.
pub fn inputs(n: u64, k: u16, seed: u64) -> (Vec<(Color, u64)>, Color) {
    let shift = (seed % u64::from(k)) as u16;
    let rotate = |c: Color| Color((c.0 + shift) % k);
    let counts = margin_counts(n, k, n / 10)
        .into_iter()
        .map(|(c, m)| (rotate(c), m))
        .collect();
    (counts, rotate(Color(0)))
}

fn config<P: EnumerableProtocol<State = CirclesState, Input = Color>>(
    protocol: &P,
    counts: &[(Color, u64)],
) -> CountConfig<CirclesState> {
    let mut config = CountConfig::new();
    for &(c, m) in counts {
        config.insert(
            protocol.input(&c),
            usize::try_from(m).expect("count fits usize"),
        );
    }
    config
}

/// Runs `f` `reps` times (at least once), returning each repetition's
/// seconds and the last value.
fn repeat<T>(reps: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = f();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= reps {
            return (times, value);
        }
    }
}

/// A single-run workload's shape.
struct SingleRun {
    name: &'static str,
    k: u16,
    n: u64,
    /// Trials per timed pass, run one after the other.
    trials: u64,
    /// Warm the run from a discovered, saved and reloaded table.
    warm: bool,
    /// Checkpoint cadence in state changes.
    every: u64,
    /// Set-up repetitions before the timed phase.
    setup_reps: usize,
    /// Recovery repetitions after it.
    recover_reps: usize,
    /// For set-up and recovery too short to time alone: at every
    /// checkpoint, time this many cold set-ups and this many recoveries
    /// from the checkpoint just written, so their samples spread over the
    /// whole run. The sampling time is taken out of the pass.
    hook_samples: Option<(u32, u32)>,
}

const K3_LARGE_N: SingleRun = SingleRun {
    name: "k3",
    k: 3,
    n: 10_000_000,
    trials: 2,
    warm: false,
    every: 1 << 20,
    setup_reps: 1,
    recover_reps: 1,
    hook_samples: Some((100, 4)),
};

const K30_CLIFF: SingleRun = SingleRun {
    name: "k30",
    k: 30,
    n: 20_000,
    trials: 1,
    warm: true,
    every: 8192,
    setup_reps: 2,
    recover_reps: 2,
    hook_samples: None,
};

/// What a single-run set-up hands to its timed phase.
struct Prepared<P: Protocol> {
    table: TransitionTable<P>,
    counts: Vec<(Color, u64)>,
    winner: Color,
}

/// A cold engine over `counts`, as a trial starts.
fn cold_engine<'p, S: Stack>(
    protocol: &'p S::P,
    counts: &[(Color, u64)],
    rng: S::R,
) -> CountEngine<'p, S::P, S::CS, S::Sparse, S::R> {
    CountEngine::with_rng(protocol, config(protocol, counts), S::scheduler(), rng)
}

/// Crash recovery: the checkpoint at `path` loaded and resumed warm from
/// `snap`, until the engine is live again.
fn recover<'p, S: Stack, A: Activity>(
    protocol: &'p S::P,
    path: &Path,
    snap: &Arc<TableSnapshot<CirclesState>>,
) -> CountEngine<'p, S::P, S::CS, A, S::R> {
    let ck = S::span(Kind::CheckpointLoad, || {
        run_checkpoint::load(protocol, path)
    })
    .expect("checkpoint read");
    S::span(Kind::Resume, || {
        CountEngine::resume_with_snapshot(protocol, S::scheduler(), &ck, Arc::clone(snap))
    })
    .expect("checkpoint resumes")
}

fn single_setup<S: Stack>(
    cfg: &Config,
    w: &SingleRun,
    protocol: &S::P,
    out: &mut Outcome,
) -> Prepared<S::P> {
    let (counts, winner) = inputs(w.n, w.k, cfg.seed);
    if !w.warm {
        // Cold: the only set-up is the configuration and an engine over it.
        let engine = cold_engine::<S>(protocol, &counts, S::rng(cfg.seed, 0));
        std::hint::black_box(engine.mass());
        return Prepared {
            table: TransitionTable::new(),
            counts,
            winner,
        };
    }
    let store = cfg.dir.join(format!("{}.ppts", w.name));
    let built =
        S::span(Kind::Discovery, || quotient_table(protocol)).expect("Circles has a quotient");
    let meta = S::span(Kind::StoreSave, || {
        transition_store::save_quotient(&built, protocol, &store)
    })
    .expect("store written");
    let loaded =
        S::span(Kind::StoreLoad, || transition_store::load(protocol, &store)).expect("store read");
    out.facts.store_bytes = meta.file_bytes;
    let shape = |t: &TransitionTable<S::P>| (t.len(), t.active_pairs(), t.outcome_count());
    let (b, l) = (shape(&built), shape(&loaded));
    out.check(b == l, || {
        format!("loaded store {l:?} differs from built table {b:?}")
    });
    Prepared {
        table: loaded,
        counts,
        winner,
    }
}

fn single_run<S: Stack>(cfg: &Config, w: &SingleRun) -> Outcome {
    let mut out = Outcome {
        facts: Facts {
            threads: 1,
            ..Facts::default()
        },
        ..Outcome::default()
    };
    let protocol = S::protocol(w.k);
    let reps = if cfg.single() { 1 } else { w.setup_reps };
    let (setup_s, prep) = S::span(Kind::Setup, || {
        repeat(reps, || single_setup::<S>(cfg, w, &protocol, &mut out))
    });
    out.setup_s = setup_s;
    let snap = prep.table.snapshot();
    let hook_samples = w.hook_samples.filter(|_| !cfg.single());

    // Timed phase.
    let ckpt = |t: u64| cfg.dir.join(format!("{}-{t}.pprc", w.name));
    let mut last = None;
    S::span(Kind::Run, || {
        for pass in 0..cfg.passes(1) {
            let t0 = Instant::now();
            let mut sampling = 0.0;
            let mut changes = 0;
            for t in 0..w.trials {
                let trial = pass * w.trials + t;
                let path = ckpt(trial);
                let rng = S::rng(cfg.seed, trial);
                let report = S::span(Kind::Trial, || {
                    let mut engine = if w.warm {
                        CountEngine::with_snapshot_rng(
                            &protocol,
                            config(&protocol, &prep.counts),
                            S::scheduler(),
                            rng,
                            Arc::clone(&snap),
                        )
                    } else {
                        cold_engine::<S>(&protocol, &prep.counts, rng)
                    };
                    let mut saved = 0;
                    let report = engine
                        .run_until_silent_checkpointed(u64::MAX, w.every, |e| {
                            let meta = S::span(Kind::CheckpointSave, || {
                                run_checkpoint::save(&e.checkpoint(), &path)
                            });
                            saved = meta.expect("checkpoint written").file_bytes;
                            if let Some((setups, recoveries)) = hook_samples {
                                let t = Instant::now();
                                for _ in 0..setups {
                                    let engine = cold_engine::<S>(
                                        &protocol,
                                        &prep.counts,
                                        S::rng(cfg.seed, 0),
                                    );
                                    std::hint::black_box(engine.mass());
                                }
                                let t1 = Instant::now();
                                for _ in 0..recoveries {
                                    let engine = recover::<S, S::Sparse>(&protocol, &path, &snap);
                                    std::hint::black_box(engine.mass());
                                }
                                let t2 = Instant::now();
                                out.setup_s.push((t1 - t).as_secs_f64() / f64::from(setups));
                                out.recover_s
                                    .push((t2 - t1).as_secs_f64() / f64::from(recoveries));
                                sampling += (t2 - t).as_secs_f64();
                            }
                            ControlFlow::Continue(())
                        })
                        .expect("trial reaches silence");
                    out.facts.note_engine(&engine);
                    out.facts.checkpoint_bytes = saved;
                    report
                });
                changes += report.state_changes;
                out.check(report.consensus == Some(prep.winner), || {
                    format!(
                        "{} trial {trial}: {report:?}, winner {:?}",
                        w.name, prep.winner
                    )
                });
                out.record(&report);
                last = Some((trial, path, report));
            }
            out.run_s.push(t0.elapsed().as_secs_f64() - sampling);
            out.changes.push(changes);
        }
    });

    // Recovery from the last trial's last checkpoint, then the rest of the
    // run, which must report exactly what the uninterrupted trial did.
    let (trial, path, report) = last.expect("at least one trial ran");
    let reps = if cfg.single() { 1 } else { w.recover_reps };
    let (recover_s, mut engine) = S::span(Kind::Recover, || {
        repeat(reps, || recover::<S, S::Sparse>(&protocol, &path, &snap))
    });
    out.recover_s.extend(recover_s);
    let resumed = engine.run_until_silent(u64::MAX).expect("resumed run ends");
    out.check(format!("{resumed:?}") == format!("{report:?}"), || {
        format!(
            "{} trial {trial}: resumed {resumed:?}, uninterrupted {report:?}",
            w.name
        )
    });
    out.record(&resumed);
    out
}

const SWEEP_K: u16 = 30;
const SWEEP_N: u64 = 3000;
const SWEEP_TRIALS: u64 = 32;
const SWEEP_THREADS: usize = 2;
/// Two passes a round: with both threads busy a pass is the most exposed
/// to other load on the machine, so a run averages over two.
const SWEEP_PASSES_PER_ROUND: u64 = 2;
/// Checkpoint cadence of the recovery trial, in state changes.
const SWEEP_EVERY: u64 = 4096;
const SWEEP_SETUP_REPS: usize = 2;
const SWEEP_RECOVER_REPS: usize = 10;

fn sweep<S: Stack>(cfg: &Config) -> Outcome {
    let mut out = Outcome {
        facts: Facts {
            threads: SWEEP_THREADS,
            ..Facts::default()
        },
        ..Outcome::default()
    };
    let protocol = S::protocol(SWEEP_K);
    let (counts, winner) = inputs(SWEEP_N, SWEEP_K, cfg.seed);
    let inputs: Vec<Color> = counts
        .iter()
        .flat_map(|&(c, m)| std::iter::repeat_n(c, m as usize))
        .collect();

    // Each pass sweeps a freshly discovered table, so every pass starts
    // from the same table. Every discovery is a set-up sample.
    let pass_table =
        || S::span(Kind::Discovery, || quotient_table(&protocol)).expect("Circles has a quotient");
    let reps = if cfg.single() { 1 } else { SWEEP_SETUP_REPS };
    let (setup_s, mut table) = S::span(Kind::Setup, || repeat(reps, pass_table));
    out.setup_s = setup_s;
    let snap = table.snapshot();
    // Recovery runs trial 0 again, checkpointed, before the timed pass
    // (it exports nothing, so the sweep's table is untouched), and times
    // resuming from its last checkpoint against the set-up snapshot half
    // before the pass and half after it, so the samples span the run. The
    // resumed run must reproduce the sweep's result for that seed.
    let path = cfg.dir.join("sweep-0.pprc");
    let mut engine = CountEngine::<_, _, S::Compact, _>::with_snapshot_rng(
        &protocol,
        config(&protocol, &counts),
        S::scheduler(),
        S::rng(cfg.seed, 0),
        Arc::clone(&snap),
    );
    engine
        .run_until_silent_checkpointed(u64::MAX, SWEEP_EVERY, |e| {
            S::span(Kind::CheckpointSave, || {
                run_checkpoint::save(&e.checkpoint(), &path)
            })
            .expect("checkpoint written");
            ControlFlow::Continue(())
        })
        .expect("recovery trial reaches silence");
    out.facts.checkpoint_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    // Recovery samples come in groups: before the timed phase, after each
    // pass but the last, and after the last.
    let passes = cfg.passes(SWEEP_PASSES_PER_ROUND);
    let recovery_reps = if cfg.single() {
        1
    } else {
        SWEEP_RECOVER_REPS.div_ceil(passes as usize + 1)
    };
    let recovery_group = |out: &mut Outcome| {
        let samples = repeat(recovery_reps, || {
            recover::<S, S::Compact>(&protocol, &path, &snap)
        });
        out.recover_s.extend(samples.0);
    };
    if !cfg.single() {
        recovery_group(&mut out);
    }

    let mut first: Vec<TrialResult> = Vec::new();
    S::span(Kind::Run, || {
        for pass in 0..passes {
            if pass > 0 {
                let t = Instant::now();
                table = pass_table();
                out.setup_s.push(t.elapsed().as_secs_f64());
            }
            let seeds: Vec<u64> = (pass * SWEEP_TRIALS..(pass + 1) * SWEEP_TRIALS).collect();
            let before = table.len();
            let t0 = Instant::now();
            let facts = Mutex::new(std::mem::take(&mut out.facts));
            let results = S::sweep(
                &protocol,
                &inputs,
                winner,
                cfg.seed,
                &seeds,
                SWEEP_THREADS,
                &table,
                &facts,
            );
            out.facts = facts
                .into_inner()
                .expect("facts poisoned by a panicking trial");
            out.run_s.push(t0.elapsed().as_secs_f64());
            out.changes
                .push(results.iter().map(|r| r.state_changes).sum());
            out.facts.states_added += (table.len() - before) as u64;
            for (seed, r) in seeds.iter().zip(&results) {
                out.check(r.stabilized && r.correct, || {
                    format!("sweep seed {seed}: {r:?}, winner {winner:?}")
                });
                out.record(r);
            }
            if first.is_empty() {
                first = results;
            }
            if pass + 1 < passes {
                recovery_group(&mut out);
            }
        }
    });

    let (recover_s, mut engine) = S::span(Kind::Recover, || {
        repeat(recovery_reps, || {
            recover::<S, S::Compact>(&protocol, &path, &snap)
        })
    });
    out.recover_s.extend(recover_s);
    let resumed = engine.run_until_silent(u64::MAX).expect("resumed run ends");
    let resumed = trial_result(&resumed, winner);
    out.check(Some(&resumed) == first.first(), || {
        format!(
            "sweep seed 0: resumed {resumed:?}, swept {:?}",
            first.first()
        )
    });
    out.record(&resumed);
    out
}
