//! Engine equivalence on the paper protocol itself.
//!
//! The generic (Max-protocol) equivalence suite lives in
//! `crates/protocol/tests/engine_equivalence.rs`; this file repeats both
//! layers on [`CirclesProtocol`], whose transitions exercise the count
//! engine much harder (asymmetric output updates, states appearing and
//! vanishing mid-run, `k³`-sized slot tables):
//!
//! 1. **Replay equivalence**: an indexed run's recorded schedule, mapped to
//!    state pairs, drives the count engine to a bit-identical `RunReport`.
//! 2. **Distributional equivalence**: steps-to-silence statistics of the
//!    batched uniform count engine match the indexed engine over many
//!    seeds.

use circles::core::{CirclesProtocol, CirclesState, Color};
use circles::protocol::{
    CountEngine, CountTrace, DenseCountEngine, Population, ReplayCountScheduler, RunReport,
    Simulation, UniformCountScheduler, UniformPairScheduler,
};
use proptest::prelude::*;

/// An inline margin workload: color 0 leads by `margin` over equally
/// supported losers (kept local so this test file stays independent of the
/// analysis crate).
fn margin_inputs(n: usize, k: u16, margin: usize) -> Vec<Color> {
    let b = (n - margin) / usize::from(k);
    let mut inputs = vec![Color(0); b + margin];
    for c in 1..k {
        inputs.extend(std::iter::repeat_n(Color(c), b));
    }
    inputs
}

/// Runs the indexed engine to silence with trace recording; returns the
/// report and the schedule as (initiator, responder) *state* pairs.
fn indexed_reference(
    protocol: &CirclesProtocol,
    inputs: &[Color],
    seed: u64,
) -> (
    RunReport<Color>,
    Vec<(circles::core::CirclesState, circles::core::CirclesState)>,
) {
    let population = Population::from_inputs(protocol, inputs);
    let mut sim = Simulation::new(protocol, population, UniformPairScheduler::new(), seed);
    sim.record_trace();
    let report = sim
        .run_until_silent(50_000_000, 16)
        .expect("circles silences");
    let trace = sim.take_trace().expect("trace was recorded");

    let mut replay = Population::from_inputs(protocol, inputs);
    let mut state_pairs = Vec::with_capacity(trace.pairs().len());
    for &(i, j) in trace.pairs() {
        state_pairs.push((replay[i], replay[j]));
        replay.interact(protocol, i, j).expect("valid trace");
    }
    (report, state_pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replaying an indexed Circles run through the count engine reproduces
    /// the exact same `RunReport` and final configuration multiset.
    #[test]
    fn circles_replay_produces_identical_reports(
        raw in proptest::collection::vec(0u16..4, 2..20),
        k in 2u16..5,
        seed in any::<u64>(),
    ) {
        let inputs: Vec<Color> = raw.iter().map(|&c| Color(c % k)).collect();
        let protocol = CirclesProtocol::new(k).unwrap();
        let (reference, state_pairs) = indexed_reference(&protocol, &inputs, seed);
        let steps = state_pairs.len() as u64;

        let config = inputs.iter().map(|c| {
            use circles::protocol::Protocol;
            protocol.input(c)
        }).collect();
        let mut engine = CountEngine::with_scheduler(
            &protocol,
            config,
            ReplayCountScheduler::new(state_pairs),
            !seed, // the RNG must be irrelevant under replay
        );
        for _ in 0..steps {
            engine.step().unwrap();
        }
        prop_assert_eq!(engine.report(), reference);
        prop_assert!(engine.is_silent());
        prop_assert_eq!(engine.config().n(), inputs.len());
    }
}

/// Large-k Circles replay: the same indexed schedule, driven through the
/// sparse (block sums + adjacency) and dense (pair matrix) activity
/// indexes, produces bit-identical reports and configurations — with slot
/// tables far past the first 64-row block (slots ≫ 100), where the sparse
/// bookkeeping actually diverges from the dense code path.
#[test]
fn large_k_circles_replay_is_bit_identical_on_both_indexes() {
    let k = 12u16;
    let protocol = CirclesProtocol::new(k).unwrap();
    let inputs = margin_inputs(180, k, 24);
    for seed in 0..2u64 {
        let (reference, state_pairs) = indexed_reference(&protocol, &inputs, seed);
        let steps = state_pairs.len() as u64;
        let config: circles::protocol::CountConfig<CirclesState> = inputs
            .iter()
            .map(|c| {
                use circles::protocol::Protocol;
                protocol.input(c)
            })
            .collect();

        let mut sparse = CountEngine::with_scheduler(
            &protocol,
            config.clone(),
            ReplayCountScheduler::new(state_pairs.clone()),
            !seed,
        );
        let mut dense = DenseCountEngine::with_parts(
            &protocol,
            config,
            ReplayCountScheduler::new(state_pairs),
            seed ^ 0xABCD, // the RNG must be irrelevant under replay
        );
        for _ in 0..steps {
            sparse.step().unwrap();
            dense.step().unwrap();
        }
        assert_eq!(sparse.report(), reference, "sparse vs indexed, seed {seed}");
        assert_eq!(dense.report(), reference, "dense vs indexed, seed {seed}");
        assert_eq!(sparse.config(), dense.config(), "configs, seed {seed}");
        assert_eq!(sparse.slots(), dense.slots(), "slot tables, seed {seed}");
        assert!(
            sparse.slots() > 100,
            "workload must exercise a large slot table, got {}",
            sparse.slots()
        );
    }
}

/// Uniform-random batched runs on the two activity indexes are bit-identical
/// for the same seed: both draw the same geometric skips and the same
/// `r ∈ [0, mass)`, and the block-sum prefix scan must resolve `r` to
/// exactly the pair the dense linear scan finds.
#[test]
fn sparse_and_dense_uniform_runs_are_bit_identical_at_large_k() {
    let k = 18u16;
    let protocol = CirclesProtocol::new(k).unwrap();
    let inputs = margin_inputs(1200, k, 120);
    let config: circles::protocol::CountConfig<CirclesState> = inputs
        .iter()
        .map(|c| {
            use circles::protocol::Protocol;
            protocol.input(c)
        })
        .collect();

    let mut sparse = CountEngine::from_config(&protocol, config.clone(), 7);
    let sparse_report = sparse.run_until_silent(u64::MAX / 2).unwrap();
    let mut dense =
        DenseCountEngine::with_parts(&protocol, config, UniformCountScheduler::new(), 7);
    let dense_report = dense.run_until_silent(u64::MAX / 2).unwrap();

    assert_eq!(sparse_report, dense_report);
    assert_eq!(sparse.config(), dense.config());
    assert_eq!(sparse.slots(), dense.slots());
    assert!(
        sparse.slots() > 1000,
        "workload must exercise a large slot table, got {}",
        sparse.slots()
    );
}

/// A recorded count-level trace serializes to JSONL, parses back through
/// `CirclesState`'s `FromStr`, and replays to the recorded terminal
/// configuration — the reproducibility loop for large-`n` failures.
#[test]
fn count_trace_jsonl_round_trips_and_replays() {
    let k = 4u16;
    let protocol = CirclesProtocol::new(k).unwrap();
    let inputs = margin_inputs(60, k, 8);
    let mut engine = CountEngine::from_inputs(&protocol, &inputs, 11);
    engine.record_trace();
    engine.run_until_silent(u64::MAX / 2).unwrap();
    let trace = engine.take_trace().expect("recording was on");
    assert_eq!(trace.len() as u64, engine.stats().state_changes);

    let jsonl = trace.to_jsonl();
    let parsed: CountTrace<CirclesState> = CountTrace::from_jsonl(&jsonl).unwrap();
    assert_eq!(parsed, trace);

    let config: circles::protocol::CountConfig<CirclesState> = inputs
        .iter()
        .map(|c| {
            use circles::protocol::Protocol;
            protocol.input(c)
        })
        .collect();
    let steps = parsed.len();
    let mut replayed = CountEngine::with_scheduler(&protocol, config, parsed.into_scheduler(), 999);
    for _ in 0..steps {
        assert!(replayed.step().unwrap(), "every traced pair changes state");
    }
    assert_eq!(replayed.config(), engine.config());
    assert!(replayed.is_silent());
}

/// Mean and standard error of a sample.
fn mean_se(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Steps-to-silence distributions of the two engines agree on a small
/// Circles race under the uniform-random model (deterministic seed set;
/// two-sample z-style check on the means).
#[test]
fn circles_steps_to_silence_distributions_agree() {
    let k = 3u16;
    let protocol = CirclesProtocol::new(k).unwrap();
    // 10/6/4 — a clear but contested race at n = 20.
    let inputs: Vec<Color> = std::iter::repeat_n(Color(0), 10)
        .chain(std::iter::repeat_n(Color(1), 6))
        .chain(std::iter::repeat_n(Color(2), 4))
        .collect();
    let seeds = 300u64;

    let indexed: Vec<f64> = (0..seeds)
        .map(|seed| {
            let population = Population::from_inputs(&protocol, &inputs);
            let mut sim = Simulation::new(&protocol, population, UniformPairScheduler::new(), seed);
            sim.run_until_silent(50_000_000, 16)
                .expect("circles silences")
                .steps_to_silence as f64
        })
        .collect();
    let counted: Vec<f64> = (0..seeds)
        .map(|seed| {
            let mut engine = CountEngine::from_inputs(&protocol, &inputs, seed);
            engine
                .run_until_silent(50_000_000)
                .expect("circles silences")
                .steps_to_silence as f64
        })
        .collect();

    let (mi, si) = mean_se(&indexed);
    let (mc, sc) = mean_se(&counted);
    let gap = (mi - mc).abs();
    let se = si.hypot(sc);
    assert!(
        gap <= 4.0 * se + 0.02 * mi.max(mc),
        "steps-to-silence means diverge: indexed {mi:.1}±{si:.1} vs count {mc:.1}±{sc:.1}"
    );
}
