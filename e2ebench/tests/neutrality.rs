//! Tracing neutrality: every wrapper forwards, so a run through the
//! wrapped seams reproduces the plain run byte for byte, and files written
//! through a wrapped protocol load in the plain one.

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use circles_core::{CirclesProtocol, Color};
use circles_e2ebench::trace::{Count, Kind, Totals};
use circles_e2ebench::workloads::{inputs, Facts, Plain, Stack, Tracing};
use circles_e2ebench::wrap::Traced;
use pp_analysis::runner::trial_rng;
use pp_protocol::activity::PairSampling;
use pp_protocol::{
    quotient_table, run_checkpoint, transition_store, Activity, CompactActivity, CountConfig,
    CountEngine, EnumerableProtocol, Protocol, RunReport, SparseActivity, TransitionTable,
    UniformCountScheduler,
};
use rand::rngs::Philox4x32;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-neutrality");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn config<P: Protocol<Input = Color, State = circles_core::CirclesState>>(
    p: &P,
    n: u64,
    k: u16,
    seed: u64,
) -> CountConfig<P::State> {
    let mut c = CountConfig::new();
    for (color, m) in inputs(n, k, seed).0 {
        c.insert(p.input(&color), m as usize);
    }
    c
}

type PlainEngine<'p, A> = CountEngine<'p, CirclesProtocol, UniformCountScheduler, A, Philox4x32>;
type TracedEngine<'p, A> = CountEngine<
    'p,
    Traced<CirclesProtocol>,
    Traced<UniformCountScheduler>,
    Traced<A>,
    Traced<Philox4x32>,
>;

#[test]
fn wrapped_protocol_keeps_the_identity() {
    let plain = CirclesProtocol::new(6).expect("k > 0");
    let traced = Traced(plain);
    assert_eq!(traced.name(), plain.name());
    assert_eq!(traced.fingerprint_param(), plain.fingerprint_param());
    assert_eq!(traced.is_symmetric(), plain.is_symmetric());
    assert_eq!(
        traced.color_quotient().is_some(),
        plain.color_quotient().is_some()
    );
    assert_eq!(
        transition_store::fingerprint(&traced),
        transition_store::fingerprint(&plain)
    );
    assert_eq!(traced.states(), plain.states());
    assert_eq!(traced.state_complexity(), plain.state_complexity());
}

#[test]
fn cold_traced_run_reports_the_plain_bytes() {
    let (k, n) = (4, 20_000);
    let plain = CirclesProtocol::new(k).expect("k > 0");
    let traced = Traced(plain);
    for seed in 0..3 {
        let mut a = PlainEngine::<SparseActivity>::with_rng(
            &plain,
            config(&plain, n, k, seed),
            UniformCountScheduler::new(),
            trial_rng(seed, 0),
        );
        let before = Totals::now();
        let mut b = TracedEngine::<SparseActivity>::with_rng(
            &traced,
            config(&traced, n, k, seed),
            Traced(UniformCountScheduler::new()),
            Traced(trial_rng(seed, 0)),
        );
        let ra = a.run_until_silent(u64::MAX).expect("silent");
        let rb = b.run_until_silent(u64::MAX).expect("silent");
        let d = Totals::now().since(&before);
        assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        assert_eq!(a.slots(), b.slots());
        assert_eq!(a.active_pairs(), b.active_pairs());
        // The wrappers saw the work (other tests may add to the totals).
        assert!(d.calls(Kind::NextChange) >= ra.state_changes);
        assert!(d.count(Count::RngWords) >= 2 * ra.state_changes);
    }
}

#[test]
fn warm_traced_sweep_returns_the_runner_results() {
    let (k, n) = (5, 800);
    let seeds: Vec<u64> = (0..6).collect();
    let plain = Plain::protocol(k);
    let traced = Tracing::protocol(k);
    let (counts, winner) = inputs(n, k, 3);
    let colors: Vec<Color> = counts
        .iter()
        .flat_map(|&(c, m)| std::iter::repeat_n(c, m as usize))
        .collect();
    let plain_table = quotient_table(&plain).expect("quotient");
    let traced_table = quotient_table(&traced).expect("quotient");
    let facts = Mutex::new(Facts::default());
    let a = Plain::sweep(&plain, &colors, winner, 3, &seeds, 2, &plain_table, &facts);
    let b = Tracing::sweep(
        &traced,
        &colors,
        winner,
        3,
        &seeds,
        2,
        &traced_table,
        &facts,
    );
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.iter().all(|r| r.stabilized && r.correct));
    // Only the traced sweep can see its engines.
    assert!(facts.lock().expect("facts").slots > 0);
    // Both tables grew by the same exports.
    assert_eq!(plain_table.len(), traced_table.len());
    assert_eq!(plain_table.outcome_count(), traced_table.outcome_count());
}

#[test]
fn wrapped_activity_matches_the_plain_index() {
    let (k, n) = (5, 3000);
    let plain = CirclesProtocol::new(k).expect("k > 0");
    let traced = Traced(plain);
    let table: TransitionTable<CirclesProtocol> = quotient_table(&plain).expect("quotient");
    let traced_table: TransitionTable<Traced<CirclesProtocol>> =
        quotient_table(&traced).expect("quotient");
    let mut a = PlainEngine::<CompactActivity>::with_table_rng(
        &plain,
        config(&plain, n, k, 1),
        UniformCountScheduler::new(),
        trial_rng(1, 1),
        &table,
    );
    let mut b = TracedEngine::<CompactActivity>::with_table_rng(
        &traced,
        config(&traced, n, k, 1),
        Traced(UniformCountScheduler::new()),
        Traced(trial_rng(1, 1)),
        &traced_table,
    );
    let ra: RunReport<Color> = a.run_until_silent(u64::MAX).expect("silent");
    let rb = b.run_until_silent(u64::MAX).expect("silent");
    assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
    assert_eq!(a.adjacency_bytes(), b.adjacency_bytes());
    assert_eq!(a.counts(), b.counts());

    // Direct index operations agree too, including the symmetric path.
    let mut x = CompactActivity::default();
    let mut y = Traced::<CompactActivity>::default();
    x.declare_symmetric();
    y.declare_symmetric();
    let mut counts = Vec::new();
    for id in 0..40usize {
        counts.push(0);
        let active = |i: usize, j: usize| (i * 7 + j * 7 + id).is_multiple_of(3);
        x.add_slot_symmetric(&counts, active);
        y.add_slot_symmetric(&counts, active);
    }
    for (slot, count) in counts.iter_mut().enumerate() {
        *count += slot as u64 + 1;
        x.count_changed(slot, slot as i64 + 1);
        y.count_changed(slot, slot as i64 + 1);
    }
    x.settle(&counts);
    y.settle(&counts);
    assert_eq!(x.mass(), y.mass());
    assert_eq!(x.row_mass(), y.row_mass());
    assert_eq!(x.active_pairs(), y.active_pairs());
    assert_eq!(x.adjacency_bytes(), y.adjacency_bytes());
    for r in [0, x.mass() / 3, x.mass() - 1] {
        assert_eq!(x.sample_change(r, &counts), y.sample_change(r, &counts));
    }
}

#[test]
fn files_written_through_wrappers_load_in_the_plain_engine() {
    let (k, n) = (5, 4000);
    let plain = CirclesProtocol::new(k).expect("k > 0");
    let traced = Traced(plain);

    // A store saved through the wrapped protocol loads for the plain one,
    // and the other way round.
    let store = scratch("wrapped.ppts");
    let built = quotient_table(&traced).expect("quotient");
    let meta = transition_store::save_quotient(&built, &traced, &store).expect("saved");
    let loaded = transition_store::load(&plain, &store).expect("plain load");
    assert_eq!(loaded.len(), built.len());
    assert_eq!(loaded.active_pairs(), built.active_pairs());
    let plain_store = scratch("plain.ppts");
    let plain_meta = transition_store::save_quotient(&loaded, &plain, &plain_store).expect("saved");
    assert_eq!(plain_meta.checksum, meta.checksum);
    assert_eq!(
        std::fs::read(&store).expect("read"),
        std::fs::read(&plain_store).expect("read")
    );
    transition_store::load(&traced, &plain_store).expect("wrapped load");

    // A checkpoint written by a traced run resumes in a plain engine and
    // finishes exactly as the traced run did.
    let ckpt = scratch("wrapped.pprc");
    let mut b = TracedEngine::<SparseActivity>::with_table_rng(
        &traced,
        config(&traced, n, k, 2),
        Traced(UniformCountScheduler::new()),
        Traced(trial_rng(2, 0)),
        &built,
    );
    let rb = b
        .run_until_silent_checkpointed(u64::MAX, 64, |e| {
            run_checkpoint::save(&e.checkpoint(), &ckpt).expect("checkpoint");
            ControlFlow::Continue(())
        })
        .expect("silent");
    let ck = run_checkpoint::load(&plain, &ckpt).expect("plain checkpoint load");
    let mut a = PlainEngine::<SparseActivity>::resume_with_snapshot(
        &plain,
        UniformCountScheduler::new(),
        &ck,
        Arc::clone(&loaded.snapshot()),
    )
    .expect("plain resume");
    let ra = a.run_until_silent(u64::MAX).expect("silent");
    assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
    // And a plain checkpoint resumes in the traced engine.
    let plain_ck = scratch("plain.pprc");
    run_checkpoint::save(&ck, &plain_ck).expect("checkpoint");
    let ck = run_checkpoint::load(&traced, &plain_ck).expect("wrapped checkpoint load");
    let mut c = TracedEngine::<SparseActivity>::resume_with_snapshot(
        &traced,
        Traced(UniformCountScheduler::new()),
        &ck,
        built.snapshot(),
    )
    .expect("traced resume");
    assert_eq!(
        format!("{:?}", c.run_until_silent(u64::MAX).expect("silent")),
        format!("{rb:?}")
    );
}
