//! Discovery-path benchmarks at `k = 30` (slot tables past `10^4`): the
//! symmetric-protocol discovery fast path and the compact adjacency
//! representation.
//!
//! Three one-shot parts, all asserted in-process so regressions fail the
//! CI bench-smoke job instead of drifting:
//!
//! 1. `discovery/sym_*` vs `discovery/asym_*` — full slot-table discovery
//!    with the protocol's transition calls counted, once through the
//!    symmetric fast path (Circles declares `is_symmetric`) and once with
//!    symmetry masked off. The call ratio is **asserted ≥ 1.8×** (the
//!    structural expectation is 2×: one call per unordered pair instead of
//!    one per ordered pair).
//! 2. `discovery/compact_bytes_per_pair` — the discovered adjacency held by
//!    the compact index (shared symmetric rows, delta-varint or
//!    blocked-bitset per row). It is **asserted ≤ 2.0** bytes per active
//!    pair; a flat `u32` row per orientation would need 8.
//! 3. Warm engines on the compact and dense indexes, bulk-loaded from one
//!    [`TransitionTable`] (same slot order, same seed), run to silence —
//!    their `RunReport`s are **asserted bit-identical**, pinning
//!    representation-independence of the sampling path at scale.
//! 4. `discovery/quotient_*` — full `k³` enumeration (27 000 states,
//!    rotation-closed unlike the scout set) discovered once through the
//!    symmetric last-query memo and once through the color-orbit quotient
//!    (one protocol call per canonical pair, the orbit reconstructed
//!    mechanically). The quotient call ratio is **asserted ≥ 20×**
//!    (structurally `k = 30×`: rotation folding `k×`, on top of the same
//!    swap folding the memo already gets), the two tables are asserted
//!    row-for-row identical, and a fixed-seed warm run over each must
//!    produce bit-identical `RunReport`s.

use std::cell::Cell;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use circles_core::{CirclesProtocol, CirclesState};
use pp_analysis::workloads::{margin_workload, true_winner};
use pp_protocol::{
    CompactActivity, CountConfig, CountEngine, DenseActivity, EnumerableProtocol, Protocol,
    UniformCountScheduler,
};

/// Forwards to an inner protocol while counting transition calls;
/// optionally masks `is_symmetric` (forcing all-ordered-pairs discovery)
/// and, separately, the color quotient — masked by default, so every
/// measurement opts into quotient discovery explicitly.
struct CallCounter<'a, P> {
    inner: &'a P,
    calls: Cell<u64>,
    force_asymmetric: bool,
    expose_quotient: bool,
}

impl<P: Protocol> Protocol for CallCounter<'_, P> {
    type State = P::State;
    type Input = P::Input;
    type Output = P::Output;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input(&self, input: &Self::Input) -> Self::State {
        self.inner.input(input)
    }

    fn output(&self, state: &Self::State) -> Self::Output {
        self.inner.output(state)
    }

    fn transition(&self, a: &Self::State, b: &Self::State) -> (Self::State, Self::State) {
        self.calls.set(self.calls.get() + 1);
        self.inner.transition(a, b)
    }

    fn is_symmetric(&self) -> bool {
        !self.force_asymmetric && self.inner.is_symmetric()
    }

    fn color_quotient(&self) -> Option<&dyn pp_protocol::StateQuotient<Self::State>> {
        if self.expose_quotient {
            self.inner.color_quotient()
        } else {
            None
        }
    }
}

impl<P: EnumerableProtocol> EnumerableProtocol for CallCounter<'_, P> {
    fn states(&self) -> Vec<Self::State> {
        self.inner.states()
    }
}

const K: u16 = 30;
const N: usize = 12_000;

/// Primes a fresh engine with `states` (pure discovery, no run) and returns
/// (elapsed ns, protocol transition calls).
fn timed_discovery(
    protocol: &CirclesProtocol,
    states: &[CirclesState],
    force_asymmetric: bool,
) -> (f64, u64) {
    let counter = CallCounter {
        inner: protocol,
        calls: Cell::new(0),
        force_asymmetric,
        expose_quotient: false,
    };
    let mut engine = CountEngine::from_config(&counter, CountConfig::new(), 7);
    let start = Instant::now();
    engine.prime_states(states.iter().copied());
    (start.elapsed().as_nanos() as f64, counter.calls.get())
}

fn bench_discovery(c: &mut Criterion) {
    let protocol = CirclesProtocol::new(K).unwrap();
    let inputs = margin_workload(N, K, N / 10);
    let config: CountConfig<CirclesState> = inputs.iter().map(|i| protocol.input(i)).collect();

    // Scout run: the slot table this workload actually visits, exported to
    // a transition table for the warm-engine comparison below.
    let mut scout = CountEngine::from_config(&protocol, config.clone(), 7);
    let scout_report = scout.run_until_silent(u64::MAX / 2).unwrap();
    assert_eq!(scout_report.consensus, Some(true_winner(&inputs, K)));
    let states: Vec<CirclesState> = scout.known_states().to_vec();
    let slots = states.len();
    assert!(
        slots >= 10_000,
        "discovery workload must exercise >= 10^4 slots, got {slots}"
    );
    let table = scout.warm_table();

    // Part 1: symmetric vs forced-asymmetric discovery call counts. One
    // discarded warmup first: the initial adjacency allocation pays
    // first-touch page faults that would skew whichever variant runs
    // first.
    let _ = timed_discovery(&protocol, &states, false);
    let (sym_ns, sym_calls) = timed_discovery(&protocol, &states, false);
    let (asym_ns, asym_calls) = timed_discovery(&protocol, &states, true);
    let call_ratio = asym_calls as f64 / sym_calls as f64;
    criterion::report_external("discovery/slots", slots as f64, 1);
    criterion::report_external("discovery/sym_ns", sym_ns, 1);
    criterion::report_external("discovery/asym_ns", asym_ns, 1);
    criterion::report_external("discovery/sym_calls", sym_calls as f64, 1);
    criterion::report_external("discovery/asym_calls", asym_calls as f64, 1);
    criterion::report_external("discovery/call_ratio_x", call_ratio, 1);
    println!(
        "discovery: k={K} slots={slots}; symmetric {sym_calls} calls ({:.2}s) vs \
         asymmetric {asym_calls} calls ({:.2}s) => {call_ratio:.2}x fewer",
        sym_ns / 1e9,
        asym_ns / 1e9,
    );
    assert!(
        call_ratio >= 1.8,
        "symmetric discovery must make >= 1.8x fewer transition calls at \
         k = 30, got {call_ratio:.2}x"
    );

    // Parts 2 + 3: warm engines per activity index. Slot numbering is
    // canonical (trajectory order), so each warm run must be bit-identical
    // to the others — and to the scout's *cold* run of the same seed — with
    // the adjacency footprint measured on each.
    fn run_warm<A: pp_protocol::Activity>(
        protocol: &CirclesProtocol,
        config: &CountConfig<CirclesState>,
        table: &pp_protocol::TransitionTable<CirclesProtocol>,
    ) -> (pp_protocol::RunReport<circles_core::Color>, usize, usize) {
        let mut e = CountEngine::<_, _, A>::with_table_parts(
            protocol,
            config.clone(),
            UniformCountScheduler::new(),
            7,
            table,
        );
        let r = e.run_until_silent(u64::MAX / 2).unwrap();
        (r, e.adjacency_bytes(), e.active_pairs())
    }
    let (compact_report, compact_bytes, compact_pairs) =
        run_warm::<CompactActivity>(&protocol, &config, &table);
    let (dense_report, _, dense_pairs) = run_warm::<DenseActivity>(&protocol, &config, &table);
    assert_eq!(
        compact_report, scout_report,
        "a warm run must be bit-identical to the cold run of its seed"
    );
    assert_eq!(
        compact_report, dense_report,
        "compact and dense warm engines must execute identical trajectories"
    );
    assert_eq!(compact_pairs, dense_pairs);

    let compact_bpp = compact_bytes as f64 / compact_pairs as f64;
    criterion::report_external("discovery/active_pairs", compact_pairs as f64, 1);
    criterion::report_external("discovery/compact_bytes_per_pair", compact_bpp, 1);
    println!("discovery: {compact_pairs} active pairs; compact {compact_bpp:.2} B/pair");
    assert!(
        compact_bpp <= 2.0,
        "compact adjacency must hold <= 2.0 bytes per active pair at \
         slots >= 10^4, got {compact_bpp:.3}"
    );

    // Part 4: color-orbit quotient discovery over the full k³ enumeration.
    // The scout-visited set above is not rotation-closed, so the quotient
    // comparison runs on the enumeration (27 000 states at k = 30), where
    // every orbit is complete and the compact index keeps the footprint in
    // bitsets instead of a multi-GB flat table.
    let full_states = protocol.states();
    let full_slots = full_states.len();
    let quotient = protocol
        .color_quotient()
        .expect("circles must expose its rotation quotient");
    let mut canon = std::collections::HashSet::new();
    for s in &full_states {
        canon.insert(quotient.canonical_state(s).0);
    }
    let orbit_factor = full_slots as f64 / canon.len() as f64;

    fn timed_full_discovery<'a>(
        counter: &'a CallCounter<'a, CirclesProtocol>,
        states: &[CirclesState],
    ) -> (
        f64,
        u64,
        pp_protocol::TransitionTable<CallCounter<'a, CirclesProtocol>>,
    ) {
        let mut engine = CountEngine::<_, _, CompactActivity>::with_parts(
            counter,
            CountConfig::new(),
            UniformCountScheduler::new(),
            7,
        );
        let start = Instant::now();
        engine.prime_states(states.iter().copied());
        let elapsed = start.elapsed().as_nanos() as f64;
        (elapsed, counter.calls.get(), engine.warm_table())
    }

    let memo_counter = CallCounter {
        inner: &protocol,
        calls: Cell::new(0),
        force_asymmetric: false,
        expose_quotient: false,
    };
    let (memo_ns, memo_calls, memo_table) = timed_full_discovery(&memo_counter, &full_states);
    let quot_counter = CallCounter {
        inner: &protocol,
        calls: Cell::new(0),
        force_asymmetric: false,
        expose_quotient: true,
    };
    let quot_start = Instant::now();
    let quot_table =
        pp_protocol::quotient_table(&quot_counter).expect("circles exposes a quotient");
    let quot_ns = quot_start.elapsed().as_nanos() as f64;
    let quot_calls = quot_counter.calls.get();
    let quotient_ratio = memo_calls as f64 / quot_calls as f64;
    criterion::report_external("discovery/full_slots", full_slots as f64, 1);
    criterion::report_external("discovery/full_sym_calls", memo_calls as f64, 1);
    criterion::report_external("discovery/quotient_calls", quot_calls as f64, 1);
    criterion::report_external("discovery/quotient_call_ratio_x", quotient_ratio, 1);
    criterion::report_external("discovery/orbit_factor", orbit_factor, 1);
    println!(
        "discovery: full k={K} enumeration {full_slots} slots; symmetric memo \
         {memo_calls} calls ({:.2}s) vs quotient {quot_calls} calls ({:.2}s) => \
         {quotient_ratio:.2}x fewer; orbit factor {orbit_factor:.2}",
        memo_ns / 1e9,
        quot_ns / 1e9,
    );
    assert!(
        quotient_ratio >= 20.0,
        "quotient discovery must make >= 20x fewer transition calls than the \
         symmetric memo at k = 30, got {quotient_ratio:.2}x"
    );

    // The two tables must agree row for row: the quotient changes who
    // answers a classification, never the answer (or the slot order).
    let memo_snap = memo_table.snapshot();
    let quot_snap = quot_table.snapshot();
    assert_eq!(memo_snap.len(), quot_snap.len());
    for i in 0..memo_snap.len() {
        assert_eq!(memo_snap.state(i as u32), quot_snap.state(i as u32));
        let mut memo_row = Vec::new();
        memo_snap.walk_out(i as u32, |j| {
            memo_row.push(j);
            true
        });
        let mut quot_row = Vec::new();
        quot_snap.walk_out(i as u32, |j| {
            quot_row.push(j);
            true
        });
        assert_eq!(
            memo_row, quot_row,
            "row {i}: memo- and quotient-discovered tables must be identical"
        );
    }

    // And a fixed-seed warm run over each table — outcomes resolve through
    // the quotient on one side and the raw protocol on the other — must
    // execute the same trajectory.
    fn run_full_warm<'a>(
        counter: &'a CallCounter<'a, CirclesProtocol>,
        config: &CountConfig<CirclesState>,
        table: &pp_protocol::TransitionTable<CallCounter<'a, CirclesProtocol>>,
    ) -> pp_protocol::RunReport<circles_core::Color> {
        let mut e = CountEngine::<_, _, CompactActivity>::with_table_parts(
            counter,
            config.clone(),
            UniformCountScheduler::new(),
            7,
            table,
        );
        e.run_until_silent(u64::MAX / 2).unwrap()
    }
    let memo_run = run_full_warm(&memo_counter, &config, &memo_table);
    let quot_run = run_full_warm(&quot_counter, &config, &quot_table);
    assert_eq!(
        memo_run, quot_run,
        "fixed-seed warm runs over memo- and quotient-discovered full tables \
         must be bit-identical"
    );

    let _ = c; // one-shot measurement; no criterion sampling needed
}

criterion_group!(benches, bench_discovery);
criterion_main!(benches);
