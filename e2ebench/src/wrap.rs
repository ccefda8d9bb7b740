//! Forwarding wrappers around the engine's public generic seams.
//!
//! Each wrapper forwards every trait method to the wrapped value — the
//! provided methods too, so an override in the wrapped type is never
//! replaced by the trait default — and opens a [`trace::span`] around the
//! calls the per-layer metrics need. None of them draws randomness or
//! changes an answer, so a run through the wrappers is bit-identical to
//! the plain run: same `RunReport`s, same `.ppts` and `.pprc` identity.

use pp_protocol::activity::PairSampling;
use pp_protocol::{
    Activity, CountScheduler, CountView, EnumerableProtocol, PairDraw, Protocol, ResumableRng,
    StateQuotient,
};
use rand::RngCore;

use crate::trace::{self, Count, Kind};

/// Forwards every method of the wrapped seam — a protocol, count
/// scheduler, activity index or RNG — and traces the calls the per-layer
/// metrics need.
#[derive(Debug, Clone, Copy)]
pub struct Traced<P>(pub P);

impl<P: Protocol> Protocol for Traced<P> {
    type State = P::State;
    type Input = P::Input;
    type Output = P::Output;

    fn name(&self) -> &str {
        self.0.name()
    }

    fn input(&self, input: &Self::Input) -> Self::State {
        self.0.input(input)
    }

    fn output(&self, state: &Self::State) -> Self::Output {
        self.0.output(state)
    }

    fn transition(&self, a: &Self::State, b: &Self::State) -> (Self::State, Self::State) {
        trace::span(Kind::Transition, || self.0.transition(a, b))
    }

    fn is_symmetric(&self) -> bool {
        self.0.is_symmetric()
    }

    fn is_null_interaction(&self, a: &Self::State, b: &Self::State) -> bool {
        // One protocol evaluation either way, so it counts as a transition.
        trace::span(Kind::Transition, || self.0.is_null_interaction(a, b))
    }

    fn color_quotient(&self) -> Option<&dyn StateQuotient<Self::State>> {
        self.0.color_quotient()
    }

    fn fingerprint_param(&self) -> u64 {
        self.0.fingerprint_param()
    }
}

impl<P: EnumerableProtocol> EnumerableProtocol for Traced<P> {
    fn states(&self) -> Vec<Self::State> {
        self.0.states()
    }

    fn state_complexity(&self) -> usize {
        self.0.state_complexity()
    }
}

impl<S, CS: CountScheduler<S>> CountScheduler<S> for Traced<CS> {
    fn next_slot_pair(&mut self, view: &CountView<'_, S>, rng: &mut dyn RngCore) -> (usize, usize) {
        self.0.next_slot_pair(view, rng)
    }

    fn next_change(
        &mut self,
        view: &CountView<'_, S>,
        budget: u64,
        rng: &mut dyn RngCore,
    ) -> PairDraw {
        let draw = trace::span(Kind::NextChange, || self.0.next_change(view, budget, rng));
        trace::count(Count::SkippedSteps, draw.skipped);
        draw
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

impl<A: Default> Default for Traced<A> {
    fn default() -> Self {
        Traced(A::default())
    }
}

impl<A: PairSampling> PairSampling for Traced<A> {
    fn is_active(&self, i: usize, j: usize) -> bool {
        self.0.is_active(i, j)
    }

    fn sample_change(&self, r: u128, counts: &[u64]) -> (usize, usize) {
        trace::span(Kind::SampleChange, || self.0.sample_change(r, counts))
    }
}

impl<A: Activity> Activity for Traced<A> {
    fn add_slot(&mut self, counts: &[u64], active: impl FnMut(usize, usize) -> bool) {
        trace::span(Kind::AddSlot, || self.0.add_slot(counts, active));
    }

    fn add_slot_symmetric(&mut self, counts: &[u64], active: impl FnMut(usize, usize) -> bool) {
        trace::span(Kind::AddSlot, || self.0.add_slot_symmetric(counts, active));
    }

    fn declare_symmetric(&mut self) {
        self.0.declare_symmetric();
    }

    fn add_slot_from_lists(&mut self, counts: &[u64], out: &[u32], ins: &[u32], diag: bool) {
        trace::span(Kind::AddSlotFromLists, || {
            self.0.add_slot_from_lists(counts, out, ins, diag)
        });
    }

    fn count_changed(&mut self, slot: usize, delta: i64) {
        trace::span(Kind::CountChanged, || self.0.count_changed(slot, delta));
    }

    fn settle(&mut self, counts: &[u64]) {
        trace::span(Kind::Settle, || self.0.settle(counts));
    }

    fn mass(&self) -> u128 {
        self.0.mass()
    }

    fn row_mass(&self) -> &[u128] {
        self.0.row_mass()
    }

    fn walk_out(&self, i: usize, f: &mut dyn FnMut(usize)) {
        self.0.walk_out(i, f);
    }

    fn walk_in(&self, j: usize, f: &mut dyn FnMut(usize)) {
        self.0.walk_in(j, f);
    }

    fn active_pairs(&self) -> usize {
        self.0.active_pairs()
    }

    fn adjacency_bytes(&self) -> usize {
        self.0.adjacency_bytes()
    }
}

impl<R: RngCore> RngCore for Traced<R> {
    fn next_u64(&mut self) -> u64 {
        trace::count(Count::RngWords, 1);
        self.0.next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        trace::count(Count::RngWords, 1);
        self.0.next_u32()
    }
}

impl<R: ResumableRng> ResumableRng for Traced<R> {
    const RNG_KIND: u32 = R::RNG_KIND;

    fn save_words(&self) -> Vec<u32> {
        self.0.save_words()
    }

    fn load_words(words: &[u32]) -> Option<Self> {
        R::load_words(words).map(Traced)
    }
}
