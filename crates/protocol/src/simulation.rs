//! The indexed simulation engine.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::error::FrameworkError;
use crate::population::Population;
use crate::protocol::Protocol;
use crate::scheduler::Scheduler;
use crate::trace::InteractionTrace;

/// Counters maintained by a running simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Interactions executed so far.
    pub steps: u64,
    /// Interactions in which at least one agent changed state.
    pub state_changes: u64,
    /// The step index (1-based) of the most recent state change; 0 when no
    /// change has happened yet.
    pub last_change_step: u64,
}

/// What happened in a single interaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport<S> {
    /// 1-based index of this interaction.
    pub step: u64,
    /// `(initiator, responder)` agent indices.
    pub pair: (usize, usize),
    /// States before the interaction, `(initiator, responder)`.
    pub before: (S, S),
    /// States after the interaction, `(initiator, responder)`.
    pub after: (S, S),
}

impl<S: PartialEq> StepReport<S> {
    /// Whether the interaction changed either agent.
    pub fn changed(&self) -> bool {
        self.before != self.after
    }
}

/// Result of driving a simulation to silence (or to its step budget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport<O> {
    /// Total interactions executed.
    pub steps: u64,
    /// Step of the last state change — for a silent run, the moment the
    /// configuration stopped evolving.
    pub steps_to_silence: u64,
    /// The smallest `t` such that outputs were unanimous after every prefix
    /// of `>= t` interactions (exact, because runs end silent). `0` when the
    /// initial configuration was already unanimous and never diverged.
    pub steps_to_consensus: u64,
    /// Number of state-changing interactions.
    pub state_changes: u64,
    /// The unanimous output at the end of the run, if outputs agree.
    pub consensus: Option<O>,
}

/// An indexed simulation: a protocol, a population, a scheduler and a seeded
/// RNG.
///
/// The engine tracks output agreement incrementally (O(1) per interaction),
/// so [`RunReport::steps_to_consensus`] is exact. Silence is detected by a
/// periodic scan over the distinct-state pairs of the anonymous
/// configuration; [`RunReport::steps_to_silence`] is nevertheless exact
/// because the engine records the last step at which any state changed.
///
/// # Example
///
/// See the [crate-level example](crate).
pub struct Simulation<'p, P: Protocol, Sch, R = StdRng> {
    protocol: &'p P,
    population: Population<P::State>,
    scheduler: Sch,
    rng: R,
    stats: SimStats,
    output_counts: BTreeMap<P::Output, usize>,
    /// `Some(t)`: outputs were not unanimous after `t` interactions (t = 0 is
    /// the initial configuration); tracks the latest such `t`.
    last_disagreement: Option<u64>,
    trace: Option<InteractionTrace>,
}

impl<'p, P, Sch> Simulation<'p, P, Sch>
where
    P: Protocol,
    Sch: Scheduler<P::State>,
{
    /// Creates a simulation over `population`, driven by `scheduler` and the
    /// RNG seeded with `seed`.
    pub fn new(
        protocol: &'p P,
        population: Population<P::State>,
        scheduler: Sch,
        seed: u64,
    ) -> Self {
        Self::with_rng(protocol, population, scheduler, StdRng::seed_from_u64(seed))
    }
}

impl<'p, P, Sch, R> Simulation<'p, P, Sch, R>
where
    P: Protocol,
    Sch: Scheduler<P::State>,
    R: RngCore,
{
    /// Like [`new`](Self::new) with an explicitly constructed generator —
    /// the entry point for counter-based trial streams
    /// ([`Philox4x32::stream`](rand::rngs::Philox4x32::stream)) whose
    /// identity is richer than one `u64`.
    pub fn with_rng(
        protocol: &'p P,
        population: Population<P::State>,
        scheduler: Sch,
        rng: R,
    ) -> Self {
        let output_counts = population.output_counts(protocol);
        let initially_unanimous = output_counts.len() <= 1;
        Simulation {
            protocol,
            population,
            scheduler,
            rng,
            stats: SimStats::default(),
            output_counts,
            last_disagreement: if initially_unanimous { None } else { Some(0) },
            trace: None,
        }
    }

    /// Starts recording the interaction schedule for later replay.
    pub fn record_trace(&mut self) {
        self.trace = Some(InteractionTrace::new(self.population.len()));
    }

    /// Takes the recorded trace, if recording was enabled.
    pub fn take_trace(&mut self) -> Option<InteractionTrace> {
        self.trace.take()
    }

    /// The protocol driving this simulation.
    pub fn protocol(&self) -> &P {
        self.protocol
    }

    /// Read access to the current population.
    pub fn population(&self) -> &Population<P::State> {
        &self.population
    }

    /// Current counters.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Histogram of current outputs.
    pub fn output_counts(&self) -> &BTreeMap<P::Output, usize> {
        &self.output_counts
    }

    fn outputs_unanimous(&self) -> bool {
        self.output_counts.len() <= 1
    }

    /// Executes one interaction and reports it.
    ///
    /// # Errors
    ///
    /// Propagates scheduler misbehaviour ([`FrameworkError::ReflexivePair`],
    /// [`FrameworkError::AgentOutOfBounds`]) and rejects populations with
    /// fewer than two agents.
    pub fn step(&mut self) -> Result<StepReport<P::State>, FrameworkError> {
        let n = self.population.len();
        if n < 2 {
            return Err(FrameworkError::PopulationTooSmall { n });
        }
        let (i, j) = self.scheduler.next_pair(&self.population, &mut self.rng);
        if let Some(trace) = &mut self.trace {
            trace.push(i, j);
        }
        let before = (self.population[i].clone(), self.population[j].clone());
        let changed = self.population.interact(self.protocol, i, j)?;
        let after = (self.population[i].clone(), self.population[j].clone());
        self.stats.steps += 1;
        if changed {
            self.stats.state_changes += 1;
            self.stats.last_change_step = self.stats.steps;
            self.update_output_counts(&before, &after);
        }
        if !self.outputs_unanimous() {
            self.last_disagreement = Some(self.stats.steps);
        }
        Ok(StepReport {
            step: self.stats.steps,
            pair: (i, j),
            before,
            after,
        })
    }

    fn update_output_counts(
        &mut self,
        before: &(P::State, P::State),
        after: &(P::State, P::State),
    ) {
        for (b, a) in [(&before.0, &after.0), (&before.1, &after.1)] {
            let ob = self.protocol.output(b);
            let oa = self.protocol.output(a);
            if ob != oa {
                let slot = self
                    .output_counts
                    .get_mut(&ob)
                    .expect("output histogram out of sync");
                *slot -= 1;
                if *slot == 0 {
                    self.output_counts.remove(&ob);
                }
                *self.output_counts.entry(oa).or_insert(0) += 1;
            }
        }
    }

    /// Runs until the configuration is silent (no pair of agents can change
    /// state), checking for silence every `check_interval` state changes and
    /// whenever `max_steps` elapses.
    ///
    /// Protocols that are not silent (e.g. ones whose outputs oscillate
    /// forever) exhaust the budget instead.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::MaxStepsExceeded`] when the budget is
    /// exhausted before silence, and propagates any scheduler error.
    pub fn run_until_silent(
        &mut self,
        max_steps: u64,
        check_interval: u64,
    ) -> Result<RunReport<P::Output>, FrameworkError> {
        self.run_until_silent_observed(max_steps, check_interval, |_| {})
    }

    /// Runs until `condition` holds on the population (checked after every
    /// interaction), returning the number of interactions executed in this
    /// call. Useful for user-defined convergence notions — e.g. "90% of
    /// outputs agree" — that are cheaper than full silence.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::MaxStepsExceeded`] when the condition does
    /// not hold within `max_steps` total interactions, and propagates any
    /// scheduler error.
    pub fn run_until<F>(&mut self, max_steps: u64, mut condition: F) -> Result<u64, FrameworkError>
    where
        F: FnMut(&Population<P::State>) -> bool,
    {
        let start = self.stats.steps;
        if condition(&self.population) {
            return Ok(0);
        }
        while self.stats.steps < max_steps {
            self.step()?;
            if condition(&self.population) {
                return Ok(self.stats.steps - start);
            }
        }
        Err(FrameworkError::MaxStepsExceeded { max_steps })
    }

    /// Runs exactly `steps` interactions (or stops early on error), invoking
    /// `observer` after each one. Useful for protocol-specific accounting
    /// such as counting ket exchanges.
    ///
    /// # Errors
    ///
    /// Propagates scheduler errors.
    pub fn run_observed<F>(&mut self, steps: u64, mut observer: F) -> Result<(), FrameworkError>
    where
        F: FnMut(&StepReport<P::State>),
    {
        for _ in 0..steps {
            let report = self.step()?;
            observer(&report);
        }
        Ok(())
    }

    /// Runs until silent like [`run_until_silent`](Self::run_until_silent),
    /// invoking `observer` after each interaction.
    ///
    /// # Errors
    ///
    /// Same as [`run_until_silent`](Self::run_until_silent).
    pub fn run_until_silent_observed<F>(
        &mut self,
        max_steps: u64,
        check_interval: u64,
        mut observer: F,
    ) -> Result<RunReport<P::Output>, FrameworkError>
    where
        F: FnMut(&StepReport<P::State>),
    {
        let interval = check_interval.max(1);
        let mut next_check = self.stats.steps + interval;
        // A population of one agent is vacuously silent.
        if self.population.len() < 2 || self.population.is_silent(self.protocol) {
            return Ok(self.report());
        }
        while self.stats.steps < max_steps {
            let report = self.step()?;
            observer(&report);
            if self.stats.steps >= next_check {
                next_check = self.stats.steps + interval;
                if self.population.is_silent(self.protocol) {
                    return Ok(self.report());
                }
            }
        }
        if self.population.is_silent(self.protocol) {
            return Ok(self.report());
        }
        Err(FrameworkError::MaxStepsExceeded { max_steps })
    }

    /// A [`RunReport`] snapshot of the execution so far. (Runs that end via
    /// [`run_until_silent`](Self::run_until_silent) return the same value.)
    pub fn report(&self) -> RunReport<P::Output> {
        RunReport {
            steps: self.stats.steps,
            steps_to_silence: self.stats.last_change_step,
            steps_to_consensus: self.last_disagreement.map_or(0, |t| t + 1),
            state_changes: self.stats.state_changes,
            consensus: self.population.output_consensus(self.protocol),
        }
    }

    /// Overwrites the state of agent `index` out-of-band (fault injection:
    /// crash-and-restart, adversarial corruption). Keeps the output
    /// histogram and disagreement tracking consistent.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::AgentOutOfBounds`] for an invalid index.
    pub fn inject_state(&mut self, index: usize, state: P::State) -> Result<(), FrameworkError> {
        if index >= self.population.len() {
            return Err(FrameworkError::AgentOutOfBounds {
                index,
                n: self.population.len(),
            });
        }
        let before = self.population[index].clone();
        if before == state {
            return Ok(());
        }
        let after = state.clone();
        self.population.set_state(index, state)?;
        self.stats.state_changes += 1;
        self.stats.last_change_step = self.stats.steps;
        // Reuse the pairwise updater; the second slot is a no-op pair.
        self.update_output_counts(&(before, after.clone()), &(after.clone(), after));
        if !self.outputs_unanimous() {
            self.last_disagreement = Some(self.stats.steps);
        }
        Ok(())
    }

    /// Consumes the simulation and returns the final population.
    pub fn into_population(self) -> Population<P::State> {
        self.population
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::UniformPairScheduler;

    struct Max;

    impl Protocol for Max {
        type State = u8;
        type Input = u8;
        type Output = u8;

        fn name(&self) -> &str {
            "max"
        }

        fn input(&self, i: &u8) -> u8 {
            *i
        }

        fn output(&self, s: &u8) -> u8 {
            *s
        }

        fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
            let m = *a.max(b);
            (m, m)
        }

        fn is_symmetric(&self) -> bool {
            true
        }
    }

    fn sim(inputs: &[u8], seed: u64) -> Simulation<'static, Max, UniformPairScheduler> {
        let population = Population::from_inputs(&Max, inputs);
        Simulation::new(&Max, population, UniformPairScheduler::new(), seed)
    }

    #[test]
    fn max_epidemic_converges_to_max() {
        let mut s = sim(&[3, 1, 4, 1, 5, 9, 2, 6], 11);
        let report = s.run_until_silent(100_000, 8).unwrap();
        assert_eq!(report.consensus, Some(9));
        assert!(report.steps_to_silence > 0);
        assert!(report.steps_to_consensus <= report.steps_to_silence);
    }

    #[test]
    fn silent_start_returns_immediately() {
        let mut s = sim(&[5, 5, 5], 1);
        let report = s.run_until_silent(10, 1).unwrap();
        assert_eq!(report.steps, 0);
        assert_eq!(report.steps_to_silence, 0);
        assert_eq!(report.steps_to_consensus, 0);
        assert_eq!(report.consensus, Some(5));
    }

    #[test]
    fn single_agent_population_is_silent() {
        let mut s = sim(&[7], 1);
        let report = s.run_until_silent(10, 1).unwrap();
        assert_eq!(report.consensus, Some(7));
    }

    #[test]
    fn step_on_tiny_population_errors() {
        let mut s = sim(&[7], 1);
        assert_eq!(
            s.step().unwrap_err(),
            FrameworkError::PopulationTooSmall { n: 1 }
        );
    }

    #[test]
    fn output_histogram_stays_consistent() {
        let mut s = sim(&[1, 2, 3, 4], 5);
        for _ in 0..50 {
            let _ = s.step().unwrap();
            let fresh = s.population().output_counts(&Max);
            assert_eq!(&fresh, s.output_counts());
        }
    }

    #[test]
    fn consensus_step_matches_bruteforce_replay() {
        // Replay the same run and find the true last-disagreement step.
        let inputs = [3u8, 1, 4, 1, 5];
        let mut s = sim(&inputs, 99);
        s.record_trace();
        let report = s.run_until_silent(100_000, 4).unwrap();
        let trace = s.take_trace().unwrap();

        let mut population = Population::from_inputs(&Max, &inputs);
        let mut last_disagreement = None;
        if population.output_consensus(&Max).is_none() {
            last_disagreement = Some(0u64);
        }
        for (step, (i, j)) in trace.pairs().iter().enumerate() {
            population.interact(&Max, *i, *j).unwrap();
            if population.output_consensus(&Max).is_none() {
                last_disagreement = Some(step as u64 + 1);
            }
        }
        assert_eq!(
            report.steps_to_consensus,
            last_disagreement.map_or(0, |t| t + 1)
        );
    }

    #[test]
    fn observer_sees_every_step() {
        let mut s = sim(&[1, 2, 3], 7);
        let mut seen = 0u64;
        s.run_observed(25, |_| seen += 1).unwrap();
        assert_eq!(seen, 25);
        assert_eq!(s.stats().steps, 25);
    }

    #[test]
    fn run_until_custom_condition() {
        let mut s = sim(&[1, 2, 3, 4, 9], 5);
        // Stop when a majority outputs 9 — earlier than full silence.
        let steps = s
            .run_until(100_000, |pop| {
                pop.iter().filter(|&&x| x == 9).count() * 2 > pop.len()
            })
            .unwrap();
        assert!(steps > 0);
        let nines = s.population().iter().filter(|&&x| x == 9).count();
        assert!(nines * 2 > 5);
        // Condition already true: zero steps.
        let zero = s.run_until(100_000, |_| true).unwrap();
        assert_eq!(zero, 0);
    }

    #[test]
    fn run_until_budget_exhaustion() {
        let mut s = sim(&[1, 2], 5);
        assert_eq!(
            s.run_until(3, |_| false).unwrap_err(),
            FrameworkError::MaxStepsExceeded { max_steps: 3 }
        );
    }

    #[test]
    fn inject_state_keeps_histogram_consistent() {
        let mut s = sim(&[1, 2, 3], 9);
        for _ in 0..10 {
            let _ = s.step().unwrap();
        }
        s.inject_state(0, 7).unwrap();
        let fresh = s.population().output_counts(&Max);
        assert_eq!(&fresh, s.output_counts());
        assert!(s.inject_state(9, 1).is_err());
        // Injecting the same state is a no-op.
        let changes = s.stats().state_changes;
        s.inject_state(0, 7).unwrap();
        assert_eq!(s.stats().state_changes, changes);
    }

    #[test]
    fn max_steps_exceeded_when_budget_too_small() {
        let mut s = sim(&[1, 2, 3, 4, 5, 6, 7, 8], 3);
        let err = s.run_until_silent(1, 1000).unwrap_err();
        assert_eq!(err, FrameworkError::MaxStepsExceeded { max_steps: 1 });
    }
}
