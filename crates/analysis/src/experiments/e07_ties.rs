//! E7 — behaviour under ties: the stall the theory predicts.
//!
//! Paper anchor: §4 ("Handling ties") and the contrapositive of Lemmas 3.2 +
//! 3.6: with a tie, *no* self-loop survives stabilization, so output rule 2
//! eventually never fires and outputs freeze at historical values. This
//! experiment verifies the zero-self-loop prediction exhaustively on the
//! final configurations, and measures where the frozen outputs land (the
//! fraction pointing at one of the tied winners).

use circles_core::prediction::{braket_config_of_population, self_loop_colors};
use circles_core::CirclesProtocol;
use pp_extensions::ties::{winning_output_fraction, TieAnalysis};
use pp_protocol::{Population, Protocol};

use crate::runner::{run_seeded, seed_range};
use crate::stats::Summary;
use crate::table::{fmt_f64, Table};
use crate::trial::Backend;
use crate::workloads::{shuffled, tie_workload_balanced};

/// Parameters for E7.
#[derive(Debug, Clone)]
pub struct Params {
    /// Population size.
    pub n: usize,
    /// `(k, ways)` tie configurations.
    pub ties: Vec<(u16, u16)>,
    /// Seeds per configuration.
    pub seeds: u64,
    /// Interaction budget.
    pub max_steps: u64,
    /// Worker threads.
    pub threads: usize,
    /// Which engine executes the runs. Tie workloads still reach silence
    /// (outputs stall, state changes do not persist), so both engines
    /// apply; the count backend is the default, as in E2/E6.
    pub backend: Backend,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n: 120,
            ties: vec![(2, 2), (3, 2), (3, 3), (4, 2), (4, 4), (6, 3)],
            seeds: 32,
            max_steps: 500_000_000,
            threads: crate::runner::default_threads(),
            backend: Backend::Count,
        }
    }
}

impl Params {
    /// CI-scale preset.
    pub fn quick() -> Self {
        Params {
            n: 12,
            ties: vec![(2, 2), (3, 3)],
            seeds: 4,
            max_steps: 10_000_000,
            threads: 2,
            backend: Backend::Count,
        }
    }

    /// The same preset on the other backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

struct TieRun {
    self_loops_at_end: usize,
    consensus: bool,
    winning_fraction: f64,
}

fn one_run(n: usize, k: u16, ways: u16, seed: u64, max_steps: u64, backend: Backend) -> TieRun {
    let protocol = CirclesProtocol::new(k).expect("k >= 1");
    // Balanced ties keep loser colors populated, so the output-fraction
    // measurement is informative (losers' frozen outputs can point at
    // losing colors).
    let inputs = shuffled(tie_workload_balanced(n, k, ways), seed);
    let analysis = TieAnalysis::of(&inputs, k).expect("valid tie workload");
    assert!(analysis.is_tie());
    let outcome = backend
        .run_to_silence(&protocol, &inputs, seed, max_steps, None)
        .expect("tie run failed");
    assert!(outcome.stabilized, "tied instance did not stabilize");
    let population = Population::from_states(outcome.config.to_state_vec());
    let brakets = braket_config_of_population(&population);
    let outputs: Vec<circles_core::Color> = population.iter().map(|s| protocol.output(s)).collect();
    let unanimous = outputs.windows(2).all(|w| w[0] == w[1]);
    TieRun {
        self_loops_at_end: self_loop_colors(&brakets).iter().map(|(_, c)| c).sum(),
        consensus: unanimous,
        winning_fraction: winning_output_fraction(&outputs, &analysis),
    }
}

/// Runs E7 and returns the table.
pub fn run(params: &Params) -> Table {
    let mut table = Table::new(
        &format!(
            "E7 — tie behaviour: the predicted output stall ({} backend)",
            params.backend.name()
        ),
        &[
            "k",
            "tie ways",
            "n",
            "seeds",
            "terminal self-loops (must be 0)",
            "runs reaching consensus anyway",
            "winner-pointing output fraction mean",
            "fraction min",
        ],
    );
    for &(k, ways) in &params.ties {
        let runs = run_seeded(&seed_range(params.seeds), params.threads, |seed| {
            one_run(params.n, k, ways, seed, params.max_steps, params.backend)
        });
        let total_loops: usize = runs.iter().map(|r| r.self_loops_at_end).sum();
        let consensus_count = runs.iter().filter(|r| r.consensus).count();
        let fractions: Vec<f64> = runs.iter().map(|r| r.winning_fraction).collect();
        let summary = Summary::from_samples(&fractions);
        table.push_row(vec![
            k.to_string(),
            ways.to_string(),
            params.n.to_string(),
            params.seeds.to_string(),
            total_loops.to_string(),
            format!("{consensus_count}/{}", runs.len()),
            fmt_f64(summary.mean),
            fmt_f64(summary.min),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_terminal_self_loops_under_ties_on_both_backends() {
        for backend in Backend::ALL {
            let table = run(&Params::quick().with_backend(backend));
            for row in table.rows() {
                assert_eq!(
                    row[4],
                    "0",
                    "self-loop survived a tie on {}: {row:?}",
                    backend.name()
                );
            }
        }
    }
}
