//! E4 — stabilization work: ket-exchange counts and the energy descent.
//!
//! Paper anchor: Theorem 3.4 proves the number of ket exchanges is finite
//! via an ordinal potential, with no quantitative bound. This experiment
//! measures the actual exchange counts, reports the combinatorial
//! descent-chain bound for contrast, and quantifies the energy-minimization
//! narrative: the *lexicographic* potential must strictly decrease at every
//! exchange (asserted), while the *total* energy may transiently rise — we
//! count how often it does.

use circles_core::potential::{descent_chain_bound, weight_vector};
use circles_core::prediction::braket_config_of_population;
use circles_core::{energy, BraKet, CirclesProtocol, CirclesState};
use pp_protocol::{CountConfig, Population};

use crate::runner::seed_range;
use crate::stats::Summary;
use crate::table::{fmt_f64, Table};
use crate::trial::{Backend, TrialRunner};
use crate::workloads::{photo_finish_workload, shuffled};

/// Parameters for E4.
#[derive(Debug, Clone)]
pub struct Params {
    /// `(n, k)` grid.
    pub grid: Vec<(usize, u16)>,
    /// Seeds per configuration.
    pub seeds: u64,
    /// Interaction budget.
    pub max_steps: u64,
    /// Worker threads.
    pub threads: usize,
    /// Simulation backend observed ([`Backend::run_to_silence`] serves both:
    /// inline observation on the indexed engine, change-trace replay on the
    /// count engine).
    pub backend: Backend,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            grid: vec![
                (16, 4),
                (32, 4),
                (64, 4),
                (128, 4),
                (256, 4),
                (512, 4),
                (64, 2),
                (64, 8),
                (64, 16),
                (64, 32),
            ],
            seeds: 16,
            max_steps: 500_000_000,
            threads: crate::runner::default_threads(),
            backend: Backend::Indexed,
        }
    }
}

impl Params {
    /// CI-scale preset.
    pub fn quick() -> Self {
        Params {
            grid: vec![(12, 3), (24, 3), (12, 4)],
            seeds: 3,
            max_steps: 10_000_000,
            threads: 2,
            backend: Backend::Indexed,
        }
    }

    /// The same parameters on another backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

/// Per-run measurements.
struct ExchangeRun {
    exchanges: u64,
    energy_rises: u64,
    final_energy: u64,
    potential_violations: u64,
}

fn one_run(n: usize, k: u16, seed: u64, max_steps: u64, backend: Backend) -> ExchangeRun {
    let protocol = CirclesProtocol::new(k).expect("k >= 1");
    let inputs = shuffled(photo_finish_workload(n, k), seed);
    let population = Population::from_inputs(&protocol, &inputs);

    let mut brakets: CountConfig<BraKet> = braket_config_of_population(&population);
    let mut potential = weight_vector(&brakets, k);
    let mut last_energy = energy::total_energy(&brakets, k);
    let mut exchanges = 0u64;
    let mut energy_rises = 0u64;
    let mut potential_violations = 0u64;

    let mut observer = |before_i: &CirclesState,
                        before_j: &CirclesState,
                        after_i: &CirclesState,
                        after_j: &CirclesState| {
        let ket_moved =
            before_i.braket.ket != after_i.braket.ket || before_j.braket.ket != after_j.braket.ket;
        if !ket_moved {
            return;
        }
        exchanges += 1;
        brakets.transfer(&before_i.braket, after_i.braket);
        brakets.transfer(&before_j.braket, after_j.braket);
        // The lexicographic potential (Theorem 3.4) must strictly decrease.
        let next_potential = weight_vector(&brakets, k);
        if next_potential >= potential {
            potential_violations += 1;
        }
        potential = next_potential;
        // The *total* energy is allowed to rise transiently; count rises.
        let next_energy = energy::total_energy(&brakets, k);
        if next_energy > last_energy {
            energy_rises += 1;
        }
        last_energy = next_energy;
    };
    let outcome = backend
        .run_to_silence(&protocol, &inputs, seed, max_steps, Some(&mut observer))
        .expect("framework error");
    assert!(outcome.stabilized, "run did not stabilize within budget");

    ExchangeRun {
        exchanges,
        energy_rises,
        final_energy: last_energy,
        potential_violations,
    }
}

/// Runs E4 and returns the table.
pub fn run(params: &Params) -> Table {
    let mut table = Table::new(
        "E4 — ket exchanges and energy descent",
        &[
            "n",
            "k",
            "exchanges mean",
            "exchanges max",
            "exchanges / n",
            "descent-chain bound",
            "energy rises mean",
            "final energy = predicted",
            "potential violations",
        ],
    );
    let runner = TrialRunner::new(params.backend)
        .threads(params.threads)
        .seed_list(seed_range(params.seeds));
    for &(n, k) in &params.grid {
        let runs = runner.run_with(|seed| one_run(n, k, seed, params.max_steps, params.backend));
        let counts: Vec<f64> = runs.iter().map(|r| r.exchanges as f64).collect();
        let rises: Vec<f64> = runs.iter().map(|r| r.energy_rises as f64).collect();
        let summary = Summary::from_samples(&counts);
        let rises_summary = Summary::from_samples(&rises);
        let violations: u64 = runs.iter().map(|r| r.potential_violations).sum();
        let predicted_energy = {
            let inputs = photo_finish_workload(n, k);
            energy::terminal_energy(&inputs, k).expect("valid workload")
        };
        let all_match = runs.iter().all(|r| r.final_energy == predicted_energy);
        let bound = descent_chain_bound(n, k);
        table.push_row(vec![
            n.to_string(),
            k.to_string(),
            fmt_f64(summary.mean),
            fmt_f64(summary.max),
            fmt_f64(summary.mean / n as f64),
            if bound == u128::MAX {
                ">= 2^128".to_string()
            } else {
                format!("{:.3e}", bound as f64)
            },
            fmt_f64(rises_summary.mean),
            all_match.to_string(),
            violations.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchanges_are_bounded_and_potential_monotone() {
        for backend in Backend::ALL {
            let table = run(&Params::quick().with_backend(backend));
            for row in table.rows() {
                assert_eq!(
                    row[8],
                    "0",
                    "{}: potential violated: {row:?}",
                    backend.name()
                );
                assert_eq!(
                    row[7],
                    "true",
                    "{}: energy mismatch: {row:?}",
                    backend.name()
                );
            }
        }
    }
}
