//! Empirical worst-case search over initial configurations.
//!
//! The paper warns that "simulations results may be deceiving in
//! self-stabilizing contexts, since the worst initial conditions for a
//! given protocol are not always evident" (§1.2, footnote 3). This module
//! takes that warning seriously: instead of measuring convergence only
//! from folklore starts, it *searches* the parameterized family of
//! [`FetConfigurator::mixed`] configurations (opinion fraction × stale-count
//! arming) for the slowest one — a coarse grid pass followed by local
//! refinement around the worst cell.

use crate::init::FetConfigurator;
use fet_core::config::ProblemSpec;
use fet_core::fet::FetProtocol;
use fet_core::population::TypedPopulation;
use fet_sim::batch::parallel_map;
use fet_sim::convergence::ConvergenceCriterion;
use fet_sim::engine::{Engine, Fidelity};
use fet_sim::observer::NullObserver;
use fet_stats::rng::SeedTree;
use fet_stats::summary::Summary;

/// A point in the adversarial family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryPoint {
    /// Fraction of non-source agents starting with opinion 1.
    pub frac_ones: f64,
    /// Fraction carrying the maximal stale count `ℓ` (the rest carry 0).
    pub frac_stale_high: f64,
}

/// Measured cost of one adversary point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredPoint {
    /// The configuration family parameters.
    pub point: AdversaryPoint,
    /// Mean convergence time over the replicates (budget value when a
    /// replicate failed to converge — failures are maximally expensive).
    pub mean_time: f64,
    /// Worst single replicate.
    pub max_time: f64,
    /// Number of replicates that failed to converge within budget.
    pub failures: u64,
}

/// Search configuration and runner.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstCaseSearch {
    protocol: FetProtocol,
    spec: ProblemSpec,
    /// Replicates per candidate point.
    pub replicates: u64,
    /// Round budget per replicate.
    pub max_rounds: u64,
    /// Worker threads.
    pub threads: usize,
    /// Root seed.
    pub seed: u64,
}

/// Result of a search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Every point measured, in evaluation order.
    pub measured: Vec<MeasuredPoint>,
    /// The worst point found.
    pub worst: MeasuredPoint,
}

impl WorstCaseSearch {
    /// Creates a search over the given instance.
    pub fn new(protocol: FetProtocol, spec: ProblemSpec, seed: u64) -> Self {
        WorstCaseSearch {
            protocol,
            spec,
            replicates: 10,
            max_rounds: 50_000,
            threads: 4,
            seed,
        }
    }

    /// Measures one adversary point.
    pub fn measure(&self, point: AdversaryPoint) -> MeasuredPoint {
        let conf = FetConfigurator::new(self.protocol.clone(), self.spec);
        let indices: Vec<u64> = (0..self.replicates).collect();
        let times = parallel_map(&indices, self.threads, |&rep| {
            let tree = SeedTree::new(self.seed)
                .child("worst-case")
                .child_indexed("rep", rep);
            let mut rng = tree.child("states").rng();
            let states = conf.mixed(point.frac_ones, point.frac_stale_high, &mut rng);
            let mut engine = Engine::from_population(
                Box::new(TypedPopulation::from_states(self.protocol.clone(), states)),
                self.spec,
                Fidelity::Binomial,
                tree.child("engine").seed(),
            )
            .expect("states generated to match the spec");
            let report = engine.run(
                self.max_rounds,
                ConvergenceCriterion::new(3),
                &mut NullObserver,
            );
            match report.converged_at {
                Some(t) => (t as f64, false),
                None => (self.max_rounds as f64, true),
            }
        });
        let failures = times.iter().filter(|(_, failed)| *failed).count() as u64;
        let values: Vec<f64> = times.iter().map(|(t, _)| *t).collect();
        let s = Summary::from_slice(&values).expect("replicates ≥ 1");
        MeasuredPoint {
            point,
            mean_time: s.mean(),
            max_time: s.max(),
            failures,
        }
    }

    /// Coarse `grid × grid` sweep followed by one ring of local refinement
    /// around the worst cell.
    pub fn run(&self, grid: usize) -> SearchOutcome {
        let grid = grid.max(2);
        let mut measured = Vec::new();
        for i in 0..grid {
            for j in 0..grid {
                let point = AdversaryPoint {
                    frac_ones: i as f64 / (grid - 1) as f64,
                    frac_stale_high: j as f64 / (grid - 1) as f64,
                };
                measured.push(self.measure(point));
            }
        }
        let mut worst = *measured
            .iter()
            .max_by(|a, b| a.mean_time.total_cmp(&b.mean_time))
            .expect("grid is nonempty");
        // Local refinement: probe the 8-neighbourhood at half the grid step.
        let step = 0.5 / (grid - 1) as f64;
        for di in [-1.0, 0.0, 1.0] {
            for dj in [-1.0, 0.0, 1.0] {
                if di == 0.0 && dj == 0.0 {
                    continue;
                }
                let cand = AdversaryPoint {
                    frac_ones: (worst.point.frac_ones + di * step).clamp(0.0, 1.0),
                    frac_stale_high: (worst.point.frac_stale_high + dj * step).clamp(0.0, 1.0),
                };
                let m = self.measure(cand);
                measured.push(m);
                if m.mean_time > worst.mean_time {
                    worst = m;
                }
            }
        }
        SearchOutcome { measured, worst }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_core::opinion::Opinion;

    fn small_search() -> WorstCaseSearch {
        let spec = ProblemSpec::single_source(150, Opinion::One).unwrap();
        let protocol = FetProtocol::for_population(150, 4.0).unwrap();
        let mut s = WorstCaseSearch::new(protocol, spec, 42);
        s.replicates = 3;
        s.max_rounds = 20_000;
        s.threads = 3;
        s
    }

    #[test]
    fn measure_is_deterministic() {
        let s = small_search();
        let p = AdversaryPoint {
            frac_ones: 0.0,
            frac_stale_high: 1.0,
        };
        let a = s.measure(p);
        let b = s.measure(p);
        assert_eq!(a, b);
    }

    #[test]
    fn search_finds_a_worst_point_and_converges_everywhere() {
        let s = small_search();
        let outcome = s.run(2);
        // 4 grid cells + ≤ 8 refinements.
        assert!(outcome.measured.len() >= 4);
        assert!(
            outcome.worst.failures == 0,
            "FET should converge from every family member"
        );
        // The worst must be at least as slow as every measured point.
        for m in &outcome.measured {
            assert!(outcome.worst.mean_time >= m.mean_time - 1e-9);
        }
    }
}
