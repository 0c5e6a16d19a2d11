//! Basic initial conditions for non-source agents.
//!
//! Self-stabilization quantifies over *all* initial configurations; these
//! are the standard ones every experiment needs. The genuinely adversarial
//! constructions (targeted `(x_0, x_1)` placement, worst-case search, the
//! §1.2 impossibility states) live in `fet-adversary`, which builds on the
//! accessors the engine exposes.

use fet_core::opinion::Opinion;
use rand::Rng;

/// How non-source agents' *opinions* are set at round 0 (internal protocol
/// variables are always drawn arbitrarily via `Protocol::init_state`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitialCondition {
    /// Every non-source agent starts on the **wrong** opinion — the classic
    /// hard case (rumor-spreading-style protocols die here).
    AllWrong,
    /// Every non-source agent starts on the correct opinion (tests that
    /// consensus on the correct value is stable).
    AllCorrect,
    /// Each non-source agent holds the *correct* opinion independently with
    /// the given probability.
    FractionCorrect(f64),
    /// Uniformly random opinions (`FractionCorrect(0.5)` semantics).
    Random,
}

impl InitialCondition {
    /// Draws the initial opinion of one non-source agent, given the correct
    /// opinion of the instance.
    pub fn draw<R: Rng + ?Sized>(&self, correct: Opinion, rng: &mut R) -> Opinion {
        match self {
            InitialCondition::AllWrong => !correct,
            InitialCondition::AllCorrect => correct,
            InitialCondition::FractionCorrect(p) => {
                if rng.gen::<f64>() < *p {
                    correct
                } else {
                    !correct
                }
            }
            InitialCondition::Random => {
                if rng.gen::<bool>() {
                    correct
                } else {
                    !correct
                }
            }
        }
    }

    /// A short label for tables and CSV output.
    pub fn label(&self) -> String {
        match self {
            InitialCondition::AllWrong => "all-wrong".to_string(),
            InitialCondition::AllCorrect => "all-correct".to_string(),
            InitialCondition::FractionCorrect(p) => format!("frac-correct-{p:.2}"),
            InitialCondition::Random => "random".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_stats::rng::SeedTree;

    #[test]
    fn deterministic_conditions() {
        let mut rng = SeedTree::new(1).child("init").rng();
        for correct in [Opinion::Zero, Opinion::One] {
            assert_eq!(InitialCondition::AllWrong.draw(correct, &mut rng), !correct);
            assert_eq!(
                InitialCondition::AllCorrect.draw(correct, &mut rng),
                correct
            );
        }
    }

    #[test]
    fn fraction_correct_statistics() {
        let mut rng = SeedTree::new(2).child("frac").rng();
        let cond = InitialCondition::FractionCorrect(0.8);
        let n = 50_000;
        let correct_hits = (0..n)
            .filter(|_| cond.draw(Opinion::One, &mut rng) == Opinion::One)
            .count();
        let frac = correct_hits as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.01, "fraction {frac}");
    }

    #[test]
    fn random_is_balanced() {
        let mut rng = SeedTree::new(3).child("rand").rng();
        let n = 50_000;
        let ones = (0..n)
            .filter(|_| InitialCondition::Random.draw(Opinion::One, &mut rng) == Opinion::One)
            .count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "fraction {frac}");
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<String> = [
            InitialCondition::AllWrong,
            InitialCondition::AllCorrect,
            InitialCondition::FractionCorrect(0.25),
            InitialCondition::Random,
        ]
        .iter()
        .map(|c| c.label())
        .collect();
        assert_eq!(labels.len(), 4);
    }
}
