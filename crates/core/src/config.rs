//! Problem-instance specification.
//!
//! A [`ProblemSpec`] pins down one instance of the self-stabilizing
//! bit-dissemination problem: the population size `n`, how many source
//! agents it contains, and which opinion is correct. The simulation engine
//! consumes this together with a protocol and an initial configuration.

use crate::error::CoreError;
use crate::opinion::Opinion;

/// One instance of the bit-dissemination problem.
///
/// # Example
///
/// ```
/// use fet_core::config::ProblemSpec;
/// use fet_core::opinion::Opinion;
///
/// let spec = ProblemSpec::new(1_000, 1, Opinion::One)?;
/// assert_eq!(spec.num_non_sources(), 999);
/// # Ok::<(), fet_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemSpec {
    n: u64,
    num_sources: u64,
    correct: Opinion,
}

impl ProblemSpec {
    /// Creates a problem instance with `n` agents of which `num_sources`
    /// are sources, and `correct` as the correct opinion.
    ///
    /// The paper's main setting is a single source; it notes the framework
    /// "can be extended to allow for a constant number of sources" provided
    /// they all agree — which this type enforces by carrying a single
    /// correct bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPopulation`] when `n < 2`,
    /// `num_sources == 0`, or `num_sources >= n`.
    pub fn new(n: u64, num_sources: u64, correct: Opinion) -> Result<Self, CoreError> {
        if n < 2 {
            return Err(CoreError::InvalidPopulation {
                detail: format!("need at least 2 agents, got {n}"),
            });
        }
        if num_sources == 0 {
            return Err(CoreError::InvalidPopulation {
                detail: "need at least one source agent".into(),
            });
        }
        if num_sources >= n {
            return Err(CoreError::InvalidPopulation {
                detail: format!("{num_sources} sources leave no non-source among {n} agents"),
            });
        }
        Ok(ProblemSpec {
            n,
            num_sources,
            correct,
        })
    }

    /// The canonical single-source instance.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPopulation`] when `n < 2`.
    pub fn single_source(n: u64, correct: Opinion) -> Result<Self, CoreError> {
        ProblemSpec::new(n, 1, correct)
    }

    /// Population size `n` (sources included).
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of source agents.
    pub fn num_sources(&self) -> u64 {
        self.num_sources
    }

    /// Number of non-source agents.
    pub fn num_non_sources(&self) -> u64 {
        self.n - self.num_sources
    }

    /// The correct opinion.
    pub fn correct(&self) -> Opinion {
        self.correct
    }

    /// Returns the spec with the correct bit flipped (models the §1.2
    /// adversary that re-targets the source).
    #[must_use]
    pub fn with_correct(&self, correct: Opinion) -> Self {
        ProblemSpec { correct, ..*self }
    }

    /// Natural log of `n` — the paper's `log n` (it uses natural logs in
    /// the parameterization `ℓ = c·log n`).
    pub fn log_n(&self) -> f64 {
        (self.n as f64).ln()
    }

    /// The paper's convergence-time yardstick `log^{5/2} n`.
    pub fn log_n_pow_5_2(&self) -> f64 {
        self.log_n().powf(2.5)
    }
}

/// The paper's sample-size rule `ℓ = ⌈c·ln n⌉`, clamped to be usable for
/// every input (`n` floored at 2, result floored at 1).
///
/// This is **the** canonical implementation — the protocol constructors,
/// the registry's `ProtocolParams` and the `Simulation` facade all resolve
/// `ℓ` through it, so the rule cannot drift between entry points.
pub fn ell_for_population(n: u64, c: f64) -> u32 {
    ((c * (n.max(2) as f64).ln()).ceil() as u32).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(ProblemSpec::new(1, 1, Opinion::One).is_err());
        assert!(ProblemSpec::new(10, 0, Opinion::One).is_err());
        assert!(ProblemSpec::new(10, 10, Opinion::One).is_err());
        assert!(ProblemSpec::new(10, 9, Opinion::One).is_ok());
    }

    #[test]
    fn counts() {
        let s = ProblemSpec::new(100, 3, Opinion::Zero).unwrap();
        assert_eq!(s.n(), 100);
        assert_eq!(s.num_sources(), 3);
        assert_eq!(s.num_non_sources(), 97);
        assert_eq!(s.correct(), Opinion::Zero);
    }

    #[test]
    fn with_correct_flips_only_the_bit() {
        let s = ProblemSpec::single_source(50, Opinion::One).unwrap();
        let t = s.with_correct(Opinion::Zero);
        assert_eq!(t.correct(), Opinion::Zero);
        assert_eq!(t.n(), 50);
        assert_eq!(t.num_sources(), 1);
    }

    #[test]
    fn log_helpers() {
        let s = ProblemSpec::single_source(1 << 10, Opinion::One).unwrap();
        assert!((s.log_n() - (1024f64).ln()).abs() < 1e-12);
        assert!((s.log_n_pow_5_2() - (1024f64).ln().powf(2.5)).abs() < 1e-9);
    }
}
