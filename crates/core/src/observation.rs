//! The passive-communication observation type.
//!
//! Under the paper's model (§1.2), "sampling ℓ agents is equivalent to
//! receiving an integer between 0 and ℓ corresponding to the number of
//! agents with opinion 1 among the sampled agents". [`Observation`] is
//! exactly that integer, paired with the sample size — and nothing else.
//! Because every protocol in this workspace consumes observations through
//! this type, passive communication is a structural guarantee, not a
//! convention.

use crate::error::CoreError;
use crate::opinion::Opinion;

/// What one agent learns in one round: the number of 1-opinions among the
/// agents it sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Observation {
    ones: u32,
    sample_size: u32,
}

impl Observation {
    /// Creates an observation of `ones` 1-opinions among `sample_size`
    /// sampled agents.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ObservationOverflow`] when `ones > sample_size`.
    ///
    /// # Example
    ///
    /// ```
    /// use fet_core::observation::Observation;
    ///
    /// let obs = Observation::new(3, 8)?;
    /// assert_eq!(obs.ones(), 3);
    /// assert_eq!(obs.zeros(), 5);
    /// # Ok::<(), fet_core::CoreError>(())
    /// ```
    pub fn new(ones: u32, sample_size: u32) -> Result<Self, CoreError> {
        if ones > sample_size {
            return Err(CoreError::ObservationOverflow { ones, sample_size });
        }
        Ok(Observation { ones, sample_size })
    }

    /// Builds the observation implied by a slice of sampled opinion bits.
    ///
    /// This is the bridge used by the literal agent-level fidelity: it
    /// *discards* everything about the sampled agents except their opinion
    /// counts, enforcing the passive model at the boundary.
    pub fn from_opinions(opinions: &[Opinion]) -> Self {
        let ones = opinions.iter().filter(|o| o.is_one()).count() as u32;
        Observation {
            ones,
            sample_size: opinions.len() as u32,
        }
    }

    /// Number of sampled agents holding opinion 1 (the paper's `COUNT`).
    pub fn ones(&self) -> u32 {
        self.ones
    }

    /// Number of sampled agents holding opinion 0.
    pub fn zeros(&self) -> u32 {
        self.sample_size - self.ones
    }

    /// Total number of sampled agents this round.
    pub fn sample_size(&self) -> u32 {
        self.sample_size
    }

    /// Fraction of ones in the sample; 0 for an empty sample.
    pub fn fraction_ones(&self) -> f64 {
        if self.sample_size == 0 {
            0.0
        } else {
            f64::from(self.ones) / f64::from(self.sample_size)
        }
    }

    /// `true` when every sampled opinion was 1.
    pub fn unanimous_one(&self) -> bool {
        self.sample_size > 0 && self.ones == self.sample_size
    }

    /// `true` when every sampled opinion was 0.
    pub fn unanimous_zero(&self) -> bool {
        self.sample_size > 0 && self.ones == 0
    }

    /// The observation with the `0 ↔ 1` labels exchanged; used by the
    /// symmetry property tests.
    #[must_use]
    pub fn relabeled(&self) -> Self {
        Observation {
            ones: self.sample_size - self.ones,
            sample_size: self.sample_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_counts() {
        assert!(Observation::new(5, 4).is_err());
        let obs = Observation::new(4, 4).unwrap();
        assert_eq!(obs.zeros(), 0);
        assert!(obs.unanimous_one());
    }

    #[test]
    fn from_opinions_counts_ones() {
        use Opinion::*;
        let obs = Observation::from_opinions(&[One, Zero, One, One]);
        assert_eq!(obs.ones(), 3);
        assert_eq!(obs.sample_size(), 4);
        assert!((obs.fraction_ones() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_is_degenerate_but_valid() {
        let obs = Observation::from_opinions(&[]);
        assert_eq!(obs.sample_size(), 0);
        assert_eq!(obs.fraction_ones(), 0.0);
        assert!(!obs.unanimous_one());
        assert!(!obs.unanimous_zero());
    }

    #[test]
    fn relabeled_swaps_counts() {
        let obs = Observation::new(3, 10).unwrap();
        let flipped = obs.relabeled();
        assert_eq!(flipped.ones(), 7);
        assert_eq!(flipped.zeros(), 3);
        assert_eq!(flipped.relabeled(), obs);
    }

    #[test]
    fn unanimity_flags() {
        assert!(Observation::new(0, 5).unwrap().unanimous_zero());
        assert!(Observation::new(5, 5).unwrap().unanimous_one());
        assert!(!Observation::new(2, 5).unwrap().unanimous_zero());
        assert!(!Observation::new(2, 5).unwrap().unanimous_one());
    }
}
