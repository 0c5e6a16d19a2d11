//! The source agent.
//!
//! The population contains one (or a constant number of) *source* agents
//! which know the correct opinion, adopt it, and never change it (§1.2).
//! The source does not run the protocol; its public output is constantly the
//! correct bit — the paper stresses that FET's correctness "does not require
//! that the source actively cooperates with the algorithm" (§5).

use crate::opinion::Opinion;

/// A source agent: a constant emitter of the correct opinion.
///
/// Supports *retargeting*: the adversary of §1.2 "may initially set a
/// different opinion to the source, but then the value of the correct bit
/// would change" — and experiment E15 flips the source mid-run to measure
/// re-stabilization.
///
/// # Example
///
/// ```
/// use fet_core::source::Source;
/// use fet_core::opinion::Opinion;
///
/// let mut src = Source::new(Opinion::One);
/// assert_eq!(src.output(), Opinion::One);
/// src.retarget(Opinion::Zero); // the correct bit itself changed
/// assert_eq!(src.output(), Opinion::Zero);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Source {
    correct: Opinion,
}

impl Source {
    /// Creates a source holding the correct opinion.
    pub fn new(correct: Opinion) -> Self {
        Source { correct }
    }

    /// The source's public output — always the correct opinion.
    pub fn output(&self) -> Opinion {
        self.correct
    }

    /// The correct opinion this source promotes.
    pub fn correct(&self) -> Opinion {
        self.correct
    }

    /// Changes the correct bit (the environment changed); convergence must
    /// then be re-established with respect to the new value.
    pub fn retarget(&mut self, correct: Opinion) {
        self.correct = correct;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_never_wavers() {
        let src = Source::new(Opinion::One);
        for _ in 0..10 {
            assert_eq!(src.output(), Opinion::One);
        }
    }

    #[test]
    fn retarget_changes_output() {
        let mut src = Source::new(Opinion::Zero);
        src.retarget(Opinion::One);
        assert_eq!(src.output(), Opinion::One);
        assert_eq!(src.correct(), Opinion::One);
    }
}
