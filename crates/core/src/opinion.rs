//! Binary opinions and agent identities.

use std::fmt;
use std::ops::Not;

/// A binary opinion bit, the *only* information an agent reveals under
/// passive communication.
///
/// The paper's world of opinions is `{0, 1}` with one value designated
/// *correct*; this enum is deliberately not a `bool` so that protocol code
/// reads as the paper does (`Opinion::One`, not `true`).
///
/// # Example
///
/// ```
/// use fet_core::opinion::Opinion;
///
/// let y = Opinion::One;
/// assert_eq!(!y, Opinion::Zero);
/// assert_eq!(y.as_bit(), 1);
/// assert_eq!(Opinion::from_bit_value(0), Opinion::Zero);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Opinion {
    /// Opinion `0`.
    Zero,
    /// Opinion `1`.
    One,
}

impl Opinion {
    /// The opinion as a `0`/`1` integer.
    pub fn as_bit(self) -> u8 {
        match self {
            Opinion::Zero => 0,
            Opinion::One => 1,
        }
    }

    /// Builds an opinion from any integer: nonzero maps to [`Opinion::One`].
    pub fn from_bit_value(bit: u8) -> Self {
        if bit == 0 {
            Opinion::Zero
        } else {
            Opinion::One
        }
    }

    /// `true` iff this is [`Opinion::One`].
    pub fn is_one(self) -> bool {
        matches!(self, Opinion::One)
    }

    /// The opposite opinion.
    #[must_use]
    pub fn flipped(self) -> Self {
        !self
    }

    /// Relabels under the `0 ↔ 1` symmetry iff `flip` is set.
    ///
    /// The FET protocol is symmetric with respect to the source's opinion
    /// (§2 of the paper assumes w.l.o.g. the source holds 1); tests use this
    /// helper to express the symmetry property.
    #[must_use]
    pub fn relabeled(self, flip: bool) -> Self {
        if flip {
            !self
        } else {
            self
        }
    }
}

impl Not for Opinion {
    type Output = Opinion;

    fn not(self) -> Opinion {
        match self {
            Opinion::Zero => Opinion::One,
            Opinion::One => Opinion::Zero,
        }
    }
}

impl From<bool> for Opinion {
    fn from(b: bool) -> Self {
        if b {
            Opinion::One
        } else {
            Opinion::Zero
        }
    }
}

impl From<Opinion> for bool {
    fn from(o: Opinion) -> bool {
        o.is_one()
    }
}

impl fmt::Display for Opinion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_bit())
    }
}

/// Dense identifier of an agent within one population, in `[0, n)`.
///
/// A newtype rather than a bare `usize` so agent indices cannot be confused
/// with round numbers or counts in engine code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AgentId(pub u32);

impl AgentId {
    /// The index as a `usize`, for slice addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for AgentId {
    fn from(v: u32) -> Self {
        AgentId(v)
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_round_trip() {
        assert_eq!(
            Opinion::from_bit_value(Opinion::Zero.as_bit()),
            Opinion::Zero
        );
        assert_eq!(Opinion::from_bit_value(Opinion::One.as_bit()), Opinion::One);
        assert_eq!(Opinion::from_bit_value(7), Opinion::One);
    }

    #[test]
    fn negation_is_involutive() {
        for o in [Opinion::Zero, Opinion::One] {
            assert_eq!(!!o, o);
            assert_eq!(o.flipped().flipped(), o);
        }
    }

    #[test]
    fn relabeled_identity_and_flip() {
        assert_eq!(Opinion::One.relabeled(false), Opinion::One);
        assert_eq!(Opinion::One.relabeled(true), Opinion::Zero);
    }

    #[test]
    fn bool_conversions() {
        assert_eq!(Opinion::from(true), Opinion::One);
        assert_eq!(Opinion::from(false), Opinion::Zero);
        assert!(bool::from(Opinion::One));
        assert!(!bool::from(Opinion::Zero));
    }

    #[test]
    fn ordering_places_zero_first() {
        assert!(Opinion::Zero < Opinion::One);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Opinion::One.to_string(), "1");
        assert_eq!(Opinion::Zero.to_string(), "0");
        assert_eq!(AgentId(3).to_string(), "agent#3");
    }

    #[test]
    fn agent_id_index() {
        assert_eq!(AgentId(42).index(), 42usize);
        assert_eq!(AgentId::from(9u32), AgentId(9));
    }
}
