//! Per-agent memory accounting.
//!
//! Theorem 1 claims FET uses `O(log ℓ)` bits of memory per agent. This
//! module makes that claim *measurable*: every protocol reports how many
//! bits its state (a) shows publicly, (b) persists between rounds, and
//! (c) uses transiently within a round. Experiment E8 tabulates these for
//! FET and every baseline.

use std::fmt;

/// Bit-level memory footprint of one agent running a protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryFootprint {
    output_bits: u32,
    persistent_bits: u32,
    working_bits: u32,
}

impl MemoryFootprint {
    /// Creates a footprint.
    ///
    /// * `output_bits` — the publicly visible output (1 for a binary
    ///   opinion).
    /// * `persistent_bits` — internal state carried from round `t` to round
    ///   `t+1` (FET: the stored `count″`, i.e. `⌈log₂(ℓ+1)⌉` bits).
    /// * `working_bits` — transient within-round scratch (FET: the fresh
    ///   `count′`); freed before the next round.
    pub fn new(output_bits: u32, persistent_bits: u32, working_bits: u32) -> Self {
        MemoryFootprint {
            output_bits,
            persistent_bits,
            working_bits,
        }
    }

    /// Publicly visible bits.
    pub fn output_bits(&self) -> u32 {
        self.output_bits
    }

    /// Bits carried across rounds (excluding the output bit).
    pub fn persistent_bits(&self) -> u32 {
        self.persistent_bits
    }

    /// Transient within-round bits.
    pub fn working_bits(&self) -> u32 {
        self.working_bits
    }

    /// All bits alive between rounds: output + persistent.
    pub fn between_rounds_bits(&self) -> u32 {
        self.output_bits + self.persistent_bits
    }

    /// Peak bits alive at any instant: output + persistent + working.
    pub fn peak_bits(&self) -> u32 {
        self.output_bits + self.persistent_bits + self.working_bits
    }
}

impl fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} output + {} persistent + {} working bits (peak {})",
            self.output_bits,
            self.persistent_bits,
            self.working_bits,
            self.peak_bits()
        )
    }
}

/// Number of bits needed to store an integer in `[0, max_value]`:
/// `⌈log₂(max_value + 1)⌉`, with 0 requiring 0 bits.
///
/// # Example
///
/// ```
/// use fet_core::memory::bits_for_count;
///
/// assert_eq!(bits_for_count(0), 0);  // only value 0
/// assert_eq!(bits_for_count(1), 1);  // {0, 1}
/// assert_eq!(bits_for_count(8), 4);  // {0..8} needs 4 bits
/// ```
pub fn bits_for_count(max_value: u32) -> u32 {
    if max_value == 0 {
        0
    } else {
        32 - max_value.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_count_edges() {
        assert_eq!(bits_for_count(0), 0);
        assert_eq!(bits_for_count(1), 1);
        assert_eq!(bits_for_count(2), 2);
        assert_eq!(bits_for_count(3), 2);
        assert_eq!(bits_for_count(4), 3);
        assert_eq!(bits_for_count(255), 8);
        assert_eq!(bits_for_count(256), 9);
    }

    #[test]
    fn footprint_totals() {
        let m = MemoryFootprint::new(1, 6, 6);
        assert_eq!(m.between_rounds_bits(), 7);
        assert_eq!(m.peak_bits(), 13);
    }

    #[test]
    fn footprint_display_mentions_all_parts() {
        let m = MemoryFootprint::new(1, 2, 3);
        let s = m.to_string();
        assert!(s.contains("1 output"));
        assert!(s.contains("2 persistent"));
        assert!(s.contains("3 working"));
    }

    #[test]
    fn log_ell_scaling_matches_theorem1() {
        // Doubling ℓ adds exactly one bit — the O(log ℓ) claim, concretely.
        let bits_at = |ell: u32| bits_for_count(ell);
        assert_eq!(bits_at(16) + 1, bits_at(32));
        assert_eq!(bits_at(32) + 1, bits_at(64));
    }
}
