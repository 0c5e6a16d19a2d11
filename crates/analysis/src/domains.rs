//! The state-space partition of Figures 1a and 2.
//!
//! The proof of Theorem 1 tracks the Markov chain `(x_t, x_{t+1})` over the
//! grid `G = {0, 1/n, …, 1}²` and partitions `G` into domains (§2.1):
//!
//! ```text
//! Green1  = { x_{t+1} ≥ x_t + δ }
//! Purple1 = { 1/log n ≤ x_t < 1/2 − 3δ  ∧  (1−λ_n)·x_t ≤ x_{t+1} < x_t + δ }
//! Red1    = { 1/log n ≤ x_{t+1}  ∧  x_t < 1/2 − 3δ  ∧  x_t − δ ≤ x_{t+1} < (1−λ_n)·x_t }
//! Cyan1   = { min(x_t, x_{t+1}) < 1/log n  ∧  x_t − δ < x_{t+1} < x_t + δ }
//! Yellow  = { |x_t − 1/2| ≤ 3δ  ∧  |x_{t+1} − 1/2| ≤ 4δ  ∧  |x_{t+1} − x_t| < δ }
//! ```
//!
//! with `λ_n = 1/log^{1/2+δ} n`, and the `…0` domains their mirror images
//! through the center `(1/2, 1/2)`. (The paper's Yellow line contains an
//! obvious typo — "`1/2 − 3δ ≤ x_t < 1/2 ≤ 3δ`" — which every other use of
//! the domain, and Figure 1a, resolve to `|x_t − 1/2| ≤ 3δ`; we implement
//! that reading.)
//!
//! §3.1 further boxes Yellow into `Yellow′ = [1/2−4δ, 1/2+4δ]²` and splits
//! it into areas A/B/C (Figure 2):
//!
//! ```text
//! A1 = { x_{t+1} ≥ 1/2  ∧  x_{t+1} − x_t ≥ x_t − 1/2 } ∩ Yellow′
//! B1 = { x_{t+1} ≥ x_t  ∧  x_{t+1} − x_t < x_t − 1/2 } ∩ Yellow′
//! C1 = { x_{t+1} < 1/2  ∧  x_{t+1} ≥ x_t } ∩ Yellow′
//! ```
//!
//! Classification here is *total*: every grid point maps to exactly one
//! [`Domain`] (property-tested), with an explicit priority order at
//! measure-zero boundaries documented on [`DomainParams::classify`].

use crate::error::AnalysisError;
use std::fmt;

/// A domain of the Figure 1a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Domain {
    /// Fast upward movement: consensus on 1 next round (Lemma 1).
    Green1,
    /// Fast downward movement: consensus of non-sources on 0 (Lemma 1).
    Green0,
    /// Low-but-positive speed far from ½, moving up (Lemma 2).
    Purple1,
    /// Mirror of `Purple1` (Lemma 2).
    Purple0,
    /// Multiplicative decay of `x_t` (Lemma 3).
    Red1,
    /// Mirror of `Red1` (Lemma 3).
    Red0,
    /// Near-consensus on the wrong opinion; the "bounce" (Lemma 4).
    Cyan1,
    /// Mirror of `Cyan1` (Lemma 4).
    Cyan0,
    /// The central slow region (Lemma 5).
    Yellow,
}

impl Domain {
    /// The color family, ignoring the 0/1 side.
    pub fn kind(&self) -> DomainKind {
        match self {
            Domain::Green1 | Domain::Green0 => DomainKind::Green,
            Domain::Purple1 | Domain::Purple0 => DomainKind::Purple,
            Domain::Red1 | Domain::Red0 => DomainKind::Red,
            Domain::Cyan1 | Domain::Cyan0 => DomainKind::Cyan,
            Domain::Yellow => DomainKind::Yellow,
        }
    }

    /// Which opinion's side this domain lies on (`None` for Yellow).
    pub fn side(&self) -> Option<u8> {
        match self {
            Domain::Green1 | Domain::Purple1 | Domain::Red1 | Domain::Cyan1 => Some(1),
            Domain::Green0 | Domain::Purple0 | Domain::Red0 | Domain::Cyan0 => Some(0),
            Domain::Yellow => None,
        }
    }

    /// All nine domains, for sweeps and tabulation.
    pub fn all() -> [Domain; 9] {
        [
            Domain::Green1,
            Domain::Green0,
            Domain::Purple1,
            Domain::Purple0,
            Domain::Red1,
            Domain::Red0,
            Domain::Cyan1,
            Domain::Cyan0,
            Domain::Yellow,
        ]
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Domain::Green1 => "Green1",
            Domain::Green0 => "Green0",
            Domain::Purple1 => "Purple1",
            Domain::Purple0 => "Purple0",
            Domain::Red1 => "Red1",
            Domain::Red0 => "Red0",
            Domain::Cyan1 => "Cyan1",
            Domain::Cyan0 => "Cyan0",
            Domain::Yellow => "Yellow",
        };
        f.write_str(s)
    }
}

/// Domain color family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DomainKind {
    /// Green (one-round consensus).
    Green,
    /// Purple (one-round jump to Green).
    Purple,
    /// Red (multiplicative decay).
    Red,
    /// Cyan (the bounce).
    Cyan,
    /// Yellow (the slow center).
    Yellow,
}

impl fmt::Display for DomainKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DomainKind::Green => "Green",
            DomainKind::Purple => "Purple",
            DomainKind::Red => "Red",
            DomainKind::Cyan => "Cyan",
            DomainKind::Yellow => "Yellow",
        };
        f.write_str(s)
    }
}

/// Sub-areas of `Yellow′` (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum YellowArea {
    /// Speed builds up; escape hatch of Yellow′ (Lemmas 7–8).
    A1,
    /// Mirror of `A1`.
    A0,
    /// Slow drift away from ½ on the 1 side (Lemmas 9–10).
    B1,
    /// Mirror of `B1`.
    B0,
    /// Pushed toward A (Lemma 11).
    C1,
    /// Mirror of `C1`.
    C0,
}

impl YellowArea {
    /// The letter family, ignoring the side.
    pub fn letter(&self) -> char {
        match self {
            YellowArea::A1 | YellowArea::A0 => 'A',
            YellowArea::B1 | YellowArea::B0 => 'B',
            YellowArea::C1 | YellowArea::C0 => 'C',
        }
    }
}

impl fmt::Display for YellowArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            YellowArea::A1 => "A1",
            YellowArea::A0 => "A0",
            YellowArea::B1 => "B1",
            YellowArea::B0 => "B0",
            YellowArea::C1 => "C1",
            YellowArea::C0 => "C0",
        };
        f.write_str(s)
    }
}

/// Parameters of the partition: the population size `n` (through
/// `1/log n` and `λ_n`) and the constant `δ ∈ (0, 1/2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainParams {
    n: u64,
    delta: f64,
    inv_log_n: f64,
    lambda_n: f64,
}

impl DomainParams {
    /// Creates the partition parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when `n < 3` (so that
    /// `log n > 1`) or `delta ∉ (0, 1/2)`.
    pub fn new(n: u64, delta: f64) -> Result<Self, AnalysisError> {
        if n < 3 {
            return Err(AnalysisError::InvalidParameter {
                name: "n",
                detail: format!("need n ≥ 3 for log n > 1, got {n}"),
            });
        }
        if !(delta > 0.0 && delta < 0.5) {
            return Err(AnalysisError::InvalidParameter {
                name: "delta",
                detail: format!("need 0 < δ < 1/2, got {delta}"),
            });
        }
        let log_n = (n as f64).ln();
        Ok(DomainParams {
            n,
            delta,
            inv_log_n: 1.0 / log_n,
            lambda_n: 1.0 / log_n.powf(0.5 + delta),
        })
    }

    /// Population size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The constant `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// `1 / log n` (natural log) — the Cyan threshold.
    pub fn inv_log_n(&self) -> f64 {
        self.inv_log_n
    }

    /// `λ_n = 1 / log^{1/2+δ} n` — the Purple/Red separator.
    pub fn lambda_n(&self) -> f64 {
        self.lambda_n
    }

    /// Mirrors a point through the center `(1/2, 1/2)`.
    fn mirror(x: f64, y: f64) -> (f64, f64) {
        (1.0 - x, 1.0 - y)
    }

    /// Slack applied to closed (≥/≤) comparisons so that mirroring a point
    /// through `(1/2, 1/2)` — which perturbs coordinates by an ulp — cannot
    /// open a measure-zero crack between adjacent domains.
    const EPS: f64 = 1e-9;

    fn in_green1(&self, x: f64, y: f64) -> bool {
        y >= x + self.delta - Self::EPS
    }

    fn in_purple1(&self, x: f64, y: f64) -> bool {
        self.inv_log_n <= x + Self::EPS
            && x < 0.5 - 3.0 * self.delta
            && (1.0 - self.lambda_n) * x <= y + Self::EPS
            && y < x + self.delta
    }

    fn in_red1(&self, x: f64, y: f64) -> bool {
        self.inv_log_n <= y + Self::EPS
            && x < 0.5 - 3.0 * self.delta
            && x - self.delta <= y + Self::EPS
            && y < (1.0 - self.lambda_n) * x
    }

    fn in_cyan1(&self, x: f64, y: f64) -> bool {
        x.min(y) < self.inv_log_n && x - self.delta < y + Self::EPS && y < x + self.delta
    }

    fn in_yellow(&self, x: f64, y: f64) -> bool {
        (x - 0.5).abs() <= 3.0 * self.delta + Self::EPS
            && (y - 0.5).abs() <= 4.0 * self.delta + Self::EPS
            && (y - x).abs() < self.delta
    }

    /// Classifies a point of `[0,1]²` into its domain.
    ///
    /// Boundary ties (measure zero) are resolved in the fixed priority
    /// order Green1, Green0, Yellow, Purple1, Purple0, Red1, Red0, Cyan1,
    /// Cyan0 — matching how the paper's lemmas consume the domains (the
    /// Green lemma applies whenever its condition holds, etc.).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the point lies outside `[0,1]²` or the
    /// partition fails to cover it (which would indicate a classifier bug —
    /// the covering is property-tested).
    pub fn classify(&self, x: f64, y: f64) -> Domain {
        debug_assert!(
            (0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y),
            "point ({x}, {y}) outside the unit square"
        );
        let (mx, my) = Self::mirror(x, y);
        if self.in_green1(x, y) {
            Domain::Green1
        } else if self.in_green1(mx, my) {
            Domain::Green0
        } else if self.in_yellow(x, y) {
            Domain::Yellow
        } else if self.in_purple1(x, y) {
            Domain::Purple1
        } else if self.in_purple1(mx, my) {
            Domain::Purple0
        } else if self.in_red1(x, y) {
            Domain::Red1
        } else if self.in_red1(mx, my) {
            Domain::Red0
        } else if self.in_cyan1(x, y) {
            Domain::Cyan1
        } else if self.in_cyan1(mx, my) {
            Domain::Cyan0
        } else {
            // The paper's five families cover G; any residual sliver (from
            // the Yellow-typo reading) is closest to Yellow semantics: a
            // slow central point. Classify accordingly rather than panic in
            // release; flag in debug.
            debug_assert!(
                self.point_is_near_center(x, y),
                "partition failed to cover ({x}, {y}) with δ = {}",
                self.delta
            );
            Domain::Yellow
        }
    }

    fn point_is_near_center(&self, x: f64, y: f64) -> bool {
        (x - 0.5).abs() <= 4.0 * self.delta + 1e-9 && (y - x).abs() < self.delta + 1e-9
    }

    /// Lists every domain whose *raw condition* holds at the point —
    /// used by the disjointness/coverage property tests.
    pub fn memberships(&self, x: f64, y: f64) -> Vec<Domain> {
        let (mx, my) = Self::mirror(x, y);
        let mut out = Vec::new();
        if self.in_green1(x, y) {
            out.push(Domain::Green1);
        }
        if self.in_green1(mx, my) {
            out.push(Domain::Green0);
        }
        if self.in_purple1(x, y) {
            out.push(Domain::Purple1);
        }
        if self.in_purple1(mx, my) {
            out.push(Domain::Purple0);
        }
        if self.in_red1(x, y) {
            out.push(Domain::Red1);
        }
        if self.in_red1(mx, my) {
            out.push(Domain::Red0);
        }
        if self.in_cyan1(x, y) {
            out.push(Domain::Cyan1);
        }
        if self.in_cyan1(mx, my) {
            out.push(Domain::Cyan0);
        }
        if self.in_yellow(x, y) {
            out.push(Domain::Yellow);
        }
        out
    }

    /// `true` when the point lies in the bounding square
    /// `Yellow′ = [1/2 − 4δ, 1/2 + 4δ]²` (§3.1).
    pub fn in_yellow_prime(&self, x: f64, y: f64) -> bool {
        (x - 0.5).abs() <= 4.0 * self.delta && (y - 0.5).abs() <= 4.0 * self.delta
    }

    /// Classifies a `Yellow′` point into the A/B/C areas of Figure 2.
    ///
    /// Returns `None` when the point lies outside `Yellow′`.
    pub fn classify_yellow_area(&self, x: f64, y: f64) -> Option<YellowArea> {
        if !self.in_yellow_prime(x, y) {
            return None;
        }
        let (mx, my) = Self::mirror(x, y);
        // A1: (i) y ≥ 1/2, (ii) y − x ≥ x − 1/2.
        let a1 = y >= 0.5 && y - x >= x - 0.5;
        if a1 {
            return Some(YellowArea::A1);
        }
        let a0 = my >= 0.5 && my - mx >= mx - 0.5;
        if a0 {
            return Some(YellowArea::A0);
        }
        // B1: (i) y ≥ x, (ii) y − x < x − 1/2.
        let b1 = y >= x && y - x < x - 0.5;
        if b1 {
            return Some(YellowArea::B1);
        }
        let b0 = my >= mx && my - mx < mx - 0.5;
        if b0 {
            return Some(YellowArea::B0);
        }
        // C1: (i) y < 1/2, (ii) y ≥ x.
        let c1 = y < 0.5 && y >= x;
        if c1 {
            return Some(YellowArea::C1);
        }
        let c0 = my < 0.5 && my >= mx;
        if c0 {
            return Some(YellowArea::C0);
        }
        // Exhaustive by the case analysis in the module docs.
        unreachable!("A/B/C partition failed to cover ({x}, {y})")
    }

    /// The paper's "speed" of a point: `|x_{t+1} − x_t|`.
    pub fn speed(x: f64, y: f64) -> f64 {
        (y - x).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DomainParams {
        DomainParams::new(10_000, 0.05).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(DomainParams::new(2, 0.05).is_err());
        assert!(DomainParams::new(100, 0.0).is_err());
        assert!(DomainParams::new(100, 0.5).is_err());
        assert!(DomainParams::new(100, 0.05).is_ok());
    }

    #[test]
    fn lambda_and_log_values() {
        let p = params();
        let log_n = 10_000f64.ln();
        assert!((p.inv_log_n() - 1.0 / log_n).abs() < 1e-12);
        assert!((p.lambda_n() - 1.0 / log_n.powf(0.55)).abs() < 1e-12);
    }

    #[test]
    fn canonical_points() {
        let p = params();
        // Strong rise / fall.
        assert_eq!(p.classify(0.3, 0.6), Domain::Green1);
        assert_eq!(p.classify(0.6, 0.3), Domain::Green0);
        // Center, tiny speed.
        assert_eq!(p.classify(0.5, 0.5), Domain::Yellow);
        assert_eq!(p.classify(0.48, 0.50), Domain::Yellow);
        // Near-consensus on 0 (wrong side), tiny speed → Cyan1.
        assert_eq!(p.classify(0.01, 0.02), Domain::Cyan1);
        assert_eq!(p.classify(0.99, 0.98), Domain::Cyan0);
        // Mid-range, slightly rising, far from ½ → Purple1.
        assert_eq!(p.classify(0.2, 0.21), Domain::Purple1);
        assert_eq!(p.classify(0.8, 0.79), Domain::Purple0);
    }

    #[test]
    fn red_requires_multiplicative_decay() {
        // Red1 is nonempty only where δ > λ_n·x (else the band
        // [x−δ, (1−λ)x) is empty) and (1−λ)x > 1/log n. Pick a point well
        // inside that band for n = 10^6.
        let p = DomainParams::new(1_000_000, 0.05).unwrap();
        let x = 0.15f64;
        assert!(p.delta() > p.lambda_n() * x, "band must be nonempty");
        let y = 0.105f64;
        assert!(y >= p.inv_log_n() && y > x - p.delta() && y < (1.0 - p.lambda_n()) * x);
        assert_eq!(p.classify(x, y), Domain::Red1);
        // Mirror.
        assert_eq!(p.classify(1.0 - x, 1.0 - y), Domain::Red0);
    }

    #[test]
    fn partition_covers_a_fine_grid() {
        let p = params();
        let steps = 101;
        for i in 0..steps {
            for j in 0..steps {
                let x = i as f64 / (steps - 1) as f64;
                let y = j as f64 / (steps - 1) as f64;
                // classify must not panic and must return a stable result.
                let d = p.classify(x, y);
                let members = p.memberships(x, y);
                assert!(
                    members.contains(&d) || members.is_empty(),
                    "classify({x},{y}) = {d} not among raw memberships {members:?}"
                );
            }
        }
    }

    #[test]
    fn partition_is_essentially_disjoint() {
        // Away from boundaries, at most one raw condition should hold.
        // We tolerate overlap only between a domain and Yellow at its rim.
        let p = params();
        let steps = 173; // prime; avoids hitting exact boundaries
        let mut overlaps = 0usize;
        let mut total = 0usize;
        for i in 1..steps {
            for j in 1..steps {
                let x = i as f64 / steps as f64;
                let y = j as f64 / steps as f64;
                let members = p.memberships(x, y);
                total += 1;
                if members.len() > 1 {
                    overlaps += 1;
                }
            }
        }
        // The published partition has measure-zero overlaps; on a generic
        // grid we expect a tiny fraction of boundary coincidences at most.
        assert!(
            (overlaps as f64) < 0.02 * total as f64,
            "too many overlapping classifications: {overlaps}/{total}"
        );
    }

    #[test]
    fn mirror_symmetry_of_classification() {
        let p = params();
        let steps = 57;
        for i in 0..=steps {
            for j in 0..=steps {
                let x = i as f64 / steps as f64;
                let y = j as f64 / steps as f64;
                let d = p.classify(x, y);
                let m = p.classify(1.0 - x, 1.0 - y);
                match (d.side(), m.side()) {
                    (Some(a), Some(b)) => {
                        assert_eq!(d.kind(), m.kind(), "at ({x},{y})");
                        assert_eq!(a, 1 - b, "at ({x},{y})");
                    }
                    (None, None) => {}
                    _ => panic!("asymmetric classification at ({x},{y}): {d} vs {m}"),
                }
            }
        }
    }

    #[test]
    fn yellow_area_partition_covers_yellow_prime() {
        let p = params();
        let steps = 97;
        let lo = 0.5 - 4.0 * p.delta();
        let hi = 0.5 + 4.0 * p.delta();
        for i in 0..=steps {
            for j in 0..=steps {
                let x = lo + (hi - lo) * i as f64 / steps as f64;
                let y = lo + (hi - lo) * j as f64 / steps as f64;
                assert!(
                    p.classify_yellow_area(x, y).is_some(),
                    "uncovered ({x},{y})"
                );
            }
        }
        assert_eq!(p.classify_yellow_area(0.9, 0.9), None);
    }

    #[test]
    fn yellow_area_canonical_points() {
        let p = params();
        // Dead center: A1 by the ≥ priority.
        assert_eq!(p.classify_yellow_area(0.5, 0.5), Some(YellowArea::A1));
        // Above ½ and accelerating up.
        assert_eq!(p.classify_yellow_area(0.51, 0.55), Some(YellowArea::A1));
        // Above ½, crawling up slower than its distance from ½.
        assert_eq!(p.classify_yellow_area(0.58, 0.59), Some(YellowArea::B1));
        // Below ½, rising toward it.
        assert_eq!(p.classify_yellow_area(0.45, 0.48), Some(YellowArea::C1));
        // Mirrors.
        assert_eq!(p.classify_yellow_area(0.49, 0.45), Some(YellowArea::A0));
        assert_eq!(p.classify_yellow_area(0.42, 0.41), Some(YellowArea::B0));
        assert_eq!(p.classify_yellow_area(0.55, 0.52), Some(YellowArea::C0));
    }

    #[test]
    fn speed_is_absolute_difference() {
        assert!((DomainParams::speed(0.3, 0.45) - 0.15).abs() < 1e-12);
        assert!((DomainParams::speed(0.45, 0.3) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn domain_metadata() {
        assert_eq!(Domain::Green1.kind(), DomainKind::Green);
        assert_eq!(Domain::Green1.side(), Some(1));
        assert_eq!(Domain::Yellow.side(), None);
        assert_eq!(Domain::all().len(), 9);
        assert_eq!(YellowArea::B0.letter(), 'B');
    }
}
