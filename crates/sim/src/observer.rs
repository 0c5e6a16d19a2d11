//! Round observers: hooks for recording trajectories and statistics.

/// Per-round snapshot delivered to observers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSnapshot {
    /// Round index `t` (0 is the initial configuration).
    pub round: u64,
    /// Fraction of *all* agents (sources included) holding opinion 1 —
    /// the paper's `x_t`.
    pub fraction_ones: f64,
    /// Fraction of non-source agents currently deciding the correct
    /// opinion.
    pub fraction_correct: f64,
}

/// Observer of a simulation run; called once per recorded round, including
/// round 0 (the initial configuration).
pub trait RoundObserver {
    /// Receives one round snapshot.
    fn on_round(&mut self, snapshot: RoundSnapshot);
}

/// Observer that ignores everything (zero-cost default).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl RoundObserver for NullObserver {
    fn on_round(&mut self, _snapshot: RoundSnapshot) {}
}

/// Records the full `x_t` trajectory.
///
/// # Example
///
/// ```
/// use fet_sim::observer::{RoundObserver, RoundSnapshot, TrajectoryRecorder};
///
/// let mut rec = TrajectoryRecorder::new();
/// rec.on_round(RoundSnapshot { round: 0, fraction_ones: 0.25, fraction_correct: 0.25 });
/// assert_eq!(rec.fractions(), &[0.25]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrajectoryRecorder {
    fractions: Vec<f64>,
    correct: Vec<f64>,
}

impl TrajectoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        TrajectoryRecorder::default()
    }

    /// The recorded `x_t` series, one entry per round starting at round 0.
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
    }

    /// The recorded fraction-correct series.
    pub fn fractions_correct(&self) -> &[f64] {
        &self.correct
    }

    /// Consumes the recorder, returning the `x_t` series.
    pub fn into_fractions(self) -> Vec<f64> {
        self.fractions
    }

    /// Consecutive pairs `(x_t, x_{t+1})` — the paper's grid points.
    pub fn pairs(&self) -> Vec<(f64, f64)> {
        self.fractions.windows(2).map(|w| (w[0], w[1])).collect()
    }
}

impl RoundObserver for TrajectoryRecorder {
    fn on_round(&mut self, snapshot: RoundSnapshot) {
        self.fractions.push(snapshot.fraction_ones);
        self.correct.push(snapshot.fraction_correct);
    }
}

/// Fans one snapshot stream out to two observers.
#[derive(Debug, Default)]
pub struct PairObserver<A, B> {
    /// First observer.
    pub first: A,
    /// Second observer.
    pub second: B,
}

impl<A: RoundObserver, B: RoundObserver> RoundObserver for PairObserver<A, B> {
    fn on_round(&mut self, snapshot: RoundSnapshot) {
        self.first.on_round(snapshot);
        self.second.on_round(snapshot);
    }
}

impl<F: FnMut(RoundSnapshot)> RoundObserver for F {
    fn on_round(&mut self, snapshot: RoundSnapshot) {
        self(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(round: u64, x: f64) -> RoundSnapshot {
        RoundSnapshot {
            round,
            fraction_ones: x,
            fraction_correct: x,
        }
    }

    #[test]
    fn trajectory_records_in_order() {
        let mut rec = TrajectoryRecorder::new();
        for (t, x) in [(0u64, 0.1), (1, 0.4), (2, 0.9)] {
            rec.on_round(snap(t, x));
        }
        assert_eq!(rec.fractions(), &[0.1, 0.4, 0.9]);
        assert_eq!(rec.pairs(), vec![(0.1, 0.4), (0.4, 0.9)]);
    }

    #[test]
    fn pair_observer_feeds_both() {
        let mut pair = PairObserver {
            first: TrajectoryRecorder::new(),
            second: TrajectoryRecorder::new(),
        };
        pair.on_round(snap(0, 0.5));
        assert_eq!(pair.first.fractions(), &[0.5]);
        assert_eq!(pair.second.fractions(), &[0.5]);
    }

    #[test]
    fn closures_are_observers() {
        let mut seen = Vec::new();
        {
            let mut f = |s: RoundSnapshot| seen.push(s.round);
            f.on_round(snap(3, 0.2));
        }
        assert_eq!(seen, vec![3]);
    }

    #[test]
    fn null_observer_is_inert() {
        let mut n = NullObserver;
        n.on_round(snap(0, 0.0)); // must not panic
    }
}
