//! Convergence detection.
//!
//! The paper defines the running time `t_con` as "the first round that the
//! configuration of opinions reached a consensus on the correct opinion,
//! and remained unchanged forever after". A finite run cannot certify
//! "forever"; the detector instead requires the all-correct configuration
//! to persist for a configurable *stability window*. For FET with a source
//! the all-correct configuration is genuinely absorbing — once everyone
//! agrees, every sample is unanimous, every comparison ties, and ties keep —
//! so any window ≥ 1 identifies the true `t_con`; baselines without an
//! absorbing state need larger windows.

use crate::fault::FaultEventKind;

/// When to declare convergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceCriterion {
    /// Number of consecutive all-correct rounds required.
    pub stability_window: u64,
}

impl ConvergenceCriterion {
    /// Criterion with the given stability window (clamped to ≥ 1).
    pub fn new(stability_window: u64) -> Self {
        ConvergenceCriterion {
            stability_window: stability_window.max(1),
        }
    }

    /// The paper-appropriate default for a population of `n`:
    /// `⌈log₂ n⌉` rounds.
    pub fn for_population(n: u64) -> Self {
        ConvergenceCriterion::new((64 - n.leading_zeros() as u64).max(1))
    }
}

impl Default for ConvergenceCriterion {
    fn default() -> Self {
        ConvergenceCriterion::new(1)
    }
}

/// Streaming detector fed once per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceDetector {
    criterion: ConvergenceCriterion,
    streak_start: Option<u64>,
    confirmed_at: Option<u64>,
}

impl ConvergenceDetector {
    /// Creates a detector.
    pub fn new(criterion: ConvergenceCriterion) -> Self {
        ConvergenceDetector {
            criterion,
            streak_start: None,
            confirmed_at: None,
        }
    }

    /// Feeds the state of one round: whether *all* non-source agents
    /// currently decide the correct opinion. Returns `true` once
    /// convergence is confirmed (and from then on).
    pub fn observe(&mut self, round: u64, all_correct: bool) -> bool {
        if self.confirmed_at.is_some() {
            return true;
        }
        if all_correct {
            let start = *self.streak_start.get_or_insert(round);
            if round + 1 - start >= self.criterion.stability_window {
                self.confirmed_at = Some(start);
                return true;
            }
        } else {
            self.streak_start = None;
        }
        false
    }

    /// The confirmed convergence round `t_con` (start of the surviving
    /// streak), if any.
    pub fn converged_at(&self) -> Option<u64> {
        self.confirmed_at
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceReport {
    /// `t_con`: first round of the stability-confirmed all-correct streak.
    pub converged_at: Option<u64>,
    /// Total rounds executed.
    pub rounds_run: u64,
    /// Fraction of non-source agents deciding correctly at the end.
    pub final_fraction_correct: f64,
}

impl ConvergenceReport {
    /// `true` when the run converged within its round budget.
    pub fn converged(&self) -> bool {
        self.converged_at.is_some()
    }

    /// Convergence time as a float, or `NaN` when the run failed —
    /// convenient for summaries that filter with `is_finite`.
    pub fn time_or_nan(&self) -> f64 {
        self.converged_at.map_or(f64::NAN, |t| t as f64)
    }
}

/// Recovery outcome of one fault-schedule event.
///
/// A record opens when its event fires and tracks two milestones against
/// the *post-event* correct opinion:
///
/// * **adaptation** — the first round at which every non-source agent
///   decides correctly again (`adapted_at`);
/// * **re-stabilization** — the start of the first all-correct streak
///   that persists for the run's stability window (`restabilized_at`).
///
/// Both stay `None` when the run never recovers before the next event or
/// the round budget — under persistent noise that is the expected
/// outcome, not an error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryRecord {
    /// Round at whose start the event fired.
    pub event_round: u64,
    /// What kind of event perturbed the run.
    pub kind: FaultEventKind,
    /// First all-correct round at or after the event, if any.
    pub adapted_at: Option<u64>,
    /// Start of the first stability-window-long all-correct streak at or
    /// after the event, if any.
    pub restabilized_at: Option<u64>,
}

impl RecoveryRecord {
    /// Rounds from the event to the first all-correct round.
    pub fn adaptation_latency(&self) -> Option<u64> {
        self.adapted_at.map(|r| r - self.event_round)
    }

    /// Rounds from the event to the start of the surviving streak.
    pub fn restabilization_time(&self) -> Option<u64> {
        self.restabilized_at.map(|r| r - self.event_round)
    }
}

/// Streaming per-event recovery bookkeeping, fed once per round like
/// [`ConvergenceDetector`]. Opening an event closes the previous one (its
/// milestones freeze), so each record measures recovery within its own
/// inter-event window.
#[derive(Debug, Clone)]
pub struct RecoveryTracker {
    criterion: ConvergenceCriterion,
    records: Vec<RecoveryRecord>,
    /// Index of the still-open record, with its current streak start.
    open: Option<(usize, Option<u64>)>,
}

impl RecoveryTracker {
    /// Creates a tracker confirming re-stabilization with `criterion`.
    pub fn new(criterion: ConvergenceCriterion) -> Self {
        RecoveryTracker {
            criterion,
            records: Vec::new(),
            open: None,
        }
    }

    /// Registers an event firing at the start of `round`: freezes the
    /// previous record (if still open) and opens a new one.
    pub fn on_event(&mut self, round: u64, kind: FaultEventKind) {
        self.records.push(RecoveryRecord {
            event_round: round,
            kind,
            adapted_at: None,
            restabilized_at: None,
        });
        self.open = Some((self.records.len() - 1, None));
    }

    /// Feeds the state of one round (same convention as
    /// [`ConvergenceDetector::observe`]).
    pub fn observe(&mut self, round: u64, all_correct: bool) {
        let Some((idx, streak_start)) = self.open.as_mut() else {
            return;
        };
        if all_correct {
            let record = &mut self.records[*idx];
            record.adapted_at.get_or_insert(round);
            let start = *streak_start.get_or_insert(round);
            if round + 1 - start >= self.criterion.stability_window {
                record.restabilized_at = Some(start);
                self.open = None;
            }
        } else {
            *streak_start = None;
        }
    }

    /// Replaces the re-stabilization criterion. Called at run entry so
    /// the tracker honors the run's stability window even when events
    /// were installed before the criterion was known.
    pub fn set_criterion(&mut self, criterion: ConvergenceCriterion) {
        self.criterion = criterion;
    }

    /// Drops all records and any open streak — used when a fresh
    /// schedule is installed.
    pub fn reset(&mut self) {
        self.records.clear();
        self.open = None;
    }

    /// `true` when no record is still waiting for re-stabilization.
    pub fn is_settled(&self) -> bool {
        self.open.is_none()
    }

    /// The per-event records so far (the last may still be open).
    pub fn records(&self) -> &[RecoveryRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_of_one_confirms_immediately() {
        let mut d = ConvergenceDetector::new(ConvergenceCriterion::new(1));
        assert!(!d.observe(0, false));
        assert!(d.observe(1, true));
        assert_eq!(d.converged_at(), Some(1));
    }

    #[test]
    fn broken_streak_resets() {
        let mut d = ConvergenceDetector::new(ConvergenceCriterion::new(3));
        assert!(!d.observe(0, true));
        assert!(!d.observe(1, true));
        assert!(!d.observe(2, false)); // streak dies at length 2
        assert!(!d.observe(3, true));
        assert!(!d.observe(4, true));
        assert!(d.observe(5, true));
        assert_eq!(d.converged_at(), Some(3), "t_con is the streak start");
    }

    #[test]
    fn confirmation_is_sticky() {
        let mut d = ConvergenceDetector::new(ConvergenceCriterion::new(1));
        assert!(d.observe(0, true));
        // Later rounds cannot un-confirm (the engine stops feeding anyway).
        assert!(d.observe(1, false));
        assert_eq!(d.converged_at(), Some(0));
    }

    #[test]
    fn zero_window_clamps_to_one() {
        let c = ConvergenceCriterion::new(0);
        assert_eq!(c.stability_window, 1);
    }

    #[test]
    fn for_population_scales_logarithmically() {
        assert_eq!(
            ConvergenceCriterion::for_population(1024).stability_window,
            11
        );
        assert_eq!(ConvergenceCriterion::for_population(2).stability_window, 2);
    }

    #[test]
    fn recovery_tracker_measures_adaptation_and_restabilization() {
        let mut t = RecoveryTracker::new(ConvergenceCriterion::new(3));
        assert!(t.is_settled());
        t.observe(0, true); // no open record: ignored
        t.on_event(5, FaultEventKind::TrendSwitch);
        assert!(!t.is_settled());
        t.observe(5, false);
        t.observe(6, true); // adaptation
        t.observe(7, false); // streak broken
        t.observe(8, true);
        t.observe(9, true);
        assert!(!t.is_settled());
        t.observe(10, true); // streak of 3 starting at 8
        assert!(t.is_settled());
        let records = t.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].event_round, 5);
        assert_eq!(records[0].kind, FaultEventKind::TrendSwitch);
        assert_eq!(records[0].adapted_at, Some(6));
        assert_eq!(records[0].restabilized_at, Some(8));
        assert_eq!(records[0].adaptation_latency(), Some(1));
        assert_eq!(records[0].restabilization_time(), Some(3));
    }

    #[test]
    fn next_event_freezes_an_unrecovered_record() {
        let mut t = RecoveryTracker::new(ConvergenceCriterion::new(2));
        t.on_event(0, FaultEventKind::StateCorruption);
        t.observe(0, false);
        t.observe(1, true); // adapted, but streak too short
        t.on_event(2, FaultEventKind::TrendSwitch);
        t.observe(2, true);
        t.observe(3, true);
        let records = t.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].adapted_at, Some(1));
        assert_eq!(
            records[0].restabilized_at, None,
            "frozen by the next event before confirming"
        );
        assert_eq!(records[1].restabilized_at, Some(2));
        assert!(t.is_settled());
    }

    #[test]
    fn report_helpers() {
        let ok = ConvergenceReport {
            converged_at: Some(7),
            rounds_run: 20,
            final_fraction_correct: 1.0,
        };
        assert!(ok.converged());
        assert_eq!(ok.time_or_nan(), 7.0);
        let bad = ConvergenceReport {
            converged_at: None,
            rounds_run: 20,
            final_fraction_correct: 0.4,
        };
        assert!(!bad.converged());
        assert!(bad.time_or_nan().is_nan());
    }
}
