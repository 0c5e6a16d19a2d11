//! Fault injection (extension features, experiment E15) and round-indexed
//! fault schedules (the robustness tier).
//!
//! The paper's related work studies rumor spreading under message
//! corruption (Feinerman et al. 2017, Boczkowski et al. 2018a); its §1.2
//! adversary may re-target the source at time 0. This module generalizes
//! both in two layers:
//!
//! * [`FaultPlan`] — the *ambient* fault environment of a run:
//!   - **observation noise** — each sampled opinion bit flips independently
//!     with probability `flip_prob` before being counted;
//!   - **sleepy agents** — each non-source agent independently skips its
//!     update with probability `sleep_prob` each round (keeping its
//!     output);
//!   - **source retargeting** — at a chosen round the correct bit flips,
//!     modelling an environment change after (possible) convergence.
//! * [`FaultSchedule`] — a round-indexed *adversary script*: an ordered
//!   list of [`FaultEvent`]s (repeated trend switches, timed noise-level
//!   changes, bounded noise bursts, and mid-run state corruption — the
//!   literal self-stabilization adversary) layered over a base
//!   [`FaultPlan`]. Schedules compose deterministically with every
//!   execution mode and storage representation: event side effects draw
//!   from a dedicated `SeedTree` lane (`"fault-schedule"`), so a schedule
//!   with no events is bit-identical to running its base plan alone.

use crate::error::SimError;
use fet_core::opinion::Opinion;
use rand::{Rng, RngCore};
use std::fmt;

/// Ambient fault environment for one run. The default plan is fault-free.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that each observed opinion bit is flipped (i.i.d.).
    pub flip_prob: f64,
    /// Probability that a non-source agent skips its update in a round.
    pub sleep_prob: f64,
    /// If set, at the start of round `.0` the correct opinion becomes `.1`.
    pub source_retarget: Option<(u64, Opinion)>,
}

/// `InvalidParameter { name: "fault" }` with an axis-naming detail line,
/// matching the builder's validation style.
fn fault_error(detail: String) -> SimError {
    SimError::InvalidParameter {
        name: "fault",
        detail,
    }
}

/// Validates a probability-like knob, naming the offending axis.
fn check_unit(axis: &str, p: f64) -> Result<(), SimError> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(fault_error(format!(
            "offending axis: {axis} — must lie in [0, 1], got {p}"
        )))
    }
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Plan with observation noise only.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when `flip_prob ∉ [0, 1]`.
    pub fn with_noise(flip_prob: f64) -> Result<Self, SimError> {
        check_unit("flip_prob", flip_prob)?;
        Ok(FaultPlan {
            flip_prob,
            ..FaultPlan::default()
        })
    }

    /// Plan with sleepy agents only.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when `sleep_prob ∉ [0, 1]`.
    pub fn with_sleep(sleep_prob: f64) -> Result<Self, SimError> {
        check_unit("sleep_prob", sleep_prob)?;
        Ok(FaultPlan {
            sleep_prob,
            ..FaultPlan::default()
        })
    }

    /// Plan that flips the correct bit to `correct` at `round`.
    pub fn with_source_retarget(round: u64, correct: Opinion) -> Self {
        FaultPlan {
            source_retarget: Some((round, correct)),
            ..FaultPlan::default()
        }
    }

    /// `true` when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.flip_prob == 0.0 && self.sleep_prob == 0.0 && self.source_retarget.is_none()
    }

    /// Validates every knob, naming the offending axis.
    pub fn validate(&self) -> Result<(), SimError> {
        check_unit("flip_prob", self.flip_prob)?;
        check_unit("sleep_prob", self.sleep_prob)
    }

    /// Applies observation bit-flip noise to a true count of `ones` among
    /// `sample_size` observed bits: each bit flips independently with
    /// probability `flip_prob`, so flipped ones become zeros and vice
    /// versa. Exact, not an approximation.
    ///
    /// The bits are exchangeable given their count, so the ones sit at
    /// positions `0..ones` and the zeros after them. The flipped positions
    /// are visited by geometric skipping: a uniform `u ∈ (0, 1]` leaves the
    /// remaining `r` bits untouched iff `u ≤ (1 − δ)^r`, and otherwise the
    /// next flip lies `⌊ln u / ln(1 − δ)⌋` bits ahead. The common no-flip
    /// observation costs one RNG word and a multiply. At `δ = 1`,
    /// `ln(1 − δ) = −∞` makes every skip zero, so every bit flips.
    pub fn corrupt_count(&self, ones: u32, sample_size: u32, rng: &mut dyn RngCore) -> u32 {
        if self.flip_prob <= 0.0 {
            return ones;
        }
        self.skip_flips(ones, sample_size, rng)
    }

    /// The skip loop of [`FaultPlan::corrupt_count`] at `δ > 0`. Kept out
    /// of line: inlined into a caller's sampling loop, its float state
    /// pushed the literal-Agent loop's running count onto the stack and
    /// slowed noise-free Agent rounds by 10–20%.
    #[inline(never)]
    fn skip_flips(&self, ones: u32, sample_size: u32, rng: &mut dyn RngCore) -> u32 {
        let flip = self.flip_prob;
        let keep = 1.0 - flip;
        let mut seen = ones;
        let mut pos = 0u32;
        loop {
            // 53 random bits, shifted onto (0, 1].
            let u = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
            let remaining = sample_size - pos;
            // Bernoulli's inequality, (1 − δ)^r ≥ 1 − rδ, settles most
            // no-flip draws before the power is computed.
            if u <= 1.0 - f64::from(remaining) * flip || u <= keep.powi(remaining as i32) {
                return seen;
            }
            let skip = (u.ln() / (-flip).ln_1p()) as u32;
            if skip >= remaining {
                // `u` sat within rounding of `(1 − δ)^r`: no flip, as the
                // test above nearly said.
                return seen;
            }
            let flipped = pos + skip;
            if flipped < ones {
                seen -= 1;
            } else {
                seen += 1;
            }
            pos = flipped + 1;
        }
    }

    /// Draws whether an agent sleeps this round.
    pub fn draws_sleep(&self, rng: &mut dyn RngCore) -> bool {
        self.sleep_prob > 0.0 && (*rng).gen::<f64>() < self.sleep_prob
    }

    /// The retargeted correct opinion if this round triggers it.
    pub fn retarget_at(&self, round: u64) -> Option<Opinion> {
        match self.source_retarget {
            Some((r, o)) if r == round => Some(o),
            _ => None,
        }
    }
}

/// The kind of a [`FaultEvent`] — carried into recovery records so
/// per-event metrics can be partitioned by what perturbed the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEventKind {
    /// The correct opinion flipped ([`FaultEvent::TrendSwitch`]).
    TrendSwitch,
    /// The ambient noise level changed ([`FaultEvent::NoiseChange`]).
    NoiseChange,
    /// A bounded noise burst started ([`FaultEvent::NoiseBurst`]).
    NoiseBurst,
    /// Agent states were rewritten ([`FaultEvent::StateCorruption`]).
    StateCorruption,
}

impl FaultEventKind {
    /// Stable kebab-case label, used by manifests and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultEventKind::TrendSwitch => "trend-switch",
            FaultEventKind::NoiseChange => "noise-change",
            FaultEventKind::NoiseBurst => "noise-burst",
            FaultEventKind::StateCorruption => "state-corruption",
        }
    }

    /// Parses the label written by [`FaultEventKind::as_str`].
    pub fn parse(label: &str) -> Option<FaultEventKind> {
        match label {
            "trend-switch" => Some(FaultEventKind::TrendSwitch),
            "noise-change" => Some(FaultEventKind::NoiseChange),
            "noise-burst" => Some(FaultEventKind::NoiseBurst),
            "state-corruption" => Some(FaultEventKind::StateCorruption),
            _ => None,
        }
    }
}

impl fmt::Display for FaultEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One round-indexed adversary action. Events fire at the *start* of
/// their round, before that round's observations are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The correct opinion becomes `correct` — the paper's trend switch.
    TrendSwitch {
        /// Round at whose start the switch happens.
        round: u64,
        /// The new correct opinion.
        correct: Opinion,
    },
    /// The ambient observation flip probability becomes `flip_prob` and
    /// stays there until the next noise event.
    NoiseChange {
        /// Round at whose start the level changes.
        round: u64,
        /// The new flip probability.
        flip_prob: f64,
    },
    /// For `rounds` rounds starting at `round` the flip probability is
    /// `flip_prob`; afterwards the pre-burst level is restored.
    NoiseBurst {
        /// First round of the burst.
        round: u64,
        /// Burst length in rounds (≥ 1).
        rounds: u64,
        /// Flip probability during the burst.
        flip_prob: f64,
    },
    /// Each non-source agent's state is independently rewritten with
    /// probability `fraction`: a fresh protocol-initial state around a
    /// uniformly random opinion — the literal self-stabilization
    /// adversary.
    StateCorruption {
        /// Round at whose start states are rewritten.
        round: u64,
        /// Per-agent rewrite probability.
        fraction: f64,
    },
}

impl FaultEvent {
    /// The round at whose start this event fires.
    pub fn round(&self) -> u64 {
        match *self {
            FaultEvent::TrendSwitch { round, .. }
            | FaultEvent::NoiseChange { round, .. }
            | FaultEvent::NoiseBurst { round, .. }
            | FaultEvent::StateCorruption { round, .. } => round,
        }
    }

    /// The event's kind tag.
    pub fn kind(&self) -> FaultEventKind {
        match self {
            FaultEvent::TrendSwitch { .. } => FaultEventKind::TrendSwitch,
            FaultEvent::NoiseChange { .. } => FaultEventKind::NoiseChange,
            FaultEvent::NoiseBurst { .. } => FaultEventKind::NoiseBurst,
            FaultEvent::StateCorruption { .. } => FaultEventKind::StateCorruption,
        }
    }

    fn validate(&self, index: usize) -> Result<(), SimError> {
        match *self {
            FaultEvent::TrendSwitch { .. } => Ok(()),
            FaultEvent::NoiseChange { flip_prob, .. } => check_unit("flip_prob", flip_prob)
                .map_err(|_| {
                    fault_error(format!(
                        "offending axis: events — event {index} (noise-change) flip_prob \
                         must lie in [0, 1], got {flip_prob}"
                    ))
                }),
            FaultEvent::NoiseBurst {
                rounds, flip_prob, ..
            } => {
                if rounds == 0 {
                    return Err(fault_error(format!(
                        "offending axis: events — event {index} (noise-burst) needs at \
                         least one round"
                    )));
                }
                check_unit("flip_prob", flip_prob).map_err(|_| {
                    fault_error(format!(
                        "offending axis: events — event {index} (noise-burst) flip_prob \
                         must lie in [0, 1], got {flip_prob}"
                    ))
                })
            }
            FaultEvent::StateCorruption { fraction, .. } => check_unit("fraction", fraction)
                .map_err(|_| {
                    fault_error(format!(
                        "offending axis: events — event {index} (state-corruption) \
                         fraction must lie in [0, 1], got {fraction}"
                    ))
                }),
        }
    }
}

/// A round-indexed fault schedule: an ordered list of [`FaultEvent`]s
/// layered over a base [`FaultPlan`].
///
/// Construction validates ordering (events sorted by round), every
/// probability knob, and burst overlap (a [`FaultEvent::NoiseBurst`]
/// window may not contain another noise event — the restore level would
/// be ambiguous). A schedule with no events runs bit-identically to its
/// base plan alone: event side effects draw from a dedicated RNG lane
/// that fault-free streams never touch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    base: FaultPlan,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty schedule: no base faults, no events.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// A schedule that only carries a base plan (no events). Always
    /// bit-identical to running `base` directly.
    pub fn from_plan(base: FaultPlan) -> Self {
        FaultSchedule {
            base,
            events: Vec::new(),
        }
    }

    /// Builds and validates a schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] (name `fault`, with an
    /// `offending axis:` detail) when a knob is out of range, events are
    /// not sorted by round, a burst is empty, or a burst window contains
    /// another noise event.
    pub fn new(base: FaultPlan, events: Vec<FaultEvent>) -> Result<Self, SimError> {
        base.validate()?;
        for (i, event) in events.iter().enumerate() {
            event.validate(i)?;
            if i > 0 && events[i - 1].round() > event.round() {
                return Err(fault_error(format!(
                    "offending axis: events — events must be sorted by round, but event \
                     {i} at round {} follows round {}",
                    event.round(),
                    events[i - 1].round()
                )));
            }
        }
        // Burst windows must not contain another noise-level event: the
        // level to restore at burst end would be ambiguous.
        for (i, event) in events.iter().enumerate() {
            if let FaultEvent::NoiseBurst { round, rounds, .. } = *event {
                let end = round.saturating_add(rounds);
                for (j, other) in events.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let noisy = matches!(
                        other,
                        FaultEvent::NoiseChange { .. } | FaultEvent::NoiseBurst { .. }
                    );
                    if noisy && other.round() >= round && other.round() < end {
                        return Err(fault_error(format!(
                            "offending axis: events — event {j} ({}) at round {} falls \
                             inside the noise-burst window [{round}, {end}) of event {i}",
                            other.kind(),
                            other.round()
                        )));
                    }
                }
            }
        }
        Ok(FaultSchedule { base, events })
    }

    /// The base (ambient) fault plan.
    pub fn base(&self) -> FaultPlan {
        self.base
    }

    /// The validated, round-sorted events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` when the schedule injects nothing at all.
    pub fn is_trivial(&self) -> bool {
        self.base.is_none() && self.events.is_empty()
    }

    /// The round of the last event, if any.
    pub fn final_event_round(&self) -> Option<u64> {
        self.events.last().map(FaultEvent::round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_stats::rng::SeedTree;

    #[test]
    fn none_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        let mut rng = SeedTree::new(5).child("none").rng();
        assert_eq!(plan.corrupt_count(7, 16, &mut rng), 7);
        assert!(!plan.draws_sleep(&mut rng));
        assert_eq!(plan.retarget_at(3), None);
    }

    #[test]
    fn corrupt_count_statistics() {
        // With flip probability p, E[observed] = k(1−p) + (m−k)p.
        let plan = FaultPlan::with_noise(0.2).unwrap();
        let mut rng = SeedTree::new(6).child("noise").rng();
        let (k, m) = (30u32, 40u32);
        let reps = 40_000;
        let mean: f64 = (0..reps)
            .map(|_| f64::from(plan.corrupt_count(k, m, &mut rng)))
            .sum::<f64>()
            / f64::from(reps);
        let expect = f64::from(k) * 0.8 + f64::from(m - k) * 0.2;
        assert!((mean - expect).abs() < 0.1, "mean {mean} vs {expect}");
    }

    #[test]
    fn corrupt_count_stays_in_range() {
        let plan = FaultPlan::with_noise(0.5).unwrap();
        let mut rng = SeedTree::new(7).child("range").rng();
        for _ in 0..1000 {
            let c = plan.corrupt_count(5, 10, &mut rng);
            assert!(c <= 10);
        }
    }

    #[test]
    fn full_noise_inverts_count() {
        let plan = FaultPlan::with_noise(1.0).unwrap();
        let mut rng = SeedTree::new(8).child("invert").rng();
        assert_eq!(plan.corrupt_count(3, 10, &mut rng), 7);
    }

    #[test]
    fn sleep_probability_respected() {
        let plan = FaultPlan::with_sleep(0.3).unwrap();
        let mut rng = SeedTree::new(9).child("sleep").rng();
        let n = 50_000;
        let slept = (0..n).filter(|_| plan.draws_sleep(&mut rng)).count();
        let frac = slept as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "sleep fraction {frac}");
    }

    #[test]
    fn retarget_fires_only_at_round() {
        let plan = FaultPlan::with_source_retarget(5, Opinion::Zero);
        assert_eq!(plan.retarget_at(4), None);
        assert_eq!(plan.retarget_at(5), Some(Opinion::Zero));
        assert_eq!(plan.retarget_at(6), None);
    }

    #[test]
    fn out_of_range_knobs_are_typed_errors() {
        for bad in [FaultPlan::with_noise(1.5), FaultPlan::with_noise(f64::NAN)] {
            let err = bad.unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidParameter { name: "fault", .. })
                    && err.to_string().contains("flip_prob"),
                "{err}"
            );
        }
        let err = FaultPlan::with_sleep(-0.1).unwrap_err();
        assert!(err.to_string().contains("sleep_prob"), "{err}");
    }

    #[test]
    fn schedule_validates_ordering_and_knobs() {
        // Sorted events build; same-round events are fine.
        let ok = FaultSchedule::new(
            FaultPlan::none(),
            vec![
                FaultEvent::TrendSwitch {
                    round: 10,
                    correct: Opinion::Zero,
                },
                FaultEvent::StateCorruption {
                    round: 10,
                    fraction: 0.5,
                },
                FaultEvent::NoiseChange {
                    round: 20,
                    flip_prob: 0.01,
                },
            ],
        );
        assert!(ok.is_ok(), "{ok:?}");

        // Unsorted events are rejected.
        let err = FaultSchedule::new(
            FaultPlan::none(),
            vec![
                FaultEvent::NoiseChange {
                    round: 20,
                    flip_prob: 0.01,
                },
                FaultEvent::TrendSwitch {
                    round: 10,
                    correct: Opinion::Zero,
                },
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("sorted"), "{err}");

        // Out-of-range knobs are rejected with the event index named.
        let err = FaultSchedule::new(
            FaultPlan::none(),
            vec![FaultEvent::StateCorruption {
                round: 5,
                fraction: 1.5,
            }],
        )
        .unwrap_err();
        assert!(err.to_string().contains("event 0"), "{err}");

        // Empty bursts are rejected.
        let err = FaultSchedule::new(
            FaultPlan::none(),
            vec![FaultEvent::NoiseBurst {
                round: 5,
                rounds: 0,
                flip_prob: 0.1,
            }],
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least one round"), "{err}");
    }

    #[test]
    fn burst_windows_exclude_other_noise_events() {
        let burst = FaultEvent::NoiseBurst {
            round: 10,
            rounds: 5,
            flip_prob: 0.2,
        };
        // A noise change inside [10, 15) is ambiguous.
        let err = FaultSchedule::new(
            FaultPlan::none(),
            vec![
                burst,
                FaultEvent::NoiseChange {
                    round: 12,
                    flip_prob: 0.05,
                },
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("noise-burst window"), "{err}");

        // A trend switch inside the window is fine; a noise change at the
        // window end (round 15) is too.
        let ok = FaultSchedule::new(
            FaultPlan::none(),
            vec![
                burst,
                FaultEvent::TrendSwitch {
                    round: 12,
                    correct: Opinion::Zero,
                },
                FaultEvent::NoiseChange {
                    round: 15,
                    flip_prob: 0.05,
                },
            ],
        );
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn schedule_accessors() {
        let base = FaultPlan::with_noise(0.01).unwrap();
        let schedule = FaultSchedule::new(
            base,
            vec![FaultEvent::TrendSwitch {
                round: 7,
                correct: Opinion::Zero,
            }],
        )
        .unwrap();
        assert_eq!(schedule.base(), base);
        assert_eq!(schedule.events().len(), 1);
        assert_eq!(schedule.final_event_round(), Some(7));
        assert!(!schedule.is_trivial());
        assert!(FaultSchedule::none().is_trivial());
        assert!(!FaultSchedule::from_plan(base).is_trivial());
        assert!(FaultSchedule::from_plan(FaultPlan::none()).is_trivial());
    }

    #[test]
    fn event_kind_labels_round_trip() {
        for kind in [
            FaultEventKind::TrendSwitch,
            FaultEventKind::NoiseChange,
            FaultEventKind::NoiseBurst,
            FaultEventKind::StateCorruption,
        ] {
            assert_eq!(FaultEventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(FaultEventKind::parse("nope"), None);
    }
}
