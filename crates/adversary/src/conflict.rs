//! Conflicting stubborn sources: the regime *beyond* the impossibility.
//!
//! The §1.2 impossibility (see [`crate::impossibility`]) shows that no
//! passive self-stabilizing protocol solves *majority* bit-dissemination
//! in the worst case: an adversary can pin every public opinion to 1 and
//! copy internal states so that the unanimous observation stream carries
//! no information. That construction, however, requires the adversary to
//! control the sources' *public opinions*. This module asks the
//! complementary average-case question: when `k₀` stubborn agents
//! constantly emit 0 and `k₁` constantly emit 1 (each honestly displaying
//! its preference — no adversarial pinning), where does the FET population
//! actually go?
//!
//! With both stubborn groups present there is **no absorbing state** —
//! unanimity is impossible, so the chain is ergodic and the meaningful
//! observable is the *long-run occupancy*: the fraction of time the free
//! population spends on each side. [`ConflictEngine::run_measure`] records
//! exactly that, after a burn-in.
//!
//! **Measured shape (experiment E19), and it is *not* a sigmoid:** even a
//! 7:1 stubborn majority produces a long-run occupancy barely above ½,
//! with excursions spanning nearly the full `[k₀/n, 1 − k₁/n]` range. FET
//! amplifies *trends*, not levels — whenever the population approaches the
//! majority's consensus, the minority's constant displays break unanimity,
//! ties stop protecting the near-consensus, and the bounce mechanism that
//! powers self-stabilization (Lemma 4) eventually flings the population to
//! the other side. Conflicting honest displays therefore make FET
//! *permanently oscillatory*: majority preference biases the occupancy
//! only mildly. This complements the paper's worst-case impossibility with
//! an average-case one, by a different mechanism — the §1.2 argument
//! starves the protocol of information (unanimous observations), while
//! here the protocol's own trend-following destroys the level information
//! that majority bit-dissemination would need. Initial conditions are
//! indeed forgotten (the process is ergodic); what is absent is any
//! settling to the majority at all.

use fet_core::observation::Observation;
use fet_core::opinion::Opinion;
use fet_core::protocol::{Protocol, RoundContext};
use fet_stats::binomial::BinomialSampler;
use fet_stats::rng::SeedTree;
use rand::rngs::SmallRng;
use rand::Rng;

/// Error type for conflict-engine construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictConfigError {
    detail: String,
}

impl std::fmt::Display for ConflictConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid conflict configuration: {}", self.detail)
    }
}

impl std::error::Error for ConflictConfigError {}

/// A population with two groups of stubborn constant emitters and a free
/// majority running a passive protocol.
///
/// Agents `[0, k0)` always output 0, agents `[k0, k0 + k1)` always output
/// 1, and the remaining `n − k0 − k1` agents run the protocol.
/// Observations use the binomial fidelity (each count is an exact
/// `Binomial(m, x_t)` draw, the with-replacement model of the paper).
///
/// # Example
///
/// ```
/// use fet_adversary::conflict::ConflictEngine;
/// use fet_core::fet::FetProtocol;
///
/// // 2:1 stubborn majority for opinion 1.
/// let protocol = FetProtocol::new(16)?;
/// let mut engine = ConflictEngine::new(protocol, 1_000, 20, 40, 0.5, 7)?;
/// let outcome = engine.run_measure(500, 2_000);
/// // Unanimity is impossible: both stubborn groups bound the excursions.
/// assert!(outcome.min_x >= 0.02 && outcome.max_x <= 0.98);
/// // The population keeps moving — conflict makes FET oscillatory.
/// assert!(outcome.max_x - outcome.min_x > 0.1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConflictEngine<P: Protocol> {
    protocol: P,
    n: u64,
    k0: u64,
    k1: u64,
    states: Vec<P::State>,
    ones_count: u64,
    rng: SmallRng,
    round: u64,
}

/// Long-run occupancy measurements from [`ConflictEngine::run_measure`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConflictOutcome {
    /// Time-averaged `x_t` (fraction of 1-outputs, stubborn included) over
    /// the measurement window.
    pub mean_x: f64,
    /// Fraction of measured rounds with `x_t > 1/2`.
    pub frac_above_half: f64,
    /// `x_t` at the end of the window.
    pub final_x: f64,
    /// Smallest and largest `x_t` seen in the window (excursion range).
    pub min_x: f64,
    /// See `min_x`.
    pub max_x: f64,
}

impl<P: Protocol> ConflictEngine<P> {
    /// Creates the engine. Free agents start with opinion 1 independently
    /// with probability `initial_ones`, and protocol-randomized internals.
    ///
    /// # Errors
    ///
    /// Returns [`ConflictConfigError`] unless `k0 + k1 ≥ 1`, there is at
    /// least one free agent, and `initial_ones ∈ [0, 1]`.
    pub fn new(
        protocol: P,
        n: u64,
        k0: u64,
        k1: u64,
        initial_ones: f64,
        seed: u64,
    ) -> Result<Self, ConflictConfigError> {
        if k0 + k1 == 0 {
            return Err(ConflictConfigError {
                detail: "need at least one stubborn agent (k0 + k1 ≥ 1)".into(),
            });
        }
        if k0 + k1 >= n {
            return Err(ConflictConfigError {
                detail: format!("need free agents: k0 + k1 = {} ≥ n = {n}", k0 + k1),
            });
        }
        if !(0.0..=1.0).contains(&initial_ones) {
            return Err(ConflictConfigError {
                detail: format!("initial_ones must be in [0, 1], got {initial_ones}"),
            });
        }
        if n > u64::from(u32::MAX) {
            return Err(ConflictConfigError {
                detail: format!("n = {n} exceeds per-agent simulation limits"),
            });
        }
        let mut rng = SeedTree::new(seed).child("conflict-engine").rng();
        let free = (n - k0 - k1) as usize;
        let mut states = Vec::with_capacity(free);
        let mut ones_count = k1;
        for _ in 0..free {
            let opinion = if rng.gen::<f64>() < initial_ones {
                Opinion::One
            } else {
                Opinion::Zero
            };
            let state = protocol.init_state(opinion, &mut rng);
            ones_count += u64::from(protocol.output(&state).is_one());
            states.push(state);
        }
        Ok(ConflictEngine {
            protocol,
            n,
            k0,
            k1,
            states,
            ones_count,
            rng,
            round: 0,
        })
    }

    /// Stubborn zero-emitters.
    pub fn k0(&self) -> u64 {
        self.k0
    }

    /// Stubborn one-emitters.
    pub fn k1(&self) -> u64 {
        self.k1
    }

    /// Current fraction of 1-outputs over the whole population.
    pub fn fraction_ones(&self) -> f64 {
        self.ones_count as f64 / self.n as f64
    }

    /// Current fraction of 1-outputs among *free* agents only.
    pub fn fraction_free_ones(&self) -> f64 {
        (self.ones_count - self.k1) as f64 / (self.n - self.k0 - self.k1) as f64
    }

    /// Current round index.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Executes one synchronous round (binomial fidelity).
    pub fn step(&mut self) {
        let m = self.protocol.samples_per_round();
        let x_t = self.fraction_ones();
        let sampler = BinomialSampler::new(u64::from(m), x_t)
            .expect("x_t is a fraction of counts, always in [0, 1]");
        let ctx = RoundContext::new(self.round);
        let mut ones_count = self.k1;
        for state in self.states.iter_mut() {
            let seen = sampler.sample(&mut self.rng) as u32;
            let obs = Observation::new(seen, m).expect("binomial sample is ≤ m");
            let new_output = self.protocol.step(state, &obs, &ctx, &mut self.rng);
            ones_count += u64::from(new_output.is_one());
        }
        self.ones_count = ones_count;
        self.round += 1;
    }

    /// Runs `burn_in` unrecorded rounds, then `window` recorded rounds, and
    /// summarizes the occupancy of the recorded stretch.
    ///
    /// # Panics
    ///
    /// Panics when `window == 0`.
    pub fn run_measure(&mut self, burn_in: u64, window: u64) -> ConflictOutcome {
        assert!(window > 0, "measurement window must be non-empty");
        for _ in 0..burn_in {
            self.step();
        }
        let mut sum = 0.0f64;
        let mut above = 0u64;
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        for _ in 0..window {
            self.step();
            let x = self.fraction_ones();
            sum += x;
            if x > 0.5 {
                above += 1;
            }
            min_x = min_x.min(x);
            max_x = max_x.max(x);
        }
        ConflictOutcome {
            mean_x: sum / window as f64,
            frac_above_half: above as f64 / window as f64,
            final_x: self.fraction_ones(),
            min_x,
            max_x,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_core::fet::FetProtocol;

    fn protocol() -> FetProtocol {
        FetProtocol::new(16).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(ConflictEngine::new(protocol(), 100, 0, 0, 0.5, 1).is_err());
        assert!(ConflictEngine::new(protocol(), 100, 50, 50, 0.5, 1).is_err());
        assert!(ConflictEngine::new(protocol(), 100, 60, 50, 0.5, 1).is_err());
        assert!(ConflictEngine::new(protocol(), 100, 5, 5, 1.5, 1).is_err());
        assert!(ConflictEngine::new(protocol(), 100, 5, 5, 0.5, 1).is_ok());
    }

    #[test]
    fn stubborn_agents_are_counted_in_x() {
        // All free agents start at 0: x must be exactly k1/n.
        let e = ConflictEngine::new(protocol(), 100, 10, 30, 0.0, 3).unwrap();
        assert!((e.fraction_ones() - 0.30).abs() < 1e-12);
        assert_eq!(e.fraction_free_ones(), 0.0);
    }

    /// Seed-averaged occupancy for a `(k0, k1)` configuration.
    fn mean_occupancy(k0: u64, k1: u64, initial_ones: f64, reps: u64) -> f64 {
        let mut acc = 0.0;
        for seed in 0..reps {
            let mut e =
                ConflictEngine::new(protocol(), 800, k0, k1, initial_ones, 1_000 + seed).unwrap();
            acc += e.run_measure(400, 1_500).mean_x;
        }
        acc / reps as f64
    }

    #[test]
    fn majority_biases_occupancy_but_does_not_capture_it() {
        // The measured (initially surprising) finding: a 7:1 stubborn
        // majority only *tilts* the long-run occupancy — FET keeps
        // oscillating and never settles on the majority side.
        let up = mean_occupancy(10, 70, 0.0, 6);
        assert!(up > 0.52, "majority should tilt occupancy upward: {up}");
        assert!(
            up < 0.85,
            "…but capture would contradict the oscillation finding: {up}"
        );
        let down = mean_occupancy(70, 10, 1.0, 6);
        assert!(down < 0.48, "zero majority should tilt downward: {down}");
        assert!(down > 0.15, "{down}");
    }

    #[test]
    fn conflict_makes_fet_permanently_oscillatory() {
        // Even under a 7:1 majority the excursions span both near-consensus
        // extremes within a modest window: no capture, no settling.
        let mut e = ConflictEngine::new(protocol(), 800, 10, 70, 0.5, 17).unwrap();
        let out = e.run_measure(400, 3_000);
        assert!(out.max_x > 0.85, "upper excursions missing: {out:?}");
        assert!(out.min_x < 0.15, "lower excursions missing: {out:?}");
    }

    #[test]
    fn occupancy_statistics_are_consistent() {
        let mut e = ConflictEngine::new(protocol(), 400, 20, 20, 0.5, 23).unwrap();
        let out = e.run_measure(100, 500);
        assert!(out.min_x <= out.mean_x && out.mean_x <= out.max_x);
        assert!((0.0..=1.0).contains(&out.frac_above_half));
        assert!(out.final_x >= out.min_x && out.final_x <= out.max_x);
        // Both stubborn groups bound the excursions away from unanimity.
        assert!(out.min_x >= 20.0 / 400.0 - 1e-12);
        assert!(out.max_x <= 1.0 - 20.0 / 400.0 + 1e-12);
    }

    #[test]
    fn mirror_symmetry_in_distribution() {
        // Swapping (k0, k1) and the initial fraction mirrors the dynamics;
        // averaged over seeds the occupancies must reflect around ½.
        let reps = 12u64;
        let mut up = 0.0;
        let mut down = 0.0;
        for seed in 0..reps {
            let mut e1 = ConflictEngine::new(protocol(), 300, 6, 24, 0.3, 100 + seed).unwrap();
            up += e1.run_measure(200, 600).mean_x;
            let mut e2 = ConflictEngine::new(protocol(), 300, 24, 6, 0.7, 200 + seed).unwrap();
            down += e2.run_measure(200, 600).mean_x;
        }
        let (up, down) = (up / reps as f64, down / reps as f64);
        assert!(
            (up + down - 1.0).abs() < 0.1,
            "mirror symmetry violated: up {up}, down {down}"
        );
    }

    #[test]
    fn a_few_stubborn_wrong_displayers_destroy_strict_convergence() {
        // Byzantine-display tolerance of FET is zero: one honest source
        // (k1 = 1, as in Theorem 1) plus merely five stubborn agents
        // displaying the wrong opinion (k0 = 5 of n = 1000) remove the
        // absorbing state — the correct consensus keeps being broken and
        // the bounce recurs. (§1.1 assumes non-source animals "do not
        // actively try to harm others"; this measures why it must.)
        let mut e = ConflictEngine::new(protocol(), 1_000, 5, 1, 1.0, 31).unwrap();
        let out = e.run_measure(200, 4_000);
        assert!(
            out.min_x < 0.6,
            "population should repeatedly fall off the correct consensus: {out:?}"
        );
        assert!(out.max_x > 0.9, "…while also revisiting it: {out:?}");
    }

    #[test]
    fn determinism_given_seed() {
        let run = |seed: u64| {
            let mut e = ConflictEngine::new(protocol(), 200, 8, 12, 0.5, seed).unwrap();
            e.run_measure(50, 200)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_panics() {
        let mut e = ConflictEngine::new(protocol(), 100, 5, 5, 0.5, 1).unwrap();
        let _ = e.run_measure(10, 0);
    }
}
