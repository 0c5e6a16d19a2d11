//! **Protocol 1 — Follow the Emerging Trend (FET).**
//!
//! The paper's main algorithm, verbatim from §1.3:
//!
//! ```text
//! Input: S_t(J_t)                       // opinions of 2ℓ sampled agents
//! Partition S_t(J_t) into two sets S′_t, S″_t of equal size u.a.r.
//! count′_t ← COUNT(S′_t) ; count″_t ← COUNT(S″_t)
//! if      count′_t > count″_{t−1} then Y_{t+1} ← 1
//! else if count′_t < count″_{t−1} then Y_{t+1} ← 0
//! else                                 Y_{t+1} ← Y_t
//! ```
//!
//! The partition decorrelates consecutive decisions: `count″_{t−1}` is
//! compared against `count′_t` while `count″_t` is reserved for round
//! `t+1`, so `Y_{t+1}` and `Y_{t+2}` are conditionally independent given
//! `(x_t, x_{t+1})` — the property Observation 1 and the whole Markov-chain
//! analysis rest on. (The unpartitioned variant that reuses one count both
//! ways is [`crate::simple_trend::SimpleTrendProtocol`].)
//!
//! ## Implementation note: the partition as a hypergeometric split
//!
//! Under passive communication an agent only ever learns *counts*. A
//! uniformly random partition of the `2ℓ` observed opinions into equal
//! halves sends, conditionally on the total count `c`, exactly
//! `Hypergeometric(2ℓ, c, ℓ)` ones into `S′_t`. Drawing that split from the
//! count is therefore *literally* the protocol's partition step — not an
//! approximation — while keeping the observation interface count-only.

use crate::error::CoreError;
use crate::memory::{bits_for_count, MemoryFootprint};
use crate::observation::Observation;
use crate::opinion::Opinion;
use crate::protocol::{FusedCounters, ObservationSource, Protocol, RoundContext, StatePlanes};
use fet_stats::hypergeometric::SplitTable;
use rand::RngCore;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Process-wide cache of [`SplitTable`]s keyed by `ℓ`.
///
/// The table is deterministic in `ℓ`, so all `FetProtocol` values with the
/// same `ℓ` share one `Arc`'d table. The lock is taken once per protocol
/// *construction* — never on the step/fused hot paths, which read
/// the `Arc` cached inside the protocol value.
fn split_table(ell: u64) -> Arc<SplitTable> {
    static TABLES: OnceLock<Mutex<HashMap<u64, Arc<SplitTable>>>> = OnceLock::new();
    let tables = TABLES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = tables.lock().expect("split-table cache poisoned");
    Arc::clone(
        guard
            .entry(ell)
            .or_insert_with(|| Arc::new(SplitTable::new(ell))),
    )
}

/// Configuration of the FET protocol: the half-sample size `ℓ`, plus the
/// shared precomputed partition-split table for that `ℓ`.
///
/// Each agent observes `2ℓ` agents per round. The paper's Theorem 1 takes
/// `ℓ = c·log n` for a sufficiently large constant `c`; use
/// [`FetProtocol::for_population`] to apply that rule.
///
/// Equality, hashing, and serialization consider only `ℓ` — the table is
/// a deterministic function of it, cached at construction so the kernels
/// never touch the process-wide table cache (and its lock) mid-run.
///
/// # Example
///
/// ```
/// use fet_core::fet::FetProtocol;
/// use fet_core::protocol::Protocol;
///
/// let p = FetProtocol::for_population(10_000, 4.0)?;
/// assert_eq!(p.samples_per_round(), 2 * p.ell());
/// # Ok::<(), fet_core::CoreError>(())
/// ```
#[derive(Clone)]
pub struct FetProtocol {
    ell: u32,
    table: Arc<SplitTable>,
}

impl fmt::Debug for FetProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The table is derived data; printing its O(ℓ²) CDF entries would
        // drown every engine debug dump.
        f.debug_struct("FetProtocol")
            .field("ell", &self.ell)
            .finish()
    }
}

impl PartialEq for FetProtocol {
    fn eq(&self, other: &Self) -> bool {
        self.ell == other.ell
    }
}

impl Eq for FetProtocol {}

impl Hash for FetProtocol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ell.hash(state);
    }
}

/// Per-agent FET state.
///
/// Fields are public so the adversary crate can construct *worst-case*
/// initial states directly (the self-stabilizing setting places internal
/// variables entirely under adversarial control at time 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FetState {
    /// Current public opinion `Y_t`.
    pub opinion: Opinion,
    /// `count″_{t−1}`: ones observed in the stored half of the previous
    /// round's sample. In `[0, ℓ]`.
    pub prev_count_second_half: u32,
}

impl FetProtocol {
    /// Creates FET with half-sample size `ell` (total `2·ell` samples per
    /// round).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroSampleSize`] when `ell == 0`.
    pub fn new(ell: u32) -> Result<Self, CoreError> {
        if ell == 0 {
            return Err(CoreError::ZeroSampleSize);
        }
        Ok(FetProtocol {
            ell,
            table: split_table(u64::from(ell)),
        })
    }

    /// Creates FET with the paper's parameterization `ℓ = ⌈c·ln n⌉` for a
    /// population of `n` agents.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPopulation`] when `n < 2` or `c ≤ 0`.
    pub fn for_population(n: u64, c: f64) -> Result<Self, CoreError> {
        if n < 2 {
            return Err(CoreError::InvalidPopulation {
                detail: format!("population must have at least 2 agents, got {n}"),
            });
        }
        if c.is_nan() || c <= 0.0 {
            return Err(CoreError::InvalidPopulation {
                detail: format!("sample constant c must be positive, got {c}"),
            });
        }
        FetProtocol::new(crate::config::ell_for_population(n, c))
    }

    /// The half-sample size `ℓ`.
    pub fn ell(&self) -> u32 {
        self.ell
    }
}

/// FET's update from the round's split `(count′_t, count″_t)`: compare
/// `count′_t` with the stored `count″_{t−1}`, keep the opinion on a tie,
/// and store `count″_t` for the next round. Returns the new opinion.
#[inline(always)]
fn follow_trend(state: &mut FetState, (count_prime, count_second): (u64, u64)) -> Opinion {
    let stale = u64::from(state.prev_count_second_half);
    let new_opinion = match count_prime.cmp(&stale) {
        std::cmp::Ordering::Greater => Opinion::One,
        std::cmp::Ordering::Less => Opinion::Zero,
        std::cmp::Ordering::Equal => state.opinion,
    };
    state.opinion = new_opinion;
    state.prev_count_second_half = count_second as u32;
    new_opinion
}

impl Protocol for FetProtocol {
    type State = FetState;

    fn name(&self) -> &str {
        "fet"
    }

    fn samples_per_round(&self) -> u32 {
        2 * self.ell
    }

    fn init_state(&self, opinion: Opinion, rng: &mut dyn RngCore) -> FetState {
        // Self-stabilization: the stored count is arbitrary at time 0.
        // Default initialization draws it uniformly; adversaries construct
        // specific values directly through the public fields.
        let prev = (rng.next_u64() % u64::from(self.ell + 1)) as u32;
        FetState {
            opinion,
            prev_count_second_half: prev,
        }
    }

    fn step(
        &self,
        state: &mut FetState,
        obs: &Observation,
        _ctx: &RoundContext,
        rng: &mut dyn RngCore,
    ) -> Opinion {
        assert_eq!(
            obs.sample_size(),
            self.samples_per_round(),
            "FET(ℓ={}) expects {} samples, observation has {}",
            self.ell,
            self.samples_per_round(),
            obs.sample_size()
        );
        // Partition the 2ℓ-sample uniformly into S′ and S″ (hypergeometric
        // split of the observed count; see module docs). The cached table
        // is stream-compatible with `split_sample`, so this draws exactly
        // what the sequential sampler would.
        follow_trend(state, self.table.split(u64::from(obs.ones()), rng))
    }

    fn step_fused(
        &self,
        states: &mut [FetState],
        source: &mut dyn ObservationSource,
        _ctx: &RoundContext,
        rng: &mut dyn RngCore,
        correct: Opinion,
        outputs: &mut [Opinion],
    ) -> FusedCounters {
        assert_eq!(states.len(), outputs.len(), "one output slot per agent");
        let m = self.samples_per_round();
        // One pass, O(1) auxiliary memory: draw the observation, split it
        // through the cached table, decide, write the output, count — no
        // observation or scratch buffers anywhere. Stream-identical to the
        // default per-`step` loop because `step` draws through the same
        // table with the same per-agent interleaving.
        let mut counters = FusedCounters::default();
        let mut update = |state: &mut FetState, out: &mut Opinion, split: (u64, u64)| {
            let new_opinion = follow_trend(state, split);
            *out = new_opinion;
            counters.ones += u64::from(new_opinion.is_one());
            counters.correct += u64::from(new_opinion == correct);
        };
        let mut agents = states.iter_mut().zip(outputs.iter_mut());
        while let Some((state, out)) = agents.next() {
            let obs = source.next_observation(rng);
            assert_eq!(
                obs.sample_size(),
                m,
                "FET(ℓ={}) expects {} samples, observation has {}",
                self.ell,
                m,
                obs.sample_size()
            );
            let ones = obs.ones();
            let split = self.table.split(u64::from(ones), rng);
            update(state, out, split);
            // A unanimous count splits without a draw, so the agents the
            // source reports seeing it again step with no draw and no call
            // at all. Asking only here keeps mixed rounds at one call per
            // agent.
            if ones == 0 || ones == m {
                let repeats = source.repeats(agents.len());
                for (state, out) in agents.by_ref().take(repeats) {
                    update(state, out, split);
                }
            }
        }
        counters
    }

    fn has_fused_kernel(&self) -> bool {
        true
    }

    /// A unanimous count splits into `(0, 0)` or `(ℓ, ℓ)` without a draw,
    /// so `follow_trend` becomes a word function of the stored counts:
    /// count 0 keeps an opinion only where `count″ = 0` (the tie) and
    /// clears the clocks; count `m` keeps it where `count″ = ℓ`, sets it
    /// where `count″ < ℓ`, clears it where `count″ > ℓ` (which the planes
    /// can hold, though no round stores it), and stores `ℓ`.
    fn step_unanimous_tile(
        &self,
        obs: &Observation,
        opinions: &mut u64,
        slices: &mut [u64],
        live: u64,
    ) -> bool {
        let m = self.samples_per_round();
        if obs.sample_size() != m {
            return false;
        }
        if obs.ones() == 0 {
            *opinions &= !slices.iter().fold(0, |any, &slice| any | slice);
            slices.fill(0);
        } else if obs.ones() == m {
            // Bit-sliced comparison with ℓ, most significant slice first.
            let (mut below, mut equal) = (0u64, u64::MAX);
            for (b, &slice) in slices.iter().enumerate().rev() {
                if (self.ell >> b) & 1 == 1 {
                    below |= equal & !slice;
                    equal &= slice;
                } else {
                    equal &= !slice;
                }
            }
            *opinions = ((*opinions & equal) | below) & live;
            for (b, slice) in slices.iter_mut().enumerate() {
                *slice = if (self.ell >> b) & 1 == 1 { live } else { 0 };
            }
        } else {
            return false;
        }
        true
    }

    fn output(&self, state: &FetState) -> Opinion {
        state.opinion
    }

    fn aggregate_ell(&self) -> Option<u32> {
        Some(self.ell)
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        // Persisted between rounds: count″ ∈ [0, ℓ]. Within a round the
        // agent also holds the fresh count′ ∈ [0, ℓ].
        let count_bits = bits_for_count(self.ell);
        MemoryFootprint::new(1, count_bits, count_bits)
    }

    fn state_planes(&self) -> StatePlanes {
        // The stored count″ ∈ [0, ℓ] packs to ⌈log₂(ℓ+1)⌉ bits per agent;
        // clocks past a byte fall back to typed storage.
        if self.ell <= u32::from(u8::MAX) {
            StatePlanes::OpinionPlusPacked {
                bits: bits_for_count(self.ell) as u8,
            }
        } else {
            StatePlanes::Unpacked
        }
    }

    fn pack_state(&self, state: &FetState) -> (Opinion, u8) {
        debug_assert!(
            self.ell <= u32::from(u8::MAX) && state.prev_count_second_half <= self.ell,
            "FET state {state:?} does not fit the packed aux byte (ell = {})",
            self.ell
        );
        (state.opinion, state.prev_count_second_half as u8)
    }

    fn unpack_state(&self, opinion: Opinion, aux: u8) -> FetState {
        FetState {
            opinion,
            prev_count_second_half: u32::from(aux),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_stats::rng::SeedTree;

    fn rng(label: &str) -> rand::rngs::SmallRng {
        SeedTree::new(0xFE7).child(label).rng()
    }

    fn ctx() -> RoundContext {
        RoundContext::new(0)
    }

    #[test]
    fn construction_validates() {
        assert!(FetProtocol::new(0).is_err());
        assert!(FetProtocol::new(1).is_ok());
        assert!(FetProtocol::for_population(1, 4.0).is_err());
        assert!(FetProtocol::for_population(100, 0.0).is_err());
        let p = FetProtocol::for_population(1 << 16, 4.0).unwrap();
        // ℓ = ⌈4 · ln 2^16⌉ = ⌈44.36⌉ = 45.
        assert_eq!(p.ell(), 45);
    }

    #[test]
    fn rising_trend_adopts_one() {
        let p = FetProtocol::new(8).unwrap();
        let mut rng = rng("rise");
        let mut s = FetState {
            opinion: Opinion::Zero,
            prev_count_second_half: 0,
        };
        // All 16 samples are ones: count′ = 8 > 0 = count″_{t−1}.
        let obs = Observation::new(16, 16).unwrap();
        let out = p.step(&mut s, &obs, &ctx(), &mut rng);
        assert_eq!(out, Opinion::One);
        assert_eq!(s.prev_count_second_half, 8);
    }

    #[test]
    fn falling_trend_adopts_zero() {
        let p = FetProtocol::new(8).unwrap();
        let mut rng = rng("fall");
        let mut s = FetState {
            opinion: Opinion::One,
            prev_count_second_half: 8,
        };
        // All-zero sample: count′ = 0 < 8.
        let obs = Observation::new(0, 16).unwrap();
        let out = p.step(&mut s, &obs, &ctx(), &mut rng);
        assert_eq!(out, Opinion::Zero);
        assert_eq!(s.prev_count_second_half, 0);
    }

    #[test]
    fn tie_keeps_current_opinion() {
        let p = FetProtocol::new(4).unwrap();
        let mut rng = rng("tie");
        for keep in [Opinion::Zero, Opinion::One] {
            // Unanimous sample forces count′ = 4; stale count equals it.
            let mut s = FetState {
                opinion: keep,
                prev_count_second_half: 4,
            };
            let obs = Observation::new(8, 8).unwrap();
            let out = p.step(&mut s, &obs, &ctx(), &mut rng);
            assert_eq!(out, keep, "tie must keep Y_t");
        }
    }

    #[test]
    fn unanimous_zero_population_stays_zero() {
        // From (x_t, x_{t+1}) = (0, 0) the only non-absorbing escape is the
        // source; a non-source agent seeing only zeros with stale count 0
        // ties and keeps its opinion.
        let p = FetProtocol::new(8).unwrap();
        let mut rng = rng("stay");
        let mut s = FetState {
            opinion: Opinion::Zero,
            prev_count_second_half: 0,
        };
        for _ in 0..50 {
            let out = p.step(&mut s, &Observation::new(0, 16).unwrap(), &ctx(), &mut rng);
            assert_eq!(out, Opinion::Zero);
        }
    }

    #[test]
    fn partition_split_preserves_total() {
        let p = FetProtocol::new(16).unwrap();
        let mut rng = rng("split");
        let mut s = p.init_state(Opinion::Zero, &mut rng);
        for ones in [0u32, 5, 16, 27, 32] {
            let obs = Observation::new(ones, 32).unwrap();
            let before = s;
            p.step(&mut s, &obs, &ctx(), &mut rng);
            // count″ is at most min(ones, ℓ) and at least ones − ℓ.
            assert!(s.prev_count_second_half <= ones.min(16));
            assert!(u64::from(s.prev_count_second_half) >= u64::from(ones.saturating_sub(16)));
            let _ = before;
        }
    }

    #[test]
    #[should_panic(expected = "expects 16 samples")]
    fn wrong_sample_size_panics() {
        let p = FetProtocol::new(8).unwrap();
        let mut rng = rng("panic");
        let mut s = p.init_state(Opinion::Zero, &mut rng);
        let obs = Observation::new(3, 8).unwrap();
        let _ = p.step(&mut s, &obs, &ctx(), &mut rng);
    }

    #[test]
    fn init_state_prev_count_in_range() {
        let p = FetProtocol::new(10).unwrap();
        let mut rng = rng("init");
        for _ in 0..200 {
            let s = p.init_state(Opinion::One, &mut rng);
            assert!(s.prev_count_second_half <= 10);
            assert_eq!(s.opinion, Opinion::One);
        }
    }

    #[test]
    fn memory_matches_theorem1_accounting() {
        // ℓ = 32: counts in [0, 32] need 6 bits; 1 output + 6 persistent.
        let p = FetProtocol::new(32).unwrap();
        let m = p.memory_footprint();
        assert_eq!(m.output_bits(), 1);
        assert_eq!(m.persistent_bits(), 6);
        assert_eq!(m.between_rounds_bits(), 7);
    }

    #[test]
    fn protocol_is_passive() {
        let p = FetProtocol::new(4).unwrap();
        assert!(p.is_passive());
        let mut rng = rng("passive");
        let s = p.init_state(Opinion::One, &mut rng);
        assert_eq!(p.decision(&s), p.output(&s));
    }

    #[test]
    fn aggregate_ell_exposed() {
        assert_eq!(FetProtocol::new(12).unwrap().aggregate_ell(), Some(12));
    }

    /// Replays a fixed observation sequence, consuming no RNG itself. With
    /// `report_repeats`, it also reports every run of equal observations
    /// through `repeats`, as a near-consensus source does.
    struct SliceSource<'a> {
        obs: std::iter::Peekable<std::slice::Iter<'a, Observation>>,
        last: Option<Observation>,
        report_repeats: bool,
        reported: usize,
    }

    impl<'a> SliceSource<'a> {
        fn new(obs: &'a [Observation], report_repeats: bool) -> Self {
            SliceSource {
                obs: obs.iter().peekable(),
                last: None,
                report_repeats,
                reported: 0,
            }
        }
    }

    impl ObservationSource for SliceSource<'_> {
        fn next_observation(&mut self, _rng: &mut dyn RngCore) -> Observation {
            let obs = *self.obs.next().expect("one observation per agent");
            self.last = Some(obs);
            obs
        }

        fn repeats(&mut self, max: usize) -> usize {
            let mut repeats = 0;
            while self.report_repeats
                && repeats < max
                && self.obs.peek().copied() == self.last.as_ref()
            {
                self.obs.next();
                repeats += 1;
            }
            self.reported += repeats;
            repeats
        }
    }

    #[test]
    fn step_fused_matches_sequential_steps_bit_for_bit() {
        // The specialized fused kernel must stay stream-identical to the
        // default per-`step` loop: same states, same outputs, same RNG
        // consumption, and counters that match a recount — also when the
        // source reports runs of unanimous counts, which the kernel steps
        // without asking for their observations.
        let p = FetProtocol::new(8).unwrap();
        let m = p.samples_per_round();
        let ctx = ctx();
        let agents = 96;
        let mut init_rng = rng("fused-init");
        let states: Vec<FetState> = (0..agents)
            .map(|i| {
                p.init_state(
                    if i % 3 == 0 {
                        Opinion::One
                    } else {
                        Opinion::Zero
                    },
                    &mut init_rng,
                )
            })
            .collect();
        // Runs of 0 and of m, of lengths 1 to 11, between mixed counts.
        let observations: Vec<Observation> = (0..agents)
            .map(|i| {
                let ones = match (i / 6) % 4 {
                    0 => 0,
                    2 if i % 12 != 11 => m,
                    _ => (i * 5) % (m + 1),
                };
                Observation::new(ones, m).unwrap()
            })
            .collect();
        let mut states_loop = states.clone();
        let mut rng_loop = rng("fused-stream");
        let outputs_loop: Vec<Opinion> = states_loop
            .iter_mut()
            .zip(&observations)
            .map(|(s, o)| p.step(s, o, &ctx, &mut rng_loop))
            .collect();
        for report_repeats in [false, true] {
            let mut states_fused = states.clone();
            let mut rng_fused = rng("fused-stream");
            let mut outputs_fused = vec![Opinion::Zero; agents as usize];
            let mut source = SliceSource::new(&observations, report_repeats);
            let counters = p.step_fused(
                &mut states_fused,
                &mut source,
                &ctx,
                &mut rng_fused,
                Opinion::One,
                &mut outputs_fused,
            );
            assert_eq!(states_loop, states_fused);
            assert_eq!(outputs_loop, outputs_fused);
            assert_eq!(
                counters.ones,
                outputs_loop.iter().filter(|o| o.is_one()).count() as u64
            );
            assert_eq!(counters.correct, counters.ones, "correct is One here");
            // Both paths must have consumed the same stream.
            assert_eq!(rng_loop.clone().next_u64(), rng_fused.next_u64());
            assert_eq!(source.obs.len(), 0, "one observation per agent");
            assert_eq!(source.reported > 0, report_repeats, "the run loop ran");
        }
        assert!(p.has_fused_kernel());
    }

    #[test]
    fn zero_one_symmetry_in_distribution() {
        // Relabeling opinions 0↔1 (state and observation mirrored) must
        // mirror the outcome *distribution*: P(Y=1 | original) should match
        // P(Y=0 | mirrored) up to Monte-Carlo error.
        let p = FetProtocol::new(6).unwrap();
        let mut rng = rng("sym");
        let obs = Observation::new(9, 12).unwrap();
        let reps = 60_000;
        let mut ones_a = 0u32;
        let mut zeros_b = 0u32;
        for _ in 0..reps {
            let mut s_a = FetState {
                opinion: Opinion::Zero,
                prev_count_second_half: 3,
            };
            let mut s_b = FetState {
                opinion: Opinion::One,
                prev_count_second_half: 6 - 3,
            };
            if p.step(&mut s_a, &obs, &ctx(), &mut rng) == Opinion::One {
                ones_a += 1;
            }
            if p.step(&mut s_b, &obs.relabeled(), &ctx(), &mut rng) == Opinion::Zero {
                zeros_b += 1;
            }
        }
        let fa = f64::from(ones_a) / f64::from(reps);
        let fb = f64::from(zeros_b) / f64::from(reps);
        assert!((fa - fb).abs() < 0.01, "symmetry violated: {fa} vs {fb}");
    }
}
