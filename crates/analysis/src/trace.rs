//! Trajectory → domain-visit analysis: the empirical Figure 1b.
//!
//! Given a simulated `x_t` trajectory, classify each consecutive pair
//! `(x_t, x_{t+1})` into its Figure 1a domain, then compress into *visits*
//! (maximal runs in one domain) with dwell times and transition counts.
//! Aggregated over many runs, the transition matrix reproduces the arrows
//! of Figure 1b and the dwell statistics test Lemmas 1–5.

use crate::domains::{Domain, DomainParams};
use std::collections::BTreeMap;

/// One maximal stay inside a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainVisit {
    /// The domain visited.
    pub domain: Domain,
    /// Round at which the visit began (index of the pair `(x_t, x_{t+1})`).
    pub start: u64,
    /// Number of consecutive rounds spent in the domain.
    pub dwell: u64,
}

/// A classified trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainTrace {
    visits: Vec<DomainVisit>,
    per_round: Vec<Domain>,
}

impl DomainTrace {
    /// Classifies a trajectory of `x_t` values (length ≥ 2) under the
    /// given partition parameters.
    ///
    /// # Panics
    ///
    /// Panics when the trajectory has fewer than two points.
    pub fn from_trajectory(params: &DomainParams, xs: &[f64]) -> Self {
        assert!(
            xs.len() >= 2,
            "need at least two points to form a state pair"
        );
        let per_round: Vec<Domain> = xs.windows(2).map(|w| params.classify(w[0], w[1])).collect();
        let mut visits = Vec::new();
        let mut start = 0u64;
        for (t, &d) in per_round.iter().enumerate() {
            if t == 0 {
                start = 0;
                continue;
            }
            if d != per_round[t - 1] {
                visits.push(DomainVisit {
                    domain: per_round[t - 1],
                    start,
                    dwell: t as u64 - start,
                });
                start = t as u64;
            }
        }
        visits.push(DomainVisit {
            domain: *per_round.last().expect("nonempty"),
            start,
            dwell: per_round.len() as u64 - start,
        });
        DomainTrace { visits, per_round }
    }

    /// The per-round domain sequence.
    pub fn per_round(&self) -> &[Domain] {
        &self.per_round
    }

    /// The compressed visit sequence.
    pub fn visits(&self) -> &[DomainVisit] {
        &self.visits
    }

    /// Ordered `(from, to)` transitions between distinct domains.
    pub fn transitions(&self) -> Vec<(Domain, Domain)> {
        self.visits
            .windows(2)
            .map(|w| (w[0].domain, w[1].domain))
            .collect()
    }
}

/// Aggregated dwell-time and transition statistics over many traces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DwellStats {
    dwell_sum: BTreeMap<Domain, u64>,
    dwell_max: BTreeMap<Domain, u64>,
    visit_count: BTreeMap<Domain, u64>,
    transition_count: BTreeMap<(Domain, Domain), u64>,
}

impl DwellStats {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        DwellStats::default()
    }

    /// Absorbs one trace.
    pub fn absorb(&mut self, trace: &DomainTrace) {
        for v in trace.visits() {
            *self.dwell_sum.entry(v.domain).or_insert(0) += v.dwell;
            *self.visit_count.entry(v.domain).or_insert(0) += 1;
            let m = self.dwell_max.entry(v.domain).or_insert(0);
            if v.dwell > *m {
                *m = v.dwell;
            }
        }
        for t in trace.transitions() {
            *self.transition_count.entry(t).or_insert(0) += 1;
        }
    }

    /// Mean dwell time in a domain, if visited.
    pub fn mean_dwell(&self, d: Domain) -> Option<f64> {
        let visits = *self.visit_count.get(&d)?;
        Some(*self.dwell_sum.get(&d)? as f64 / visits as f64)
    }

    /// Maximum dwell time observed in a domain.
    pub fn max_dwell(&self, d: Domain) -> Option<u64> {
        self.dwell_max.get(&d).copied()
    }

    /// Number of visits to a domain.
    pub fn visits(&self, d: Domain) -> u64 {
        self.visit_count.get(&d).copied().unwrap_or(0)
    }

    /// Count of `(from, to)` transitions.
    pub fn transition(&self, from: Domain, to: Domain) -> u64 {
        self.transition_count.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Empirical distribution of exits from `from`: `(to, probability)`.
    pub fn exit_distribution(&self, from: Domain) -> Vec<(Domain, f64)> {
        let total: u64 = self
            .transition_count
            .iter()
            .filter(|((f, _), _)| *f == from)
            .map(|(_, &c)| c)
            .sum();
        if total == 0 {
            return Vec::new();
        }
        self.transition_count
            .iter()
            .filter(|((f, _), _)| *f == from)
            .map(|((_, t), &c)| (*t, c as f64 / total as f64))
            .collect()
    }

    /// All domains seen.
    pub fn domains_seen(&self) -> Vec<Domain> {
        self.visit_count.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DomainParams {
        DomainParams::new(10_000, 0.05).unwrap()
    }

    #[test]
    fn classifies_a_synthetic_bounce() {
        // Wrong consensus → bounce through rising values → consensus on 1.
        let xs = [0.001, 0.002, 0.02, 0.2, 0.6, 1.0, 1.0];
        let trace = DomainTrace::from_trajectory(&params(), &xs);
        let seq: Vec<Domain> = trace.visits().iter().map(|v| v.domain).collect();
        // (0.001,0.002) Cyan1, (0.002,0.02) Cyan1, (0.02,0.2) Green1,
        // (0.2,0.6) Green1, (0.6,1.0) Green1, (1.0,1.0) Cyan0.
        assert_eq!(seq[0], Domain::Cyan1);
        assert!(seq.contains(&Domain::Green1));
        // Dwells sum to the number of pairs.
        let total: u64 = trace.visits().iter().map(|v| v.dwell).sum();
        assert_eq!(total, xs.len() as u64 - 1);
    }

    #[test]
    fn single_domain_trace_has_one_visit() {
        let xs = [0.5, 0.5, 0.5, 0.5];
        let trace = DomainTrace::from_trajectory(&params(), &xs);
        assert_eq!(trace.visits().len(), 1);
        assert_eq!(trace.visits()[0].domain, Domain::Yellow);
        assert_eq!(trace.visits()[0].dwell, 3);
        assert!(trace.transitions().is_empty());
    }

    #[test]
    fn dwell_stats_aggregate() {
        let p = params();
        let mut stats = DwellStats::new();
        stats.absorb(&DomainTrace::from_trajectory(&p, &[0.5, 0.5, 0.5, 0.9]));
        stats.absorb(&DomainTrace::from_trajectory(&p, &[0.5, 0.5, 0.9]));
        // Yellow visited twice (dwells 2 and 1), Green1 twice.
        assert_eq!(stats.visits(Domain::Yellow), 2);
        assert_eq!(stats.mean_dwell(Domain::Yellow), Some(1.5));
        assert_eq!(stats.max_dwell(Domain::Yellow), Some(2));
        assert_eq!(stats.transition(Domain::Yellow, Domain::Green1), 2);
    }

    #[test]
    fn exit_distribution_normalizes() {
        let p = params();
        let mut stats = DwellStats::new();
        stats.absorb(&DomainTrace::from_trajectory(
            &p,
            &[0.5, 0.5, 0.9, 0.9, 0.89],
        ));
        let exits = stats.exit_distribution(Domain::Yellow);
        let total: f64 = exits.iter().map(|(_, pr)| pr).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(stats.exit_distribution(Domain::Red1).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn rejects_single_point() {
        let _ = DomainTrace::from_trajectory(&params(), &[0.5]);
    }
}
