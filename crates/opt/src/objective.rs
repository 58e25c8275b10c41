//! The objective/constraint trait pair shared by every solver.
//!
//! The studies in `nm-cache-core` all minimise *some* additive cost under
//! *some* delay-style constraint; historically each study wired its own
//! closure into the solvers. This module names the two roles:
//!
//! * an [`Objective`] collapses a group's raw metric sums (delay, leakage,
//!   dynamic energy) into the scalar cost a [`Candidate`] carries —
//!   leakage power for the Section 4/5 studies, integrated energy for the
//!   Figure 2 memory-system study;
//! * a [`Constraint`] reads the optimum off a system Pareto front — a
//!   delay [`Deadline`] for the iso-delay/iso-AMAT studies, a
//!   [`CostBudget`] for the dual query.
//!
//! The exact solvers ([`crate::merge`], [`crate::tuple`]), the annealer
//! ([`crate::anneal`]) and the pruning layer ([`crate::pareto`]) all
//! consume these traits, so a new study only has to describe *what* it
//! optimises, never *how*.

use crate::constraint::{best_under_deadline, fastest_under_budget};
use crate::merge::FrontPoint;
use crate::pareto;
use crate::Candidate;
use nm_device::KnobPoint;
use serde::{Deserialize, Serialize};

/// Raw metric sums of one component group under one knob pair, before any
/// objective is applied. All fields are plain SI values (seconds, watts,
/// joules) so the type stays unit-library-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricSample {
    /// Summed delay contribution, seconds (unweighted).
    pub delay: f64,
    /// Summed standby leakage power, watts.
    pub leakage: f64,
    /// Summed dynamic energy per read access, joules.
    pub read_energy: f64,
    /// Summed dynamic energy per write access, joules.
    pub write_energy: f64,
}

/// Collapses a [`MetricSample`] into the scalar cost a candidate carries.
///
/// Implementations must be pure: the same sample always maps to the same
/// cost, which is what lets the evaluation engine memoize samples and
/// re-price them under different objectives.
pub trait Objective: Sync {
    /// The cost of one group sample (additive across groups).
    fn cost(&self, sample: &MetricSample) -> f64;
}

/// Selects the optimal point of a system Pareto front.
///
/// `front` is sorted by ascending delay with descending cost, as produced
/// by [`crate::merge::try_system_front`].
pub trait Constraint: Sync {
    /// The constraint's scalar limit (a deadline in seconds, a cost
    /// budget, …) — solvers that penalise violations (the annealer) scale
    /// by it.
    fn limit(&self) -> f64;

    /// The optimal feasible front point, or `None` when the constraint is
    /// infeasible.
    fn select<'a>(&self, front: &'a [FrontPoint]) -> Option<&'a FrontPoint>;

    /// Relative violation of a `(delay, cost)` operating point — `0` when
    /// the constraint is met, growing with the overshoot. Penalty-based
    /// solvers (the annealer) square this.
    fn violation(&self, delay: f64, cost: f64) -> f64;

    /// Whether a `(delay, cost)` operating point satisfies the constraint.
    fn satisfied(&self, delay: f64, cost: f64) -> bool {
        self.violation(delay, cost) <= 0.0
    }
}

/// Minimise cost subject to `total delay ≤ deadline` (iso-delay and
/// iso-AMAT studies).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Deadline(pub f64);

impl Constraint for Deadline {
    fn limit(&self) -> f64 {
        self.0
    }

    fn select<'a>(&self, front: &'a [FrontPoint]) -> Option<&'a FrontPoint> {
        best_under_deadline(front, self.0)
    }

    fn violation(&self, delay: f64, _cost: f64) -> f64 {
        ((delay - self.0) / self.0).max(0.0)
    }
}

/// Minimise delay subject to `total cost ≤ budget` (the dual query).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBudget(pub f64);

impl Constraint for CostBudget {
    fn limit(&self) -> f64 {
        self.0
    }

    fn select<'a>(&self, front: &'a [FrontPoint]) -> Option<&'a FrontPoint> {
        fastest_under_budget(front, self.0)
    }

    fn violation(&self, _delay: f64, cost: f64) -> f64 {
        ((cost - self.0) / self.0).max(0.0)
    }
}

/// Prices one knob pair's sample as a candidate: the delay is pre-weighted
/// by the caller's system weight (e.g. the L1 miss rate for an L2 group in
/// an AMAT study), the cost comes from the objective.
///
/// # Panics
///
/// Panics when the weighted delay or priced cost is negative or
/// non-finite (see [`Candidate::new`]).
pub fn price<O: Objective + ?Sized>(
    knobs: KnobPoint,
    sample: &MetricSample,
    delay_weight: f64,
    objective: &O,
) -> Candidate {
    Candidate::new(knobs, delay_weight * sample.delay, objective.cost(sample))
}

/// Prices a whole surface of samples and prunes it to its Pareto-optimal
/// candidates in one pass — the candidate-enumeration entry point of the
/// evaluation engine.
pub fn price_surface<O: Objective + ?Sized>(
    samples: &[(KnobPoint, MetricSample)],
    delay_weight: f64,
    objective: &O,
) -> Vec<Candidate> {
    pareto::prune(
        samples
            .iter()
            .map(|(p, s)| price(*p, s, delay_weight, objective))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct LeakageOnly;
    impl Objective for LeakageOnly {
        fn cost(&self, s: &MetricSample) -> f64 {
            s.leakage
        }
    }

    fn sample(delay: f64, leakage: f64) -> MetricSample {
        MetricSample {
            delay,
            leakage,
            read_energy: 1e-12,
            write_energy: 2e-12,
        }
    }

    fn front() -> Vec<FrontPoint> {
        vec![
            FrontPoint {
                delay: 1.0,
                cost: 10.0,
                choice: vec![KnobPoint::nominal()],
            },
            FrontPoint {
                delay: 3.0,
                cost: 2.0,
                choice: vec![KnobPoint::nominal()],
            },
        ]
    }

    #[test]
    fn deadline_selects_cheapest_feasible() {
        let f = front();
        assert_eq!(Deadline(2.0).select(&f).unwrap().cost, 10.0);
        assert_eq!(Deadline(3.0).select(&f).unwrap().cost, 2.0);
        assert!(Deadline(0.5).select(&f).is_none());
        assert_eq!(Deadline(2.0).limit(), 2.0);
    }

    #[test]
    fn violation_is_relative_overshoot() {
        assert_eq!(Deadline(2.0).violation(1.0, 99.0), 0.0);
        assert!((Deadline(2.0).violation(3.0, 0.0) - 0.5).abs() < 1e-12);
        assert!(Deadline(2.0).satisfied(2.0, 123.0));
        assert!(!Deadline(2.0).satisfied(2.1, 0.0));
        assert!((CostBudget(10.0).violation(0.0, 15.0) - 0.5).abs() < 1e-12);
        assert!(CostBudget(10.0).satisfied(99.0, 10.0));
    }

    #[test]
    fn budget_selects_fastest_affordable() {
        let f = front();
        assert_eq!(CostBudget(5.0).select(&f).unwrap().delay, 3.0);
        assert_eq!(CostBudget(50.0).select(&f).unwrap().delay, 1.0);
        assert!(CostBudget(1.0).select(&f).is_none());
    }

    #[test]
    fn price_weights_delay_and_prices_cost() {
        let c = price(KnobPoint::nominal(), &sample(2.0, 5.0), 0.25, &LeakageOnly);
        assert_eq!(c.delay, 0.5);
        assert_eq!(c.cost, 5.0);
    }

    #[test]
    fn price_surface_prunes_dominated_samples() {
        let samples = vec![
            (KnobPoint::fastest(), sample(1.0, 9.0)),
            (KnobPoint::nominal(), sample(2.0, 10.0)), // dominated
            (KnobPoint::lowest_leakage(), sample(3.0, 1.0)),
        ];
        let priced = price_surface(&samples, 1.0, &LeakageOnly);
        assert_eq!(priced.len(), 2);
    }
}
