//! Reading constrained optima off a Pareto front.

use crate::merge::FrontPoint;
use crate::objective::Constraint;

/// Reads the optimum off a front under any [`Constraint`] — the
/// trait-based form of [`best_under_deadline`] / [`fastest_under_budget`].
pub fn optimum<'a, C: Constraint>(
    front: &'a [FrontPoint],
    constraint: &C,
) -> Option<&'a FrontPoint> {
    constraint.select(front)
}

/// Returns the cheapest front point whose delay meets the deadline, or
/// `None` when the deadline is infeasible (tighter than the fastest
/// point).
///
/// `front` must be sorted by ascending delay with descending cost, as
/// produced by [`crate::merge::try_system_front`].
pub fn best_under_deadline(front: &[FrontPoint], deadline: f64) -> Option<&FrontPoint> {
    // The front is cost-descending in delay, so the *slowest* feasible
    // point is the cheapest feasible one.
    front.iter().take_while(|p| p.delay <= deadline).last()
}

/// Returns the fastest front point whose cost is at most `budget`, or
/// `None` when no point is cheap enough (the dual query).
pub fn fastest_under_budget(front: &[FrontPoint], budget: f64) -> Option<&FrontPoint> {
    front.iter().find(|p| p.cost <= budget)
}

/// Evenly spaced feasible deadlines across a front's delay range
/// (inclusive of both endpoints), for sweep-style experiments.
pub fn deadline_sweep(front: &[FrontPoint], steps: usize) -> Vec<f64> {
    let (Some(first), Some(last)) = (front.first(), front.last()) else {
        return Vec::new();
    };
    if steps == 0 {
        return Vec::new();
    }
    let lo = first.delay;
    let hi = last.delay;
    if steps == 1 || hi <= lo {
        return vec![hi];
    }
    (0..steps)
        .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::KnobPoint;

    fn front() -> Vec<FrontPoint> {
        vec![
            FrontPoint {
                delay: 1.0,
                cost: 10.0,
                choice: vec![KnobPoint::nominal()],
            },
            FrontPoint {
                delay: 2.0,
                cost: 5.0,
                choice: vec![KnobPoint::nominal()],
            },
            FrontPoint {
                delay: 4.0,
                cost: 1.0,
                choice: vec![KnobPoint::nominal()],
            },
        ]
    }

    #[test]
    fn deadline_picks_cheapest_feasible() {
        let f = front();
        assert_eq!(best_under_deadline(&f, 3.0).unwrap().cost, 5.0);
        assert_eq!(best_under_deadline(&f, 4.0).unwrap().cost, 1.0);
        assert_eq!(best_under_deadline(&f, 100.0).unwrap().cost, 1.0);
        assert_eq!(best_under_deadline(&f, 1.0).unwrap().cost, 10.0);
        assert!(best_under_deadline(&f, 0.5).is_none());
    }

    #[test]
    fn budget_picks_fastest_affordable() {
        let f = front();
        assert_eq!(fastest_under_budget(&f, 7.0).unwrap().delay, 2.0);
        assert_eq!(fastest_under_budget(&f, 100.0).unwrap().delay, 1.0);
        assert!(fastest_under_budget(&f, 0.5).is_none());
    }

    #[test]
    fn sweep_spans_range_inclusive() {
        let f = front();
        let s = deadline_sweep(&f, 4);
        assert_eq!(s.len(), 4);
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[3] - 4.0).abs() < 1e-12);
        assert_eq!(deadline_sweep(&f, 1), vec![4.0]);
        assert!(deadline_sweep(&[], 5).is_empty());
        assert!(deadline_sweep(&f, 0).is_empty());
    }
}
