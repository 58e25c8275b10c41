//! Declarative description of what a study evaluates: the cache levels,
//! their knob-grouping schemes, and how each level's delay and cost enter
//! the system objective.

use crate::error::StudyError;
use crate::groups::{knobs_from_choice, CostKind, Scheme};
use nm_device::{KnobPoint, TechProfile};
use nm_geometry::{CacheCircuit, ComponentKnobs};

/// One cache level of a hierarchy: a circuit, the device technology its
/// cells are built from, the assignment [`Scheme`] grouping its knobs,
/// the weight its delay carries in the system objective (1 for an L1, the
/// L1 miss rate for an L2 in an AMAT study) and the [`CostKind`] its
/// groups are priced under.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSpec {
    label: String,
    circuit: CacheCircuit,
    technology: TechProfile,
    scheme: Scheme,
    delay_weight: f64,
    cost: CostKind,
}

impl LevelSpec {
    /// Human-readable level label ("L1", "D$", …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The level's circuit model.
    pub fn circuit(&self) -> &CacheCircuit {
        &self.circuit
    }

    /// The level's device technology (taken from the circuit at
    /// construction; SRAM for plain circuits).
    pub fn technology(&self) -> &TechProfile {
        &self.technology
    }

    /// The knob-grouping scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The level's delay weight in the system objective.
    pub fn delay_weight(&self) -> f64 {
        self.delay_weight
    }

    /// How the level's groups are priced.
    pub fn cost(&self) -> CostKind {
        self.cost
    }
}

/// An ordered set of [`LevelSpec`]s — the full description of one
/// evaluation problem. Two equal specs describe the same optimisation, so
/// the [`Evaluator`](crate::eval::Evaluator) memoizes fronts keyed on it.
///
/// Group order across the system is the concatenation of each level's
/// [`Scheme::layout`] in level order; a front point's choice vector uses
/// the same order, and [`try_knobs_from_choice`](Self::try_knobs_from_choice) is
/// the one canonical way to slice it back into per-level assignments.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HierarchySpec {
    levels: Vec<LevelSpec>,
}

impl HierarchySpec {
    /// An empty hierarchy; add levels with [`level`](Self::level).
    pub fn new() -> Self {
        HierarchySpec { levels: Vec::new() }
    }

    /// Appends a cache level (builder style). Levels are evaluated — and
    /// their groups ordered — in insertion order.
    #[must_use]
    pub fn level(
        mut self,
        label: impl Into<String>,
        circuit: CacheCircuit,
        scheme: Scheme,
        delay_weight: f64,
        cost: CostKind,
    ) -> Self {
        let technology = circuit.technology().clone();
        self.levels.push(LevelSpec {
            label: label.into(),
            circuit,
            technology,
            scheme,
            delay_weight,
            cost,
        });
        self
    }

    /// A one-level hierarchy (the Section 4 single-cache studies).
    pub fn single(
        circuit: CacheCircuit,
        scheme: Scheme,
        delay_weight: f64,
        cost: CostKind,
    ) -> Self {
        Self::new().level("cache", circuit, scheme, delay_weight, cost)
    }

    /// The levels, in evaluation order.
    pub fn levels(&self) -> &[LevelSpec] {
        &self.levels
    }

    /// Total number of knob-sharing groups across all levels — the length
    /// of a front point's choice vector for this spec.
    pub fn group_count(&self) -> usize {
        self.levels.iter().map(|l| l.scheme.group_count()).sum()
    }

    /// Derives per-level AMAT delay weights from the miss-rate chain:
    /// level *i* is reached once per access to level 0 times the product
    /// of all upstream local miss rates, so
    /// `weights = [1, m₁, m₁·m₂, …]` for local miss rates
    /// `[m₁, m₂, …, m_N]` (one per level except the last, whose misses go
    /// to main memory and are priced by the study's memory model, not a
    /// cache level).
    ///
    /// The fold starts at exactly `1.0` and multiplies left-to-right, so
    /// for an N=2 hierarchy the weights are bit-for-bit `[1.0, m₁]` — the
    /// constants the two-level studies used to pass by hand.
    ///
    /// # Errors
    ///
    /// [`StudyError::MissRateRange`] when any rate is non-finite or
    /// outside `[0, 1]`.
    pub fn try_amat_weights(miss_rates: &[f64]) -> Result<Vec<f64>, StudyError> {
        for (index, &value) in miss_rates.iter().enumerate() {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(StudyError::MissRateRange { index, value });
            }
        }
        let mut weights = Vec::with_capacity(miss_rates.len() + 1);
        let mut w = 1.0;
        weights.push(w);
        for &m in miss_rates {
            w *= m;
            weights.push(w);
        }
        Ok(weights)
    }

    /// Reconstructs each level's [`ComponentKnobs`] from a front point's
    /// choice vector — the single canonical choice-slicing path (each
    /// level consumes [`Scheme::group_count`] entries in level order).
    ///
    /// # Errors
    ///
    /// [`StudyError::ChoiceLength`] when `choice` does not have exactly
    /// [`group_count`](Self::group_count) entries.
    pub fn try_knobs_from_choice(
        &self,
        choice: &[KnobPoint],
    ) -> Result<Vec<ComponentKnobs>, StudyError> {
        let expected = self.group_count();
        if choice.len() != expected {
            return Err(StudyError::ChoiceLength {
                expected,
                got: choice.len(),
            });
        }
        let mut offset = 0;
        Ok(self
            .levels
            .iter()
            .map(|l| {
                let n = l.scheme.group_count();
                let knobs = knobs_from_choice(l.scheme, &choice[offset..offset + n]);
                offset += n;
                knobs
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_device::TechnologyNode;
    use nm_geometry::{CacheConfig, ComponentId};

    fn circuit(bytes: u64) -> CacheCircuit {
        let tech = TechnologyNode::bptm65();
        CacheCircuit::new(CacheConfig::new(bytes, 64, 4).unwrap(), &tech)
    }

    #[test]
    fn group_count_sums_levels() {
        let spec = HierarchySpec::new()
            .level(
                "L1",
                circuit(16 * 1024),
                Scheme::Split,
                1.0,
                CostKind::LeakagePower,
            )
            .level(
                "L2",
                circuit(64 * 1024),
                Scheme::PerComponent,
                0.05,
                CostKind::LeakagePower,
            );
        assert_eq!(spec.group_count(), 6);
        assert_eq!(spec.levels().len(), 2);
        assert_eq!(spec.levels()[0].label(), "L1");
    }

    #[test]
    fn knobs_from_choice_slices_per_level() {
        let spec = HierarchySpec::new()
            .level(
                "L1",
                circuit(16 * 1024),
                Scheme::Split,
                1.0,
                CostKind::LeakagePower,
            )
            .level(
                "L2",
                circuit(64 * 1024),
                Scheme::Uniform,
                0.05,
                CostKind::LeakagePower,
            );
        let a = KnobPoint::fastest();
        let b = KnobPoint::lowest_leakage();
        let n = KnobPoint::nominal();
        let knobs = spec
            .try_knobs_from_choice(&[b, a, n])
            .expect("three groups");
        assert_eq!(knobs.len(), 2);
        assert_eq!(knobs[0][ComponentId::MemoryArray], b);
        assert_eq!(knobs[0][ComponentId::Decoder], a);
        assert_eq!(knobs[1][ComponentId::MemoryArray], n);
        assert_eq!(knobs[1][ComponentId::DataBus], n);
    }

    #[test]
    fn try_knobs_from_choice_reports_lengths() {
        let spec = HierarchySpec::single(
            circuit(16 * 1024),
            Scheme::Split,
            1.0,
            CostKind::LeakagePower,
        );
        let err = spec
            .try_knobs_from_choice(&[KnobPoint::nominal()])
            .unwrap_err();
        assert_eq!(
            err,
            StudyError::ChoiceLength {
                expected: 2,
                got: 1
            }
        );
        let ok = spec
            .try_knobs_from_choice(&[KnobPoint::nominal(), KnobPoint::fastest()])
            .unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn amat_weights_chain_products() {
        let w = HierarchySpec::try_amat_weights(&[0.05, 0.25]);
        assert_eq!(w, Ok(vec![1.0, 0.05, 0.05 * 0.25]));
        assert_eq!(HierarchySpec::try_amat_weights(&[]), Ok(vec![1.0]));
    }

    #[test]
    fn amat_weights_first_weight_is_exactly_one_and_m1_exact() {
        // Bit-identity with the hand-passed constants the two-level
        // studies used: weights[0] is the literal 1.0 and weights[1] is
        // the literal m1, not a rounded product.
        let m1 = 0.123456789_f64;
        let w = HierarchySpec::try_amat_weights(&[m1]).expect("a probability");
        assert_eq!(w[0].to_bits(), 1.0_f64.to_bits());
        assert_eq!(w[1].to_bits(), m1.to_bits());
    }

    #[test]
    fn amat_weights_reject_bad_rates() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = HierarchySpec::try_amat_weights(&[0.1, bad]).unwrap_err();
            match err {
                StudyError::MissRateRange { index, .. } => assert_eq!(index, 1),
                other => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn level_technology_tracks_the_circuit() {
        use nm_device::TechProfile;
        use nm_geometry::CacheConfig;
        let tech = TechnologyNode::bptm65();
        let edram = CacheCircuit::with_technology(
            CacheConfig::new(4 * 1024 * 1024, 64, 16).unwrap(),
            &tech,
            TechProfile::edram(),
        );
        let spec = HierarchySpec::new()
            .level(
                "L1",
                circuit(16 * 1024),
                Scheme::Split,
                1.0,
                CostKind::LeakagePower,
            )
            .level("L3", edram, Scheme::Uniform, 0.01, CostKind::LeakagePower);
        assert_eq!(spec.levels()[0].technology().name, "sram");
        assert_eq!(spec.levels()[1].technology().name, "edram");
        assert!(spec.levels()[0].technology().is_identity());
    }
}
