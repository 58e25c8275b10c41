//! Device primitives at one knob point, the form the cache circuit
//! models consume.
//!
//! The circuit models in `nm-geometry` compose a handful of device
//! primitives — subthreshold and gate-tunnelling currents, drive
//! current, switching resistance, gate capacitance — dozens of times per
//! component analysis. Every one of those primitives factors into a part
//! that depends only on the knob pair (the `exp`/`powf` terms of the
//! paper's Eq.1/Eq.2 fitted forms) and a cheap multiplier chain over the
//! device geometry, so the expensive factors are hoisted out and
//! computed once per point:
//!
//! * [`HoistedPrims`] carries the precomputed per-point factors and
//!   finishes each call with the **same left-to-right multiply chain**
//!   the reference functions in [`crate::leakage`] / [`crate::drive`]
//!   use, so its results are bit-identical to them;
//! * [`PrimsTable`] builds a `HoistedPrims` per grid point, deduplicating
//!   the per-axis work (`Tox`-only and `Vth`-only terms are computed once
//!   per distinct axis value, not once per point).
//!
//! Bit-identity is load-bearing: the evaluation engine's golden tables
//! pin results to the last decimal, so the hoisted factors must
//! reproduce the exact floating-point operation order of the reference
//! functions. Each `HoistedPrims` method documents the chain it
//! replicates.

use crate::knobs::KnobPoint;
use crate::leakage::ConductionState;
use crate::tech::TechnologyNode;
use crate::transistor::MosfetKind;
use crate::units::{Amperes, Farads, Meters, Microns, Ohms};

/// Precomputed per-point factors of every device primitive.
///
/// Construction pays one `exp` (the joint subthreshold exponent), one
/// `powf` (the alpha-power overdrive) and one more `exp` (the
/// gate-tunnelling density) per point; every primitive is then a short
/// multiply chain, width- and component-independent work having been
/// hoisted. The technology node is captured at construction, so the
/// primitives take only the device's width (and state or kind); all
/// lengths are the drawn length mandated by the point's `Tox`, the only
/// length the cache geometry models use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoistedPrims {
    knobs: KnobPoint,
    length: Meters,
    scale: f64,
    cox: f64,
    vt: f64,
    /// `μ·Cox` — leading pair of the subthreshold chain.
    sub_k: f64,
    /// `e^((η·Vdd − Vth)/(n·vT))`.
    sub_exp: f64,
    /// `1 − e^(−Vdd/vT)`.
    drain_term: f64,
    /// `J0·Vox²·(Tox₀/Tox)²·e^(−Bg·(Tox − Tox₀))`.
    gate_density: f64,
    gate_off: f64,
    k_drive: f64,
    pmos_ratio: f64,
    /// `(Vdd − Vth)^α`.
    drive_pow: f64,
    /// `1/(1 − λ·Vth/Vdd)`.
    near_vth: f64,
    /// `0.7·Vdd` — numerator of the average-current resistance.
    r_num: f64,
    cfringe: f64,
}

/// `Tox`-only derived quantities, computed once per distinct axis value.
#[derive(Debug, Clone, Copy)]
struct ToxDerived {
    cox: f64,
    length: Meters,
    scale: f64,
    n: f64,
    eta: f64,
    gate_density: f64,
}

impl ToxDerived {
    fn new(tech: &TechnologyNode, tox: crate::units::Angstroms) -> Self {
        let length = tech.drawn_length(tox);
        let (j0, bg) = tech.gate_tunnelling();
        let tox0 = tech.tox_min().0;
        let vox = tech.vdd().0;
        // Replicates the density expression of `leakage::gate_current`.
        let gate_density =
            j0 * (vox * vox) * (tox0 / tox.0) * (tox0 / tox.0) * (-(bg) * (tox.0 - tox0)).exp();
        ToxDerived {
            cox: tech.cox(tox),
            length,
            scale: tech.cell_scale(tox),
            n: tech.subthreshold_n(tox),
            eta: tech.dibl(length),
            gate_density,
        }
    }
}

/// `Vth`-only derived quantities, computed once per distinct axis value.
#[derive(Debug, Clone, Copy)]
struct VthDerived {
    drive_pow: f64,
    near_vth: f64,
}

impl VthDerived {
    fn new(tech: &TechnologyNode, vth: crate::units::Volts) -> Self {
        let overdrive = tech.vdd().0 - vth.0;
        debug_assert!(overdrive > 0.0, "legal knobs keep Vdd − Vth positive");
        VthDerived {
            drive_pow: overdrive.powf(tech.alpha()),
            near_vth: 1.0 / (1.0 - tech.near_vth_slowdown() * vth.0 / tech.vdd().0),
        }
    }
}

impl HoistedPrims {
    /// Precomputes the factors for one knob point.
    pub fn new(tech: &TechnologyNode, knobs: KnobPoint) -> Self {
        Self::from_axes(
            tech,
            knobs,
            &ToxDerived::new(tech, knobs.tox()),
            &VthDerived::new(tech, knobs.vth()),
        )
    }

    fn from_axes(tech: &TechnologyNode, knobs: KnobPoint, t: &ToxDerived, v: &VthDerived) -> Self {
        let vt = tech.thermal_voltage().0;
        let vdd = tech.vdd().0;
        // Replicates the exponent of `leakage::subthreshold_current`.
        let exponent = (t.eta * vdd - knobs.vth().0) / (t.n * vt);
        HoistedPrims {
            knobs,
            length: t.length,
            scale: t.scale,
            cox: t.cox,
            vt,
            sub_k: tech.mu_eff() * t.cox,
            sub_exp: exponent.exp(),
            drain_term: 1.0 - (-vdd / vt).exp(),
            gate_density: t.gate_density,
            gate_off: tech.gate_off_factor(),
            k_drive: tech.k_drive(),
            pmos_ratio: tech.pmos_drive_ratio(),
            drive_pow: v.drive_pow,
            near_vth: v.near_vth,
            r_num: 0.7 * vdd,
            cfringe: tech.cfringe_per_width(),
        }
    }

    /// The knob point these primitives are evaluated at.
    pub fn point(&self) -> KnobPoint {
        self.knobs
    }

    /// Drawn channel length mandated by this point's `Tox`.
    pub fn drawn_length(&self) -> Meters {
        self.length
    }

    /// Linear cell-scale factor of this point's `Tox`.
    pub fn cell_scale(&self) -> f64 {
        self.scale
    }

    /// Subthreshold current of an off device of the given width, as
    /// [`crate::leakage::subthreshold_current`]:
    /// `μ·Cox · (W/L) · vT · vT · e^(…) · (1 − e^(−Vdd/vT))`, the exact
    /// left-to-right chain with the first pair and both exponentials
    /// precomputed.
    pub fn subthreshold_current(&self, width: Microns) -> Amperes {
        let w_over_l = width.meters().0 / self.length.0;
        Amperes(self.sub_k * w_over_l * self.vt * self.vt * self.sub_exp * self.drain_term)
    }

    /// Gate-tunnelling current of a device of the given width, as
    /// [`crate::leakage::gate_current`]: `density · W·L · state_factor`.
    pub fn gate_current(&self, width: Microns, state: ConductionState) -> Amperes {
        let area = width.meters().0 * self.length.0;
        let state_factor = match state {
            ConductionState::On => 1.0,
            ConductionState::Off => self.gate_off,
        };
        Amperes(self.gate_density * area * state_factor)
    }

    /// Saturation drive current, as [`crate::drive::on_current`]:
    /// `k · kind_factor · (W/L) · Cox · (Vdd − Vth)^α`.
    pub fn on_current(&self, width: Microns, kind: MosfetKind) -> Amperes {
        let w_over_l = width.meters().0 / self.length.0;
        let kind_factor = match kind {
            MosfetKind::Nmos => 1.0,
            MosfetKind::Pmos => self.pmos_ratio,
        };
        Amperes(self.k_drive * kind_factor * w_over_l * self.cox * self.drive_pow)
    }

    /// Effective switching resistance, as
    /// [`crate::drive::effective_resistance`]:
    /// `(0.7·Vdd)/Ion · 1/(1 − λ·Vth/Vdd)`.
    pub fn effective_resistance(&self, width: Microns, kind: MosfetKind) -> Ohms {
        let ion = self.on_current(width, kind);
        let base = self.r_num / ion.0;
        Ohms(base * self.near_vth)
    }

    /// Total gate capacitance, as [`crate::drive::gate_capacitance`]:
    /// `Cox·W·L + cfringe·W`.
    pub fn gate_capacitance(&self, width: Microns) -> Farads {
        let w = width.meters().0;
        let plate = self.cox * w * self.length.0;
        let fringe = self.cfringe * w;
        Farads(plate + fringe)
    }
}

/// A [`HoistedPrims`] per knob point, built with per-axis deduplication:
/// the `Tox`-only and `Vth`-only derived quantities are computed once per
/// distinct axis value (matched by bit pattern), so building a table over
/// an `nV × nT` grid costs `nV + nT` axis evaluations plus one joint
/// subthreshold `exp` per point.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimsTable {
    items: Vec<HoistedPrims>,
}

impl PrimsTable {
    /// Builds the table for a point set under one technology node.
    pub fn new(tech: &TechnologyNode, points: &[KnobPoint]) -> Self {
        let mut tox_cache: Vec<(u64, ToxDerived)> = Vec::new();
        let mut vth_cache: Vec<(u64, VthDerived)> = Vec::new();
        let items = points
            .iter()
            .map(|&p| {
                let tox_bits = p.tox().0.to_bits();
                let t = match tox_cache.iter().find(|(b, _)| *b == tox_bits) {
                    Some((_, t)) => *t,
                    None => {
                        let t = ToxDerived::new(tech, p.tox());
                        tox_cache.push((tox_bits, t));
                        t
                    }
                };
                let vth_bits = p.vth().0.to_bits();
                let v = match vth_cache.iter().find(|(b, _)| *b == vth_bits) {
                    Some((_, v)) => *v,
                    None => {
                        let v = VthDerived::new(tech, p.vth());
                        vth_cache.push((vth_bits, v));
                        v
                    }
                };
                HoistedPrims::from_axes(tech, p, &t, &v)
            })
            .collect();
        PrimsTable { items }
    }

    /// The per-point entries, aligned with the input point order.
    pub fn items(&self) -> &[HoistedPrims] {
        &self.items
    }

    /// Number of points in the table.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the table holds no points.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::KnobGrid;
    use crate::units::{Angstroms, Kelvin, Volts};
    use crate::{drive, leakage};
    use proptest::prelude::*;

    fn tech() -> TechnologyNode {
        TechnologyNode::bptm65()
    }

    fn k(vth: f64, tox: f64) -> KnobPoint {
        KnobPoint::new(Volts(vth), Angstroms(tox)).unwrap()
    }

    /// Asserts that every primitive of `h` carries the exact bits of the
    /// reference functions in `leakage`/`drive`, evaluated at `p` with
    /// the drawn length its `Tox` mandates.
    fn assert_matches_reference(t: &TechnologyNode, p: KnobPoint, h: &HoistedPrims) {
        let length = t.drawn_length(p.tox());
        assert_eq!(h.point(), p);
        assert_eq!(h.drawn_length().0.to_bits(), length.0.to_bits(), "L at {p}");
        assert_eq!(
            h.cell_scale().to_bits(),
            t.cell_scale(p.tox()).to_bits(),
            "scale at {p}"
        );
        for width in [Microns(0.15), Microns(0.5), Microns(4.0)] {
            assert_eq!(
                h.subthreshold_current(width).0.to_bits(),
                leakage::subthreshold_current(t, p, width, length)
                    .0
                    .to_bits(),
                "sub at {p}"
            );
            for state in [ConductionState::On, ConductionState::Off] {
                assert_eq!(
                    h.gate_current(width, state).0.to_bits(),
                    leakage::gate_current(t, p, width, length, state)
                        .0
                        .to_bits(),
                    "gate at {p}"
                );
            }
            for kind in [MosfetKind::Nmos, MosfetKind::Pmos] {
                assert_eq!(
                    h.on_current(width, kind).0.to_bits(),
                    drive::on_current(t, p, width, length, kind).0.to_bits(),
                    "ion at {p}"
                );
                assert_eq!(
                    h.effective_resistance(width, kind).0.to_bits(),
                    drive::effective_resistance(t, p, width, length, kind)
                        .0
                        .to_bits(),
                    "reff at {p}"
                );
            }
            assert_eq!(
                h.gate_capacitance(width).0.to_bits(),
                drive::gate_capacitance(t, p, width, length).0.to_bits(),
                "cg at {p}"
            );
        }
    }

    /// Every primitive of a table entry agrees bit-for-bit with the
    /// reference functions over the full paper grid.
    #[test]
    fn hoisted_matches_reference_bit_for_bit() {
        let t = tech();
        let points: Vec<KnobPoint> = KnobGrid::paper().points().collect();
        let table = PrimsTable::new(&t, &points);
        assert_eq!(table.len(), points.len());
        for (p, h) in points.iter().zip(table.items()) {
            assert_matches_reference(&t, *p, h);
        }
    }

    /// The hoisted factors follow modified nodes (the temperature and
    /// sensitivity studies re-derive the node).
    #[test]
    fn hoisted_tracks_modified_nodes() {
        let p = k(0.35, 11.5);
        for node in [
            tech().at_temperature(Kelvin::from_celsius(110.0)),
            tech().with_length_scaling(0.0),
            tech().with_gate_slope(0.9),
            tech().with_near_vth_slowdown(0.0),
        ] {
            assert_matches_reference(&node, p, &HoistedPrims::new(&node, p));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Off-grid knob points under randomly modified nodes: each of
        /// the four node modifiers is applied when its bit of `mods` is
        /// set, so the base node, each modifier alone and their
        /// combinations are all drawn.
        #[test]
        fn hoisted_matches_reference_off_grid(
            (vth, tox) in (0.2f64..=0.5, 10.0f64..=14.0),
            mods in 0u8..16,
            (celsius, kappa, bg, lambda) in (-40.0f64..=150.0, 0.0f64..=1.0, 0.6f64..=1.8, 0.0f64..0.9),
        ) {
            let mut node = tech();
            if mods & 1 != 0 {
                node = node.at_temperature(Kelvin::from_celsius(celsius));
            }
            if mods & 2 != 0 {
                node = node.with_length_scaling(kappa);
            }
            if mods & 4 != 0 {
                node = node.with_gate_slope(bg);
            }
            if mods & 8 != 0 {
                node = node.with_near_vth_slowdown(lambda);
            }
            let p = k(vth, tox);
            assert_matches_reference(&node, p, &HoistedPrims::new(&node, p));
            let table = PrimsTable::new(&node, &[p]);
            prop_assert_eq!(&table.items()[0], &HoistedPrims::new(&node, p));
        }
    }

    /// Axis dedup must not change results relative to direct
    /// per-point construction.
    #[test]
    fn table_dedup_equals_per_point_construction() {
        let t = tech();
        let points = [k(0.2, 10.0), k(0.2, 14.0), k(0.5, 10.0), k(0.2, 10.0)];
        let table = PrimsTable::new(&t, &points);
        assert!(!table.is_empty());
        for (p, h) in points.iter().zip(table.items()) {
            assert_eq!(*h, HoistedPrims::new(&t, *p));
        }
    }
}
