//! Shared fixtures of the unit tests: device primitives of the default
//! node and a default-shaped organisation.

use crate::config::{CacheConfig, Organization};
use nm_device::units::{Angstroms, Volts};
use nm_device::{HoistedPrims, KnobPoint, TechnologyNode};

/// Device primitives of the default node at `(vth, tox)`.
pub(crate) fn k(vth: f64, tox: f64) -> HoistedPrims {
    let knobs = KnobPoint::new(Volts(vth), Angstroms(tox)).unwrap();
    HoistedPrims::new(&TechnologyNode::bptm65(), knobs)
}

/// Device primitives of the default node at the nominal corner.
pub(crate) fn nominal() -> HoistedPrims {
    HoistedPrims::new(&TechnologyNode::bptm65(), KnobPoint::nominal())
}

/// The folding of a `size`-byte, 64 B-block, 4-way cache.
pub(crate) fn org(size: u64) -> Organization {
    CacheConfig::new(size, 64, 4).unwrap().organization()
}
