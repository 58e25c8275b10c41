//! # nmcache — facade crate
//!
//! Re-exports the public API of the `nmcache` workspace, a reproduction of
//! *"Power-Performance Trade-Offs in Nanometer-Scale Multi-Level Caches
//! Considering Total Leakage"* (Bai et al., DATE 2005).
//!
//! See [`nm_cache_core`] for the experiment drivers, [`nm_device`] for the
//! 65 nm device models, [`nm_geometry`] for the cache circuit model,
//! [`nm_archsim`] for the architectural simulator and [`nm_opt`] for the
//! Vth/Tox assignment optimisers.

pub mod cli;

pub use nm_archsim as archsim;
pub use nm_cache_core as core;
pub use nm_device as device;
pub use nm_geometry as geometry;
pub use nm_loadgen as loadgen;
pub use nm_opt as opt;
pub use nm_store as store;
pub use nm_sweep as sweep;
pub use nm_telemetry as telemetry;
