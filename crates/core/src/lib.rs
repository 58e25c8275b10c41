//! # nm-cache-core — the paper's studies as a library
//!
//! This crate drives the substrates (`nm-device`, `nm-geometry`,
//! `nm-archsim`, `nm-opt`) through the experiments of *"Power-Performance
//! Trade-Offs in Nanometer-Scale Multi-Level Caches Considering Total
//! Leakage"* (Bai et al., DATE 2005):
//!
//! | Experiment | Paper artefact | Entry point |
//! |---|---|---|
//! | E1 | Figure 1 (fixed-Vth vs fixed-Tox, 16 KB) | [`single::SingleCacheStudy::fixed_knob_curves`] |
//! | E2 | Section 4 scheme comparison | [`single::SingleCacheStudy::scheme_comparison`] |
//! | E3 | Section 5 L2 size sweep (single pair) | [`twolevel::TwoLevelStudy::l2_size_sweep`] |
//! | E4 | Section 5 L2 split cell/periphery | [`twolevel::TwoLevelStudy::l2_size_sweep`] with [`groups::Scheme::Split`] |
//! | E5 | Section 5 L1 size sweep | [`twolevel::TwoLevelStudy::l1_size_sweep`] |
//! | E6 | Figure 2 (Tox, Vth) tuple problem | [`memsys::MemorySystemStudy::tuple_curves`] |
//! | E7 | "Vth is the better knob" ablation | [`single::SingleCacheStudy::knob_ablation`] |
//! | E0 | Eq. 1/Eq. 2 surface-fit quality | [`fitcheck::fit_report`] |
//! | E8 | Extension: 3-level mixed-technology hierarchy | [`mixedtech::MixedTechStudy::compare`] |
//! | X1 | Extension: die-to-die variation | [`variation::VariationStudy::evaluate`] |
//! | X2 | Extension: temperature sensitivity | [`thermal::ThermalStudy::evaluate`] |
//! | X3 | Extension: knobs vs cache decay (gated-Vdd) | [`decay::DecayStudy::evaluate`] |
//! | X4 | Extension: split I$/D$ vs unified L1 | [`splitl1::SplitL1Study::to_table`] |
//!
//! Every entry point has one form, returning `Result<_, StudyError>`: a
//! bad configuration, a contained worker panic ([`StudyError::WorkerPanic`])
//! or a rejected metric surface ([`StudyError::InvalidSurface`]) comes
//! back as a typed error, never as a panic.
//!
//! All four study pipelines run on the shared evaluation engine in
//! [`mod@eval`]: a [`eval::HierarchySpec`] describes the cache levels and
//! their knob grouping, and one memoizing [`eval::Evaluator`] enumerates
//! candidates, merges Pareto fronts and reads constrained optima off
//! them — each `(component, knob point)` is analysed exactly once per
//! evaluator no matter how many schemes, deadlines or sizes share it.
//!
//! ```
//! use nm_cache_core::single::SingleCacheStudy;
//! use nm_cache_core::groups::Scheme;
//!
//! let study = SingleCacheStudy::paper_16kb()?;
//! let sweep = study.delay_sweep(5);
//! let sol = study.optimize(Scheme::Split, sweep[2])?.expect("feasible");
//! assert!(sol.leakage.total().0 > 0.0);
//! # Ok::<(), nm_cache_core::StudyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amat;
pub mod campaign;
pub mod decay;
pub mod eval;
pub mod experiments;
pub mod fitcheck;
pub mod groups;
pub mod memsys;
pub mod mixedtech;
pub mod names;
pub mod persist;
pub mod plot;
pub mod report;
pub mod sensitivity;
pub mod single;
pub mod splitl1;
pub mod thermal;
pub mod twolevel;
pub mod variation;

mod error;

pub use error::StudyError;
pub use report::Table;
