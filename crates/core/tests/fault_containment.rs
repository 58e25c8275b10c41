//! End-to-end fault containment through the evaluation stack.
//!
//! These tests arm the deterministic fault plan in
//! `nm_sweep::faultinject` and drive the [`Evaluator`] through its
//! fallible API, proving the ISSUE's containment guarantees:
//!
//! * an injected worker panic fails only its own surface-build job, as a
//!   typed [`StudyError::WorkerPanic`]; every other job completes and is
//!   cached;
//! * an injected NaN surface is rejected by validation *before* the memo
//!   cache, as a typed [`StudyError::InvalidSurface`], and never serves a
//!   later query;
//! * after the fault plan drains, a retry completes and produces results
//!   bit-identical to a never-faulted evaluator;
//! * the study entry points above the evaluator carry both errors to
//!   their caller instead of panicking.
//!
//! Compile with `--features faultinject`; without the feature this file
//! is empty.

#![cfg(feature = "faultinject")]

use nm_archsim::PairStats;
use nm_cache_core::amat::MainMemory;
use nm_cache_core::eval::{Evaluator, HierarchySpec};
use nm_cache_core::groups::{CostKind, Scheme};
use nm_cache_core::memsys::{MemorySystemStudy, TupleCounts};
use nm_cache_core::single::SingleCacheStudy;
use nm_cache_core::StudyError;
use nm_device::{KnobGrid, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig};
use nm_opt::objective::Deadline;
use nm_sweep::faultinject::{self, Fault};
use std::sync::{Mutex, MutexGuard};

/// The fault plan is process-global; serialize every test that arms it.
fn plan_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn circuit(bytes: u64) -> CacheCircuit {
    let tech = TechnologyNode::bptm65();
    CacheCircuit::new(CacheConfig::new(bytes, 64, 4).expect("legal config"), &tech)
}

fn spec_16kb() -> HierarchySpec {
    HierarchySpec::single(
        circuit(16 * 1024),
        Scheme::Split,
        1.0,
        CostKind::LeakagePower,
    )
}

/// A deadline loose enough that the 16 KB spec is always feasible.
fn loose_deadline(reference: &Evaluator, spec: &HierarchySpec) -> Deadline {
    let front = reference.try_front(spec).expect("healthy build");
    Deadline(front.last().expect("non-empty front").delay)
}

#[test]
fn injected_panic_fails_one_job_and_spares_the_rest() {
    let _guard = plan_lock();
    faultinject::clear();

    let reference = Evaluator::new(KnobGrid::coarse());
    let spec = spec_16kb();
    let deadline = loose_deadline(&reference, &spec);
    let expected = reference
        .try_solve(&spec, &deadline)
        .expect("healthy build")
        .expect("feasible");

    // Job 1 of the 4-component surface build panics once.
    faultinject::arm(Some("eval-surfaces"), 1, Fault::Panic, 1);
    let e = Evaluator::new(KnobGrid::coarse());
    let err = e.try_solve(&spec, &deadline).expect_err("armed panic");
    match err {
        StudyError::WorkerPanic {
            label,
            index,
            message,
        } => {
            assert_eq!(label, "eval-surfaces");
            assert_eq!(index, 1);
            assert!(message.contains("faultinject"), "{message}");
        }
        other => panic!("wrong error class: {other:?}"),
    }
    // The three healthy jobs completed and were cached; the failed one
    // was not.
    assert_eq!(e.stats().surfaces_built, 3);
    assert_eq!(e.stats().surfaces_rejected, 0);

    // The plan is drained: a retry rebuilds only the missing surface and
    // the result is bit-identical to the never-faulted evaluator.
    assert_eq!(faultinject::armed(), 0);
    let retried = e
        .try_solve(&spec, &deadline)
        .expect("retry succeeds")
        .expect("feasible");
    assert_eq!(e.stats().surfaces_built, 4);
    assert_eq!(retried, expected);
}

#[test]
fn injected_nan_surface_never_enters_the_cache() {
    let _guard = plan_lock();
    faultinject::clear();

    let reference = Evaluator::new(KnobGrid::coarse());
    let spec = spec_16kb();
    let deadline = loose_deadline(&reference, &spec);
    let expected = reference
        .try_solve(&spec, &deadline)
        .expect("healthy build")
        .expect("feasible");

    // Job 2's freshly computed surface is poisoned with a NaN delay.
    faultinject::arm(Some("eval-surfaces"), 2, Fault::Nan, 1);
    let e = Evaluator::new(KnobGrid::coarse());
    let err = e.try_solve(&spec, &deadline).expect_err("armed NaN");
    match err {
        StudyError::InvalidSurface { metric, value, .. } => {
            assert_eq!(metric, "delay");
            assert!(value.is_nan());
        }
        other => panic!("wrong error class: {other:?}"),
    }
    // Three healthy surfaces cached; the poisoned one rejected, counted,
    // and NOT installed.
    assert_eq!(e.stats().surfaces_built, 3);
    assert_eq!(e.stats().surfaces_rejected, 1);

    // Retry rebuilds the rejected surface from scratch — proof it never
    // entered the cache — and matches the clean result exactly.
    assert_eq!(faultinject::armed(), 0);
    let retried = e
        .try_solve(&spec, &deadline)
        .expect("retry succeeds")
        .expect("feasible");
    assert_eq!(e.stats().surfaces_built, 4);
    assert_eq!(e.stats().surfaces_rejected, 1);
    assert_eq!(retried, expected);
}

#[test]
fn nonfault_path_is_identical_with_the_feature_compiled_in() {
    let _guard = plan_lock();
    faultinject::clear();

    // With nothing armed, the contained pipeline is bit-identical run to
    // run (the golden-table suite separately pins the absolute values).
    let spec = spec_16kb();
    let a = Evaluator::new(KnobGrid::coarse());
    let b = Evaluator::new(KnobGrid::coarse());
    let deadline = loose_deadline(&a, &spec);
    let sa = a
        .try_solve(&spec, &deadline)
        .expect("healthy")
        .expect("feasible");
    let sb = b
        .try_solve(&spec, &deadline)
        .expect("healthy")
        .expect("feasible");
    assert_eq!(sa, sb);
    assert_eq!(a.stats().surfaces_rejected, 0);
    assert_eq!(b.stats().surfaces_rejected, 0);
}

#[test]
fn fault_in_one_spec_leaves_other_specs_untouched() {
    let _guard = plan_lock();
    faultinject::clear();

    // Fault an L1 surface build, then solve a *different* circuit on the
    // same evaluator: the second spec is unaffected by the first failure.
    let faulted = spec_16kb();
    let deadline = {
        let reference = Evaluator::new(KnobGrid::coarse());
        loose_deadline(&reference, &faulted)
    };
    faultinject::arm(Some("eval-surfaces"), 0, Fault::Panic, 1);
    let e = Evaluator::new(KnobGrid::coarse());
    assert!(e.try_solve(&faulted, &deadline).is_err());

    let other = HierarchySpec::single(
        circuit(64 * 1024),
        Scheme::Split,
        1.0,
        CostKind::LeakagePower,
    );
    let front = e.try_front(&other).expect("other spec healthy");
    assert!(!front.is_empty());
}

#[test]
fn study_entry_points_return_contained_faults_as_errors() -> Result<(), StudyError> {
    let _guard = plan_lock();
    faultinject::clear();

    // A contained worker panic surfaces from the E2 scheme comparison.
    // Once the plan drains, a retry renders the never-faulted golden
    // table byte for byte.
    let single = SingleCacheStudy::with_circuit(circuit(16 * 1024), KnobGrid::coarse());
    let deadlines = &single.delay_sweep(6)[1..];
    faultinject::arm(Some("eval-surfaces"), 1, Fault::Panic, 1);
    match single.scheme_comparison(deadlines) {
        Err(StudyError::WorkerPanic { label, index, .. }) => {
            assert_eq!((label.as_str(), index), ("eval-surfaces", 1));
        }
        other => panic!("expected a contained worker panic, got {other:?}"),
    }
    assert_eq!(faultinject::armed(), 0);
    assert_eq!(
        single.scheme_comparison(deadlines)?.to_string(),
        include_str!("golden/e2_scheme_comparison.txt")
    );

    // A poisoned surface surfaces from the Figure 2 tuple curves, with
    // the golden E6 configuration.
    let stats = PairStats {
        l1_miss_rate: 0.05,
        l2_local_miss_rate: 0.25,
        l1_writeback_rate: 0.01,
        write_fraction: 0.3,
        measured: 1,
    };
    let memsys = MemorySystemStudy::new(
        16 * 1024,
        1024 * 1024,
        stats,
        &TechnologyNode::bptm65(),
        KnobGrid::coarse(),
        MainMemory::default(),
    )?;
    let tuples = [(2, 2), (2, 1), (1, 2)].map(|(n_tox, n_vth)| TupleCounts { n_tox, n_vth });
    let targets = memsys.amat_sweep(4);
    faultinject::arm(Some("eval-surfaces"), 2, Fault::Nan, 1);
    match memsys.tuple_curves(&tuples, &targets) {
        Err(StudyError::InvalidSurface { metric, value, .. }) => {
            assert_eq!(metric, "delay");
            assert!(value.is_nan());
        }
        other => panic!("expected a rejected surface, got {other:?}"),
    }
    assert_eq!(faultinject::armed(), 0);
    assert_eq!(
        memsys.tuple_table(&tuples, &targets)?.to_string(),
        include_str!("golden/e6_tuple_table.txt")
    );
    Ok(())
}
