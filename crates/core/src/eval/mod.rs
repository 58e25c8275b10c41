//! The shared evaluation engine behind every study pipeline.
//!
//! Historically each study (Section 4 single-cache, Section 5 two-level,
//! the split-L1 extension, the Figure 2 memory system) wired its own
//! copy of the same pipeline: enumerate the knob grid per component
//! group, price candidates, merge to a system Pareto front, read the
//! optimum off it, and reconstruct knob assignments from the winning
//! choice vector. This module owns that pipeline once:
//!
//! * a [`HierarchySpec`] *describes* the problem — cache levels, their
//!   [`Scheme`](crate::groups::Scheme) grouping, delay weights and
//!   [`CostKind`](crate::groups::CostKind) pricing;
//! * any [`Constraint`] describes what "optimal" means (a
//!   [`Deadline`](nm_opt::objective::Deadline) for the iso-delay/iso-AMAT
//!   studies);
//! * the [`Evaluator`] runs the pipeline, **memoizing** component metric
//!   surfaces per `(circuit, component)` and Pareto fronts per spec, so
//!   each `(component, knob point)` is analysed exactly once no matter
//!   how many schemes, deadlines or tuple restrictions ride on it.
//!
//! Results are bit-identical to the direct pipeline: the circuit model is
//! pure, so cached metrics equal freshly computed ones, and the engine
//! routes pricing through the same `groups::candidate_from_metrics` path
//! with the same summation order as [`crate::groups::cache_groups`].

mod cache;
mod spec;

pub use spec::{HierarchySpec, LevelSpec};

use crate::groups::candidate_from_metrics;
use crate::StudyError;
use cache::MetricsCache;
use nm_device::{KnobGrid, KnobPoint, PrimsTable, TechnologyNode};
use nm_geometry::{
    CacheCircuit, CacheMetrics, ComponentId, ComponentKnobs, ComponentMetrics, ComponentSurface,
    COMPONENT_IDS,
};
use nm_opt::merge::{FrontPoint, MergeBase};
use nm_opt::objective::Constraint;
use nm_opt::{Candidate, Group};
use nm_sweep::ParallelSweep;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A constrained optimum produced by [`Evaluator::try_solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Weighted system delay of the winning point (seconds).
    pub delay: f64,
    /// Total system cost of the winning point (watts or joules, per the
    /// spec's [`CostKind`](crate::groups::CostKind)s).
    pub cost: f64,
    /// The winning per-group knob choice, in spec group order.
    pub choice: Vec<KnobPoint>,
    /// The choice resolved to one [`ComponentKnobs`] per level, via the
    /// canonical [`HierarchySpec::try_knobs_from_choice`].
    pub knobs: Vec<ComponentKnobs>,
}

/// Memoization counters of one [`Evaluator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Component surfaces computed (grid-wide `analyze_component` passes).
    pub surfaces_built: usize,
    /// Surface requests served from the cache.
    pub surface_hits: usize,
    /// System Pareto fronts merged.
    pub fronts_built: usize,
    /// Front requests served from the cache.
    pub front_hits: usize,
    /// Front merges that reused at least one cached merge layer instead
    /// of folding every group from scratch.
    pub fronts_incremental: usize,
    /// Computed surfaces rejected by validation (never cached).
    pub surfaces_rejected: usize,
    /// Surfaces and fronts loaded from the persistent store instead of
    /// being recomputed.
    pub store_loaded: usize,
    /// Persisted payloads rejected (decode or validation failure) and
    /// recomputed.
    pub store_rejected: usize,
    /// Store read/write failures absorbed by the in-memory fallback.
    pub store_errors: usize,
}

/// One memoized front: the spec it answers, the merged front served to
/// queries, and the merge base later specs extend incrementally. Fronts
/// loaded from the persistent store carry no base — they skipped the
/// merge, so there are no layers to extend (later specs simply merge
/// from scratch, which is bit-identical).
type FrontEntry = (HierarchySpec, Arc<Vec<FrontPoint>>, Option<Arc<MergeBase>>);

/// The memoizing evaluation pipeline. One evaluator owns one knob grid;
/// every query against it shares the same metric-surface and front
/// caches.
pub struct Evaluator {
    grid: KnobGrid,
    points: Vec<KnobPoint>,
    cache: MetricsCache,
    prims: RwLock<Vec<(TechnologyNode, Arc<PrimsTable>)>>,
    fronts: RwLock<Vec<FrontEntry>>,
    restricted_base: Mutex<Option<Arc<MergeBase>>>,
    /// Optional write-through persistence tier under the memo caches.
    /// Content-addressed and strictly best-effort: a missing, corrupt
    /// or failing store degrades to recompute — never to an abort.
    store: Option<Arc<nm_store::Store>>,
    fronts_built: AtomicUsize,
    fronts_incremental: AtomicUsize,
    front_hits: AtomicUsize,
    surfaces_rejected: AtomicUsize,
    store_loaded: AtomicUsize,
    store_rejected: AtomicUsize,
    store_errors: AtomicUsize,
}

/// `true` when every value in a metric buffer is finite and
/// non-negative. Written as a branch-free accumulating scan so the
/// healthy case (all of them, outside fault injection) vectorizes over
/// the surface's contiguous buffers instead of branching per value.
fn buffer_ok(values: &[f64]) -> bool {
    let mut ok = true;
    for &v in values {
        ok &= v.is_finite() & (v >= 0.0);
    }
    ok
}

/// Checks every metric of a freshly computed surface before it may enter
/// the memo cache: delay, each leakage component, both dynamic energies
/// and area must be finite and non-negative. The paper's Eq.1/Eq.2
/// exponential fits can overflow to `inf`/NaN when driven outside their
/// characterized `Vth`/`Tox` region; a poisoned surface cached here would
/// corrupt every study that later shares it.
///
/// The healthy path is a flat scan over the surface's
/// structure-of-arrays buffers; only a failed scan falls back to the
/// point-major walk that names the first offending `(point, metric)` in
/// the same order the pre-SoA validator reported it.
#[expect(
    clippy::unreachable,
    reason = "the point walk re-checks exactly the values the buffer scan rejected, so it always names one"
)]
fn validate_surface(
    circuit: &CacheCircuit,
    component: ComponentId,
    surface: &ComponentSurface,
) -> Result<(), StudyError> {
    let buffers: [&[f64]; 7] = [
        surface.delays(),
        surface.subthreshold_leakages(),
        surface.gate_leakages(),
        surface.junction_leakages(),
        surface.read_energies(),
        surface.write_energies(),
        surface.areas(),
    ];
    if buffers.iter().all(|b| buffer_ok(b)) {
        return Ok(());
    }
    for (p, m) in surface.iter() {
        let checks: [(&'static str, f64); 7] = [
            ("delay", m.delay.0),
            ("subthreshold leakage", m.leakage.subthreshold.0),
            ("gate leakage", m.leakage.gate.0),
            ("junction leakage", m.leakage.junction.0),
            ("read energy", m.read_energy.0),
            ("write energy", m.write_energy.0),
            ("area", m.area.0),
        ];
        for (metric, value) in checks {
            if !value.is_finite() || value < 0.0 {
                return Err(StudyError::InvalidSurface {
                    circuit: circuit.config().to_string(),
                    component,
                    vth: p.vth().0,
                    tox: p.tox().0,
                    metric,
                    value,
                });
            }
        }
    }
    unreachable!("buffer scan flagged a surface the point walk found healthy")
}

/// Logs a persistence-tier degradation to stderr when span logging is
/// on. Store failures are absorbed (counted + fallback), so this is the
/// only place they become visible interactively.
fn log_store_event(message: &str) {
    if nm_telemetry::log_level() != nm_telemetry::LogLevel::Off {
        eprintln!("nmcache: {message}");
    }
}

/// Swaps in a NaN-delay metric record when a [`Fault::Nan`]
/// (`nm_sweep::faultinject::Fault::Nan`) is armed for this
/// `eval-surfaces` job index — the injection point proving that
/// validation keeps poisoned surfaces out of the memo cache.
#[cfg(feature = "faultinject")]
fn poison_if_armed(surface: ComponentSurface, job_index: usize) -> ComponentSurface {
    if !nm_sweep::faultinject::take_nan(Some("eval-surfaces"), job_index) {
        return surface;
    }
    let points = surface.points().to_vec();
    let mut metrics = surface.metrics_vec();
    if let Some(m) = metrics.first_mut() {
        m.delay = nm_device::units::Seconds(f64::NAN);
    }
    ComponentSurface::from_parts(points, metrics)
}

impl Evaluator {
    /// Creates an evaluator over a knob grid with empty caches.
    pub fn new(grid: KnobGrid) -> Self {
        let points = grid.points().collect();
        Evaluator {
            grid,
            points,
            cache: MetricsCache::default(),
            prims: RwLock::new(Vec::new()),
            fronts: RwLock::new(Vec::new()),
            restricted_base: Mutex::new(None),
            store: None,
            fronts_built: AtomicUsize::new(0),
            fronts_incremental: AtomicUsize::new(0),
            front_hits: AtomicUsize::new(0),
            surfaces_rejected: AtomicUsize::new(0),
            store_loaded: AtomicUsize::new(0),
            store_rejected: AtomicUsize::new(0),
            store_errors: AtomicUsize::new(0),
        }
    }

    /// Creates an evaluator backed by a persistent store: surfaces and
    /// fronts are looked up by content key before being computed, and
    /// fresh computations are written through. The store is strictly a
    /// cache tier below the in-memory memo caches — every load is
    /// re-validated before install, rejected or unreadable records fall
    /// back to recompute, and write failures are counted, not raised.
    pub fn with_store(grid: KnobGrid, store: Arc<nm_store::Store>) -> Self {
        let mut e = Evaluator::new(grid);
        e.store = Some(store);
        e
    }

    /// The persistent store backing this evaluator, if any.
    pub fn store(&self) -> Option<&Arc<nm_store::Store>> {
        self.store.as_ref()
    }

    /// The knob grid every surface and front is enumerated over.
    pub fn grid(&self) -> &KnobGrid {
        &self.grid
    }

    /// Memoization counters so far.
    pub fn stats(&self) -> EvalStats {
        let (surfaces_built, surface_hits) = self.cache.stats();
        EvalStats {
            surfaces_built,
            surface_hits,
            fronts_built: self.fronts_built.load(Ordering::Relaxed),
            front_hits: self.front_hits.load(Ordering::Relaxed),
            fronts_incremental: self.fronts_incremental.load(Ordering::Relaxed),
            surfaces_rejected: self.surfaces_rejected.load(Ordering::Relaxed),
            store_loaded: self.store_loaded.load(Ordering::Relaxed),
            store_rejected: self.store_rejected.load(Ordering::Relaxed),
            store_errors: self.store_errors.load(Ordering::Relaxed),
        }
    }

    /// Tries to satisfy one missing surface job from the persistent
    /// store. A loaded surface passes the same validation gate as a
    /// computed one before it may enter the memo cache; any failure —
    /// read error, decode error, validation reject — degrades to
    /// recompute and is counted.
    fn surface_from_store(&self, circuit: &CacheCircuit, id: ComponentId) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        let key = crate::persist::surface_key(circuit, id, &self.points);
        let bytes = match store.get(key) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => return false,
            Err(e) => {
                self.store_errors.fetch_add(1, Ordering::Relaxed);
                nm_telemetry::counter_inc(crate::names::EVAL_STORE_ERRORS);
                log_store_event(&format!("store read failed, recomputing: {e}"));
                return false;
            }
        };
        let surface = match crate::persist::decode_surface(&bytes) {
            Ok(surface) => surface,
            Err(e) => {
                self.store_rejected.fetch_add(1, Ordering::Relaxed);
                nm_telemetry::counter_inc(crate::names::EVAL_STORE_REJECTED);
                log_store_event(&format!("persisted surface rejected, recomputing: {e}"));
                return false;
            }
        };
        if surface.points() != self.points.as_slice()
            || validate_surface(circuit, id, &surface).is_err()
        {
            self.store_rejected.fetch_add(1, Ordering::Relaxed);
            nm_telemetry::counter_inc(crate::names::EVAL_STORE_REJECTED);
            return false;
        }
        self.cache.install_loaded(circuit, id, surface);
        self.store_loaded.fetch_add(1, Ordering::Relaxed);
        nm_telemetry::counter_inc(crate::names::EVAL_STORE_LOADED);
        true
    }

    /// Tries to satisfy a front query from the persistent store. A
    /// loaded front is sanity-checked against the spec (choice lengths,
    /// finite metrics) before it is installed; it carries no merge base,
    /// so later specs extending it merge from scratch (bit-identical).
    fn front_from_store(&self, spec: &HierarchySpec) -> Option<Arc<Vec<FrontPoint>>> {
        self.store.as_ref()?;
        let key = crate::persist::front_key(spec, &self.points);
        let bytes = match self.store.as_ref()?.get(key) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => return None,
            Err(e) => {
                self.store_errors.fetch_add(1, Ordering::Relaxed);
                nm_telemetry::counter_inc(crate::names::EVAL_STORE_ERRORS);
                log_store_event(&format!("store read failed, recomputing: {e}"));
                return None;
            }
        };
        let front = match crate::persist::decode_front(&bytes) {
            Ok(front) => front,
            Err(e) => {
                self.store_rejected.fetch_add(1, Ordering::Relaxed);
                nm_telemetry::counter_inc(crate::names::EVAL_STORE_REJECTED);
                log_store_event(&format!("persisted front rejected, recomputing: {e}"));
                return None;
            }
        };
        let groups = spec.group_count();
        let healthy = front
            .iter()
            .all(|p| p.choice.len() == groups && p.delay.is_finite() && p.cost.is_finite());
        if !healthy {
            self.store_rejected.fetch_add(1, Ordering::Relaxed);
            nm_telemetry::counter_inc(crate::names::EVAL_STORE_REJECTED);
            log_store_event("persisted front rejected, recomputing: shape mismatch");
            return None;
        }
        let front = Arc::new(front);
        let mut fronts = self
            .fronts
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some((_, existing, _)) = fronts.iter().find(|(s, _, _)| s == spec) {
            return Some(Arc::clone(existing));
        }
        fronts.push((spec.clone(), Arc::clone(&front), None));
        self.store_loaded.fetch_add(1, Ordering::Relaxed);
        nm_telemetry::counter_inc(crate::names::EVAL_STORE_LOADED);
        Some(front)
    }

    /// Best-effort write-through of a payload already installed in the
    /// memo caches. Failures are counted and noted, never raised.
    fn store_put(&self, key: u128, payload: &[u8]) {
        let Some(store) = &self.store else { return };
        if let Err(e) = store.put(key, payload) {
            self.store_errors.fetch_add(1, Ordering::Relaxed);
            nm_telemetry::counter_inc(crate::names::EVAL_STORE_ERRORS);
            log_store_event(&format!("store write failed, continuing in memory: {e}"));
        }
    }

    /// The hoisted-primitives table for `tech` over this evaluator's
    /// grid, built on first request and cached for the evaluator's
    /// lifetime. The table depends only on `(tech, points)` — both fixed
    /// per evaluator — so rebuilding it per `try_ensure_surfaces` call was
    /// pure cold-path overhead.
    fn prims_table(&self, tech: &TechnologyNode) -> Arc<PrimsTable> {
        if let Some(table) = self
            .prims
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .find(|(t, _)| t == tech)
            .map(|(_, table)| Arc::clone(table))
        {
            return table;
        }
        let table = Arc::new(PrimsTable::new(tech, &self.points));
        let mut cached = self
            .prims
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // A racing builder may have won; keep the installed one so every
        // caller shares a single allocation per node.
        if let Some(existing) = cached.iter().find(|(t, _)| t == tech) {
            return Arc::clone(&existing.1);
        }
        cached.push((tech.clone(), Arc::clone(&table)));
        table
    }

    /// Builds every not-yet-cached component surface a spec needs,
    /// fanning the builds out through one bounded [`ParallelSweep`] with
    /// per-item panic containment, and validates each one *before* it is
    /// installed, so a failed or poisoned computation never enters the
    /// memo cache.
    ///
    /// Calling this before spawning parallel per-query jobs (the Figure 2
    /// tuple sweep) pre-warms the cache so the jobs never start nested
    /// sweeps; it is also called internally by
    /// [`try_groups`](Self::try_groups), where an all-cached spec skips
    /// the sweep entirely.
    ///
    /// Every healthy surface is still installed even when some jobs fail
    /// (partial progress is kept); the first failure, in job order, is
    /// returned as [`StudyError::WorkerPanic`] (contained panic) or
    /// [`StudyError::InvalidSurface`] (NaN/Inf/negative metric, also
    /// counted in [`EvalStats::surfaces_rejected`]).
    ///
    /// # Errors
    ///
    /// The first failed or rejected surface build, in job order.
    pub fn try_ensure_surfaces(&self, spec: &HierarchySpec) -> Result<(), StudyError> {
        let _span = nm_telemetry::span(crate::names::EVAL_ENSURE_SURFACES);
        let mut jobs: Vec<(CacheCircuit, ComponentId)> = Vec::new();
        for level in spec.levels() {
            for id in COMPONENT_IDS {
                if self.cache.peek(level.circuit(), id).is_none()
                    && !jobs.iter().any(|(c, i)| *i == id && c == level.circuit())
                {
                    jobs.push((level.circuit().clone(), id));
                }
            }
        }
        // Persistence tier: satisfy what the store already holds before
        // spending compute. Loads are re-validated inside; any failure
        // leaves the job in place for the sweep below.
        if self.store.is_some() {
            jobs.retain(|(circuit, id)| !self.surface_from_store(circuit, *id));
        }
        if jobs.is_empty() {
            return Ok(());
        }
        // One hoisted-primitives table per distinct technology node,
        // resolved up front (and cached for the evaluator's lifetime) so
        // every component surface of the same node shares it. Jobs keep
        // their per-(circuit, component) granularity and submission
        // order — fault-injection indices and `WorkerPanic` indices stay
        // stable.
        let mut tables: Vec<(TechnologyNode, Arc<PrimsTable>)> = Vec::new();
        for (circuit, _) in &jobs {
            if !tables.iter().any(|(t, _)| t == circuit.tech()) {
                tables.push((circuit.tech().clone(), self.prims_table(circuit.tech())));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "every job's technology node gets a table in the loop directly above"
        )]
        let table_for = |circuit: &CacheCircuit| -> &PrimsTable {
            tables
                .iter()
                .find(|(t, _)| t == circuit.tech())
                .map(|(_, prims)| prims.as_ref())
                .expect("every job's technology node has a precomputed table")
        };
        let run = ParallelSweep::new()
            .labeled("eval-surfaces")
            .try_map(&jobs, |(circuit, id)| {
                let prims = table_for(circuit);
                if nm_telemetry::enabled() {
                    let t0 = nm_telemetry::Stopwatch::start();
                    let surface = circuit.component_surface_with(*id, prims);
                    t0.observe(crate::names::EVAL_SURFACE_BUILD_SECONDS);
                    surface
                } else {
                    circuit.component_surface_with(*id, prims)
                }
            });

        let mut first_error: Option<StudyError> = None;
        for (job_index, ((circuit, id), outcome)) in jobs.iter().zip(run.results).enumerate() {
            match outcome {
                Ok(surface) => {
                    #[cfg(feature = "faultinject")]
                    let surface = poison_if_armed(surface, job_index);
                    #[cfg(not(feature = "faultinject"))]
                    let _ = job_index;
                    match validate_surface(circuit, *id, &surface) {
                        Ok(()) => {
                            nm_telemetry::counter_add(
                                crate::names::SURFACE_SOA_POINTS,
                                surface.len() as u64,
                            );
                            if self.store.is_some() {
                                self.store_put(
                                    crate::persist::surface_key(circuit, *id, &self.points),
                                    &crate::persist::encode_surface(&surface),
                                );
                            }
                            self.cache.install(circuit, *id, surface);
                        }
                        Err(e) => {
                            self.surfaces_rejected.fetch_add(1, Ordering::Relaxed);
                            nm_telemetry::counter_inc(crate::names::EVAL_SURFACE_REJECTED);
                            first_error.get_or_insert(e);
                        }
                    }
                }
                Err(fault) => {
                    first_error.get_or_insert(StudyError::WorkerPanic {
                        label: "eval-surfaces".to_owned(),
                        index: fault.index,
                        message: fault.message,
                    });
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The optimiser groups of a spec — bit-identical to concatenating
    /// [`cache_groups`](crate::groups::cache_groups) per level, but the
    /// metric surfaces behind the candidates are memoized.
    ///
    /// # Errors
    ///
    /// Any error from [`try_ensure_surfaces`](Self::try_ensure_surfaces).
    pub fn try_groups(&self, spec: &HierarchySpec) -> Result<Vec<Group>, StudyError> {
        self.try_ensure_surfaces(spec)?;
        Ok(spec
            .levels()
            .iter()
            .flat_map(|level| self.level_groups(level))
            .collect())
    }

    fn level_groups(&self, level: &LevelSpec) -> Vec<Group> {
        let surfaces: [Arc<ComponentSurface>; 4] =
            COMPONENT_IDS.map(|id| self.cache.surface(level.circuit(), id, &self.points));
        // Materialize each surface's point-major metric column once per
        // level, so pricing reads the exact per-point records the pre-SoA
        // layout stored and `candidate_from_metrics` sums them in the
        // identical order.
        let columns: [Vec<ComponentMetrics>; 4] =
            COMPONENT_IDS.map(|id| surfaces[id.index()].metrics_vec());
        level
            .scheme()
            .layout()
            .iter()
            .map(|(ids, suffix)| {
                let candidates: Vec<Candidate> = self
                    .points
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        candidate_from_metrics(
                            ids.iter().map(|id| &columns[id.index()][i]),
                            p,
                            level.delay_weight(),
                            level.cost(),
                        )
                    })
                    .collect();
                // Non-SRAM levels carry the technology in the group name so
                // diagnostics distinguish, say, an eDRAM L3 from an SRAM
                // one of the same shape (identity profiles keep the
                // original names, and merge reuse compares candidates, not
                // names).
                let name = if level.technology().is_identity() {
                    format!("{}:{suffix}", level.circuit().config())
                } else {
                    format!(
                        "{}[{}]:{suffix}",
                        level.circuit().config(),
                        level.technology().name
                    )
                };
                Group::new(name, candidates)
            })
            .collect()
    }

    /// The system Pareto front of a spec, memoized per spec. A failed
    /// build memoizes nothing — neither surfaces nor front — so a later
    /// retry starts from a clean cache.
    ///
    /// # Errors
    ///
    /// Any error from [`try_ensure_surfaces`](Self::try_ensure_surfaces).
    pub fn try_front(&self, spec: &HierarchySpec) -> Result<Arc<Vec<FrontPoint>>, StudyError> {
        let _span = nm_telemetry::span(crate::names::EVAL_FRONT);
        if let Some(front) = self.cached_front(spec) {
            self.front_hits.fetch_add(1, Ordering::Relaxed);
            nm_telemetry::counter_inc(crate::names::EVAL_FRONT_HIT);
            return Ok(front);
        }
        if let Some(front) = self.front_from_store(spec) {
            return Ok(front);
        }
        let base = self.merge(&self.try_groups(spec)?, None)?;
        let front = Arc::new(base.front());
        let mut fronts = self
            .fronts
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Keep the first-stored front if another thread raced us there —
        // both are bit-identical, but callers may compare Arc pointers.
        if let Some((_, existing, _)) = fronts.iter().find(|(s, _, _)| s == spec) {
            return Ok(Arc::clone(existing));
        }
        if self.store.is_some() {
            self.store_put(
                crate::persist::front_key(spec, &self.points),
                &crate::persist::encode_front(&front),
            );
        }
        fronts.push((spec.clone(), Arc::clone(&front), Some(Arc::new(base))));
        self.fronts_built.fetch_add(1, Ordering::Relaxed);
        nm_telemetry::counter_inc(crate::names::EVAL_FRONT_BUILT);
        // Hierarchy shape of this run, for `--metrics` reports: depth per
        // freshly-built front plus the per-level technology mix.
        if nm_telemetry::enabled() {
            nm_telemetry::counter_add(crate::names::EVAL_LEVELS, spec.levels().len() as u64);
            for level in spec.levels() {
                nm_telemetry::counter_inc(&format!("device.tech.{}", level.technology().name));
            }
        }
        Ok(front)
    }

    /// Merges `groups`, resuming from whichever of `extra` and the cached
    /// specs' merge bases shares the longest group prefix.
    fn merge(
        &self,
        groups: &[Group],
        extra: Option<Arc<MergeBase>>,
    ) -> Result<MergeBase, StudyError> {
        let mut bases: Vec<Arc<MergeBase>> = extra.into_iter().collect();
        bases.extend(
            self.fronts
                .read()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .iter()
                .filter_map(|(_, _, b)| b.clone()),
        );
        let (base, reused) = MergeBase::try_new_with_bases(groups, bases.iter().map(Arc::as_ref))?;
        if reused > 0 {
            self.fronts_incremental.fetch_add(1, Ordering::Relaxed);
            nm_telemetry::counter_add(crate::names::FRONT_MERGE_INCREMENTAL, reused as u64);
        }
        Ok(base)
    }

    fn cached_front(&self, spec: &HierarchySpec) -> Option<Arc<Vec<FrontPoint>>> {
        self.fronts
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .find(|(s, _, _)| s == spec)
            .map(|(_, f, _)| Arc::clone(f))
    }

    /// Reads a constrained optimum off the spec's (memoized) front:
    /// `Ok(None)` means the constraint is infeasible, `Err` means
    /// evaluation itself failed.
    ///
    /// # Errors
    ///
    /// Any error from [`try_ensure_surfaces`](Self::try_ensure_surfaces).
    pub fn try_solve<C: Constraint>(
        &self,
        spec: &HierarchySpec,
        constraint: &C,
    ) -> Result<Option<Solution>, StudyError> {
        let _span = nm_telemetry::span(crate::names::EVAL_SOLVE);
        let front = self.try_front(spec)?;
        constraint
            .select(&front)
            .map(|point| self.solution(spec, point))
            .transpose()
    }

    /// [`try_solve`](Self::try_solve) with every group restricted to
    /// knob values drawn from the given `Vth`/`Tox` value sets (the
    /// single-knob ablation and tuple-count experiments). Returns
    /// `Ok(None)` when the restriction empties a group or the constraint
    /// is infeasible.
    ///
    /// Restricted fronts are not memoized — value-set restrictions are
    /// exponentially many — but the metric surfaces they re-price are.
    ///
    /// # Errors
    ///
    /// Any error from [`try_ensure_surfaces`](Self::try_ensure_surfaces).
    pub fn try_solve_restricted<C: Constraint>(
        &self,
        spec: &HierarchySpec,
        vths: &[f64],
        toxes: &[f64],
        constraint: &C,
    ) -> Result<Option<Solution>, StudyError> {
        let groups = self.try_groups(spec)?;
        let restricted: Option<Vec<Group>> =
            groups.iter().map(|g| g.restricted(vths, toxes)).collect();
        let Some(restricted) = restricted else {
            return Ok(None);
        };
        // Tuple-count sweeps grow value sets monotonically, so successive
        // restrictions often share leading groups verbatim; offer the last
        // restricted merge base ahead of the cached spec bases.
        let last = self
            .restricted_base
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        let base = self.merge(&restricted, last)?;
        let front = base.front();
        *self
            .restricted_base
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(Arc::new(base));
        constraint
            .select(&front)
            .map(|point| self.solution(spec, point))
            .transpose()
    }

    fn solution(&self, spec: &HierarchySpec, point: &FrontPoint) -> Result<Solution, StudyError> {
        Ok(Solution {
            delay: point.delay,
            cost: point.cost,
            choice: point.choice.clone(),
            knobs: spec.try_knobs_from_choice(&point.choice)?,
        })
    }

    /// Analyses a whole cache under an assignment, reading per-component
    /// metrics from already-built surfaces where the knob pair is on the
    /// grid and falling back to direct analysis where it is not. Both
    /// paths are bit-identical — the circuit model is pure.
    pub fn analyze(&self, circuit: &CacheCircuit, knobs: &ComponentKnobs) -> CacheMetrics {
        let per_component = COMPONENT_IDS.map(|id| {
            let p = knobs.get(id);
            self.cache
                .peek(circuit, id)
                .and_then(|s| s.lookup(p))
                .unwrap_or_else(|| circuit.analyze_component(id, p))
        });
        CacheMetrics::from_components(per_component)
    }
}

impl Clone for Evaluator {
    /// A fresh evaluator over the same grid; memoized state is not
    /// carried over (it regrows on first use). The persistence tier is
    /// shared — it is content-addressed, so sharing is always safe.
    fn clone(&self) -> Self {
        let mut e = Evaluator::new(self.grid.clone());
        e.store = self.store.clone();
        e
    }
}

impl fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Evaluator")
            .field("grid", &self.grid)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::{cache_groups, CostKind, Scheme};
    use nm_device::TechnologyNode;
    use nm_geometry::CacheConfig;
    use nm_opt::constraint::best_under_deadline;
    use nm_opt::merge::try_system_front;
    use nm_opt::objective::Deadline;

    fn circuit(bytes: u64) -> CacheCircuit {
        let tech = TechnologyNode::bptm65();
        CacheCircuit::new(CacheConfig::new(bytes, 64, 4).unwrap(), &tech)
    }

    fn eval() -> Evaluator {
        Evaluator::new(KnobGrid::coarse())
    }

    #[test]
    fn groups_match_direct_cache_groups_exactly() {
        let e = eval();
        let c = circuit(16 * 1024);
        for scheme in Scheme::ALL {
            let spec = HierarchySpec::single(c.clone(), scheme, 1.0, CostKind::LeakagePower);
            let direct = cache_groups(&c, scheme, e.grid(), 1.0, CostKind::LeakagePower);
            assert_eq!(
                e.try_groups(&spec).expect("healthy build"),
                direct,
                "{scheme}"
            );
        }
        // All three schemes priced the same four surfaces: 4 builds.
        assert_eq!(e.stats().surfaces_built, 4);
    }

    #[test]
    fn front_is_memoized_per_spec() {
        let e = eval();
        let spec = HierarchySpec::single(
            circuit(16 * 1024),
            Scheme::Split,
            1.0,
            CostKind::LeakagePower,
        );
        let a = e.try_front(&spec).expect("healthy build");
        let b = e.try_front(&spec).expect("healthy build");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(e.stats().fronts_built, 1);
        assert_eq!(e.stats().front_hits, 1);
        // A different weight is a different spec.
        let other = HierarchySpec::single(
            circuit(16 * 1024),
            Scheme::Split,
            0.5,
            CostKind::LeakagePower,
        );
        let c = e.try_front(&other).expect("healthy build");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(e.stats().fronts_built, 2);
    }

    #[test]
    fn solve_matches_manual_pipeline() -> Result<(), StudyError> {
        let e = eval();
        let c = circuit(16 * 1024);
        let spec = HierarchySpec::single(c.clone(), Scheme::Split, 1.0, CostKind::LeakagePower);
        let front = try_system_front(&cache_groups(
            &c,
            Scheme::Split,
            e.grid(),
            1.0,
            CostKind::LeakagePower,
        ))?;
        let deadline = front.last().expect("non-empty front").delay;
        let manual = best_under_deadline(&front, deadline).expect("feasible");
        let sol = e.try_solve(&spec, &Deadline(deadline))?.expect("feasible");
        assert_eq!(sol.delay, manual.delay);
        assert_eq!(sol.cost, manual.cost);
        assert_eq!(sol.choice, manual.choice);
        assert_eq!(sol.knobs.len(), 1);
        // Infeasible is Ok(None), not Err.
        let infeasible = e.try_solve(&spec, &Deadline(front[0].delay * 0.5));
        assert_eq!(infeasible, Ok(None));
        assert_eq!(e.stats().surfaces_rejected, 0);
        Ok(())
    }

    #[test]
    fn ensure_surfaces_prewarms_and_is_idempotent() {
        let e = eval();
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
                Scheme::Split,
                0.05,
                CostKind::LeakagePower,
            );
        e.try_ensure_surfaces(&spec).expect("healthy build");
        assert_eq!(e.stats().surfaces_built, 8);
        e.try_ensure_surfaces(&spec).expect("healthy build");
        assert_eq!(e.stats().surfaces_built, 8);
        // Repeated levels of the same circuit build only once.
        let dup = HierarchySpec::new()
            .level(
                "a",
                circuit(32 * 1024),
                Scheme::Uniform,
                1.0,
                CostKind::LeakagePower,
            )
            .level(
                "b",
                circuit(32 * 1024),
                Scheme::Split,
                1.0,
                CostKind::LeakagePower,
            );
        e.try_ensure_surfaces(&dup).expect("healthy build");
        assert_eq!(e.stats().surfaces_built, 12);
    }

    #[test]
    fn analyze_agrees_with_direct_analysis() {
        let e = eval();
        let c = circuit(16 * 1024);
        // Off-grid (cache cold): pure fallback.
        let knobs = ComponentKnobs::default();
        assert_eq!(e.analyze(&c, &knobs), c.analyze(&knobs));
        // On-grid after warming: served from surfaces, still identical.
        let spec = HierarchySpec::single(c.clone(), Scheme::Uniform, 1.0, CostKind::LeakagePower);
        e.try_ensure_surfaces(&spec).expect("healthy build");
        let p = e.grid().snap(KnobPoint::nominal());
        let on_grid = ComponentKnobs::uniform(p);
        assert_eq!(e.analyze(&c, &on_grid), c.analyze(&on_grid));
    }

    #[test]
    fn healthy_surfaces_pass_validation() {
        let c = circuit(16 * 1024);
        let points: Vec<KnobPoint> = KnobGrid::coarse().points().collect();
        for id in COMPONENT_IDS {
            let s = c.component_surface(id, &points);
            assert_eq!(validate_surface(&c, id, &s), Ok(()), "{id}");
        }
    }

    #[test]
    fn validation_rejects_nan_with_the_offending_coordinate() {
        let c = circuit(16 * 1024);
        let points: Vec<KnobPoint> = KnobGrid::coarse().points().collect();
        let healthy = c.component_surface(ComponentId::Decoder, &points);
        let mut metrics = healthy.metrics_vec();
        metrics[2].delay = nm_device::units::Seconds(f64::NAN);
        let poisoned = ComponentSurface::from_parts(healthy.points().to_vec(), metrics);
        let err = validate_surface(&c, ComponentId::Decoder, &poisoned)
            .expect_err("NaN delay must be rejected");
        match err {
            StudyError::InvalidSurface {
                component,
                vth,
                tox,
                metric,
                value,
                ..
            } => {
                assert_eq!(component, ComponentId::Decoder);
                assert_eq!(metric, "delay");
                assert!(value.is_nan());
                assert_eq!(vth, points[2].vth().0);
                assert_eq!(tox, points[2].tox().0);
            }
            other => panic!("wrong error class: {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_negative_leakage_and_infinite_energy() {
        let c = circuit(16 * 1024);
        let points: Vec<KnobPoint> = KnobGrid::coarse().points().collect();
        let healthy = c.component_surface(ComponentId::DataBus, &points);

        let mut negative = healthy.metrics_vec();
        negative[0].leakage.gate = nm_device::units::Watts(-1e-6);
        let s = ComponentSurface::from_parts(healthy.points().to_vec(), negative);
        let err = validate_surface(&c, ComponentId::DataBus, &s).expect_err("negative leakage");
        assert!(matches!(
            err,
            StudyError::InvalidSurface {
                metric: "gate leakage",
                ..
            }
        ));

        let mut infinite = healthy.metrics_vec();
        infinite[1].read_energy = nm_device::units::Joules(f64::INFINITY);
        let s = ComponentSurface::from_parts(healthy.points().to_vec(), infinite);
        let err = validate_surface(&c, ComponentId::DataBus, &s).expect_err("infinite energy");
        assert!(matches!(
            err,
            StudyError::InvalidSurface {
                metric: "read energy",
                ..
            }
        ));
    }

    #[test]
    fn zero_level_spec_is_a_typed_error_not_a_panic() {
        let e = eval();
        let empty = HierarchySpec::new();
        assert_eq!(e.try_front(&empty).unwrap_err(), StudyError::EmptySystem);
        let err = e
            .try_solve(&empty, &Deadline(1.0))
            .expect_err("no groups to merge");
        assert_eq!(err, StudyError::EmptySystem);
        let err = e
            .try_solve_restricted(&empty, &[0.3], &[12.0], &Deadline(1.0))
            .expect_err("no groups to merge");
        assert_eq!(err, StudyError::EmptySystem);
        // Nothing was memoized for the failed spec.
        assert_eq!(e.stats().fronts_built, 0);
    }

    #[test]
    fn shared_prefix_specs_remerge_incrementally() -> Result<(), StudyError> {
        let e = eval();
        let l1 = circuit(16 * 1024);
        let full = HierarchySpec::new()
            .level("L1", l1.clone(), Scheme::Split, 1.0, CostKind::LeakagePower)
            .level(
                "L2",
                circuit(64 * 1024),
                Scheme::Split,
                0.05,
                CostKind::LeakagePower,
            );
        let _ = e.try_front(&full)?;
        assert_eq!(e.stats().fronts_incremental, 0);
        // Same L1 level, different L2: the L1 merge layers are reused and
        // the front still matches a from-scratch merge.
        let changed = HierarchySpec::new()
            .level("L1", l1, Scheme::Split, 1.0, CostKind::LeakagePower)
            .level(
                "L2",
                circuit(128 * 1024),
                Scheme::Split,
                0.05,
                CostKind::LeakagePower,
            );
        let incremental = e.try_front(&changed)?;
        assert_eq!(e.stats().fronts_incremental, 1);
        assert_eq!(*incremental, try_system_front(&e.try_groups(&changed)?)?);
        Ok(())
    }

    #[test]
    fn restricted_solves_reuse_the_last_restricted_base() -> Result<(), StudyError> {
        let e = eval();
        let spec = HierarchySpec::single(
            circuit(16 * 1024),
            Scheme::Split,
            1.0,
            CostKind::LeakagePower,
        );
        let groups = e.try_groups(&spec)?;
        let vths: Vec<f64> = groups[0]
            .candidates()
            .iter()
            .map(|c| c.knobs.vth().0)
            .collect();
        let toxes: Vec<f64> = groups[0]
            .candidates()
            .iter()
            .map(|c| c.knobs.tox().0)
            .collect();
        let full_front = e.try_front(&spec)?;
        let deadline = full_front.last().expect("non-empty").delay;
        // The unrestricted value sets reproduce the exact solve.
        let a = e
            .try_solve_restricted(&spec, &vths, &toxes, &Deadline(deadline))?
            .expect("feasible");
        let b = e
            .try_solve_restricted(&spec, &vths, &toxes, &Deadline(deadline))?
            .expect("feasible");
        assert_eq!(a, b);
        let direct = e.try_solve(&spec, &Deadline(deadline))?.expect("feasible");
        assert_eq!(a, direct);
        // The second identical restriction reused every layer of the first.
        assert!(e.stats().fronts_incremental >= 1);
        Ok(())
    }

    #[test]
    fn clone_starts_cold() {
        let e = eval();
        let spec = HierarchySpec::single(
            circuit(16 * 1024),
            Scheme::Uniform,
            1.0,
            CostKind::LeakagePower,
        );
        let _ = e.try_front(&spec).expect("healthy build");
        let fresh = e.clone();
        assert_eq!(fresh.stats(), EvalStats::default());
        assert_eq!(fresh.grid().len(), e.grid().len());
    }
}
