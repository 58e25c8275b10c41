//! Bounded, deterministic, fault-tolerant parallel-sweep executor.
//!
//! Every study in this workspace is embarrassingly parallel along some
//! axis — (L1, L2) size pairs, AMAT targets, Monte-Carlo die corners,
//! subarray foldings, annealing restarts. Before this crate each hot
//! path either ran serially or spawned one OS thread per work item; a
//! 16×16 size grid meant 256 simultaneous simulator threads.
//!
//! [`ParallelSweep`] replaces both patterns with a scoped worker pool:
//!
//! * **Bounded** — at most `workers` threads run at once, defaulting to
//!   [`std::thread::available_parallelism`], overridable per sweep with
//!   [`ParallelSweep::with_workers`], per process with
//!   [`set_global_workers`], or per environment with `NMCACHE_THREADS`.
//! * **Deterministic** — work items are pulled from an index-based queue
//!   and results are reduced in *submission order*, so the output is
//!   bit-identical no matter how many workers ran or how the scheduler
//!   interleaved them.
//! * **Fault-tolerant** — [`try_map`](ParallelSweep::try_map) contains
//!   each item in [`std::panic::catch_unwind`], retries it under a
//!   bounded deterministic [`RetryPolicy`], records exhausted items as
//!   typed [`ItemFault`]s instead of unwinding the sweep, and degrades
//!   to serial execution on the calling thread for any items lost to a
//!   dead worker.
//! * **Observable** — each sweep can record a [`SweepStats`] entry
//!   (items, workers, wall time, faults, retries, poisoned workers)
//!   into a process-wide registry that the CLI drains with `--stats`.
//!
//! ```
//! use nm_sweep::ParallelSweep;
//!
//! let squares = ParallelSweep::new().map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```
//!
//! Containment keeps one poisoned item from sinking the run:
//!
//! ```
//! use nm_sweep::ParallelSweep;
//!
//! let run = ParallelSweep::new().try_map(&[1u64, 0, 3], |&x| {
//!     assert!(x != 0, "zero is not invertible");
//!     1.0 / x as f64
//! });
//! assert_eq!(run.fault_count(), 1);
//! assert!(run.results[0].is_ok() && run.results[2].is_ok());
//! assert!(run.results[1].as_ref().unwrap_err().message.contains("zero"));
//! ```
//!
//! The `faultinject` feature adds a deterministic fault-injection plan
//! (panics, stalls, worker kills, NaN poisoning) keyed by sweep label
//! and item index, so all of the above is testable in CI without
//! wall-clock randomness.

#![expect(
    clippy::disallowed_methods,
    reason = "D5: nm-sweep is the bounded executor; its scoped workers are the only threads"
)]

use nm_telemetry::Stopwatch;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

pub mod names;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "NMCACHE_THREADS";

/// Process-wide worker-count override (`0` = unset). Set by the CLI's
/// `--threads` flag so deep call sites that build their own
/// [`ParallelSweep`] pick it up without plumbing.
static GLOBAL_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for every subsequently constructed
/// [`ParallelSweep`] in this process (`None` restores the default
/// resolution order). Explicit [`ParallelSweep::with_workers`] calls
/// still win.
pub fn set_global_workers(workers: Option<usize>) {
    GLOBAL_WORKERS.store(workers.unwrap_or(0), Ordering::Relaxed);
}

/// The current process-wide override, if any.
pub fn global_workers() -> Option<usize> {
    match GLOBAL_WORKERS.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Resolves the default worker count: process override, then
/// `NMCACHE_THREADS`, then [`std::thread::available_parallelism`].
fn default_workers() -> usize {
    if let Some(n) = global_workers() {
        return n.max(1);
    }
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Bounded, deterministic per-item retry policy for contained sweeps.
///
/// An item is attempted up to `attempts` times (so `attempts − 1`
/// retries); there is no wall-clock backoff or jitter, which keeps
/// contained sweeps reproducible — the same inputs fail (or recover)
/// identically on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    attempts: usize,
}

impl RetryPolicy {
    /// A policy allowing up to `attempts` total attempts per item
    /// (clamped to ≥ 1).
    pub fn new(attempts: usize) -> Self {
        RetryPolicy {
            attempts: attempts.max(1),
        }
    }

    /// The default policy: one attempt, no retries.
    pub fn none() -> Self {
        Self::new(1)
    }

    /// Total attempts allowed per item (≥ 1).
    pub fn attempts(&self) -> usize {
        self.attempts
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// A contained per-item failure: the item panicked on every allowed
/// attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemFault {
    /// Submission-order index of the failed item.
    pub index: usize,
    /// Attempts made before giving up.
    pub attempts: usize,
    /// Panic message of the final attempt (best-effort extraction).
    pub message: String,
}

impl std::fmt::Display for ItemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "item {} failed after {} attempt{}: {}",
            self.index,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

impl std::error::Error for ItemFault {}

/// Outcome of a contained sweep ([`ParallelSweep::try_map`]): one
/// `Result` per item in submission order, plus fault accounting.
#[derive(Debug)]
pub struct SweepRun<R> {
    /// Per-item outcomes, position `i` corresponding to `items[i]`.
    pub results: Vec<Result<R, ItemFault>>,
    /// Extra attempts spent recovering items (beyond each first try).
    pub retries: usize,
    /// Worker threads that died mid-sweep (their lost items were
    /// re-executed serially on the calling thread).
    pub poisoned_workers: usize,
}

impl<R> SweepRun<R> {
    /// Number of items that completed successfully.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of items that exhausted their attempts.
    pub fn fault_count(&self) -> usize {
        self.results.len() - self.ok_count()
    }

    /// The contained faults, in item order.
    pub fn faults(&self) -> impl Iterator<Item = &ItemFault> {
        self.results.iter().filter_map(|r| r.as_ref().err())
    }

    /// All results when every item succeeded, or the first fault.
    ///
    /// # Errors
    ///
    /// The lowest-index [`ItemFault`] when any item failed.
    pub fn into_oks(self) -> Result<Vec<R>, ItemFault> {
        let mut out = Vec::with_capacity(self.results.len());
        for r in self.results {
            out.push(r?);
        }
        Ok(out)
    }
}

/// Faults the executor can observe or inject (always compiled; the
/// `faultinject` feature only adds the machinery that *arms* them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(feature = "faultinject"), allow(dead_code))]
enum ExecFault {
    Panic,
    Stall(u32),
    KillWorker,
}

/// The armed execution fault for `(label, index)`, if any. Compiles to
/// a constant `None` without the `faultinject` feature.
fn exec_fault(label: Option<&str>, index: usize) -> Option<ExecFault> {
    #[cfg(feature = "faultinject")]
    {
        faultinject::next_exec_fault(label, index)
    }
    #[cfg(not(feature = "faultinject"))]
    {
        let _ = (label, index);
        None
    }
}

/// Deterministic busy loop standing in for a stalled worker (no
/// wall-clock sleeps, so CI timing stays reproducible).
fn spin(spins: u32) {
    for i in 0..spins {
        std::hint::black_box(i);
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else {
        "panic payload of unknown type".to_owned()
    }
}

/// A bounded worker pool that maps a closure over a slice of work items
/// and returns the results in submission order.
///
/// Construction is cheap (no threads are created until
/// [`map`](Self::map) or [`try_map`](Self::try_map) runs); build one per
/// sweep.
#[derive(Debug, Clone)]
pub struct ParallelSweep {
    workers: usize,
    label: Option<String>,
    retry: RetryPolicy,
}

impl ParallelSweep {
    /// A sweep with the default worker count (see [`set_global_workers`]
    /// and [`THREADS_ENV`] for the resolution order) and no retries.
    pub fn new() -> Self {
        ParallelSweep {
            workers: default_workers(),
            label: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Overrides the worker count for this sweep (clamped to ≥ 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Labels this sweep's [`SweepStats`] entry (unlabelled sweeps record
    /// as `"sweep"`).
    #[must_use]
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Sets the per-item retry policy used by [`try_map`](Self::try_map)
    /// (ignored by the fail-fast [`map`](Self::map)).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The configured worker bound.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Applies `f` to every item and returns the results in item order.
    ///
    /// At most `min(workers, items.len())` threads run concurrently,
    /// pulling indices from a shared queue; the output at position `i`
    /// is always `f(&items[i])`, so results are bit-identical for any
    /// worker count.
    ///
    /// This is the fail-fast path: a panicking item unwinds the whole
    /// sweep. Use [`try_map`](Self::try_map) where one poisoned item
    /// must not sink the run.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic on the calling thread.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let start = Stopwatch::start();
        let n = items.len();
        let workers = self.workers.min(n.max(1));
        // Per-item latency is only timed while telemetry records; with it
        // off the hot loop is untouched (one relaxed load per sweep).
        let item_hist = nm_telemetry::enabled()
            .then(|| format!("sweep.item.{}", self.label.as_deref().unwrap_or("sweep")));
        let _sweep_span = item_hist.as_ref().map(|_| {
            nm_telemetry::span(format!(
                "sweep.{}",
                self.label.as_deref().unwrap_or("sweep")
            ))
        });

        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);

        let run_one = |i: usize| -> R {
            match &item_hist {
                Some(hist) => {
                    let t0 = Stopwatch::start();
                    let r = f(&items[i]);
                    nm_telemetry::observe_seconds(hist, t0.elapsed_seconds());
                    r
                }
                None => f(&items[i]),
            }
        };

        if workers == 1 {
            // Inline fast path: a one-worker pool is a serial loop, so run
            // it on the calling thread and skip the scope/spawn/join
            // round-trip entirely. Results, panics (re-raised here by
            // unwinding naturally) and stats are identical to a one-thread
            // pool; on a single-CPU host this is the cold path's executor.
            for (i, slot) in slots.iter_mut().enumerate() {
                *slot = Some(run_one(i));
            }
        } else if n > 0 {
            let next = AtomicUsize::new(0);
            let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                local.push((i, run_one(i)));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(results) => results,
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            });
            for (i, r) in per_worker.into_iter().flatten() {
                slots[i] = Some(r);
            }
        }

        stats::record(SweepStats {
            label: self.label.clone().unwrap_or_else(|| "sweep".to_owned()),
            items: n,
            workers,
            wall: start.elapsed(),
            faults: 0,
            retries: 0,
            poisoned_workers: 0,
        });

        #[expect(
            clippy::expect_used,
            reason = "each slot is filled exactly once by the worker that owns its index"
        )]
        let results: Vec<R> = slots
            .into_iter()
            .map(|r| r.expect("every index was claimed exactly once"))
            .collect();
        results
    }

    /// Applies `f` to every item with per-item panic containment and
    /// returns one `Result` per item in submission order.
    ///
    /// Each item runs inside [`std::panic::catch_unwind`]; a panic is
    /// retried up to the configured [`RetryPolicy`]'s attempt budget and
    /// then recorded as a typed [`ItemFault`] carrying the panic
    /// message. The remaining items always complete. Should a worker
    /// thread itself die (a panic escaping the per-item containment),
    /// the sweep degrades gracefully: surviving workers drain the queue
    /// and any items lost with the dead worker are re-executed serially
    /// on the calling thread, still contained. Dead workers are counted
    /// in [`SweepRun::poisoned_workers`] and [`SweepStats`].
    ///
    /// Determinism: successful results are bit-identical to
    /// [`map`](Self::map) for any worker count, and the retry policy
    /// contains no wall-clock randomness.
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> SweepRun<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let start = Stopwatch::start();
        let n = items.len();
        let workers = self.workers.min(n.max(1));
        let label = self.label.as_deref();
        let attempts = self.retry.attempts();
        let retries = AtomicUsize::new(0);
        let item_hist =
            nm_telemetry::enabled().then(|| format!("sweep.item.{}", label.unwrap_or("sweep")));
        let _sweep_span = item_hist
            .as_ref()
            .map(|_| nm_telemetry::span(format!("sweep.{}", label.unwrap_or("sweep"))));

        // One contained execution of item `i`, shared by the parallel
        // and the degraded-serial paths. In degraded mode an injected
        // worker-kill is contained like an ordinary panic — the calling
        // thread must survive.
        #[expect(
            clippy::panic,
            reason = "fault injection: deliberate panics exercise the executor's containment path"
        )]
        let run_item = |i: usize, degraded: bool| -> Result<R, ItemFault> {
            let mut last = String::new();
            let item_start = item_hist.as_ref().map(|_| Stopwatch::start());
            for attempt in 1..=attempts {
                let fault = exec_fault(label, i);
                if matches!(fault, Some(ExecFault::KillWorker)) && !degraded {
                    // Escapes the per-item containment below, taking the
                    // worker thread down with it.
                    panic!("faultinject: worker killed at item {i}");
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    match fault {
                        Some(ExecFault::Panic) => panic!("faultinject: item {i} panics"),
                        Some(ExecFault::KillWorker) => {
                            panic!("faultinject: worker kill contained serially at item {i}")
                        }
                        Some(ExecFault::Stall(spins)) => spin(spins),
                        None => {}
                    }
                    f(&items[i])
                }));
                match outcome {
                    Ok(r) => {
                        if let (Some(hist), Some(t0)) = (&item_hist, item_start) {
                            nm_telemetry::observe_seconds(hist, t0.elapsed_seconds());
                        }
                        return Ok(r);
                    }
                    Err(payload) => {
                        last = panic_message(payload.as_ref());
                        if attempt < attempts {
                            retries.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            Err(ItemFault {
                index: i,
                attempts,
                message: last,
            })
        };

        let mut slots: Vec<Option<Result<R, ItemFault>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut poisoned = 0usize;

        if n > 0 {
            let next = AtomicUsize::new(0);
            // (index, contained outcome) pairs one worker carries home.
            type WorkerBatch<R> = Vec<(usize, Result<R, ItemFault>)>;
            let joined: Vec<std::thread::Result<WorkerBatch<R>>> = if workers == 1 {
                // Inline fast path: run the single worker's drain loop on
                // the calling thread instead of spawning it. The loop is
                // wrapped in `catch_unwind` so a panic that escapes the
                // per-item containment (an injected worker kill) still
                // reads as a dead worker — its claimed items are lost and
                // re-run by the degraded serial pass below, exactly as if
                // a spawned worker had died.
                vec![catch_unwind(AssertUnwindSafe(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, run_item(i, false)));
                    }
                    local
                }))]
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|_| {
                            scope.spawn(|| {
                                let mut local = Vec::new();
                                loop {
                                    let i = next.fetch_add(1, Ordering::Relaxed);
                                    if i >= n {
                                        break;
                                    }
                                    local.push((i, run_item(i, false)));
                                }
                                local
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join()).collect()
                })
            };
            for outcome in joined {
                match outcome {
                    Ok(local) => {
                        for (i, r) in local {
                            slots[i] = Some(r);
                        }
                    }
                    Err(_) => poisoned += 1,
                }
            }
            // Degraded serial pass: items claimed by a dead worker (or
            // never claimed because every worker died) run here,
            // contained, on the calling thread.
            if poisoned > 0 {
                for (i, slot) in slots.iter_mut().enumerate() {
                    if slot.is_none() {
                        *slot = Some(run_item(i, true));
                    }
                }
            }
        }

        #[expect(
            clippy::expect_used,
            reason = "each slot is filled exactly once, by its owning worker or the serial fallback"
        )]
        let results: Vec<Result<R, ItemFault>> = slots
            .into_iter()
            .map(|r| r.expect("every index ran in the pool or the serial fallback"))
            .collect();
        let faults = results.iter().filter(|r| r.is_err()).count();
        let retries = retries.load(Ordering::Relaxed);

        stats::record(SweepStats {
            label: self.label.clone().unwrap_or_else(|| "sweep".to_owned()),
            items: n,
            workers,
            wall: start.elapsed(),
            faults,
            retries,
            poisoned_workers: poisoned,
        });

        SweepRun {
            results,
            retries,
            poisoned_workers: poisoned,
        }
    }
}

impl Default for ParallelSweep {
    fn default() -> Self {
        ParallelSweep::new()
    }
}

/// Timing and fault record of one completed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// Sweep label (from [`ParallelSweep::labeled`]).
    pub label: String,
    /// Work items submitted.
    pub items: usize,
    /// Worker threads used (≤ the configured bound).
    pub workers: usize,
    /// Wall-clock duration of the whole sweep.
    pub wall: Duration,
    /// Items that exhausted their attempts (always 0 for
    /// [`ParallelSweep::map`], which propagates panics instead).
    pub faults: usize,
    /// Extra contained attempts beyond each item's first try.
    pub retries: usize,
    /// Worker threads that died mid-sweep.
    pub poisoned_workers: usize,
}

impl SweepStats {
    /// Throughput in items per second (`0.0` for an instantaneous sweep).
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.items as f64 / secs
        } else {
            0.0
        }
    }
}

pub mod stats {
    //! Process-wide sweep-statistics registry.
    //!
    //! Since the unified telemetry layer this module is a compatibility
    //! view over [`nm_telemetry`]: `enable`/`disable` toggle the global
    //! telemetry gate, `record` stores sweeps (plus `sweep.*` counters)
    //! in the shared registry, and `drain` removes only the sweep
    //! entries, preserving the original drain-isolates-regions
    //! semantics. Disabled by default so library users pay nothing; the
    //! CLI enables it for `--stats` and drains it after the command
    //! finishes.

    use super::SweepStats;
    use std::time::Duration;

    /// Starts recording sweep statistics (enables the whole unified
    /// telemetry registry — sweeps, counters, spans share one gate).
    pub fn enable() {
        nm_telemetry::enable();
    }

    /// Stops recording (already-recorded entries are kept until drained).
    pub fn disable() {
        nm_telemetry::disable();
    }

    /// `true` while recording.
    pub fn enabled() -> bool {
        nm_telemetry::enabled()
    }

    /// Records one entry (no-op while disabled).
    pub fn record(entry: SweepStats) {
        if !enabled() {
            return;
        }
        nm_telemetry::counter_add(crate::names::ITEMS, entry.items as u64);
        nm_telemetry::counter_add(crate::names::FAULTS, entry.faults as u64);
        nm_telemetry::counter_add(crate::names::RETRIES, entry.retries as u64);
        nm_telemetry::counter_add(
            crate::names::POISONED_WORKERS,
            entry.poisoned_workers as u64,
        );
        nm_telemetry::record_sweep(nm_telemetry::SweepRecord {
            label: entry.label,
            items: entry.items,
            workers: entry.workers,
            wall_ns: entry.wall.as_nanos().min(u128::from(u64::MAX)) as u64,
            faults: entry.faults,
            retries: entry.retries,
            poisoned_workers: entry.poisoned_workers,
        });
    }

    /// Removes and returns every recorded entry, in recording order.
    /// Counters, spans and histograms stay in the registry.
    pub fn drain() -> Vec<SweepStats> {
        nm_telemetry::drain_sweeps()
            .into_iter()
            .map(|r| SweepStats {
                label: r.label,
                items: r.items,
                workers: r.workers,
                wall: Duration::from_nanos(r.wall_ns),
                faults: r.faults,
                retries: r.retries,
                poisoned_workers: r.poisoned_workers,
            })
            .collect()
    }
}

#[cfg(feature = "faultinject")]
pub mod faultinject {
    //! Deterministic fault injection keyed by sweep label and item index.
    //!
    //! Enabled only under the `faultinject` cargo feature; production
    //! builds compile none of this. Faults are *armed* ahead of a run
    //! and *consumed* as the executor (or a metric-producing layer, for
    //! [`Fault::Nan`]) reaches the matching `(label, index)` — each
    //! armed fault fires a bounded number of times and then disarms, so
    //! a retried item can deterministically fail N times and recover on
    //! attempt N + 1. No wall-clock randomness anywhere.
    //!
    //! The plan is process-global: tests that arm faults must serialise
    //! against each other (e.g. with a shared mutex) and [`clear`] the
    //! plan when done.

    use std::sync::Mutex;

    /// A fault to inject at one `(label, index)` coordinate.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Fault {
        /// The item's closure panics (contained by
        /// [`try_map`](crate::ParallelSweep::try_map)).
        Panic,
        /// The worker busy-spins this many iterations before the item
        /// runs (the item still succeeds).
        Stall(u32),
        /// The worker thread dies: the panic escapes the per-item
        /// containment, exercising the serial degradation path.
        KillWorker,
        /// Value poisoning: a metric-producing layer that polls
        /// [`take_nan`] replaces the item's computed values with NaN.
        /// The executor itself ignores this kind.
        Nan,
    }

    #[derive(Debug)]
    struct Armed {
        label: Option<String>,
        index: usize,
        fault: Fault,
        remaining: usize,
    }

    static PLAN: Mutex<Vec<Armed>> = Mutex::new(Vec::new());

    fn plan() -> std::sync::MutexGuard<'static, Vec<Armed>> {
        PLAN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Arms `fault` for item `index` of sweeps labelled `label` (`None`
    /// matches any label). The fault fires on the next `times` matching
    /// attempts, then disarms.
    pub fn arm(label: Option<&str>, index: usize, fault: Fault, times: usize) {
        if times == 0 {
            return;
        }
        plan().push(Armed {
            label: label.map(str::to_owned),
            index,
            fault,
            remaining: times,
        });
    }

    /// Disarms every armed fault.
    pub fn clear() {
        plan().clear();
    }

    /// Number of armed (not yet fully fired) faults.
    pub fn armed() -> usize {
        plan().len()
    }

    fn consume(label: Option<&str>, index: usize, exec: bool) -> Option<Fault> {
        let mut plan = plan();
        let pos = plan.iter().position(|a| {
            a.index == index
                && (a.label.is_none() || a.label.as_deref() == label)
                && (matches!(a.fault, Fault::Nan) != exec)
        })?;
        let fault = plan[pos].fault;
        plan[pos].remaining -= 1;
        if plan[pos].remaining == 0 {
            plan.remove(pos);
        }
        Some(fault)
    }

    /// Consumes the next armed execution fault (panic / stall / kill)
    /// for `(label, index)`, if any.
    pub(crate) fn next_exec_fault(label: Option<&str>, index: usize) -> Option<super::ExecFault> {
        match consume(label, index, true)? {
            Fault::Panic => Some(super::ExecFault::Panic),
            Fault::Stall(spins) => Some(super::ExecFault::Stall(spins)),
            Fault::KillWorker => Some(super::ExecFault::KillWorker),
            Fault::Nan => None,
        }
    }

    /// Consumes an armed [`Fault::Nan`] for `(label, index)`. Layers
    /// that produce floating-point metrics call this once per item and
    /// poison their output when it returns `true`.
    pub fn take_nan(label: Option<&str>, index: usize) -> bool {
        matches!(consume(label, index, false), Some(Fault::Nan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn map_preserves_submission_order() {
        let items: Vec<u64> = (0..257).collect();
        for workers in [1, 2, 7, 64] {
            let out = ParallelSweep::new()
                .with_workers(workers)
                .map(&items, |&x| x * 3 + 1);
            let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expect, "workers = {workers}");
        }
    }

    #[test]
    fn identical_results_for_any_worker_count() {
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
        let run = |w: usize| {
            ParallelSweep::new()
                .with_workers(w)
                .map(&items, |&x| (x.sin() * 1e9).to_bits())
        };
        let reference = run(1);
        for w in [2, 3, 8] {
            assert_eq!(run(w), reference, "workers = {w}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = ParallelSweep::new().map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn peak_concurrency_respects_the_bound() {
        use std::sync::atomic::AtomicUsize;
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        ParallelSweep::new().with_workers(3).map(&items, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        let seen = peak.load(Ordering::SeqCst);
        assert!(seen <= 3, "peak concurrency {seen} exceeded 3 workers");
        assert!(seen >= 1);
    }

    /// Serialises tests that poke the process-wide stats registry.
    fn stats_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn worker_bound_never_exceeds_item_count() {
        // A 2-item sweep on a 64-worker pool must not spawn 64 threads;
        // the recorded stats expose the actual worker count.
        let _guard = stats_lock();
        stats::enable();
        stats::drain();
        ParallelSweep::new()
            .with_workers(64)
            .labeled("tiny")
            .map(&[1, 2], |&x: &i32| x);
        let recorded = stats::drain();
        stats::disable();
        let entry = recorded
            .iter()
            .find(|s| s.label == "tiny")
            .expect("tiny sweep recorded");
        assert_eq!(entry.items, 2);
        assert!(entry.workers <= 2);
        assert_eq!(
            (entry.faults, entry.retries, entry.poisoned_workers),
            (0, 0, 0)
        );
    }

    #[test]
    fn with_workers_zero_clamps_to_one() {
        assert_eq!(ParallelSweep::new().with_workers(0).workers(), 1);
    }

    #[test]
    fn global_override_applies_to_new_sweeps() {
        set_global_workers(Some(5));
        assert_eq!(ParallelSweep::new().workers(), 5);
        set_global_workers(None);
        assert!(ParallelSweep::new().workers() >= 1);
    }

    #[test]
    fn stats_disabled_by_default_and_drain_clears() {
        let _guard = stats_lock();
        stats::drain();
        ParallelSweep::new().labeled("ignored").map(&[1u8], |&x| x);
        assert!(
            stats::drain().iter().all(|s| s.label != "ignored"),
            "recorded while disabled"
        );

        stats::enable();
        ParallelSweep::new().labeled("a").map(&[1u8, 2], |&x| x);
        ParallelSweep::new().labeled("b").map(&[3u8], |&x| x);
        let got = stats::drain();
        stats::disable();
        let labels: Vec<&str> = got
            .iter()
            .map(|s| s.label.as_str())
            .filter(|l| *l == "a" || *l == "b")
            .collect();
        assert!(labels.contains(&"a") && labels.contains(&"b"), "{labels:?}");
        assert!(stats::drain().iter().all(|s| s.label != "a"));
    }

    #[test]
    fn worker_panics_propagate_with_their_message() {
        let result = std::panic::catch_unwind(|| {
            ParallelSweep::new().with_workers(2).map(&[0, 1, 2], |&x| {
                assert!(x != 1, "item {x} is bad");
                x
            });
        });
        let payload = result.expect_err("sweep must propagate the panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("item 1 is bad"), "lost panic message: {msg}");
    }

    #[test]
    fn items_per_sec_is_finite() {
        let s = SweepStats {
            label: "x".into(),
            items: 10,
            workers: 2,
            wall: Duration::from_millis(100),
            faults: 0,
            retries: 0,
            poisoned_workers: 0,
        };
        assert!((s.items_per_sec() - 100.0).abs() < 1.0);
        let zero = SweepStats {
            wall: Duration::ZERO,
            ..s
        };
        assert_eq!(zero.items_per_sec(), 0.0);
    }

    #[test]
    fn try_map_contains_a_panicking_item() {
        for workers in [1, 2, 8] {
            let items: Vec<u32> = (0..16).collect();
            let run = ParallelSweep::new()
                .with_workers(workers)
                .try_map(&items, |&x| {
                    assert!(x != 5, "item {x} is poisoned");
                    x * 2
                });
            assert_eq!(run.fault_count(), 1, "workers = {workers}");
            assert_eq!(run.ok_count(), 15);
            assert_eq!(run.poisoned_workers, 0);
            let fault = run.faults().next().expect("one fault");
            assert_eq!(fault.index, 5);
            assert!(fault.message.contains("poisoned"), "{fault}");
            for (i, r) in run.results.iter().enumerate() {
                if i != 5 {
                    assert_eq!(*r.as_ref().expect("healthy item"), i as u32 * 2);
                }
            }
        }
    }

    #[test]
    fn try_map_matches_map_on_the_healthy_path() {
        let items: Vec<f64> = (0..64).map(|i| i as f64 * 0.71).collect();
        let via_map = ParallelSweep::new()
            .with_workers(4)
            .map(&items, |&x| (x.cos() * 1e9).to_bits());
        let via_try = ParallelSweep::new()
            .with_workers(4)
            .try_map(&items, |&x| (x.cos() * 1e9).to_bits())
            .into_oks()
            .expect("no faults");
        assert_eq!(via_map, via_try);
    }

    #[test]
    fn try_map_retries_deterministically() {
        use std::collections::BTreeMap;
        use std::sync::Mutex;
        // Item 3 fails twice then succeeds; a 3-attempt policy recovers
        // it and records exactly 2 retries.
        let attempts: Mutex<BTreeMap<usize, usize>> = Mutex::new(BTreeMap::new());
        let items: Vec<usize> = (0..8).collect();
        let run = ParallelSweep::new()
            .with_workers(2)
            .with_retry(RetryPolicy::new(3))
            .try_map(&items, |&i| {
                let count = {
                    let mut seen = attempts
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    let count = seen.entry(i).or_insert(0);
                    *count += 1;
                    *count
                };
                assert!(!(i == 3 && count <= 2), "transient failure on item {i}");
                i * 10
            });
        assert_eq!(run.fault_count(), 0);
        assert_eq!(run.retries, 2);
        assert_eq!(*run.results[3].as_ref().expect("recovered"), 30);
    }

    #[test]
    fn try_map_exhausts_attempts_and_reports_them() {
        let run = ParallelSweep::new()
            .with_workers(2)
            .with_retry(RetryPolicy::new(3))
            .try_map(&[0u8], |_| -> u8 { panic!("always fails") });
        assert_eq!(run.fault_count(), 1);
        assert_eq!(run.retries, 2);
        let fault = run.faults().next().expect("fault recorded");
        assert_eq!(fault.attempts, 3);
        assert!(fault.message.contains("always fails"));
    }

    #[test]
    fn try_map_empty_input() {
        let run: SweepRun<u8> = ParallelSweep::new().try_map(&[] as &[u8], |&x| x);
        assert!(run.results.is_empty());
        assert_eq!(run.fault_count(), 0);
    }

    #[test]
    fn try_map_records_fault_stats() {
        let _guard = stats_lock();
        stats::enable();
        stats::drain();
        ParallelSweep::new()
            .with_workers(2)
            .with_retry(RetryPolicy::new(2))
            .labeled("faulty")
            .try_map(&[0, 1, 2], |&x: &i32| {
                assert!(x != 1, "bad");
                x
            });
        let recorded = stats::drain();
        stats::disable();
        let entry = recorded
            .iter()
            .find(|s| s.label == "faulty")
            .expect("faulty sweep recorded");
        assert_eq!(entry.faults, 1);
        assert_eq!(entry.retries, 1);
        assert_eq!(entry.poisoned_workers, 0);
    }

    #[test]
    fn retry_policy_clamps_and_defaults() {
        assert_eq!(RetryPolicy::new(0).attempts(), 1);
        assert_eq!(RetryPolicy::default().attempts(), 1);
        assert_eq!(ParallelSweep::new().retry_policy(), RetryPolicy::none());
        assert_eq!(
            ParallelSweep::new()
                .with_retry(RetryPolicy::new(4))
                .retry_policy()
                .attempts(),
            4
        );
    }

    #[test]
    fn item_fault_displays_context() {
        let f = ItemFault {
            index: 7,
            attempts: 2,
            message: "boom".into(),
        };
        let text = f.to_string();
        assert!(text.contains("item 7") && text.contains("2 attempts") && text.contains("boom"));
    }

    #[test]
    fn into_oks_surfaces_first_fault() {
        let run = ParallelSweep::new()
            .with_workers(2)
            .try_map(&[0, 1, 2], |&x: &i32| {
                assert!(x != 2, "late fault");
                x
            });
        let err = run.into_oks().expect_err("fault propagates");
        assert_eq!(err.index, 2);
    }
}
