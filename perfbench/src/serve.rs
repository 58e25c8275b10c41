//! Query-mix replay for the serve-prefix probe: closed-loop clients
//! replaying the seeded five-class query mix (`QueryMix::synthesize` on
//! the coarse grid) against one shared `Evaluator`, after the serial
//! prime that `nm_loadgen::run` does. Each query is timed around its
//! `try_solve` / `try_solve_restricted` call.
//!
//! No simulation runs here: all of the work is evaluation, merging,
//! device and sweep code, with memo growth and nested sweeps.

use crate::report::{median, quantile, Report};
use nm_cache_core::eval::Evaluator;
use nm_device::KnobGrid;
use nm_loadgen::{Query, QueryClass, QueryMix};
use nm_opt::objective::Deadline;
use nm_sweep::ParallelSweep;
use nm_telemetry::Stopwatch;

/// Closed-loop clients.
pub const CLIENTS: usize = 2;

/// What one query returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Feasible,
    Infeasible,
    Error,
}

/// One timed query.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub index: usize,
    pub class: QueryClass,
    pub seconds: f64,
    pub outcome: Outcome,
}

/// A primed evaluator for `mix`: the shared base front and, when the
/// mix has tuple queries, the restricted merge base, built serially.
pub fn primed(mix: &QueryMix) -> Result<Evaluator, String> {
    let eval = Evaluator::new(KnobGrid::coarse());
    eval.try_front(&mix.base_spec).map_err(|e| e.to_string())?;
    if mix.has_tuple_queries() {
        eval.try_solve_restricted(
            &mix.base_spec,
            &mix.restriction.vths,
            &mix.restriction.toxes,
            &Deadline(mix.base_budget),
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(eval)
}

/// Replays `queries` with `clients` closed-loop clients, timing each.
pub fn replay(eval: &Evaluator, mix: &QueryMix, queries: &[Query], clients: usize) -> Vec<Answer> {
    ParallelSweep::new()
        .with_workers(clients)
        .labeled("perfbench.serve")
        .map(queries, |q| {
            let clock = Stopwatch::start();
            let result = if q.restricted {
                eval.try_solve_restricted(
                    &q.spec,
                    &mix.restriction.vths,
                    &mix.restriction.toxes,
                    &Deadline(q.budget),
                )
            } else {
                eval.try_solve(&q.spec, &Deadline(q.budget))
            };
            let seconds = clock.elapsed_seconds();
            Answer {
                index: q.index,
                class: q.class,
                seconds,
                outcome: match result {
                    Ok(Some(_)) => Outcome::Feasible,
                    Ok(None) => Outcome::Infeasible,
                    Err(_) => Outcome::Error,
                },
            }
        })
}

/// `(feasible, infeasible, errors)` of a replay.
pub fn counts(answers: &[Answer]) -> (u64, u64, u64) {
    let n = |o: Outcome| answers.iter().filter(|a| a.outcome == o).count() as u64;
    (
        n(Outcome::Feasible),
        n(Outcome::Infeasible),
        n(Outcome::Error),
    )
}

/// Latencies (seconds) of `class` among `answers`.
pub fn latencies(answers: &[Answer], class: QueryClass) -> Vec<f64> {
    answers
        .iter()
        .filter(|a| a.class == class)
        .map(|a| a.seconds)
        .collect()
}

/// Per-class p50s, cold-growth ratio and client-visible latency of one
/// replay, recorded under `source`.
pub fn put_replay_metrics(
    report: &mut Report,
    answers: &[Answer],
    wall_s: f64,
    source: &'static str,
) {
    let classes: [(QueryClass, &str, &'static str, f64); 5] = [
        (QueryClass::Cold, "eval.cold_p50_ms", "ms", 1e3),
        (QueryClass::Warm, "eval.warm_p50_us", "us", 1e6),
        (QueryClass::Tuple, "eval.tuple_p50_ms", "ms", 1e3),
        (
            QueryClass::Adversarial,
            "eval.adversarial_p50_us",
            "us",
            1e6,
        ),
        (QueryClass::Mixed, "eval.mixed_p50_ms", "ms", 1e3),
    ];
    for (class, name, unit, scale) in classes {
        let l = latencies(answers, class);
        report.put(name, unit, median(&l) * scale, l.len() as u64, source);
    }
    let n = answers.len();
    let cold_in = |lo: usize, hi: usize| -> Vec<f64> {
        answers
            .iter()
            .filter(|a| a.class == QueryClass::Cold && (lo..hi).contains(&a.index))
            .map(|a| a.seconds)
            .collect()
    };
    let (first, last) = (cold_in(0, n / 4), cold_in(n - n / 4, n));
    let ratio = median(&last) / median(&first).max(f64::MIN_POSITIVE);
    report.put(
        "eval.cold_growth_ratio",
        "ratio",
        ratio,
        (first.len() + last.len()) as u64,
        source,
    );
    let all: Vec<f64> = answers.iter().map(|a| a.seconds).collect();
    report.put(
        "serve.qps",
        "1/s",
        n as f64 / wall_s.max(f64::MIN_POSITIVE),
        n as u64,
        source,
    );
    report.put("serve.p50_ms", "ms", median(&all) * 1e3, n as u64, source);
    report.put(
        "serve.p99_ms",
        "ms",
        quantile(&all, 0.99) * 1e3,
        n as u64,
        source,
    );
}
