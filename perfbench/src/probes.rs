//! Fixed-size layer probes for the traced run, seeded from the workload
//! seed. Each probe calls one layer's public functions on inputs of a
//! fixed size and reports its exact work counts beside its timings.
//!
//! Where a workload does not exercise a layer at all (no query replay
//! in `study-sweep` or `campaign-store`, ...), that layer's
//! metrics come from its probe; the workload's own figures replace the
//! probe's wherever it has them. The `source` column of the report says
//! which applies.

use crate::campaign;
use crate::report::{median, Report};
use crate::serve;
use crate::trace::Tracer;
use nm_archsim::{Access, CacheParams, CacheSim, MissRateTable, Replacement, TwoLevel};
use nm_cache_core::eval::{Evaluator, HierarchySpec};
use nm_cache_core::groups::{CostKind, Scheme};
use nm_cache_core::twolevel::STANDARD_SUITES;
use nm_device::units::Kelvin;
use nm_device::{KnobGrid, TechProfile, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig, ComponentKnobs};
use nm_loadgen::{QueryClass, QueryMix};
use nm_store::{KeyHasher, Store};
use nm_sweep::ParallelSweep;
use nm_telemetry::Stopwatch;
use std::hint::black_box;
use std::path::Path;

const SOURCE: &str = "probe";
/// References generated per suite for the simulator probes.
const REFS_PER_SUITE: usize = 200_000;
/// Timed repetitions of each simulator probe (median reported).
const REPEATS: usize = 3;
/// Queries in the serve prefix replayed at one and at two clients.
const PREFIX_QUERIES: usize = 1_000;
/// Records the store probe writes and reads back, sized like the
/// traffic of the `campaign-store` cold pass (about 62 MB in 204 puts,
/// about 300 KB a record), so that the probe spends its time where the
/// campaign does: payload checksums and copies rather than headers.
const STORE_RECORDS: u64 = 204;
const STORE_PAYLOAD: usize = 300 * 1024;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let clock = Stopwatch::start();
    let r = f();
    (r, clock.elapsed_seconds())
}

/// Runs every probe, recording its metrics and output checks.
pub fn run(seed: u64, run_dir: &Path, report: &mut Report) -> Result<(), String> {
    archsim(seed, report)?;
    table(seed, report)?;
    geometry(report)?;
    fronts(report)?;
    sweep(report);
    serve_prefix(seed, report)?;
    store(seed, &run_dir.join("store-probe"), report)?;
    campaign_probe(seed, &run_dir.join("campaign-probe"), report)
}

/// Workload generation, L1 and two-level simulation on one fixed
/// buffer of references from the three standard suites.
fn archsim(seed: u64, report: &mut Report) -> Result<(), String> {
    let mut gen = Vec::with_capacity(REPEATS);
    let mut buf: Vec<Access> = Vec::new();
    for _ in 0..REPEATS {
        let (b, s) = timed(|| {
            let mut b = Vec::with_capacity(REFS_PER_SUITE * STANDARD_SUITES.len());
            for suite in STANDARD_SUITES {
                let mut w = suite.build(seed);
                b.extend((0..REFS_PER_SUITE).map(|_| w.next_access()));
            }
            b
        });
        gen.push(s);
        buf = b;
    }
    let refs = buf.len() as u64;
    let per_ref = |s: &[f64]| median(s) * 1e9 / refs as f64;
    report.put("archsim.gen_ns_per_ref", "ns", per_ref(&gen), refs, SOURCE);

    let l1p = CacheParams::new(16 * 1024, 64, 4).map_err(|e| e.to_string())?;
    let l2p = CacheParams::new(1024 * 1024, 64, 8).map_err(|e| e.to_string())?;
    let mut l1 = Vec::with_capacity(REPEATS);
    let mut hier = Vec::with_capacity(REPEATS);
    let mut counts = (0, 0, 0);
    for _ in 0..REPEATS {
        let (_, s) = timed(|| {
            let mut c = CacheSim::new(l1p, Replacement::Lru);
            black_box(c.run(buf.iter().copied()));
            black_box(c.stats())
        });
        l1.push(s);
        let (st, s) = timed(|| {
            let mut h = TwoLevel::new(l1p, l2p, Replacement::Lru);
            black_box(h.run(buf.iter().copied()));
            h.stats()
        });
        hier.push(s);
        counts = (st.l1.misses, st.l2.misses, st.l1_writebacks);
    }
    report.put("archsim.l1_ns_per_ref", "ns", per_ref(&l1), refs, SOURCE);
    report.put(
        "archsim.hier_ns_per_ref",
        "ns",
        per_ref(&hier),
        refs,
        SOURCE,
    );
    report.put("archsim.l1_misses", "count", counts.0 as f64, refs, SOURCE);
    report.put("archsim.l2_misses", "count", counts.1 as f64, refs, SOURCE);
    report.put(
        "archsim.l1_writebacks",
        "count",
        counts.2 as f64,
        refs,
        SOURCE,
    );
    report.check(
        counts.0 > 0 && counts.0 <= refs && counts.1 <= counts.0,
        || format!("simulator probe counts out of range: {counts:?} of {refs}"),
    );
    Ok(())
}

/// A one-pair, short miss-rate table (for workloads that build none).
fn table(seed: u64, report: &mut Report) -> Result<(), String> {
    let (warmup, measure) = (30_000u64, 60_000u64);
    let (t, s) = timed(|| {
        MissRateTable::try_build(
            &[16 * 1024],
            &[1024 * 1024],
            &STANDARD_SUITES,
            seed,
            warmup,
            measure,
        )
    });
    let t = t.map_err(|e| e.to_string())?;
    let refs = t.len() as u64 * STANDARD_SUITES.len() as u64 * (warmup + measure);
    report.put("archsim.table_s", "s", s, 1, SOURCE);
    report.put("archsim.table_refs", "count", refs as f64, 1, SOURCE);
    report.put(
        "archsim.table_ns_per_ref",
        "ns",
        s * 1e9 / refs as f64,
        refs,
        SOURCE,
    );
    Ok(())
}

/// Circuit construction and analysis at default knobs over the
/// standard L1/L2 sizes and the three cell technologies.
fn geometry(report: &mut Report) -> Result<(), String> {
    const ROUNDS: usize = 20;
    let node = TechnologyNode::bptm65();
    let mut configs = Vec::new();
    for kb in [4u64, 8, 16, 32, 64] {
        configs.push(CacheConfig::new(kb * 1024, 64, 4).map_err(|e| e.to_string())?);
    }
    for kb in [256u64, 512, 1024, 2048, 4096, 8192] {
        configs.push(CacheConfig::new(kb * 1024, 64, 8).map_err(|e| e.to_string())?);
    }
    let techs = [
        TechProfile::sram(),
        TechProfile::edram(),
        TechProfile::stt_mram(),
    ];
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let (_, s) = timed(|| {
            for &c in &configs {
                black_box(CacheCircuit::new(c, &node).fastest_access_time());
                for tech in &techs {
                    let circuit = CacheCircuit::with_technology(c, &node, tech.clone());
                    black_box(circuit.analyze(&ComponentKnobs::default()).access_time());
                }
            }
        });
        samples.push(s);
    }
    let per_round = (configs.len() * (1 + techs.len())) as f64;
    report.put(
        "geometry.circuit_us",
        "us",
        median(&samples) * 1e6 / per_round,
        (ROUNDS as f64 * per_round) as u64,
        SOURCE,
    );
    Ok(())
}

/// A campaign-shaped two-level spec (16 KB / 1 MB at 80 C) under `scheme`.
fn probe_spec(scheme: Scheme) -> Result<HierarchySpec, String> {
    let node = TechnologyNode::bptm65().at_temperature(Kelvin::from_celsius(80.0));
    let l1 = CacheCircuit::new(
        CacheConfig::new(16 * 1024, 64, 4).map_err(|e| e.to_string())?,
        &node,
    );
    let l2 = CacheCircuit::new(
        CacheConfig::new(1024 * 1024, 64, 8).map_err(|e| e.to_string())?,
        &node,
    );
    let w = HierarchySpec::try_amat_weights(&[0.05]).map_err(|e| e.to_string())?;
    Ok(HierarchySpec::new()
        .level("L1", l1, scheme, w[0], CostKind::LeakagePower)
        .level("L2", l2, scheme, w[1], CostKind::LeakagePower))
}

/// Pareto merge time per scheme on the paper grid, surfaces built
/// beforehand so only the merge is timed.
fn fronts(report: &mut Report) -> Result<(), String> {
    let mut total_s = 0.0;
    let mut total_points = 0u64;
    for (scheme, name) in [
        (Scheme::Uniform, "eval.front_ms.uniform"),
        (Scheme::Split, "eval.front_ms.split"),
        (Scheme::PerComponent, "eval.front_ms.per-component"),
    ] {
        let spec = probe_spec(scheme)?;
        let eval = Evaluator::new(KnobGrid::paper());
        eval.try_ensure_surfaces(&spec).map_err(|e| e.to_string())?;
        let (front, s) = timed(|| eval.try_front(&spec));
        let points = front.map_err(|e| e.to_string())?.len() as u64;
        report.check(points > 0, || format!("{name}: empty front"));
        report.put(name, "ms", s * 1e3, points, SOURCE);
        total_s += s;
        total_points += points;
    }
    report.put(
        "eval.front_ns_per_point",
        "ns",
        total_s * 1e9 / total_points.max(1) as f64,
        total_points,
        SOURCE,
    );
    Ok(())
}

/// Per-item cost of many small sweeps on the default pool: thread
/// start-up and hand-off with no work in the items.
fn sweep(report: &mut Report) {
    const SWEEPS: usize = 200;
    const ITEMS: u64 = 8;
    let items: Vec<u64> = (0..ITEMS).collect();
    let (_, s) = timed(|| {
        for _ in 0..SWEEPS {
            black_box(ParallelSweep::new().map(&items, |&x| black_box(x.wrapping_mul(3))));
        }
    });
    let n = SWEEPS as u64 * ITEMS;
    report.put(
        "sweep.item_overhead_us",
        "us",
        s * 1e6 / n as f64,
        n,
        SOURCE,
    );
}

/// The first queries of the serve mix, replayed at one and at two
/// clients on fresh primed evaluators: per-class latencies and the
/// oversubscription ratio. The feasible/infeasible counts must not
/// depend on the number of clients.
fn serve_prefix(seed: u64, report: &mut Report) -> Result<(), String> {
    let (mix, synth_s) = timed(|| QueryMix::synthesize(seed, PREFIX_QUERIES, &KnobGrid::coarse()));
    let mix = mix.map_err(|e| e.to_string())?;
    report.put(
        "loadgen.synth_ms",
        "ms",
        synth_s * 1e3,
        PREFIX_QUERIES as u64,
        SOURCE,
    );
    let mut cold_p50 = [0.0; 2];
    let mut outcomes = [(0, 0); 2];
    for (slot, clients) in [1usize, serve::CLIENTS].into_iter().enumerate() {
        let eval = serve::primed(&mix)?;
        let (answers, wall) = timed(|| serve::replay(&eval, &mix, &mix.queries, clients));
        let (feasible, infeasible, errors) = serve::counts(&answers);
        report.tally(answers.len() as u64, errors, || {
            format!("{errors} prefix queries returned Err")
        });
        outcomes[slot] = (feasible, infeasible);
        let cold = serve::latencies(&answers, QueryClass::Cold);
        cold_p50[slot] = median(&cold);
        if clients == serve::CLIENTS {
            serve::put_replay_metrics(report, &answers, wall, SOURCE);
            report.put(
                "sweep.oversub_ratio",
                "ratio",
                cold_p50[1] / cold_p50[0].max(f64::MIN_POSITIVE),
                cold.len() as u64,
                SOURCE,
            );
        }
    }
    report.check(outcomes[0] == outcomes[1], || {
        format!(
            "prefix feasible/infeasible counts differ between 1 and {} clients: {outcomes:?}",
            serve::CLIENTS
        )
    });
    Ok(())
}

/// Puts, one sync, reopens and gets of campaign-sized seeded records.
/// Each put and get is timed alone, so that making and comparing the
/// payloads stays out of the figures.
fn store(seed: u64, dir: &Path, report: &mut Report) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let key = |i: u64| {
        let mut h = KeyHasher::new();
        h.push_u64(seed);
        h.push_u64(i);
        h.finish()
    };
    let payload = |i: u64| -> Vec<u8> {
        let mut rng = crate::SplitMix::new(seed ^ i);
        let mut p = Vec::with_capacity(STORE_PAYLOAD);
        while p.len() < STORE_PAYLOAD {
            p.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        p.truncate(STORE_PAYLOAD);
        p
    };
    let store = Store::open(dir).map_err(|e| e.to_string())?;
    let mut put_s = 0.0;
    for i in 0..STORE_RECORDS {
        let p = payload(i);
        let (put, s) = timed(|| store.put(key(i), &p));
        put.map_err(|e| e.to_string())?;
        put_s += s;
    }
    let (sync, sync_s) = timed(|| store.sync());
    sync.map_err(|e| e.to_string())?;
    drop(store);
    let mut opens = Vec::with_capacity(REPEATS);
    let mut reopened = None;
    for _ in 0..REPEATS {
        drop(reopened.take());
        let (store, s) = timed(|| Store::open(dir));
        reopened = Some(store.map_err(|e| e.to_string())?);
        opens.push(s);
    }
    let Some(store) = reopened else {
        return Err("store probe: no reopen ran".into());
    };
    let (mut get_s, mut wrong) = (0.0, 0u64);
    for i in 0..STORE_RECORDS {
        let (got, s) = timed(|| store.get(key(i)));
        let got = got.map_err(|e| e.to_string())?;
        get_s += s;
        if got.as_deref() != Some(payload(i).as_slice()) {
            wrong += 1;
        }
    }
    report.tally(STORE_RECORDS, wrong, || {
        format!("{wrong} store records read back wrong")
    });
    drop(store);
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    let n = STORE_RECORDS as f64;
    report.put("store.put_us", "us", put_s * 1e6 / n, STORE_RECORDS, SOURCE);
    report.put("store.sync_ms", "ms", sync_s * 1e3, 1, SOURCE);
    report.put(
        "store.open_ms",
        "ms",
        median(&opens) * 1e3,
        REPEATS as u64,
        SOURCE,
    );
    report.put("store.get_us", "us", get_s * 1e6 / n, STORE_RECORDS, SOURCE);
    Ok(())
}

/// A small quick-mode campaign (1 x 1 x 3 schemes x 3 techs x 2
/// temperatures, coarse grid) cold and warm against one store, with the
/// program's registry read for cell latency and store counts.
fn campaign_probe(seed: u64, dir: &Path, report: &mut Report) -> Result<(), String> {
    let cfg = campaign::quick_config(seed);
    let t = Tracer::new(true);
    let p = campaign::passes(&cfg, dir, &t)?;
    campaign::check(&p, report);
    campaign::put_registry(report, &t, SOURCE);
    report.put("store.bytes", "B", p.store_bytes as f64, 1, SOURCE);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_specs_build_for_every_scheme() {
        for s in Scheme::ALL {
            assert!(probe_spec(s).is_ok());
        }
    }
}
