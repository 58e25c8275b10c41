//! `campaign-store`: a 108-cell campaign (2 L1 x 2 L2 x {uniform,
//! split, per-component} x {sram, edram, stt-mram} x 3 temperatures, on
//! the paper grid) run twice against one store. The cold pass runs
//! `Campaign::new` + `run` into an empty `Store` (writes); the warm pass
//! runs it fresh again over the same store (reads). The seed picks the
//! temperatures from fixed candidate sets; axis lengths and sizes are
//! fixed.
//!
//! It uses the evaluator differently from a query mix (a few large
//! Pareto merges instead of many small memo lookups) and puts store
//! writes beside store reads. Each warm pass opens the store the cold
//! pass wrote, so its time includes the open scan of the segment.

use crate::report::{median, Report};
use crate::trace::Tracer;
use crate::{Iteration, SplitMix, Workload, WARM_REPEATS};
use nm_cache_core::campaign::{Campaign, CampaignConfig, CampaignOutcome};
use nm_cache_core::eval::EvalStats;
use nm_cache_core::groups::Scheme;
use nm_device::TechProfile;
use nm_store::Store;
use nm_telemetry::Stopwatch;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The size axes are fixed (the campaign defaults): the cost and the
/// peak memory of a campaign move by 5-15 % with its sizes, more than
/// the benchmark's bounds allow between seeds. The seed picks each
/// temperature from a narrow group, so every seed runs the same amount
/// of work on different inputs.
const L1_SIZES: [u64; 2] = [16 * 1024, 32 * 1024];
const L2_SIZES: [u64; 2] = [256 * 1024, 1024 * 1024];
const TEMP_GROUPS: [[f64; 3]; 3] = [
    [38.0, 40.0, 42.0],
    [78.0, 80.0, 82.0],
    [108.0, 110.0, 112.0],
];

/// The full campaign's axes for `seed`: 2 L1 x 2 L2 x 3 schemes x 3
/// technologies x 3 temperatures = 108 cells on the paper grid.
pub fn config(seed: u64) -> CampaignConfig {
    let mut rng = SplitMix::new(seed);
    CampaignConfig {
        l1_sizes: L1_SIZES.to_vec(),
        l2_sizes: L2_SIZES.to_vec(),
        schemes: vec![Scheme::Uniform, Scheme::Split, Scheme::PerComponent],
        l2_techs: vec![
            TechProfile::sram(),
            TechProfile::edram(),
            TechProfile::stt_mram(),
        ],
        temperatures_c: TEMP_GROUPS.iter().map(|g| rng.pick(g)).collect(),
        quick: false,
        ..CampaignConfig::default()
    }
}

/// A small quick-mode campaign (1 x 1 x 3 schemes x 3 technologies x 2
/// temperatures, coarse grid and short simulations).
pub fn quick_config(seed: u64) -> CampaignConfig {
    let full = config(seed);
    CampaignConfig {
        l1_sizes: full.l1_sizes[..1].to_vec(),
        l2_sizes: full.l2_sizes[..1].to_vec(),
        temperatures_c: full.temperatures_c[..2].to_vec(),
        quick: true,
        ..full
    }
}

/// Set-up warm-up: a one-cell quick campaign without a store, so that
/// first-touch costs land in set-up rather than in the cold pass.
fn warm_up(cfg: &CampaignConfig, dir: &Path) -> Result<(), String> {
    let one = CampaignConfig {
        l1_sizes: cfg.l1_sizes[..1].to_vec(),
        l2_sizes: cfg.l2_sizes[..1].to_vec(),
        schemes: vec![Scheme::Uniform],
        l2_techs: vec![TechProfile::sram()],
        temperatures_c: cfg.temperatures_c[..1].to_vec(),
        quick: true,
        ..cfg.clone()
    };
    let outcome = Campaign::new(one, None)
        .run(&dir.join("warm-up.nmck"), true, None)
        .map_err(|e| e.to_string())?;
    if outcome.failed > 0 {
        return Err(format!("warm-up campaign failed: {:?}", outcome.failures()));
    }
    Ok(())
}

/// One cold + warm campaign over a fresh store in `dir`.
pub struct Passes {
    pub setup_s: f64,
    pub cold_s: f64,
    pub warm_s: f64,
    /// `Campaign::new` of the cold pass (miss-rate table build).
    pub cold_new_s: f64,
    /// `Store::open` of the segment the cold pass wrote, at the start of
    /// each warm pass (median).
    pub open_s: f64,
    pub store_bytes: u64,
    pub cold: CampaignOutcome,
    pub warm: CampaignOutcome,
    pub cold_stats: EvalStats,
    pub warm_stats: EvalStats,
}

/// Runs the cold pass into an empty store, then the warm passes, each
/// of which opens the store the cold pass wrote, as a later campaign
/// process would.
pub fn passes(cfg: &CampaignConfig, dir: &Path, t: &Tracer) -> Result<Passes, String> {
    let clock = Stopwatch::start();
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let store_dir = dir.join("store");
    let store = Arc::new(Store::open(&store_dir).map_err(|e| e.to_string())?);
    let checkpoint = dir.join("checkpoint.nmck");
    warm_up(cfg, dir)?;
    let setup_s = clock.elapsed_seconds();

    let clock = Stopwatch::start();
    let root = t.pass("pass.campaign_cold", 0);
    let new_clock = Stopwatch::start();
    let campaign = {
        let _s = t.span("campaign.new", root.id(), 0);
        Campaign::new(cfg.clone(), Some(store))
    };
    let cold_new_s = new_clock.elapsed_seconds();
    let cold = {
        let _s = t.span("campaign.run", root.id(), 0);
        campaign
            .run(&checkpoint, true, None)
            .map_err(|e| e.to_string())?
    };
    let cold_s = clock.elapsed_seconds();
    drop(root);
    let cold_stats = campaign.evaluator().stats();
    // Closes the cold pass's store: every warm pass opens it afresh.
    drop(campaign);
    let store_bytes = std::fs::metadata(store_dir.join(nm_store::SEGMENT_FILE))
        .map(|m| m.len())
        .unwrap_or(0);

    // Repeated warm passes read the same records; the medians are kept.
    let mut warm_times = Vec::with_capacity(WARM_REPEATS);
    let mut open_times = Vec::with_capacity(WARM_REPEATS);
    let mut last = None;
    for _ in 0..WARM_REPEATS {
        let clock = Stopwatch::start();
        let root = t.pass("pass.campaign_warm", 1);
        let store = {
            let _s = t.span("store.open", root.id(), 1);
            let open_clock = Stopwatch::start();
            let store = Store::open(&store_dir).map_err(|e| e.to_string())?;
            open_times.push(open_clock.elapsed_seconds());
            Arc::new(store)
        };
        let campaign = {
            let _s = t.span("campaign.new", root.id(), 1);
            Campaign::new(cfg.clone(), Some(store))
        };
        let warm = {
            let _s = t.span("campaign.run", root.id(), 1);
            campaign
                .run(&checkpoint, true, None)
                .map_err(|e| e.to_string())?
        };
        warm_times.push(clock.elapsed_seconds());
        drop(root);
        last = Some((warm, campaign.evaluator().stats()));
    }
    let Some((warm, warm_stats)) = last else {
        return Err("no warm pass ran".into());
    };
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(Passes {
        setup_s,
        cold_s,
        warm_s: median(&warm_times),
        cold_new_s,
        open_s: median(&open_times),
        store_bytes,
        cold,
        warm,
        cold_stats,
        warm_stats,
    })
}

/// Output checks: no failed cell, a complete warm table byte-identical
/// to the cold one, and a warm pass that read from the store.
pub fn check(p: &Passes, report: &mut Report) {
    for (name, o) in [("cold", &p.cold), ("warm", &p.warm)] {
        report.tally(o.total as u64, o.failed as u64, || {
            format!(
                "{name} pass: {} of {} cells failed: {:?}",
                o.failed,
                o.total,
                o.failures()
            )
        });
        report.check(o.complete, || format!("{name} pass left cells out"));
    }
    report.check(
        p.cold.to_table().to_string() == p.warm.to_table().to_string(),
        || "warm campaign table differs from the cold one".into(),
    );
    report.check(p.warm_stats.store_loaded > 0, || {
        "warm pass loaded nothing from the store".into()
    });
}

/// Campaign and store figures read from the registry the program kept
/// during the passes `t` traced: cell latency of the cold pass, counts
/// over the cold pass and the first warm pass.
pub fn put_registry(report: &mut Report, t: &Tracer, source: &'static str) {
    use nm_cache_core::names;
    let cold = t.snapshots("pass.campaign_cold");
    let warm = t.snapshots("pass.campaign_warm");
    let cells = cold
        .first()
        .and_then(|s| s.histograms.get(names::CAMPAIGN_CELL_LATENCY));
    let (n, p50, p90) = cells.map_or((0, 0.0, 0.0), |h| {
        (h.count, h.quantile(0.5), h.quantile(0.9))
    });
    report.put("campaign.cell_p50_ms", "ms", p50 * 1e3, n, source);
    report.put("campaign.cell_p90_ms", "ms", p90 * 1e3, n, source);
    let count = |name: &str| -> f64 {
        cold.iter()
            .take(1)
            .chain(warm.iter().take(1))
            .map(|s| s.counters.get(name).copied().unwrap_or(0))
            .sum::<u64>() as f64
    };
    report.put(
        "campaign.checkpoints",
        "count",
        count(names::CAMPAIGN_CHECKPOINTS),
        1,
        source,
    );
    report.put(
        "store.puts",
        "count",
        count(nm_store::names::STORE_PUTS),
        1,
        source,
    );
    report.put(
        "store.hits",
        "count",
        count(nm_store::names::STORE_HITS),
        1,
        source,
    );
}

pub struct CampaignStore {
    cfg: CampaignConfig,
    dir: PathBuf,
    table: Option<String>,
    last: Option<Passes>,
}

impl CampaignStore {
    pub fn new(seed: u64, run_dir: &Path) -> Self {
        CampaignStore {
            cfg: config(seed),
            dir: run_dir.join("campaign"),
            table: None,
            last: None,
        }
    }
}

impl Workload for CampaignStore {
    fn iterate(&mut self, t: &Tracer, report: &mut Report) -> Result<Iteration, String> {
        let p = passes(&self.cfg, &self.dir, t)?;
        check(&p, report);
        let table = p.cold.to_table().to_string();
        match &self.table {
            None => self.table = Some(table),
            Some(first) => report.check(*first == table, || {
                "campaign table differs between passes of one seed".into()
            }),
        }
        let it = Iteration {
            setup_s: p.setup_s,
            pass_s: p.cold_s,
            warm_s: p.warm_s,
        };
        self.last = Some(p);
        Ok(it)
    }

    fn layer_metrics(&self, t: &Tracer, report: &mut Report) {
        let Some(p) = &self.last else { return };
        put_registry(report, t, "pass");
        report.put("store.bytes", "B", p.store_bytes as f64, 1, "pass");
        report.put(
            "store.open_ms",
            "ms",
            p.open_s * 1e3,
            WARM_REPEATS as u64,
            "pass",
        );
        // Campaign::new is the table build plus evaluator construction.
        report.put("archsim.table_s", "s", p.cold_new_s, 1, "pass");
        // Full-length campaigns simulate 300k + 600k references per
        // (pair, suite) over the three standard suites.
        let refs = (self.cfg.l1_sizes.len() * self.cfg.l2_sizes.len()) as u64 * 3 * 900_000;
        report.put("archsim.table_refs", "count", refs as f64, 1, "pass");
        report.put(
            "archsim.table_ns_per_ref",
            "ns",
            p.cold_new_s * 1e9 / refs.max(1) as f64,
            refs,
            "pass",
        );
        let mut s = p.cold_stats;
        let w = p.warm_stats;
        s.surfaces_built += w.surfaces_built;
        s.surface_hits += w.surface_hits;
        s.fronts_built += w.fronts_built;
        s.front_hits += w.front_hits;
        s.fronts_incremental += w.fronts_incremental;
        s.store_loaded += w.store_loaded;
        crate::put_eval_stats(report, &s, "pass");
    }
}
