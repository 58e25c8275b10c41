//! Micro-benchmarks of the computational kernels (no paper artefact —
//! these document the library's performance envelope).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nm_archsim::cache::{CacheParams, CacheSim, Replacement};
use nm_archsim::workload::{SpecLoops, Workload};
use nm_archsim::Access;
use nm_cache_core::groups::{cache_groups, CostKind, Scheme};
use nm_cache_core::single::SingleCacheStudy;
use nm_device::{KnobGrid, KnobPoint, TechnologyNode};
use nm_geometry::{CacheCircuit, CacheConfig, ComponentKnobs};
use nm_opt::merge::try_system_front;
use std::hint::black_box;

fn device_kernels(c: &mut Criterion) {
    let tech = TechnologyNode::bptm65();
    let circuit = CacheCircuit::new(CacheConfig::new(16 * 1024, 64, 4).expect("valid"), &tech);
    let knobs = ComponentKnobs::uniform(KnobPoint::nominal());

    c.bench_function("micro/cache_analyze_16kb", |b| {
        b.iter(|| black_box(circuit.analyze(black_box(&knobs))))
    });
}

fn simulator_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/simulator");
    let n: u64 = 100_000;
    group.throughput(Throughput::Elements(n));
    for (name, ways) in [("direct-mapped", 1u64), ("4-way", 4), ("16-way", 16)] {
        group.bench_with_input(BenchmarkId::new("lru_accesses", name), &ways, |b, &ways| {
            b.iter(|| {
                let mut sim = CacheSim::new(
                    CacheParams::new(32 * 1024, 64, ways).expect("valid"),
                    Replacement::Lru,
                );
                let mut w = SpecLoops::default_suite(1);
                for _ in 0..n {
                    sim.access(w.next_access());
                }
                black_box(sim.stats())
            })
        });
    }
    group.finish();
}

fn workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/workloads");
    let n: u64 = 100_000;
    group.throughput(Throughput::Elements(n));
    group.bench_function("spec2000_like", |b| {
        b.iter(|| {
            let mut w = SpecLoops::default_suite(1);
            let mut acc = 0u64;
            for _ in 0..n {
                acc ^= w.next_access().addr;
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn solver_kernels(c: &mut Criterion) {
    let study = SingleCacheStudy::paper_16kb().expect("valid");
    let groups = cache_groups(
        study.circuit(),
        Scheme::PerComponent,
        study.grid(),
        1.0,
        CostKind::LeakagePower,
    );
    c.bench_function("micro/merge_4_groups_279_candidates", |b| {
        b.iter(|| black_box(try_system_front(black_box(&groups))))
    });

    let grid = KnobGrid::paper();
    c.bench_function("micro/group_build_one_component", |b| {
        b.iter(|| {
            black_box(nm_cache_core::groups::component_group(
                study.circuit(),
                nm_geometry::ComponentId::MemoryArray,
                &grid,
                1.0,
                CostKind::LeakagePower,
            ))
        })
    });

    c.bench_function("micro/sim_access_single", |b| {
        let mut sim = CacheSim::new(
            CacheParams::new(32 * 1024, 64, 4).expect("valid"),
            Replacement::Lru,
        );
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e3779b97f4a7c15);
            black_box(sim.access(Access::read(i % (1 << 22))))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = device_kernels, simulator_throughput, workload_generation, solver_kernels
}
criterion_main!(benches);
