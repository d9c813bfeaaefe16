//! Figures 8 / 26: road-network index construction.
//!
//! Besides the small cross-index comparison, this bench runs the CH and G-tree
//! construction scaling experiments (the 20k/100k/250k smoke tier; the
//! `ch_build_bench` / `gtree_build_bench` binaries extend the same trajectory to
//! 500k) and writes the measured trajectories to `BENCH_ch_build.json` /
//! `BENCH_gtree_build.json` via [`rnknn_bench::ch_build`] /
//! [`rnknn_bench::gtree_build`] — CI runs this bench as a smoke test so both
//! build-time trends stay current.

use criterion::{criterion_group, criterion_main, Criterion};
use rnknn::ch::{ChConfig, ContractionHierarchy};
use rnknn_bench::{ch_build, gtree_build, knn_query};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::EdgeWeightKind;
use rnknn_gtree::Gtree;
use rnknn_road::RoadIndex;
use std::time::Duration;

fn bench_construction(c: &mut Criterion) {
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(2_000, 13)).graph(EdgeWeightKind::Distance);
    let mut group = c.benchmark_group("fig8_construction");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    group.bench_function("gtree", |b| b.iter(|| Gtree::build(&graph).num_nodes()));
    group.bench_function("road", |b| b.iter(|| RoadIndex::build(&graph).num_rnets()));
    group.bench_function("ch", |b| b.iter(|| ContractionHierarchy::build(&graph).num_shortcuts()));
    group.finish();
}

fn bench_ch_scaling(c: &mut Criterion) {
    // Past-the-dense-core scaling. The 20k/100k/250k points come from
    // run_and_track() below (which also verifies exactness and persists
    // BENCH_ch_build.json), so the criterion group only times the 100k point as a
    // stable series — one build is the measurement, not a sample mean.
    let mut group = c.benchmark_group("fig8_ch_scaling");
    group.sample_size(1).measurement_time(Duration::ZERO).warm_up_time(Duration::ZERO);
    let size = 100_000usize;
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(size, 42)).graph(EdgeWeightKind::Distance);
    group.bench_function(format!("ch_{size}"), |b| {
        b.iter(|| {
            ContractionHierarchy::build_with_config(&graph, &ChConfig::default()).num_shortcuts()
        })
    });
    group.finish();

    // Persist the 20k/100k/250k smoke trajectory (with exactness verification).
    ch_build::run_and_track();
}

fn bench_gtree_scaling(c: &mut Criterion) {
    // Figure 9-style construction scaling for the paper's primary index. The
    // 20k/100k/250k points come from run_and_track() below (which also verifies kNN
    // agreement against Dijkstra and persists BENCH_gtree_build.json), so the
    // criterion group only times the 100k point as a stable series — one build is
    // the measurement, not a sample mean.
    let mut group = c.benchmark_group("fig9_gtree_scaling");
    group.sample_size(1).measurement_time(Duration::ZERO).warm_up_time(Duration::ZERO);
    let size = 100_000usize;
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(size, 42)).graph(EdgeWeightKind::Distance);
    group.bench_function(format!("gtree_{size}"), |b| b.iter(|| Gtree::build(&graph).num_nodes()));
    group.finish();

    // Persist the 20k/100k/250k smoke trajectory (with kNN verification).
    gtree_build::run_and_track();
}

fn bench_knn_query_scaling(_c: &mut Criterion) {
    // Query-side trajectory: persist the 23k/116k smoke tier of
    // BENCH_knn_query.json (pooled per-method p50 + q/s, Dijkstra-verified; the
    // `knn_query_bench` binary extends the same trajectory to 290k/580k).
    knn_query::run_and_track();
}

criterion_group!(
    benches,
    bench_construction,
    bench_ch_scaling,
    bench_gtree_scaling,
    bench_knn_query_scaling
);
criterion_main!(benches);
