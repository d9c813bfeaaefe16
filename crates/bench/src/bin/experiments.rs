//! Regenerates every table and figure of the paper's evaluation (see DESIGN.md §3).
//!
//! ```sh
//! cargo run --release -p rnknn-bench --bin experiments -- all --scale 0.15
//! cargo run --release -p rnknn-bench --bin experiments -- fig10 fig11
//! ```
//!
//! Output is printed to stdout as fixed-width tables; `all` additionally writes the
//! collected tables to `experiments_results.md` in the current directory.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::time::Instant;

use rnknn::engine::{EngineConfig, Method};
use rnknn::ier::{ChOracle, DijkstraOracle, GtreeOracle, IerSearch, PhlOracle, TnrOracle};
use rnknn::ine::{IneSearch, IneVariant};
use rnknn_bench::{defaults, Table, Testbed, TestbedOptions, DEFAULT_QUERIES, DEFAULT_SCALE};
use rnknn_graph::generator::DatasetPreset;
use rnknn_graph::EdgeWeightKind;
use rnknn_gtree::{Gtree, GtreeConfig, GtreeSearch, LeafSearchMode, MatrixKind, OccurrenceList};
use rnknn_objects::{
    build_association_directory, build_occurrence_list, build_rtree, clustered,
    min_object_distance, uniform, ObjectRTree, PoiSets,
};
use rnknn_road::{RoadIndex, RoadKnn};
use rnknn_silc::{SilcConfig, SilcIndex};

/// Methods shown in the paper's main comparison figures.
const MAIN_METHODS: [Method; 6] =
    [Method::Ine, Method::Road, Method::Gtree, Method::IerGtree, Method::IerPhl, Method::DisBrw];

/// Methods available on the largest networks (DisBrw / PHL cannot always be built).
const LARGE_METHODS: [Method; 4] = [Method::Ine, Method::Road, Method::Gtree, Method::IerGtree];

struct Ctx {
    scale: f64,
    queries: usize,
    /// Index-artifact persistence (`--save`/`--load`) applied to every testbed.
    artifacts: rnknn_bench::artifacts::ArtifactIo,
    /// Cache of prepared testbeds, keyed by (preset, weight kind).
    testbeds: HashMap<(DatasetPreset, EdgeWeightKind), Testbed>,
    collected: Vec<Table>,
}

impl Ctx {
    fn new(scale: f64, queries: usize, artifacts: rnknn_bench::artifacts::ArtifactIo) -> Ctx {
        Ctx { scale, queries, artifacts, testbeds: HashMap::new(), collected: Vec::new() }
    }

    /// The paper's "NW" stands in for the median-size default network and "US" for the
    /// largest; SILC / PHL are only built where the paper could build them.
    fn testbed(&mut self, preset: DatasetPreset, kind: EdgeWeightKind) -> &mut Testbed {
        let scale = self.scale;
        let queries = self.queries;
        let artifacts = self.artifacts.clone();
        self.testbeds.entry((preset, kind)).or_insert_with(|| {
            // Mirror the paper's memory limits: SILC only for the smaller networks.
            let engine =
                EngineConfig { build_tnr: false, silc_max_vertices: 10_000, ..Default::default() };
            let options = TestbedOptions { scale, kind, num_queries: queries, engine, artifacts };
            eprintln!("[setup] building testbed {} ({kind:?}, scale {scale}) ...", preset.name());
            let start = Instant::now();
            let bed = Testbed::build(preset, &options);
            eprintln!(
                "[setup] {} ready: {} vertices, {:.1}s",
                preset.name(),
                bed.graph().num_vertices(),
                start.elapsed().as_secs_f64()
            );
            bed
        })
    }

    fn emit(&mut self, table: Table) {
        print!("{}", table.render());
        self.collected.push(table);
    }
}

// ---------------------------------------------------------------------------
// Generic sweeps
// ---------------------------------------------------------------------------

fn sweep_k(
    ctx: &mut Ctx,
    title: &str,
    preset: DatasetPreset,
    kind: EdgeWeightKind,
    methods: &[Method],
    density: f64,
) {
    let bed = ctx.testbed(preset, kind);
    bed.set_uniform_objects(density, 11);
    let mut table =
        Table::new(title, "k", methods.iter().map(|m| m.name().to_string()).collect(), "µs/query");
    for &k in &defaults::K_SWEEP {
        let bed = ctx.testbed(preset, kind);
        let values: Vec<f64> = methods.iter().map(|&m| bed.avg_query_micros(m, k)).collect();
        table.push(k.to_string(), values);
    }
    ctx.emit(table);
}

fn sweep_density(
    ctx: &mut Ctx,
    title: &str,
    preset: DatasetPreset,
    kind: EdgeWeightKind,
    methods: &[Method],
    k: usize,
) {
    let mut table = Table::new(
        title,
        "density",
        methods.iter().map(|m| m.name().to_string()).collect(),
        "µs/query",
    );
    for &d in &defaults::DENSITY_SWEEP {
        let bed = ctx.testbed(preset, kind);
        bed.set_uniform_objects(d, 13);
        let values: Vec<f64> = methods.iter().map(|&m| bed.avg_query_micros(m, k)).collect();
        table.push(format!("{d}"), values);
    }
    ctx.emit(table);
}

fn sweep_networks(
    ctx: &mut Ctx,
    title: &str,
    presets: &[DatasetPreset],
    kind: EdgeWeightKind,
    methods: &[Method],
) {
    let mut table = Table::new(
        title,
        "|V|",
        methods.iter().map(|m| m.name().to_string()).collect(),
        "µs/query",
    );
    for &p in presets {
        let bed = ctx.testbed(p, kind);
        bed.set_uniform_objects(defaults::DENSITY, 7);
        let n = bed.graph().num_vertices();
        let values: Vec<f64> =
            methods.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        table.push(format!("{} ({n})", p.name()), values);
    }
    ctx.emit(table);
}

// ---------------------------------------------------------------------------
// Individual experiments
// ---------------------------------------------------------------------------

fn table1(ctx: &mut Ctx) {
    let mut table = Table::new(
        "Table 1: road network datasets (scaled stand-ins for DIMACS)",
        "name",
        vec!["paper |V|".into(), "scaled |V|".into(), "scaled |E|".into()],
        "count",
    );
    for preset in DatasetPreset::all() {
        let net = preset.generate(ctx.scale);
        table.push(
            preset.name(),
            vec![preset.paper_vertices() as f64, net.num_vertices() as f64, net.num_edges() as f64],
        );
    }
    ctx.emit(table);
}

fn table2(ctx: &mut Ctx) {
    let mut table = Table::new(
        "Table 2: real-world object sets (POI-like substitutes, NW & US stand-ins)",
        "category",
        vec!["NW size".into(), "NW density".into(), "US size".into(), "US density".into()],
        "count / ratio",
    );
    let nw = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance).graph().clone();
    let us = ctx.testbed(DatasetPreset::US, EdgeWeightKind::Distance).graph().clone();
    let nw_sets = PoiSets::generate(&nw, 5);
    let us_sets = PoiSets::generate(&us, 6);
    for (cat, set) in us_sets.iter() {
        let nw_set = nw_sets.get(cat);
        table.push(
            cat.name(),
            vec![
                nw_set.len() as f64,
                nw_set.density(nw.num_vertices()),
                set.len() as f64,
                set.density(us.num_vertices()),
            ],
        );
    }
    ctx.emit(table);
}

/// Figure 4 / Figure 23: IER variants (Dijk, MGtree, PHL, TNR, CH) varying k and density
/// on the NW stand-in.
fn ier_variants(ctx: &mut Ctx, kind: EdgeWeightKind, figure: &str) {
    let queries = {
        let bed = ctx.testbed(DatasetPreset::NW, kind);
        bed.queries.clone()
    };
    let graph = ctx.testbed(DatasetPreset::NW, kind).graph().clone();
    let ch = rnknn::ch::ContractionHierarchy::build(&graph);
    let phl = rnknn::phl::HubLabels::build_with_ch(&graph, &ch);
    let tnr = rnknn::tnr::TransitNodeRouting::build_from_ch(
        &graph,
        ch.clone(),
        rnknn::tnr::TnrConfig::default(),
    );
    let gtree = Gtree::build(&graph);

    let series = vec!["Dijk".into(), "MGtree".into(), "PHL".into(), "TNR".into(), "CH".into()];
    let measure = |objects: &rnknn_objects::ObjectSet, rtree: &ObjectRTree, k: usize| -> Vec<f64> {
        let mut out = Vec::new();
        {
            let mut ier = IerSearch::new(&graph, DijkstraOracle::new(&graph));
            let start = Instant::now();
            for &q in &queries {
                std::hint::black_box(ier.knn(q, k, rtree, objects));
            }
            out.push(start.elapsed().as_micros() as f64 / queries.len() as f64);
        }
        {
            let mut ier = IerSearch::new(&graph, GtreeOracle::new(&gtree, &graph));
            let start = Instant::now();
            for &q in &queries {
                std::hint::black_box(ier.knn(q, k, rtree, objects));
            }
            out.push(start.elapsed().as_micros() as f64 / queries.len() as f64);
        }
        match &phl {
            Some(phl) => {
                let mut ier = IerSearch::new(&graph, PhlOracle::new(phl));
                let start = Instant::now();
                for &q in &queries {
                    std::hint::black_box(ier.knn(q, k, rtree, objects));
                }
                out.push(start.elapsed().as_micros() as f64 / queries.len() as f64);
            }
            None => out.push(f64::NAN),
        }
        {
            let mut ier = IerSearch::new(&graph, TnrOracle::new(&tnr));
            let start = Instant::now();
            for &q in &queries {
                std::hint::black_box(ier.knn(q, k, rtree, objects));
            }
            out.push(start.elapsed().as_micros() as f64 / queries.len() as f64);
        }
        {
            let mut ier = IerSearch::new(&graph, ChOracle::new(&ch));
            let start = Instant::now();
            for &q in &queries {
                std::hint::black_box(ier.knn(q, k, rtree, objects));
            }
            out.push(start.elapsed().as_micros() as f64 / queries.len() as f64);
        }
        out
    };

    let mut by_k = Table::new(
        &format!("{figure}(a): IER variants, varying k (NW, d=0.001, {kind:?})"),
        "k",
        series.clone(),
        "µs/query",
    );
    let objects = uniform(&graph, defaults::DENSITY, 3);
    let rtree = ObjectRTree::build(&graph, &objects);
    for &k in &defaults::K_SWEEP {
        by_k.push(k.to_string(), measure(&objects, &rtree, k));
    }
    ctx.emit(by_k);

    let mut by_d = Table::new(
        &format!("{figure}(b): IER variants, varying density (NW, k=10, {kind:?})"),
        "density",
        series,
        "µs/query",
    );
    for &d in &defaults::DENSITY_SWEEP {
        let objects = uniform(&graph, d, 5);
        let rtree = ObjectRTree::build(&graph, &objects);
        by_d.push(format!("{d}"), measure(&objects, &rtree, defaults::K));
    }
    ctx.emit(by_d);
}

/// Figure 6 + Table 3: distance-matrix implementation comparison.
fn distance_matrix_study(ctx: &mut Ctx) {
    let queries = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance).queries.clone();
    let graph = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance).graph().clone();
    let series: Vec<String> = MatrixKind::all().iter().map(|k| k.name().to_string()).collect();
    let trees: Vec<(MatrixKind, Gtree)> = MatrixKind::all()
        .iter()
        .map(|&mk| {
            let config = GtreeConfig {
                matrix_kind: mk,
                leaf_capacity: GtreeConfig::paper_leaf_capacity(graph.num_vertices()),
                ..Default::default()
            };
            (mk, Gtree::build_with_config(&graph, config))
        })
        .collect();

    // Times the production sweep (`GtreeSearch::new`, pooled store) over the
    // workload; returns µs/query and the matrix cells the searches read.
    let time_workload = |gtree: &Gtree, occ: &OccurrenceList, k: usize| -> (f64, u64) {
        let mut result = Vec::new();
        let mut cells = 0;
        let start = Instant::now();
        for &q in &queries {
            let mut search = GtreeSearch::new(gtree, &graph, q);
            search.knn_into(k, occ, LeafSearchMode::Improved, &mut result);
            std::hint::black_box(&result);
            cells += search.stats.matrix_cells;
        }
        (start.elapsed().as_micros() as f64 / queries.len() as f64, cells)
    };

    let objects = uniform(&graph, defaults::DENSITY, 9);
    let mut by_k = Table::new(
        "Figure 6(a): G-tree distance-matrix variants, varying k (NW, d=0.001)",
        "k",
        series.clone(),
        "µs/query",
    );
    for &k in &defaults::K_SWEEP {
        let values: Vec<f64> = trees
            .iter()
            .map(|(_, gtree)| {
                let occ = OccurrenceList::build(gtree, objects.vertices());
                time_workload(gtree, &occ, k).0
            })
            .collect();
        by_k.push(k.to_string(), values);
    }
    ctx.emit(by_k);

    let mut by_d = Table::new(
        "Figure 6(b): G-tree distance-matrix variants, varying density (NW, k=10)",
        "density",
        series,
        "µs/query",
    );
    for &d in &defaults::DENSITY_SWEEP {
        let objects = uniform(&graph, d, 31);
        let values: Vec<f64> = trees
            .iter()
            .map(|(_, gtree)| {
                let occ = OccurrenceList::build(gtree, objects.vertices());
                time_workload(gtree, &occ, defaults::K).0
            })
            .collect();
        by_d.push(format!("{d}"), values);
    }
    ctx.emit(by_d);

    // Table 3 analogue: software counters instead of hardware cache misses. Reads
    // are the searches' `matrix_cells`; the hash layouts count their probes in
    // `MatrixStats`, and the array layout probes exactly one cell per read.
    let mut profile = Table::new(
        "Table 3: distance-matrix profile over the query workload (software counters)",
        "layout",
        vec!["cell reads".into(), "physical probes".into(), "query µs".into()],
        "count / µs",
    );
    let objects = uniform(&graph, defaults::DENSITY, 9);
    for (mk, gtree) in &trees {
        for node in gtree.nodes() {
            node.matrix.stats().reset();
        }
        let occ = OccurrenceList::build(gtree, objects.vertices());
        let (micros, reads) = time_workload(gtree, &occ, defaults::K);
        let probes = match mk {
            MatrixKind::Array => reads,
            _ => gtree.nodes().iter().map(|node| node.matrix.stats().snapshot().1).sum(),
        };
        profile.push(mk.name(), vec![reads as f64, probes as f64, micros]);
    }
    ctx.emit(profile);
}

/// Figure 7: INE implementation ablation.
fn ine_ablation(ctx: &mut Ctx) {
    let queries = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance).queries.clone();
    let graph = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance).graph().clone();
    let series: Vec<String> = IneVariant::all().iter().map(|v| v.name().to_string()).collect();
    let searches: Vec<(IneVariant, IneSearch)> =
        IneVariant::all().iter().map(|&v| (v, IneSearch::with_variant(&graph, v))).collect();

    let time_workload = |search: &IneSearch, objects: &rnknn_objects::ObjectSet, k: usize| -> f64 {
        let start = Instant::now();
        for &q in &queries {
            std::hint::black_box(search.knn(q, k, objects));
        }
        start.elapsed().as_micros() as f64 / queries.len() as f64
    };

    let mut by_k = Table::new(
        "Figure 7(a): INE implementation ablation, varying k (NW, d=0.001)",
        "k",
        series.clone(),
        "µs/query",
    );
    let objects = uniform(&graph, defaults::DENSITY, 21);
    for &k in &defaults::K_SWEEP {
        by_k.push(
            k.to_string(),
            searches.iter().map(|(_, s)| time_workload(s, &objects, k)).collect(),
        );
    }
    ctx.emit(by_k);

    let mut by_d = Table::new(
        "Figure 7(b): INE implementation ablation, varying density (NW, k=10)",
        "density",
        series,
        "µs/query",
    );
    for &d in &defaults::DENSITY_SWEEP {
        let objects = uniform(&graph, d, 23);
        by_d.push(
            format!("{d}"),
            searches.iter().map(|(_, s)| time_workload(s, &objects, defaults::K)).collect(),
        );
    }
    ctx.emit(by_d);
}

/// Figure 8 (distance) / Figure 26 (time): road-network index size and build time vs |V|.
fn index_costs(ctx: &mut Ctx, kind: EdgeWeightKind, figure: &str) {
    let presets = [
        DatasetPreset::DE,
        DatasetPreset::VT,
        DatasetPreset::ME,
        DatasetPreset::CO,
        DatasetPreset::NW,
    ];
    let mut size = Table::new(
        &format!("{figure}(a): road-network index size vs |V| ({kind:?})"),
        "network",
        vec![
            "INE (graph)".into(),
            "Gtree".into(),
            "ROAD".into(),
            "PHL".into(),
            "DisBrw(SILC)".into(),
            "CH".into(),
        ],
        "MB",
    );
    let mut time = Table::new(
        &format!("{figure}(b): road-network index construction time vs |V| ({kind:?})"),
        "network",
        vec!["Gtree".into(), "ROAD".into(), "PHL".into(), "DisBrw(SILC)".into(), "CH".into()],
        "ms",
    );
    let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    for preset in presets {
        let net = preset.generate(ctx.scale);
        let graph = net.graph(kind);
        let n = graph.num_vertices();

        let start = Instant::now();
        let gtree = Gtree::build(&graph);
        let gtree_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let road = RoadIndex::build(&graph);
        let road_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let ch = rnknn::ch::ContractionHierarchy::build(&graph);
        let ch_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let phl = rnknn::phl::HubLabels::build_with_ch(&graph, &ch);
        let phl_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let silc =
            SilcIndex::try_build(&graph, &SilcConfig { max_vertices: 8_000, ..Default::default() });
        let silc_ms = start.elapsed().as_secs_f64() * 1e3;

        size.push(
            format!("{} ({n})", preset.name()),
            vec![
                mb(graph.memory_bytes()),
                mb(gtree.memory_bytes()),
                mb(road.memory_bytes()),
                phl.as_ref().map(|p| mb(p.memory_bytes())).unwrap_or(f64::NAN),
                silc.as_ref().map(|s| mb(s.memory_bytes())).unwrap_or(f64::NAN),
                mb(ch.memory_bytes()),
            ],
        );
        time.push(
            format!("{} ({n})", preset.name()),
            vec![
                gtree_ms,
                road_ms,
                if phl.is_some() { phl_ms } else { f64::NAN },
                if silc.is_some() { silc_ms } else { f64::NAN },
                ch_ms,
            ],
        );
    }
    ctx.emit(size);
    ctx.emit(time);
}

/// Figure 9: query time vs |V| plus the G-tree path cost / ROAD bypass counters.
fn network_size_study(ctx: &mut Ctx) {
    let presets = [
        DatasetPreset::DE,
        DatasetPreset::ME,
        DatasetPreset::NW,
        DatasetPreset::CA,
        DatasetPreset::US,
    ];
    sweep_networks(
        ctx,
        "Figure 9(a): query time vs |V| (d=0.001, k=10)",
        &presets,
        EdgeWeightKind::Distance,
        &MAIN_METHODS,
    );

    let mut stats_table = Table::new(
        "Figure 9(b): G-tree path cost and ROAD vertices bypassed vs |V|",
        "network",
        vec![
            "Gtree border comps".into(),
            "IER-Gt border comps".into(),
            "ROAD vert. bypassed".into(),
        ],
        "count/query",
    );
    for preset in presets {
        let queries = ctx.testbed(preset, EdgeWeightKind::Distance).queries.clone();
        let graph = ctx.testbed(preset, EdgeWeightKind::Distance).graph().clone();
        let gtree = Gtree::build(&graph);
        let road = RoadIndex::build(&graph);
        let objects = uniform(&graph, defaults::DENSITY, 7);
        let occ = OccurrenceList::build(&gtree, objects.vertices());
        let directory = rnknn_road::AssociationDirectory::build(
            &road,
            graph.num_vertices(),
            objects.vertices(),
        );
        let rtree = ObjectRTree::build(&graph, &objects);

        let mut gtree_comps = 0u64;
        let mut ier_comps = 0u64;
        let mut bypassed = 0usize;
        for &q in &queries {
            let mut search = GtreeSearch::new(&gtree, &graph, q);
            search.knn(defaults::K, &occ, LeafSearchMode::Improved);
            gtree_comps += search.stats.border_computations;

            let mut ier = IerSearch::new(&graph, GtreeOracle::new(&gtree, &graph));
            ier.knn(q, defaults::K, &rtree, &objects);
            ier_comps += ier.oracle().border_computations();

            let (_, stats) = RoadKnn::new(&graph, &road).knn_with_stats(q, defaults::K, &directory);
            bypassed += stats.vertices_bypassed;
        }
        let qn = queries.len() as f64;
        stats_table.push(
            format!("{} ({})", preset.name(), graph.num_vertices()),
            vec![gtree_comps as f64 / qn, ier_comps as f64 / qn, bypassed as f64 / qn],
        );
    }
    ctx.emit(stats_table);
}

/// Figure 12 / Figure 24(d): clustered object sets.
fn clustered_objects(ctx: &mut Ctx, kind: EdgeWeightKind, figure: &str) {
    let graph = ctx.testbed(DatasetPreset::NW, kind).graph().clone();
    let mut by_clusters = Table::new(
        &format!("{figure}(a): varying number of clusters (NW, k=10, {kind:?})"),
        "clusters",
        MAIN_METHODS.iter().map(|m| m.name().to_string()).collect(),
        "µs/query",
    );
    for &clusters in &[1usize, 10, 100, 1000] {
        let objects = clustered(&graph, clusters, 5, 3);
        let bed = ctx.testbed(DatasetPreset::NW, kind);
        bed.set_objects(objects);
        let values: Vec<f64> =
            MAIN_METHODS.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        by_clusters.push(clusters.to_string(), values);
    }
    ctx.emit(by_clusters);

    let cluster_count = ((graph.num_vertices() as f64 * defaults::DENSITY).ceil() as usize).max(2);
    let objects = clustered(&graph, cluster_count, 5, 9);
    {
        let bed = ctx.testbed(DatasetPreset::NW, kind);
        bed.set_objects(objects);
    }
    let mut by_k = Table::new(
        &format!("{figure}(b): clustered objects, varying k (NW, {kind:?})"),
        "k",
        MAIN_METHODS.iter().map(|m| m.name().to_string()).collect(),
        "µs/query",
    );
    for &k in &defaults::K_SWEEP {
        let bed = ctx.testbed(DatasetPreset::NW, kind);
        let values: Vec<f64> = MAIN_METHODS.iter().map(|&m| bed.avg_query_micros(m, k)).collect();
        by_k.push(k.to_string(), values);
    }
    ctx.emit(by_k);
}

/// Figure 13 / Figure 25: query time per real-world (POI-like) object set.
fn poi_study(ctx: &mut Ctx, kind: EdgeWeightKind, figure: &str) {
    for (preset, methods) in
        [(DatasetPreset::NW, &MAIN_METHODS[..]), (DatasetPreset::US, &LARGE_METHODS[..])]
    {
        let graph = ctx.testbed(preset, kind).graph().clone();
        let pois = PoiSets::generate(&graph, 17);
        let mut table = Table::new(
            &format!("{figure}: POI-like object sets on {} ({kind:?}, k=10)", preset.name()),
            "category",
            methods.iter().map(|m| m.name().to_string()).collect(),
            "µs/query",
        );
        for (cat, set) in pois.iter() {
            let bed = ctx.testbed(preset, kind);
            bed.set_objects(set.clone());
            let values: Vec<f64> =
                methods.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
            table.push(cat.name(), values);
        }
        ctx.emit(table);
    }
}

/// Figure 14 / Figure 17(d) / Figure 24(c): minimum object distance sets.
fn min_distance_study(ctx: &mut Ctx, preset: DatasetPreset, kind: EdgeWeightKind, figure: &str) {
    let methods: &[Method] =
        if preset == DatasetPreset::US { &LARGE_METHODS } else { &MAIN_METHODS };
    let graph = ctx.testbed(preset, kind).graph().clone();
    let m = 6;
    let bundle = min_object_distance(&graph, defaults::DENSITY, m, DEFAULT_QUERIES, 3);
    let mut table = Table::new(
        &format!("{figure}: varying minimum object distance ({}, {kind:?}, k=10)", preset.name()),
        "set",
        methods.iter().map(|m| m.name().to_string()).collect(),
        "µs/query",
    );
    let original_queries = ctx.testbed(preset, kind).queries.clone();
    for (i, set) in bundle.sets.iter().enumerate() {
        if set.is_empty() {
            continue;
        }
        let bed = ctx.testbed(preset, kind);
        bed.queries = bundle.query_vertices.clone();
        bed.set_objects(set.clone());
        let values: Vec<f64> =
            methods.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        table.push(format!("R{}", i + 1), values);
    }
    ctx.testbed(preset, kind).queries = original_queries;
    ctx.emit(table);
}

/// Figure 15 / Figure 27: varying k on the hospital-like and fast-food-like POI sets.
fn poi_k_study(ctx: &mut Ctx, kind: EdgeWeightKind, figure: &str) {
    let graph = ctx.testbed(DatasetPreset::NW, kind).graph().clone();
    let pois = PoiSets::generate(&graph, 29);
    for category in [rnknn_objects::PoiCategory::Hospitals, rnknn_objects::PoiCategory::FastFood] {
        let set = pois.get(category).clone();
        {
            let bed = ctx.testbed(DatasetPreset::NW, kind);
            bed.set_objects(set);
        }
        let mut table = Table::new(
            &format!("{figure}: varying k for {} (NW, {kind:?})", category.name()),
            "k",
            MAIN_METHODS.iter().map(|m| m.name().to_string()).collect(),
            "µs/query",
        );
        for &k in &defaults::K_SWEEP {
            let bed = ctx.testbed(DatasetPreset::NW, kind);
            let values: Vec<f64> =
                MAIN_METHODS.iter().map(|&m| bed.avg_query_micros(m, k)).collect();
            table.push(k.to_string(), values);
        }
        ctx.emit(table);
    }
}

/// Figure 16: the original G-tree study's settings (d=0.01, CO network).
fn original_settings(ctx: &mut Ctx) {
    sweep_k(
        ctx,
        "Figure 16(a): original settings, varying k (CO, d=0.01)",
        DatasetPreset::CO,
        EdgeWeightKind::Distance,
        &MAIN_METHODS,
        0.01,
    );
    let presets = [DatasetPreset::DE, DatasetPreset::ME, DatasetPreset::NW, DatasetPreset::CA];
    let mut table = Table::new(
        "Figure 16(b): original settings, varying |V| (d=0.01, k=10)",
        "|V|",
        MAIN_METHODS.iter().map(|m| m.name().to_string()).collect(),
        "µs/query",
    );
    for &p in &presets {
        let bed = ctx.testbed(p, EdgeWeightKind::Distance);
        bed.set_uniform_objects(0.01, 7);
        let n = bed.graph().num_vertices();
        let values: Vec<f64> =
            MAIN_METHODS.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        table.push(format!("{} ({n})", p.name()), values);
    }
    ctx.emit(table);
}

/// Figure 18: object-index size and construction time vs density.
fn object_index_study(ctx: &mut Ctx) {
    let graph = ctx.testbed(DatasetPreset::US, EdgeWeightKind::Distance).graph().clone();
    let gtree = Gtree::build(&graph);
    let road = RoadIndex::build(&graph);
    let mut size = Table::new(
        "Figure 18(a): object index size vs density (US)",
        "density",
        vec![
            "objects (INE)".into(),
            "G-tree OccList".into(),
            "ROAD AssocDir".into(),
            "IER/DB R-tree".into(),
        ],
        "KB",
    );
    let mut time = Table::new(
        "Figure 18(b): object index construction time vs density (US)",
        "density",
        vec!["G-tree OccList".into(), "ROAD AssocDir".into(), "IER/DB R-tree".into()],
        "µs",
    );
    let kb = |bytes: usize| bytes as f64 / 1024.0;
    for &d in &defaults::DENSITY_SWEEP {
        let objects = uniform(&graph, d, 41);
        let (_, rtree_cost) = build_rtree(&graph, &objects);
        let (_, occ_cost) = build_occurrence_list(&gtree, &objects);
        let (_, ad_cost) = build_association_directory(&graph, &road, &objects);
        size.push(
            format!("{d}"),
            vec![
                kb(objects.memory_bytes()),
                kb(occ_cost.bytes),
                kb(ad_cost.bytes),
                kb(rtree_cost.bytes),
            ],
        );
        time.push(
            format!("{d}"),
            vec![
                occ_cost.build_micros as f64,
                ad_cost.build_micros as f64,
                rtree_cost.build_micros as f64,
            ],
        );
    }
    ctx.emit(size);
    ctx.emit(time);
}

/// Figure 19: DisBrw (object hierarchy) vs DB-ENN.
fn disbrw_variants(ctx: &mut Ctx) {
    if !ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance).engine.supports(Method::DisBrw) {
        eprintln!("[fig19] SILC unavailable at this scale; skipping");
        return;
    }
    let mut by_k = Table::new(
        "Figure 19(a): DisBrw vs DB-ENN, varying k (NW, d=0.001)",
        "k",
        vec!["DisBrw".into(), "DB-ENN".into()],
        "µs/query",
    );
    ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance)
        .set_uniform_objects(defaults::DENSITY, 3);
    for &k in &defaults::K_SWEEP {
        let bed = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance);
        let oh = bed.avg_query_micros(Method::DisBrwObjectHierarchy, k);
        let enn = bed.avg_query_micros(Method::DisBrw, k);
        by_k.push(k.to_string(), vec![oh, enn]);
    }
    ctx.emit(by_k);

    let mut by_d = Table::new(
        "Figure 19(b): DisBrw vs DB-ENN, varying density (NW, k=10)",
        "density",
        vec!["DisBrw".into(), "DB-ENN".into()],
        "µs/query",
    );
    for &d in &defaults::DENSITY_SWEEP {
        let bed = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance);
        bed.set_uniform_objects(d, 5);
        let oh = bed.avg_query_micros(Method::DisBrwObjectHierarchy, defaults::K);
        let enn = bed.avg_query_micros(Method::DisBrw, defaults::K);
        by_d.push(format!("{d}"), vec![oh, enn]);
    }
    ctx.emit(by_d);
}

/// Figures 20/21: the degree-2 chain optimisation for DisBrw refinement.
fn chain_optimisation(ctx: &mut Ctx) {
    let queries = ctx.testbed(DatasetPreset::DE, EdgeWeightKind::Distance).queries.clone();
    let graph = ctx.testbed(DatasetPreset::DE, EdgeWeightKind::Distance).graph().clone();
    let silc = match SilcIndex::try_build(&graph, &SilcConfig::default()) {
        Some(s) => s,
        None => {
            eprintln!("[fig20] SILC unavailable; skipping");
            return;
        }
    };
    let chains = rnknn_graph::ChainIndex::build(&graph);
    let objects = uniform(&graph, defaults::DENSITY, 3);
    let rtree = ObjectRTree::build(&graph, &objects);
    let mut table = Table::new(
        "Figure 20/21: degree-2 chain optimisation for DisBrw (DE-like network)",
        "k",
        vec!["DisBrw".into(), "OptDisBrw".into(), "lookups saved %".into()],
        "µs/query (and %)",
    );
    for &k in &defaults::K_SWEEP {
        let plain = rnknn::disbrw::DisBrwSearch::new(&graph, &silc, None);
        let start = Instant::now();
        for &q in &queries {
            std::hint::black_box(plain.knn(q, k, &rtree, &objects));
        }
        let plain_micros = start.elapsed().as_micros() as f64 / queries.len() as f64;
        silc.stats.reset();
        let opt = rnknn::disbrw::DisBrwSearch::new(&graph, &silc, Some(&chains));
        let start = Instant::now();
        for &q in &queries {
            std::hint::black_box(opt.knn(q, k, &rtree, &objects));
        }
        let opt_micros = start.elapsed().as_micros() as f64 / queries.len() as f64;
        let (lookups, skips) = silc.stats.snapshot();
        let saved = 100.0 * skips as f64 / (lookups + skips).max(1) as f64;
        table.push(k.to_string(), vec![plain_micros, opt_micros, saved]);
    }
    ctx.emit(table);
}

/// Figure 22: improved vs original G-tree leaf search.
fn leaf_search_study(ctx: &mut Ctx) {
    for preset in [DatasetPreset::NW, DatasetPreset::US] {
        let queries = ctx.testbed(preset, EdgeWeightKind::Distance).queries.clone();
        let graph = ctx.testbed(preset, EdgeWeightKind::Distance).graph().clone();
        let gtree = Gtree::build(&graph);
        let mut table = Table::new(
            &format!(
                "Figure 22: G-tree leaf search improvement, varying density ({})",
                preset.name()
            ),
            "density",
            vec![
                "k=1 before".into(),
                "k=1 after".into(),
                "k=10 before".into(),
                "k=10 after".into(),
            ],
            "µs/query",
        );
        for &d in &defaults::DENSITY_SWEEP {
            let objects = uniform(&graph, d, 13);
            let occ = OccurrenceList::build(&gtree, objects.vertices());
            let mut values = Vec::new();
            for k in [1usize, 10] {
                for mode in [LeafSearchMode::Original, LeafSearchMode::Improved] {
                    let start = Instant::now();
                    for &q in &queries {
                        std::hint::black_box(
                            GtreeSearch::new(&gtree, &graph, q).knn(k, &occ, mode),
                        );
                    }
                    values.push(start.elapsed().as_micros() as f64 / queries.len() as f64);
                }
            }
            table.push(format!("{d}"), values);
        }
        ctx.emit(table);
    }
}

/// Table 5: ranking of the methods under the paper's criteria, derived from measured
/// query times on the default workload.
fn ranking(ctx: &mut Ctx) {
    let methods = MAIN_METHODS;
    let mut table = Table::new(
        "Table 5 (derived): rank by average query time under different settings (1 = fastest)",
        "criterion",
        methods.iter().map(|m| m.name().to_string()).collect(),
        "rank",
    );
    fn add_ranked(label: &str, times: Vec<f64>, table: &mut Table) {
        let mut order: Vec<usize> = (0..times.len()).collect();
        order
            .sort_by(|&a, &b| times[a].partial_cmp(&times[b]).unwrap_or(std::cmp::Ordering::Equal));
        let mut ranks = vec![f64::NAN; times.len()];
        let mut rank = 1.0;
        for &i in &order {
            if times[i].is_nan() {
                continue;
            }
            ranks[i] = rank;
            rank += 1.0;
        }
        table.push(label, ranks);
    }
    {
        let bed = ctx.testbed(DatasetPreset::NW, EdgeWeightKind::Distance);
        bed.set_uniform_objects(defaults::DENSITY, 3);
        let defaults_times: Vec<f64> =
            methods.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        add_ranked("default settings", defaults_times, &mut table);
        let small_k: Vec<f64> = methods.iter().map(|&m| bed.avg_query_micros(m, 1)).collect();
        add_ranked("small k", small_k, &mut table);
        let large_k: Vec<f64> = methods.iter().map(|&m| bed.avg_query_micros(m, 50)).collect();
        add_ranked("large k", large_k, &mut table);
        bed.set_uniform_objects(0.0001, 9);
        let low: Vec<f64> = methods.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        add_ranked("low density", low, &mut table);
        bed.set_uniform_objects(0.1, 9);
        let high: Vec<f64> =
            methods.iter().map(|&m| bed.avg_query_micros(m, defaults::K)).collect();
        add_ranked("high density", high, &mut table);
    }
    ctx.emit(table);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

fn run(ctx: &mut Ctx, name: &str) {
    match name {
        "table1" => table1(ctx),
        "table2" => table2(ctx),
        "fig4" => ier_variants(ctx, EdgeWeightKind::Distance, "Figure 4"),
        "fig6" | "table3" => distance_matrix_study(ctx),
        "fig7" => ine_ablation(ctx),
        "fig8" => index_costs(ctx, EdgeWeightKind::Distance, "Figure 8"),
        "fig9" => network_size_study(ctx),
        "fig10" => {
            sweep_k(
                ctx,
                "Figure 10(a): varying k (NW, d=0.001)",
                DatasetPreset::NW,
                EdgeWeightKind::Distance,
                &MAIN_METHODS,
                defaults::DENSITY,
            );
            sweep_k(
                ctx,
                "Figure 10(b): varying k (US, d=0.001)",
                DatasetPreset::US,
                EdgeWeightKind::Distance,
                &LARGE_METHODS,
                defaults::DENSITY,
            );
        }
        "fig11" => {
            sweep_density(
                ctx,
                "Figure 11(a): varying density (NW, k=10)",
                DatasetPreset::NW,
                EdgeWeightKind::Distance,
                &MAIN_METHODS,
                defaults::K,
            );
            sweep_density(
                ctx,
                "Figure 11(b): varying density (US, k=10)",
                DatasetPreset::US,
                EdgeWeightKind::Distance,
                &LARGE_METHODS,
                defaults::K,
            );
        }
        "fig12" => clustered_objects(ctx, EdgeWeightKind::Distance, "Figure 12"),
        "fig13" => poi_study(ctx, EdgeWeightKind::Distance, "Figure 13"),
        "fig14" => {
            min_distance_study(ctx, DatasetPreset::NW, EdgeWeightKind::Distance, "Figure 14(a)");
            min_distance_study(ctx, DatasetPreset::US, EdgeWeightKind::Distance, "Figure 14(b)");
        }
        "fig15" => poi_k_study(ctx, EdgeWeightKind::Distance, "Figure 15"),
        "fig16" => original_settings(ctx),
        "fig17" => {
            sweep_k(
                ctx,
                "Figure 17(a): travel time, varying k (US)",
                DatasetPreset::US,
                EdgeWeightKind::Time,
                &LARGE_METHODS,
                defaults::DENSITY,
            );
            sweep_density(
                ctx,
                "Figure 17(b): travel time, varying density (US)",
                DatasetPreset::US,
                EdgeWeightKind::Time,
                &LARGE_METHODS,
                defaults::K,
            );
            sweep_networks(
                ctx,
                "Figure 17(c): travel time, varying |V|",
                &[DatasetPreset::DE, DatasetPreset::ME, DatasetPreset::NW, DatasetPreset::CA],
                EdgeWeightKind::Time,
                &LARGE_METHODS,
            );
            min_distance_study(ctx, DatasetPreset::US, EdgeWeightKind::Time, "Figure 17(d)");
        }
        "fig18" => object_index_study(ctx),
        "fig19" => disbrw_variants(ctx),
        "fig20" | "fig21" => chain_optimisation(ctx),
        "fig22" => leaf_search_study(ctx),
        "fig23" => ier_variants(ctx, EdgeWeightKind::Time, "Figure 23"),
        "fig24" => {
            sweep_k(
                ctx,
                "Figure 24(a): travel time, varying k (NW)",
                DatasetPreset::NW,
                EdgeWeightKind::Time,
                &MAIN_METHODS,
                defaults::DENSITY,
            );
            sweep_density(
                ctx,
                "Figure 24(b): travel time, varying density (NW)",
                DatasetPreset::NW,
                EdgeWeightKind::Time,
                &MAIN_METHODS,
                defaults::K,
            );
            min_distance_study(ctx, DatasetPreset::NW, EdgeWeightKind::Time, "Figure 24(c)");
            clustered_objects(ctx, EdgeWeightKind::Time, "Figure 24(d)");
        }
        "fig25" => poi_study(ctx, EdgeWeightKind::Time, "Figure 25"),
        "fig26" => index_costs(ctx, EdgeWeightKind::Time, "Figure 26"),
        "fig27" => poi_k_study(ctx, EdgeWeightKind::Time, "Figure 27"),
        "table5" => ranking(ctx),
        other => eprintln!("unknown experiment '{other}' (see DESIGN.md §3 for the list)"),
    }
}

const ALL: &[&str] = &[
    "table1", "table2", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig22", "fig23", "fig24",
    "fig25", "fig26", "fig27", "table5",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = DEFAULT_SCALE;
    let mut queries = DEFAULT_QUERIES;
    let mut io = rnknn_bench::artifacts::ArtifactIo::none();
    let mut selected: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SCALE);
                i += 1;
            }
            "--queries" => {
                queries = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_QUERIES);
                i += 1;
            }
            "--save" => {
                io.save_dir = args.get(i + 1).cloned();
                i += 1;
            }
            "--load" => {
                io.load_dir = args.get(i + 1).cloned();
                i += 1;
            }
            other => selected.push(other.to_string()),
        }
        i += 1;
    }
    if selected.is_empty() {
        eprintln!(
            "usage: experiments [--scale S] [--queries N] [--save DIR] [--load DIR] <all | table1 | fig4 | ...>"
        );
        eprintln!("experiments: {}", ALL.join(" "));
        return;
    }
    let run_all = selected.iter().any(|s| s == "all");
    let list: Vec<&str> =
        if run_all { ALL.to_vec() } else { selected.iter().map(|s| s.as_str()).collect() };

    let mut ctx = Ctx::new(scale, queries, io);
    let start = Instant::now();
    for name in &list {
        eprintln!("=== running {name} ===");
        run(&mut ctx, name);
    }
    eprintln!("total experiment time: {:.1}s", start.elapsed().as_secs_f64());

    if run_all {
        let mut doc = String::from("# Experiment results (generated by `experiments all`)\n\n");
        doc.push_str(&format!("Scale factor {scale}, {queries} queries per measurement.\n\n```\n"));
        for table in &ctx.collected {
            doc.push_str(&table.render());
        }
        doc.push_str("```\n");
        if let Err(e) = std::fs::write("experiments_results.md", doc) {
            eprintln!("could not write experiments_results.md: {e}");
        } else {
            eprintln!("wrote experiments_results.md");
        }
    }
}
