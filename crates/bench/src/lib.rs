//! Experiment harness shared by the `experiments` binary and the Criterion benches.
//!
//! The harness mirrors the paper's experimental setup (Section 7.1): synthetic stand-ins
//! for the DIMACS road networks ([`rnknn_graph::DatasetPreset`]), uniform / clustered /
//! minimum-distance / POI-like object sets, query workloads averaged over many random
//! query vertices, and per-method timing. Every table and figure of the paper maps to
//! one experiment in the `experiments` binary (see DESIGN.md §3).

#![forbid(unsafe_code)]

use std::time::Instant;

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::QueryStats;
use rnknn_graph::generator::{DatasetPreset, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, Graph, NodeId};
use rnknn_objects::{uniform, ObjectSet};

/// Default scale factor applied to the dataset presets so the full experiment suite
/// runs on a laptop. Raise it (e.g. `--scale 1.0`) for larger runs.
pub const DEFAULT_SCALE: f64 = 0.15;

/// Default number of query vertices per measurement (the paper averages over 10,000;
/// the harness default keeps full sweeps fast while remaining stable).
pub const DEFAULT_QUERIES: usize = 40;

/// A prepared testbed: road network + engine + query workload.
pub struct Testbed {
    /// The preset this testbed was generated from.
    pub preset: DatasetPreset,
    /// The engine holding the road network and its indexes.
    pub engine: Engine,
    /// Query vertices used for every measurement.
    pub queries: Vec<NodeId>,
}

/// Options controlling testbed construction.
#[derive(Debug, Clone)]
pub struct TestbedOptions {
    /// Scale factor applied to the preset's vertex count.
    pub scale: f64,
    /// Edge-weight kind.
    pub kind: EdgeWeightKind,
    /// Number of query vertices.
    pub num_queries: usize,
    /// Engine configuration (which indexes to build).
    pub engine: EngineConfig,
    /// Index-artifact persistence: save built indexes / cold-start from disk
    /// (the `--save`/`--load` flags of the bench binaries).
    pub artifacts: artifacts::ArtifactIo,
}

impl Default for TestbedOptions {
    fn default() -> Self {
        TestbedOptions {
            scale: DEFAULT_SCALE,
            kind: EdgeWeightKind::Distance,
            num_queries: DEFAULT_QUERIES,
            engine: EngineConfig::default(),
            artifacts: artifacts::ArtifactIo::none(),
        }
    }
}

impl Testbed {
    /// Builds a testbed for `preset`.
    pub fn build(preset: DatasetPreset, options: &TestbedOptions) -> Testbed {
        let network: RoadNetwork = preset.generate(options.scale);
        let graph = network.graph(options.kind);
        Self::from_graph(preset, graph, options)
    }

    /// Builds a testbed from an already-materialised graph. When the options
    /// carry a `--load` directory, the engine's CH/G-tree come from the saved
    /// artifact instead of being rebuilt (the graph argument only names the
    /// artifact); `--save` persists them after the build.
    pub fn from_graph(preset: DatasetPreset, graph: Graph, options: &TestbedOptions) -> Testbed {
        let tag =
            format!("{}-{:?}-{}", preset.name().to_lowercase(), options.kind, graph.num_vertices());
        let engine =
            artifacts::obtain_engine_tagged(&tag, graph, &options.engine, &options.artifacts);
        let n = engine.graph().num_vertices() as NodeId;
        let queries: Vec<NodeId> = (0..options.num_queries as u64)
            .map(|i| ((i * 2_654_435_769) % n as u64) as NodeId)
            .collect();
        Testbed { preset, engine, queries }
    }

    /// The graph under test.
    pub fn graph(&self) -> &Graph {
        self.engine.graph()
    }

    /// Injects a uniform object set of the given density.
    pub fn set_uniform_objects(&mut self, density: f64, seed: u64) -> usize {
        let objects = uniform(self.engine.graph(), density, seed);
        let len = objects.len();
        self.engine.set_objects(objects);
        len
    }

    /// Injects an arbitrary object set.
    pub fn set_objects(&mut self, objects: ObjectSet) {
        self.engine.set_objects(objects);
    }

    /// Average query time in microseconds of `method` over the testbed's query workload.
    pub fn avg_query_micros(&self, method: Method, k: usize) -> f64 {
        if !self.engine.supports(method) {
            return f64::NAN;
        }
        let start = Instant::now();
        let mut sink = 0u64;
        for &q in &self.queries {
            let output = self.engine.query(method, q, k).expect("supported method with objects");
            sink = sink.wrapping_add(output.result.last().map(|&(_, d)| d).unwrap_or(0));
        }
        // Keep the optimiser honest.
        std::hint::black_box(sink);
        start.elapsed().as_micros() as f64 / self.queries.len().max(1) as f64
    }

    /// Aggregate [`QueryStats`] of `method` over the testbed's query workload
    /// (the per-method counters behind Figure 9(b) / Table 3).
    pub fn workload_stats(&self, method: Method, k: usize) -> Option<QueryStats> {
        if !self.engine.supports(method) {
            return None;
        }
        let mut total = QueryStats::default();
        for &q in &self.queries {
            let output = self.engine.query(method, q, k).ok()?;
            total.accumulate(&output.stats);
        }
        Some(total)
    }

    /// Average query time of `method` when the workload is fanned across threads
    /// with [`Engine::knn_batch`] (wall-clock per query, not per-thread work).
    pub fn avg_batch_query_micros(&self, method: Method, k: usize) -> f64 {
        if !self.engine.supports(method) {
            return f64::NAN;
        }
        let start = Instant::now();
        let batch = self.engine.knn_batch(method, &self.queries, k).expect("supported method");
        std::hint::black_box(batch.len());
        start.elapsed().as_micros() as f64 / self.queries.len().max(1) as f64
    }
}

/// One row of an experiment's output: a label plus one value per series.
#[derive(Debug, Clone)]
pub struct Row {
    pub label: String,
    pub values: Vec<f64>,
}

/// A simple fixed-width table mirroring one figure/table of the paper.
#[derive(Debug, Clone)]
pub struct Table {
    /// e.g. "Figure 10(a): query time vs k (NW, d=0.001)".
    pub title: String,
    /// Column label for the row key (e.g. "k", "density").
    pub key: String,
    /// Series names (e.g. method names).
    pub series: Vec<String>,
    /// Unit of the values (e.g. "µs", "MB").
    pub unit: String,
    pub rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, key: &str, series: Vec<String>, unit: &str) -> Table {
        Table {
            title: title.to_string(),
            key: key.to_string(),
            series,
            unit: unit.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        self.rows.push(Row { label: label.into(), values });
    }

    /// Renders the table as monospace text (used for stdout and EXPERIMENTS.md).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        out.push_str(&format!("(values in {})\n", self.unit));
        out.push_str(&format!("{:<16}", self.key));
        for s in &self.series {
            out.push_str(&format!("{:>14}", s));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<16}", row.label));
            for v in &row.values {
                if v.is_nan() {
                    out.push_str(&format!("{:>14}", "n/a"));
                } else if *v >= 100.0 {
                    out.push_str(&format!("{:>14.0}", v));
                } else {
                    out.push_str(&format!("{:>14.2}", v));
                }
            }
            out.push('\n');
        }
        out.push('\n');
        out
    }
}

/// The parameter defaults of Table 4.
pub mod defaults {
    /// Default k.
    pub const K: usize = 10;
    /// Default uniform object density.
    pub const DENSITY: f64 = 0.001;
    /// The k values swept by the paper.
    pub const K_SWEEP: [usize; 5] = [1, 5, 10, 25, 50];
    /// The density values swept by the paper.
    pub const DENSITY_SWEEP: [f64; 5] = [0.0001, 0.001, 0.01, 0.1, 1.0];
}

/// Index-artifact persistence plumbing behind the `--save DIR` / `--load DIR`
/// flags every bench binary carries: build once, write the versioned artifact,
/// and let every later run (or a fresh process, as the CI scaling job does)
/// cold-start from disk instead of paying the minutes-long CH/G-tree builds.
pub mod artifacts {
    use std::io::BufWriter;
    use std::path::PathBuf;
    use std::time::Instant;

    use rnknn::engine::{Engine, EngineConfig};
    use rnknn::persist_format::{Artifact, ArtifactWriter, PersistError};
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{EdgeWeightKind, Graph};

    /// Where a bench run saves its built indexes and/or loads them from.
    /// Both directions may be set at once ("migrate": load, then re-save).
    #[derive(Debug, Clone, Default)]
    pub struct ArtifactIo {
        /// Directory to save built indexes into (`--save DIR`).
        pub save_dir: Option<String>,
        /// Directory to load indexes from instead of building (`--load DIR`).
        pub load_dir: Option<String>,
    }

    impl ArtifactIo {
        /// No persistence: always build, never save.
        pub fn none() -> ArtifactIo {
            ArtifactIo::default()
        }
    }

    /// The artifact path for `tag` inside `dir`.
    pub fn path(dir: &str, tag: &str) -> PathBuf {
        PathBuf::from(dir).join(format!("rnknn-{tag}.rnk"))
    }

    fn report(action: &str, tag: &str, bytes: u64, seconds: f64) {
        println!(
            "artifact {action} {tag}: {:.1} MiB in {:.0}ms",
            bytes as f64 / (1024.0 * 1024.0),
            seconds * 1e3
        );
    }

    /// Obtains the engine for one bench tier: loads it from `--load DIR` when
    /// set (skipping graph generation and index construction entirely),
    /// builds it from a freshly generated network otherwise, and saves the
    /// built indexes to `--save DIR` when set. `tag` names the artifact file
    /// and must be stable between the saving and the loading run.
    pub fn obtain_engine(tag: &str, size: usize, config: &EngineConfig, io: &ArtifactIo) -> Engine {
        if let Some(dir) = &io.load_dir {
            return load_engine(dir, tag, config);
        }
        let net = RoadNetwork::generate(&GeneratorConfig::new(size, 42));
        let graph = net.graph(EdgeWeightKind::Distance);
        let engine = Engine::build(graph, config);
        if let Some(dir) = &io.save_dir {
            save_engine(dir, tag, &engine);
        }
        engine
    }

    /// [`obtain_engine`] for callers that already hold the graph (the
    /// [`Testbed`](crate::Testbed) path). In `--load` mode the graph argument
    /// is dropped — the artifact carries its own copy of the network.
    pub fn obtain_engine_tagged(
        tag: &str,
        graph: Graph,
        config: &EngineConfig,
        io: &ArtifactIo,
    ) -> Engine {
        if let Some(dir) = &io.load_dir {
            return load_engine(dir, tag, config);
        }
        let engine = Engine::build(graph, config);
        if let Some(dir) = &io.save_dir {
            save_engine(dir, tag, &engine);
        }
        engine
    }

    fn save_engine(dir: &str, tag: &str, engine: &Engine) {
        std::fs::create_dir_all(dir).expect("create --save directory");
        let p = path(dir, tag);
        let start = Instant::now();
        let bytes = engine.save_indexes(&p).unwrap_or_else(|e| panic!("save {}: {e}", p.display()));
        report("saved", tag, bytes, start.elapsed().as_secs_f64());
    }

    fn load_engine(dir: &str, tag: &str, config: &EngineConfig) -> Engine {
        let p = path(dir, tag);
        let start = Instant::now();
        let engine = Engine::load_indexes(&p, config)
            .unwrap_or_else(|e| panic!("load {}: {e}", p.display()));
        let bytes = std::fs::metadata(&p).map(|m| m.len()).unwrap_or(0);
        report("loaded", tag, bytes, start.elapsed().as_secs_f64());
        engine
    }

    /// Saves a graph plus one already-built index section (the single-index
    /// construction benches) via `write_index`, atomically, returning the
    /// artifact size in bytes.
    pub fn save_raw(
        dir: &str,
        tag: &str,
        graph: &Graph,
        write_index: impl FnOnce(
            &mut ArtifactWriter<BufWriter<std::fs::File>>,
        ) -> Result<(), PersistError>,
    ) -> u64 {
        std::fs::create_dir_all(dir).expect("create --save directory");
        let p = path(dir, tag);
        let tmp = p.with_extension("tmp");
        let start = Instant::now();
        let file = std::fs::File::create(&tmp).expect("create artifact");
        let mut writer = ArtifactWriter::new(BufWriter::new(file)).expect("artifact header");
        rnknn_graph::persist::save_graph(graph, &mut writer).expect("save graph");
        write_index(&mut writer).unwrap_or_else(|e| panic!("save {}: {e}", p.display()));
        let out = writer.finish().expect("finish artifact");
        let file = out.into_inner().expect("flush artifact");
        let bytes = file.metadata().expect("stat artifact").len();
        file.sync_all().expect("sync artifact");
        drop(file);
        std::fs::rename(&tmp, &p).expect("publish artifact");
        report("saved", tag, bytes, start.elapsed().as_secs_f64());
        bytes
    }

    /// Opens the raw artifact for `tag` and loads its graph; the caller pulls
    /// its index section out of the returned [`Artifact`].
    pub fn load_raw(dir: &str, tag: &str) -> (Graph, Artifact) {
        let p = path(dir, tag);
        let start = Instant::now();
        let artifact = Artifact::open(&p).unwrap_or_else(|e| panic!("open {}: {e}", p.display()));
        let graph = rnknn_graph::persist::load_graph(&artifact)
            .unwrap_or_else(|e| panic!("load {}: {e}", p.display()));
        let bytes = std::fs::metadata(&p).map(|m| m.len()).unwrap_or(0);
        report("opened", tag, bytes, start.elapsed().as_secs_f64());
        (graph, artifact)
    }
}

/// CH construction scaling measurement shared by the `bench_construction` bench (CI
/// smoke run) and the `ch_build_bench` binary: build hierarchies on generated networks
/// of increasing size, verify exactness against Dijkstra, and persist the measured
/// build times to `BENCH_ch_build.json` as the committed perf trajectory.
pub mod ch_build {
    use std::time::Instant;

    use rnknn::ch::{ChConfig, ContractionHierarchy};
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{EdgeWeightKind, NodeId};
    use rnknn_pathfinding::dijkstra;

    /// One measured build.
    #[derive(Debug, Clone, Copy)]
    pub struct BuildPoint {
        /// Vertices of the generated network (slightly above the requested size, since
        /// the generator subdivides edges into chains).
        pub vertices: usize,
        /// Edges of the generated network.
        pub edges: usize,
        /// Shortcuts the build inserted.
        pub shortcuts: usize,
        /// Wall-clock build time in seconds.
        pub build_seconds: f64,
    }

    /// Builds a CH per requested size, asserting exactness against Dijkstra on
    /// `verify_pairs` random pairs so a fast-but-wrong build never lands in the
    /// tracking file. With `--load` the hierarchy comes from the saved artifact
    /// instead (the verification gate still runs, and `build_seconds` then
    /// records the load time — the binary skips the tracking file in that mode).
    pub fn measure(
        sizes: &[usize],
        config: &ChConfig,
        verify_pairs: u32,
        io: &crate::artifacts::ArtifactIo,
    ) -> Vec<BuildPoint> {
        let mut points = Vec::new();
        for &size in sizes {
            let (g, ch, elapsed) = if let Some(dir) = &io.load_dir {
                let start = Instant::now();
                let (g, artifact) = crate::artifacts::load_raw(dir, &format!("ch-{size}"));
                let ch = rnknn::ch::persist::load_ch(&artifact, g.num_vertices(), Some(config))
                    .expect("CH section");
                (g, ch, start.elapsed().as_secs_f64())
            } else {
                let net = RoadNetwork::generate(&GeneratorConfig::new(size, 42));
                let g = net.graph(EdgeWeightKind::Distance);
                let start = Instant::now();
                let ch = ContractionHierarchy::build_with_config(&g, config);
                let elapsed = start.elapsed().as_secs_f64();
                if let Some(dir) = &io.save_dir {
                    crate::artifacts::save_raw(dir, &format!("ch-{size}"), &g, |w| {
                        rnknn::ch::persist::save_ch(&ch, w)
                    });
                }
                (g, ch, elapsed)
            };
            let n = g.num_vertices() as NodeId;
            for i in 0..verify_pairs {
                let s = (i * 7919) % n;
                let t = (i * 104_729 + 31) % n;
                assert_eq!(
                    ch.distance(s, t),
                    dijkstra::distance(&g, s, t),
                    "{s}->{t} at size {size}"
                );
            }
            println!(
                "ch build n={:>7} vertices={:>7} edges={:>7} shortcuts={:>7} time={:.3}s",
                size,
                g.num_vertices(),
                g.num_edges(),
                ch.num_shortcuts(),
                elapsed
            );
            points.push(BuildPoint {
                vertices: g.num_vertices(),
                edges: g.num_edges(),
                shortcuts: ch.num_shortcuts(),
                build_seconds: elapsed,
            });
        }
        points
    }

    /// Renders the tracking JSON for `BENCH_ch_build.json`.
    pub fn render_json(points: &[BuildPoint]) -> String {
        let mut json = String::from(
            "{\n  \"bench\": \"ch_build\",\n  \"unit\": \"seconds\",\n  \"points\": [\n",
        );
        for (i, p) in points.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"vertices\": {}, \"edges\": {}, \"shortcuts\": {}, \"build_seconds\": {:.3}}}{}\n",
                p.vertices,
                p.edges,
                p.shortcuts,
                p.build_seconds,
                if i + 1 < points.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Path of the tracking file (workspace root).
    pub fn tracking_file() -> &'static str {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ch_build.json")
    }

    /// Builds one hierarchy and reports average per-query search effort (settled
    /// vertices, heap pushes, stall-on-demand prunes) plus the average query time
    /// over `queries` random vertex pairs. This is the measurement behind the
    /// "CH search spaces on grid-like networks" ROADMAP item.
    pub fn query_probe(size: usize, config: &ChConfig, queries: u32) {
        let net = RoadNetwork::generate(&GeneratorConfig::new(size, 42));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build_with_config(&g, config);
        let n = g.num_vertices() as NodeId;
        let mut totals = rnknn::ch::ChSearchCounters::default();
        let mut checksum = 0u64;
        let start = Instant::now();
        for i in 0..queries as u64 {
            let s = ((i * 7919) % n as u64) as NodeId;
            let t = ((i * 104_729 + 31) % n as u64) as NodeId;
            let (d, counters) = ch.distance_with_counters(s, t);
            checksum = checksum.wrapping_add(d);
            totals.accumulate(counters);
        }
        let elapsed = start.elapsed().as_micros() as f64 / queries.max(1) as f64;
        std::hint::black_box(checksum);
        println!(
            "ch query probe n={:>7} vertices={:>7} shortcuts={:>8} stall={} avg: settled={:.0} heap_pushes={:.0} stalled={:.0} time={elapsed:.1}µs",
            size,
            g.num_vertices(),
            ch.num_shortcuts(),
            ch.stall_on_demand(),
            totals.settled as f64 / queries.max(1) as f64,
            totals.heap_pushes as f64 / queries.max(1) as f64,
            totals.stalled as f64 / queries.max(1) as f64,
        );
    }

    /// Measures the standard 20k/100k/250k trajectory (the CI smoke tier; the
    /// `ch_build_bench` binary extends it to 500k) and writes the tracking file.
    pub fn run_and_track() -> Vec<BuildPoint> {
        let points = measure(
            &[20_000, 100_000, 250_000],
            &ChConfig::default(),
            5,
            &crate::artifacts::ArtifactIo::none(),
        );
        let path = tracking_file();
        std::fs::write(path, render_json(&points)).expect("write BENCH_ch_build.json");
        println!("wrote {path}");
        points
    }
}

/// G-tree construction scaling measurement shared by the `bench_construction` bench
/// (CI smoke run) and the `gtree_build_bench` binary: build G-trees on generated
/// networks of increasing size, verify kNN results against a Dijkstra brute force,
/// and persist the measured build times to `BENCH_gtree_build.json` so the perf
/// trajectory is committed (the CH analogue is [`ch_build`]).
pub mod gtree_build {
    use std::time::Instant;

    use rnknn::gtree::{Gtree, GtreeConfig, LeafSearchMode, OccurrenceList};
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{EdgeWeightKind, NodeId, Weight};
    use rnknn_pathfinding::dijkstra;

    /// One measured build.
    #[derive(Debug, Clone, Copy)]
    pub struct BuildPoint {
        /// Vertices of the generated network (slightly above the requested size, since
        /// the generator subdivides edges into chains).
        pub vertices: usize,
        /// Edges of the generated network.
        pub edges: usize,
        /// G-tree nodes (leaves + internal).
        pub tree_nodes: usize,
        /// Resident size of the index in bytes.
        pub memory_bytes: usize,
        /// Wall-clock build time in seconds.
        pub build_seconds: f64,
    }

    /// Builds a G-tree per requested size (with the paper's size-based leaf capacity
    /// unless `config` overrides it), asserting kNN agreement against a Dijkstra brute
    /// force on `verify_queries` query vertices so a fast-but-wrong build never lands
    /// in the tracking file. With `--load` the tree comes from the saved artifact
    /// instead (the verification gate still runs, and `build_seconds` then records
    /// the load time — the binary skips the tracking file in that mode).
    pub fn measure(
        sizes: &[usize],
        config: Option<&GtreeConfig>,
        verify_queries: u32,
        io: &crate::artifacts::ArtifactIo,
    ) -> Vec<BuildPoint> {
        let mut points = Vec::new();
        for &size in sizes {
            let (g, tree, elapsed) = if let Some(dir) = &io.load_dir {
                let start = Instant::now();
                let (g, artifact) = crate::artifacts::load_raw(dir, &format!("gtree-{size}"));
                let expected =
                    config.cloned().unwrap_or_else(|| GtreeConfig::for_network(g.num_vertices()));
                let tree =
                    rnknn::gtree::persist::load_gtree(&artifact, g.num_vertices(), Some(&expected))
                        .expect("G-tree section");
                (g, tree, start.elapsed().as_secs_f64())
            } else {
                let net = RoadNetwork::generate(&GeneratorConfig::new(size, 42));
                let g = net.graph(EdgeWeightKind::Distance);
                let gconfig =
                    config.cloned().unwrap_or_else(|| GtreeConfig::for_network(g.num_vertices()));
                let start = Instant::now();
                let tree = Gtree::build_with_config(&g, gconfig);
                let elapsed = start.elapsed().as_secs_f64();
                if let Some(dir) = &io.save_dir {
                    crate::artifacts::save_raw(dir, &format!("gtree-{size}"), &g, |w| {
                        rnknn::gtree::persist::save_gtree(&tree, w)
                    });
                }
                (g, tree, elapsed)
            };
            let n = g.num_vertices() as NodeId;
            let objects: Vec<NodeId> = (0..n).filter(|v| v % 101 == 3).collect();
            let occ = OccurrenceList::build(&tree, &objects);
            for i in 0..verify_queries {
                let q = (i * 7919 + 13) % n;
                let truth = dijkstra::single_source(&g, q);
                let mut want: Vec<Weight> = objects.iter().map(|&o| truth[o as usize]).collect();
                want.sort_unstable();
                want.truncate(10);
                let mut search = rnknn::gtree::GtreeSearch::new(&tree, &g, q);
                let got: Vec<Weight> = search
                    .knn(10, &occ, LeafSearchMode::Improved)
                    .iter()
                    .map(|&(_, d)| d)
                    .collect();
                assert_eq!(got, want, "kNN mismatch from {q} at size {size}");
            }
            println!(
                "gtree build n={:>7} vertices={:>7} edges={:>7} nodes={:>5} mem={:>9}B time={:.3}s",
                size,
                g.num_vertices(),
                g.num_edges(),
                tree.num_nodes(),
                tree.memory_bytes(),
                elapsed
            );
            points.push(BuildPoint {
                vertices: g.num_vertices(),
                edges: g.num_edges(),
                tree_nodes: tree.num_nodes(),
                memory_bytes: tree.memory_bytes(),
                build_seconds: elapsed,
            });
        }
        points
    }

    /// Renders the tracking JSON for `BENCH_gtree_build.json`.
    pub fn render_json(points: &[BuildPoint]) -> String {
        let mut json = String::from(
            "{\n  \"bench\": \"gtree_build\",\n  \"unit\": \"seconds\",\n  \"points\": [\n",
        );
        for (i, p) in points.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"vertices\": {}, \"edges\": {}, \"tree_nodes\": {}, \"memory_bytes\": {}, \"build_seconds\": {:.3}}}{}\n",
                p.vertices,
                p.edges,
                p.tree_nodes,
                p.memory_bytes,
                p.build_seconds,
                if i + 1 < points.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Path of the tracking file (workspace root).
    pub fn tracking_file() -> &'static str {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gtree_build.json")
    }

    /// Measures the standard 20k/100k/250k trajectory (the CI smoke tier; the
    /// `gtree_build_bench` binary extends it to 500k) and writes the tracking file.
    pub fn run_and_track() -> Vec<BuildPoint> {
        let points =
            measure(&[20_000, 100_000, 250_000], None, 2, &crate::artifacts::ArtifactIo::none());
        let path = tracking_file();
        std::fs::write(path, render_json(&points)).expect("write BENCH_gtree_build.json");
        println!("wrote {path}");
        points
    }
}

/// kNN query-latency scaling measurement shared by the `bench_construction` bench
/// (CI smoke run) and the `knn_query_bench` binary: build the query-side indexes on
/// generated networks of increasing size, verify every method against the Dijkstra
/// ground truth, then measure per-method p50 latency and queries/sec of the pooled
/// query path (`Engine::query_with_objects` on a warm scratch). The trajectory is
/// persisted to `BENCH_knn_query.json`, beside the two construction trajectories.
pub mod knn_query {
    use std::time::Instant;

    use rnknn::engine::{Engine, EngineConfig, Method};
    use rnknn::verify::matches_ground_truth;
    use rnknn::{EngineScratch, QueryOutput};
    use rnknn_graph::NodeId;
    use rnknn_objects::uniform;

    /// The methods the trajectory tracks: the acceptance trio (G-tree, INE, IER-CH)
    /// plus IER-Gt, which shares the G-tree materialization pool. The heavier
    /// index builds (SILC, PHL, TNR, ROAD) are excluded so the 580k tier stays
    /// buildable in minutes.
    pub const METHODS: [Method; 4] = [Method::Ine, Method::Gtree, Method::IerGtree, Method::IerCh];

    /// One method's measurement at one network size.
    #[derive(Debug, Clone)]
    pub struct MethodPoint {
        /// Display name (paper legend).
        pub method: &'static str,
        /// Median per-query latency of the pooled path, in microseconds.
        pub pooled_p50_us: f64,
        /// Sustained throughput of the pooled path, queries per second.
        pub pooled_qps: f64,
    }

    /// All measurements at one network size.
    #[derive(Debug, Clone)]
    pub struct QueryPoint {
        /// Vertices of the generated network.
        pub vertices: usize,
        /// Objects in the injected uniform set.
        pub objects: usize,
        /// k used for every query.
        pub k: usize,
        /// Number of measured queries per method.
        pub queries: usize,
        /// Per-method results.
        pub methods: Vec<MethodPoint>,
    }

    fn median(mut times: Vec<u64>) -> f64 {
        times.sort_unstable();
        times[times.len() / 2] as f64
    }

    /// The engine configuration of this trajectory's tiers (G-tree and CH only —
    /// the indexes the measured methods need).
    pub fn engine_config() -> EngineConfig {
        EngineConfig {
            build_gtree: true,
            build_road: false,
            build_silc: false,
            build_ch: true,
            build_phl: false,
            build_tnr: false,
            ..Default::default()
        }
    }

    /// Builds (or `--load`s) the engine for one size tier.
    fn obtain_engine(size: usize, io: &crate::artifacts::ArtifactIo) -> Engine {
        crate::artifacts::obtain_engine(&format!("knn-{size}"), size, &engine_config(), io)
    }

    /// Measures one point per requested size. Every method is first verified
    /// against the Dijkstra ground truth on `verify_queries` query vertices, so a
    /// fast-but-wrong query path never lands in the tracking file — on the
    /// `--load` path this doubles as the loaded-artifact conformance gate.
    pub fn measure(
        sizes: &[usize],
        queries_per_size: usize,
        k: usize,
        density: f64,
        verify_queries: usize,
        io: &crate::artifacts::ArtifactIo,
    ) -> Vec<QueryPoint> {
        let mut points = Vec::new();
        for &size in sizes {
            let build_start = Instant::now();
            let mut engine = obtain_engine(size, io);
            let objects = uniform(engine.graph(), density, 1);
            engine.set_objects(objects.clone());
            let n = engine.graph().num_vertices() as NodeId;
            println!(
                "knn query bench n={:>7} vertices={:>7} objects={:>6} (indexes built in {:.1}s)",
                size,
                engine.graph().num_vertices(),
                objects.len(),
                build_start.elapsed().as_secs_f64()
            );
            let queries: Vec<NodeId> = (0..queries_per_size as u64)
                .map(|i| ((i * 2_654_435_769) % n as u64) as NodeId)
                .collect();

            let indexes = engine.object_indexes().expect("objects installed");
            let mut scratch = EngineScratch::new();
            let mut out = QueryOutput::default();
            let mut methods = Vec::new();
            for method in METHODS {
                let mut run = |q: NodeId, out: &mut QueryOutput| {
                    engine
                        .query_with_objects(method, q, k, indexes, &mut scratch, out)
                        .expect("query");
                };
                // Exactness gate.
                for &q in queries.iter().take(verify_queries) {
                    run(q, &mut out);
                    assert!(
                        matches_ground_truth(engine.graph(), q, k, &objects, &out.result),
                        "{} wrong at q={q} size={size}",
                        method.name()
                    );
                }
                // One warm-up pass, then the measured pass on the warm scratch.
                for &q in &queries {
                    run(q, &mut out);
                }
                let mut times = Vec::with_capacity(queries.len());
                let total_start = Instant::now();
                for &q in &queries {
                    let start = Instant::now();
                    run(q, &mut out);
                    times.push(start.elapsed().as_micros() as u64);
                    std::hint::black_box(out.result.len());
                }
                let total = total_start.elapsed().as_secs_f64();

                let point = MethodPoint {
                    method: method.name(),
                    pooled_p50_us: median(times),
                    pooled_qps: queries.len() as f64 / total.max(1e-9),
                };
                println!(
                    "  {:<8} pooled p50={:>8.1}µs ({:>9.0} q/s)",
                    point.method, point.pooled_p50_us, point.pooled_qps,
                );
                methods.push(point);
            }
            points.push(QueryPoint {
                vertices: engine.graph().num_vertices(),
                objects: objects.len(),
                k,
                queries: queries.len(),
                methods,
            });
        }
        points
    }

    /// Renders the tracking JSON for `BENCH_knn_query.json` (`pooled_*` is the
    /// steady-state serving path).
    pub fn render_json(points: &[QueryPoint]) -> String {
        let mut json = String::from(
            "{\n  \"bench\": \"knn_query\",\n  \"unit\": \"microseconds (p50) / queries-per-second\",\n  \"points\": [\n",
        );
        for (i, p) in points.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"vertices\": {}, \"objects\": {}, \"k\": {}, \"queries\": {}, \"methods\": [\n",
                p.vertices, p.objects, p.k, p.queries
            ));
            for (j, m) in p.methods.iter().enumerate() {
                json.push_str(&format!(
                    "      {{\"method\": \"{}\", \"pooled_p50_us\": {:.1}, \"pooled_qps\": {:.0}}}{}\n",
                    m.method,
                    m.pooled_p50_us,
                    m.pooled_qps,
                    if j + 1 < p.methods.len() { "," } else { "" }
                ));
            }
            json.push_str(&format!("    ]}}{}\n", if i + 1 < points.len() { "," } else { "" }));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Path of the tracking file (workspace root).
    pub fn tracking_file() -> &'static str {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_knn_query.json")
    }

    /// Extracts the number following `"key": ` on `line`, if present.
    fn json_number(line: &str, key: &str) -> Option<f64> {
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat)? + pat.len();
        let rest = &line[start..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// Extracts the string following `"key": "` on `line`, if present.
    fn json_string<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\": \"");
        let start = line.find(&pat)? + pat.len();
        let rest = &line[start..];
        Some(&rest[..rest.find('"')?])
    }

    /// Parses a committed `BENCH_knn_query.json` into
    /// `(vertices, method, pooled_p50_us)` rows. The renderer emits one method
    /// per line under a one-line point header, so a line scan suffices (the
    /// workspace has no JSON dependency by design).
    fn parse_baseline(json: &str) -> Vec<(usize, String, f64)> {
        let mut rows = Vec::new();
        let mut vertices = 0usize;
        for line in json.lines() {
            if let Some(v) = json_number(line, "vertices") {
                vertices = v as usize;
            }
            if let (Some(m), Some(p)) =
                (json_string(line, "method"), json_number(line, "pooled_p50_us"))
            {
                rows.push((vertices, m.to_string(), p));
            }
        }
        rows
    }

    /// Fails the run if the G-tree pooled p50 regressed by more than 20% against
    /// the committed baseline. Host-speed differences are normalised out with the
    /// INE pooled p50 of the same tier (INE shares none of the G-tree query code,
    /// so its current/baseline ratio measures the machine, not the change under
    /// test). Tiers are matched by exact vertex count — the generator is
    /// deterministic, so a mismatch means the baseline predates a generator
    /// change and the tier is skipped rather than misjudged.
    pub fn check_regression(points: &[QueryPoint], baseline_json: &str) {
        const TOLERANCE: f64 = 1.2;
        let baseline = parse_baseline(baseline_json);
        let lookup = |vertices: usize, method: &str| -> Option<f64> {
            baseline.iter().find(|(v, m, _)| *v == vertices && m == method).map(|&(_, _, p)| p)
        };
        for p in points {
            let (Some(base_gtree), Some(base_ine)) =
                (lookup(p.vertices, "Gtree"), lookup(p.vertices, "INE"))
            else {
                println!("regression guard: no baseline tier at {} vertices, skipping", p.vertices);
                continue;
            };
            let current =
                |name: &str| p.methods.iter().find(|m| m.method == name).map(|m| m.pooled_p50_us);
            let (Some(cur_gtree), Some(cur_ine)) = (current("Gtree"), current("INE")) else {
                continue;
            };
            let host_scale = cur_ine.max(1.0) / base_ine.max(1.0);
            let limit = base_gtree * TOLERANCE * host_scale;
            println!(
                "regression guard @ {} vertices: Gtree pooled p50 {:.1}µs vs limit {:.1}µs \
                 (baseline {:.1}µs × {TOLERANCE} tolerance × {host_scale:.2} host scale)",
                p.vertices, cur_gtree, limit, base_gtree
            );
            assert!(
                cur_gtree <= limit,
                "G-tree pooled p50 regressed at {} vertices: {:.1}µs > {:.1}µs \
                 (baseline {:.1}µs, host scale {:.2}); if intentional, re-baseline with \
                 RNKNN_BENCH_NO_GUARD=1",
                p.vertices,
                cur_gtree,
                limit,
                base_gtree,
                host_scale
            );
        }
    }

    /// Measures the 23k/116k smoke tier (the CI run; the `knn_query_bench` binary
    /// extends the same trajectory to 290k/580k) and writes the tracking file.
    /// Workload parameters (k=10, d=0.01) must match the binary's defaults so the
    /// smoke tier and the committed full trajectory stay comparable. Before the
    /// file is overwritten, the new numbers are gated against the committed
    /// baseline (see [`check_regression`]); `RNKNN_BENCH_NO_GUARD=1` skips the
    /// gate for intentional re-baselining.
    pub fn run_and_track() -> Vec<QueryPoint> {
        let points =
            measure(&[20_000, 100_000], 400, 10, 0.01, 3, &crate::artifacts::ArtifactIo::none());
        let path = tracking_file();
        if std::env::var_os("RNKNN_BENCH_NO_GUARD").is_none() {
            if let Ok(baseline) = std::fs::read_to_string(path) {
                check_regression(&points, &baseline);
            }
        }
        std::fs::write(path, render_json(&points)).expect("write BENCH_knn_query.json");
        println!("wrote {path}");
        points
    }

    #[cfg(test)]
    mod guard_tests {
        use super::*;

        fn point(vertices: usize, gtree_p50: f64, ine_p50: f64) -> QueryPoint {
            let method = |name: &'static str, p50: f64| MethodPoint {
                method: name,
                pooled_p50_us: p50,
                pooled_qps: 1.0,
            };
            QueryPoint {
                vertices,
                objects: 100,
                k: 10,
                queries: 400,
                methods: vec![method("INE", ine_p50), method("Gtree", gtree_p50)],
            }
        }

        #[test]
        fn guard_accepts_equal_and_scaled_results() {
            let baseline = render_json(&[point(23_190, 1000.0, 100.0)]);
            // Same numbers: fine. Slower host (INE 2x): G-tree 2x is also fine.
            check_regression(&[point(23_190, 1000.0, 100.0)], &baseline);
            check_regression(&[point(23_190, 2000.0, 200.0)], &baseline);
            // Unknown tier: skipped, not misjudged.
            check_regression(&[point(99_999, 9e9, 100.0)], &baseline);
        }

        #[test]
        #[should_panic(expected = "G-tree pooled p50 regressed")]
        fn guard_rejects_a_real_regression() {
            let baseline = render_json(&[point(23_190, 1000.0, 100.0)]);
            // INE unchanged (same host) but G-tree 1.5x slower: over the 1.2x gate.
            check_regression(&[point(23_190, 1500.0, 100.0)], &baseline);
        }
    }
}

/// Mixed-workload serving benchmark (ISSUE 6), shared by `serving::run_and_track`
/// (CI smoke run) and the `serving_bench` binary: spin up the live-traffic stack —
/// [`rnknn_serve::ObjectStore`] epochs plus the [`rnknn_serve::ServeFront`]
/// sharded batching pool — on generated networks of increasing size and measure
/// **sustained queries/sec** while object updates stream through at a configured
/// rate (0%, 1% and 10% of |O| per second). Correctness is gated before any
/// timing: interleaved update/query rounds are verified against the Dijkstra
/// ground truth of their exact epoch. The trajectory is persisted to
/// `BENCH_serving.json`, beside the construction and query trajectories.
pub mod serving {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use rnknn::engine::{Engine, EngineConfig, Method};
    use rnknn::verify::ground_truth;
    use rnknn::{EngineScratch, QueryOutput};
    use rnknn_graph::NodeId;
    use rnknn_objects::{churn_stream, uniform, ChurnConfig, ObjectSet, UpdateEvent};
    use rnknn_serve::{
        FaultPlan, KnnRequest, ObjectStore, ServeConfig, ServeError, ServeFront, SubmitError,
    };

    /// The update rates the trajectory tracks, as a fraction of |O| per second.
    pub const UPDATE_RATES: [f64; 3] = [0.0, 0.01, 0.10];

    /// Robustness knobs for a measured run (docs/ROBUSTNESS.md): a per-request
    /// deadline adopted at admission and/or a seeded fault plan. The defaults
    /// (no deadline, no faults) reproduce the committed trajectory exactly.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Robustness {
        /// Deadline stamped on every request at admission (`--deadline-ms`).
        pub deadline: Option<Duration>,
        /// Seeded chaos plan ([`FaultPlan::chaos`]) driving injected worker
        /// panics and stragglers (`--fault-seed`).
        pub fault_plan: Option<FaultPlan>,
    }

    /// The serving method: G-tree is the paper's serving-grade pick (fastest of
    /// the always-buildable methods at every size — Figure 9).
    pub const METHOD: Method = Method::Gtree;

    /// One update-rate cell at one network size.
    #[derive(Debug, Clone)]
    pub struct RateCell {
        /// Target update rate as a fraction of |O| per second.
        pub rate: f64,
        /// Target update events per second implied by `rate`.
        pub updates_per_sec: f64,
        /// Update events actually applied (no-ops excluded).
        pub updates_applied: u64,
        /// Epochs published during the run.
        pub epochs: u64,
        /// Requests answered.
        pub served: u64,
        /// Wall-clock seconds of the measured window.
        pub seconds: f64,
        /// Sustained throughput: `served / seconds`.
        pub qps: f64,
        /// Requests shed with `ShedExpired` (admission or dequeue).
        pub shed: u64,
        /// Requests cut mid-search by their deadline (`DeadlineExceeded`).
        pub deadline_cut: u64,
        /// Injected worker panics absorbed (each poisons exactly one request).
        pub worker_panics: u64,
        /// p50 of submit→response latency over successfully served requests,
        /// in microseconds. Under a saturating stream this is dominated by
        /// queueing delay, so it is a serving-latency figure, not a query cost.
        pub p50_micros: u64,
        /// p99 of the same distribution — the tail the deadline knob trims.
        pub p99_micros: u64,
    }

    /// All cells at one network size.
    #[derive(Debug, Clone)]
    pub struct ServingPoint {
        /// Vertices of the generated network.
        pub vertices: usize,
        /// Objects in the initial uniform set.
        pub objects: usize,
        /// k used for every query.
        pub k: usize,
        /// Worker (shard) count of the front.
        pub workers: usize,
        /// One cell per measured update rate.
        pub cells: Vec<RateCell>,
    }

    /// The engine configuration of the serving tiers (G-tree only: the single
    /// method the workload dispatches plus INE for verification, which needs no
    /// index).
    pub fn engine_config() -> EngineConfig {
        EngineConfig {
            build_gtree: true,
            build_road: false,
            build_silc: false,
            build_ch: false,
            build_phl: false,
            build_tnr: false,
            ..Default::default()
        }
    }

    /// Builds (or `--load`s) the serving engine for one tier.
    fn obtain_engine(size: usize, io: &crate::artifacts::ArtifactIo) -> Engine {
        crate::artifacts::obtain_engine(&format!("serve-{size}"), size, &engine_config(), io)
    }

    /// The correctness gate: paced update/query rounds against the live store,
    /// each response checked against the Dijkstra ground truth of the exact epoch
    /// it was served from. Panics on any divergence, so a fast-but-wrong serving
    /// stack never lands in the tracking file.
    fn verify_interleaved(
        engine: &Arc<Engine>,
        store: &Arc<ObjectStore>,
        feeder: &mut ObjectSet,
        k: usize,
        rounds: u64,
        queries_per_round: u64,
    ) {
        let n = store.engine().graph().num_vertices();
        let mut scratch = EngineScratch::new();
        let mut out = QueryOutput::default();
        for round in 0..rounds {
            let batch = churn_stream(
                n,
                feeder,
                &ChurnConfig { events: 8, seed: 5_000 + round, ..Default::default() },
            );
            for event in batch {
                event.apply_to(feeder);
                store.stage(event);
            }
            let snap = store.publish();
            assert_eq!(snap.objects().vertices(), feeder.vertices(), "round {round}");
            for probe in 0..queries_per_round {
                let q = ((round * 7919 + probe * 2_654_435_769) % n as u64) as NodeId;
                engine
                    .query_with_objects(METHOD, q, k, snap.indexes(), &mut scratch, &mut out)
                    .expect("query");
                let truth: Vec<_> = ground_truth(engine.graph(), q, k, snap.objects())
                    .iter()
                    .map(|&(_, d)| d)
                    .collect();
                assert_eq!(
                    out.distances(),
                    truth,
                    "round {round}: {} diverged from its epoch's Dijkstra ground truth at q={q}",
                    METHOD.name()
                );
            }
        }
    }

    /// Per-cell response bookkeeping: exactly-once accounting plus the latency
    /// samples behind the p50/p99 columns. Error responses are only legal when
    /// a robustness knob is active — a knob-free run still panics on any `Err`,
    /// so the committed trajectory keeps its strict gate.
    struct Tally {
        drained: u64,
        shed: u64,
        deadline_cut: u64,
        poisoned: u64,
        /// Submit→response latency in µs, successfully served requests only.
        latencies: Vec<u64>,
        strict: bool,
    }

    impl Tally {
        fn absorb(&mut self, r: &rnknn_serve::KnnResponse, submitted_at: &[Instant]) {
            self.drained += 1;
            match &r.output {
                Ok(_) => {
                    self.latencies.push(submitted_at[r.id as usize].elapsed().as_micros() as u64)
                }
                Err(ServeError::ShedExpired) if !self.strict => self.shed += 1,
                Err(ServeError::Engine(rnknn::EngineError::DeadlineExceeded { .. }))
                    if !self.strict =>
                {
                    self.deadline_cut += 1
                }
                Err(ServeError::WorkerPanicked) if !self.strict => self.poisoned += 1,
                Err(e) => panic!("request {} failed: {e}", r.id),
            }
        }

        fn percentile(&mut self, p: f64) -> u64 {
            if self.latencies.is_empty() {
                return 0;
            }
            self.latencies.sort_unstable();
            let idx = ((self.latencies.len() - 1) as f64 * p) as usize;
            self.latencies[idx]
        }
    }

    /// One measured cell: drive the front with a saturating query stream for
    /// `duration` while pacing updates at `rate * |O|` events per second, then
    /// drain and report sustained QPS plus the shed/cut/latency columns.
    fn measure_cell(
        store: &Arc<ObjectStore>,
        feeder: &mut ObjectSet,
        workers: usize,
        k: usize,
        rate: f64,
        duration: Duration,
        robust: Robustness,
    ) -> RateCell {
        let config = ServeConfig {
            workers,
            default_deadline: robust.deadline,
            fault_plan: robust.fault_plan,
            ..Default::default()
        };
        let (front, responses) = ServeFront::start(Arc::clone(store), config);
        let n = store.engine().graph().num_vertices();
        let updates_per_sec = rate * feeder.len() as f64;

        // Pre-generate more churn than the pacing can consume; regenerate from the
        // evolved membership if the run outlasts the batch.
        let mut churn_seed = 10_000u64;
        let mut pending: Vec<UpdateEvent> = Vec::new();
        let mut next_event = 0usize;

        let applied_before = front.updates_applied();
        let start = Instant::now();
        let mut submitted = 0u64;
        let mut updates_sent = 0u64;
        let mut id = 0u64;
        let mut submitted_at: Vec<Instant> = Vec::new();
        let strict = robust.deadline.is_none() && robust.fault_plan.is_none();
        let mut tally = Tally {
            drained: 0,
            shed: 0,
            deadline_cut: 0,
            poisoned: 0,
            latencies: Vec::new(),
            strict,
        };
        loop {
            let elapsed = start.elapsed();
            if elapsed >= duration {
                break;
            }
            // Pace updates: keep the submitted count at rate * elapsed.
            let due = (updates_per_sec * elapsed.as_secs_f64()) as u64;
            while updates_sent < due {
                if next_event >= pending.len() {
                    pending = churn_stream(
                        n,
                        feeder,
                        &ChurnConfig { events: 256, seed: churn_seed, ..Default::default() },
                    );
                    churn_seed += 1;
                    next_event = 0;
                }
                let event = pending[next_event];
                next_event += 1;
                event.apply_to(feeder);
                front.submit_update(event).expect("updater alive");
                updates_sent += 1;
            }
            // Saturating query stream: push until backpressure, then drain.
            let q = ((id * 2_654_435_769) % n as u64) as NodeId;
            // (The front stamps `default_deadline` on admission when the
            // request carries none, so the `--deadline-ms` knob applies here.)
            match front.try_submit(KnnRequest { id, method: METHOD, query: q, k, deadline: None }) {
                Ok(()) => {
                    submitted_at.push(Instant::now());
                    submitted += 1;
                    id += 1;
                }
                Err(SubmitError::Saturated(_)) => {
                    // Shard full: let the workers catch up by draining responses.
                    if let Ok(r) = responses.recv_timeout(Duration::from_millis(50)) {
                        tally.absorb(&r, &submitted_at);
                    }
                }
                Err(e) => panic!("submit failed: {e}"),
            }
            while let Ok(r) = responses.try_recv() {
                tally.absorb(&r, &submitted_at);
            }
        }
        // Drain the tail (still part of the measured window: the work was real).
        while tally.drained < submitted {
            let r = responses.recv_timeout(Duration::from_secs(60)).expect("drain timed out");
            tally.absorb(&r, &submitted_at);
        }
        let seconds = start.elapsed().as_secs_f64();
        let mut front = front;
        let stats = front.shutdown();
        assert_eq!(stats.served, submitted, "front lost requests");
        assert_eq!(stats.shed_expired, tally.shed, "shed accounting diverged");
        assert_eq!(stats.worker_panics, tally.poisoned, "panic accounting diverged");
        let p50_micros = tally.percentile(0.50);
        let p99_micros = tally.percentile(0.99);
        RateCell {
            rate,
            updates_per_sec,
            updates_applied: front.updates_applied() - applied_before,
            epochs: stats.epochs_published,
            served: submitted,
            seconds,
            qps: submitted as f64 / seconds.max(1e-9),
            shed: tally.shed,
            deadline_cut: tally.deadline_cut,
            worker_panics: stats.worker_panics,
            p50_micros,
            p99_micros,
        }
    }

    /// Measures one [`ServingPoint`] per requested size: a Dijkstra-verified
    /// interleaved warm-up, then one sustained-throughput cell per update rate.
    /// `robust` threads the `--deadline-ms` / `--fault-seed` knobs into every
    /// cell's [`ServeConfig`]; the default is the knob-free committed workload.
    pub fn measure(
        sizes: &[usize],
        k: usize,
        density: f64,
        duration: Duration,
        io: &crate::artifacts::ArtifactIo,
        robust: Robustness,
    ) -> Vec<ServingPoint> {
        let workers = std::thread::available_parallelism().map(|w| w.get()).unwrap_or(1);
        let mut points = Vec::new();
        for &size in sizes {
            let build_start = Instant::now();
            let engine = Arc::new(obtain_engine(size, io));
            let initial = uniform(engine.graph(), density, 1);
            let mut feeder = initial.clone();
            let num_objects = initial.len();
            let store = Arc::new(ObjectStore::new(Arc::clone(&engine), initial));
            println!(
                "serving bench n={:>7} vertices={:>7} objects={:>6} workers={workers} (built in {:.1}s)",
                size,
                engine.graph().num_vertices(),
                num_objects,
                build_start.elapsed().as_secs_f64()
            );
            verify_interleaved(&engine, &store, &mut feeder, k, 3, 3);
            println!("  interleaved update/query rounds Dijkstra-verified");

            let mut cells = Vec::new();
            for rate in UPDATE_RATES {
                let cell = measure_cell(&store, &mut feeder, workers, k, rate, duration, robust);
                println!(
                    "  rate={:>4.0}%/s ({:>6.1} ev/s): {:>8.0} q/s sustained ({} queries, {} updates, {} epochs, {:.2}s)",
                    rate * 100.0,
                    cell.updates_per_sec,
                    cell.qps,
                    cell.served,
                    cell.updates_applied,
                    cell.epochs,
                    cell.seconds
                );
                println!(
                    "               latency p50={}µs p99={}µs shed={} ({:.2}% shed rate) deadline_cut={} panics={}",
                    cell.p50_micros,
                    cell.p99_micros,
                    cell.shed,
                    100.0 * cell.shed as f64 / cell.served.max(1) as f64,
                    cell.deadline_cut,
                    cell.worker_panics
                );
                cells.push(cell);
            }
            points.push(ServingPoint {
                vertices: engine.graph().num_vertices(),
                objects: num_objects,
                k,
                workers,
                cells,
            });
        }
        points
    }

    /// Renders the tracking JSON for `BENCH_serving.json`.
    pub fn render_json(points: &[ServingPoint]) -> String {
        let mut json = String::from(
            "{\n  \"bench\": \"serving\",\n  \"unit\": \"sustained queries-per-second under live object updates\",\n  \"method\": \"Gtree\",\n  \"points\": [\n",
        );
        for (i, p) in points.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"vertices\": {}, \"objects\": {}, \"k\": {}, \"workers\": {}, \"cells\": [\n",
                p.vertices, p.objects, p.k, p.workers
            ));
            for (j, c) in p.cells.iter().enumerate() {
                json.push_str(&format!(
                    "      {{\"update_rate_per_sec\": {:.2}, \"target_updates_per_sec\": {:.1}, \"updates_applied\": {}, \"epochs\": {}, \"served\": {}, \"seconds\": {:.2}, \"qps\": {:.0}, \"shed\": {}, \"deadline_cut\": {}, \"worker_panics\": {}, \"p50_micros\": {}, \"p99_micros\": {}}}{}\n",
                    c.rate,
                    c.updates_per_sec,
                    c.updates_applied,
                    c.epochs,
                    c.served,
                    c.seconds,
                    c.qps,
                    c.shed,
                    c.deadline_cut,
                    c.worker_panics,
                    c.p50_micros,
                    c.p99_micros,
                    if j + 1 < p.cells.len() { "," } else { "" }
                ));
            }
            json.push_str(&format!("    ]}}{}\n", if i + 1 < points.len() { "," } else { "" }));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Path of the tracking file (workspace root).
    pub fn tracking_file() -> &'static str {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json")
    }

    /// Measures the 23k smoke tier with short windows (the CI run; the
    /// `serving_bench` binary extends the trajectory to the committed 116k/580k
    /// tiers) and writes the tracking file. Workload parameters (k=10, d=0.01)
    /// match the binary's defaults so the tiers stay comparable. `io` lets the
    /// CI handoff save the smoke tier's artifact in one process and warm-start
    /// the serving stack from it in a fresh one (ISSUE 8).
    pub fn run_and_track(io: &crate::artifacts::ArtifactIo) -> Vec<ServingPoint> {
        let points =
            measure(&[20_000], 10, 0.01, Duration::from_millis(500), io, Robustness::default());
        let path = tracking_file();
        std::fs::write(path, render_json(&points)).expect("write BENCH_serving.json");
        println!("wrote {path}");
        points
    }

    /// One seeded chaos round at the smoke tier (the CI chaos smoke): the
    /// serving workload under [`FaultPlan::chaos`]`(seed)` plus a deadline.
    /// Exercises shedding, mid-search deadline cuts, worker panics and
    /// supervised respawn end-to-end through the real bench harness; the
    /// exactly-once and census asserts inside `measure_cell` are the gate.
    /// Does **not** touch the tracking file — faulted numbers are not the
    /// committed trajectory.
    pub fn chaos_smoke(seed: u64, deadline: Duration, io: &crate::artifacts::ArtifactIo) {
        let robust =
            Robustness { deadline: Some(deadline), fault_plan: Some(FaultPlan::chaos(seed)) };
        let points = measure(&[20_000], 10, 0.01, Duration::from_millis(500), io, robust);
        let injected: u64 =
            points.iter().flat_map(|p| p.cells.iter()).map(|c| c.worker_panics).sum();
        println!(
            "chaos smoke (seed {seed}): {injected} injected panics absorbed, front stayed exact"
        );
    }
}

/// Cold-start measurement (ISSUE 8): how fast a saved engine becomes
/// query-ready from disk, versus the minutes the CH + G-tree builds take.
/// For each tier the harness builds the query-engine configuration once,
/// saves the artifact, then times repeated loads from a warm page cache plus
/// the full "ready" path — load, inject objects, answer one verified kNN
/// query. The trajectory is persisted to `BENCH_cold_start.json`.
pub mod cold_start {
    use std::time::Instant;

    use rnknn::engine::{Engine, Method};
    use rnknn::verify::matches_ground_truth;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{EdgeWeightKind, NodeId};
    use rnknn_objects::uniform;

    /// One measured tier.
    #[derive(Debug, Clone, Copy)]
    pub struct ColdStartPoint {
        /// Vertices of the generated network.
        pub vertices: usize,
        /// Artifact size on disk in bytes.
        pub artifact_bytes: u64,
        /// Wall-clock CH + G-tree build time in seconds (the cost a load skips).
        pub build_seconds: f64,
        /// Wall-clock save time in seconds.
        pub save_seconds: f64,
        /// Median warm-page-cache load-and-validate time in milliseconds.
        pub load_warm_ms: f64,
        /// Load + object injection + first verified kNN answer, milliseconds.
        pub ready_ms: f64,
    }

    /// Measures one point per requested size: build once, save, then `loads`
    /// timed loads (median reported) and one timed load-to-first-answer run
    /// whose result is Dijkstra-verified *after* the clock stops.
    pub fn measure(sizes: &[usize], loads: usize) -> Vec<ColdStartPoint> {
        let config = crate::knn_query::engine_config();
        let dir = std::env::temp_dir().join("rnknn-cold-start");
        std::fs::create_dir_all(&dir).expect("create artifact directory");
        let mut points = Vec::new();
        for &size in sizes {
            let net = RoadNetwork::generate(&GeneratorConfig::new(size, 42));
            let graph = net.graph(EdgeWeightKind::Distance);
            let vertices = graph.num_vertices();
            let build_start = Instant::now();
            let engine = Engine::build(graph, &config);
            let build_seconds = build_start.elapsed().as_secs_f64();

            let path = dir.join(format!("coldstart-{size}.rnk"));
            let save_start = Instant::now();
            let artifact_bytes = engine.save_indexes(&path).expect("save artifact");
            let save_seconds = save_start.elapsed().as_secs_f64();
            drop(engine);

            // One unmeasured load warms the page cache; then the median of
            // `loads` full load-and-validate passes.
            drop(Engine::load_indexes(&path, &config).expect("warm-up load"));
            let mut load_ms = Vec::with_capacity(loads.max(1));
            for _ in 0..loads.max(1) {
                let start = Instant::now();
                let loaded = Engine::load_indexes(&path, &config).expect("timed load");
                load_ms.push(start.elapsed().as_secs_f64() * 1e3);
                drop(loaded);
            }
            load_ms.sort_by(|a, b| a.total_cmp(b));
            let load_warm_ms = load_ms[load_ms.len() / 2];

            // Ready = load + objects + first answer; verification happens
            // after the clock stops so it never inflates the number.
            let k = 10;
            let q = (vertices / 2) as NodeId;
            let ready_start = Instant::now();
            let mut loaded = Engine::load_indexes(&path, &config).expect("ready load");
            let objects = uniform(loaded.graph(), 0.01, 1);
            loaded.set_objects(objects.clone());
            let answer = loaded.query(Method::Gtree, q, k).expect("first query");
            let ready_ms = ready_start.elapsed().as_secs_f64() * 1e3;
            assert!(
                matches_ground_truth(loaded.graph(), q, k, &objects, &answer.result),
                "loaded engine answered wrong at q={q} size={size}"
            );

            println!(
                "cold start n={size:>7} vertices={vertices:>7} artifact={:.1}MiB build={build_seconds:.1}s save={:.0}ms load(warm p50)={load_warm_ms:.0}ms ready={ready_ms:.0}ms",
                artifact_bytes as f64 / (1024.0 * 1024.0),
                save_seconds * 1e3,
            );
            let _ = std::fs::remove_file(&path);
            points.push(ColdStartPoint {
                vertices,
                artifact_bytes,
                build_seconds,
                save_seconds,
                load_warm_ms,
                ready_ms,
            });
        }
        points
    }

    /// Renders the tracking JSON for `BENCH_cold_start.json`.
    pub fn render_json(points: &[ColdStartPoint]) -> String {
        let mut json = String::from(
            "{\n  \"bench\": \"cold_start\",\n  \"unit\": \"milliseconds to query-ready from a warm page cache\",\n  \"points\": [\n",
        );
        for (i, p) in points.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"vertices\": {}, \"artifact_bytes\": {}, \"build_seconds\": {:.3}, \"save_seconds\": {:.3}, \"load_warm_ms\": {:.1}, \"ready_ms\": {:.1}}}{}\n",
                p.vertices,
                p.artifact_bytes,
                p.build_seconds,
                p.save_seconds,
                p.load_warm_ms,
                p.ready_ms,
                if i + 1 < points.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Path of the tracking file (workspace root).
    pub fn tracking_file() -> &'static str {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cold_start.json")
    }

    /// Measures the 23k/116k smoke tier (the CI run; the `cold_start_bench`
    /// binary extends the trajectory to the committed 580k tier) and writes the
    /// tracking file.
    pub fn run_and_track() -> Vec<ColdStartPoint> {
        let points = measure(&[20_000, 100_000], 5);
        let path = tracking_file();
        std::fs::write(path, render_json(&points)).expect("write BENCH_cold_start.json");
        println!("wrote {path}");
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_builds_and_times_queries() {
        let options = TestbedOptions {
            scale: 0.05,
            num_queries: 5,
            engine: EngineConfig::minimal(),
            ..Default::default()
        };
        let mut bed = Testbed::build(DatasetPreset::DE, &options);
        assert!(bed.graph().num_vertices() > 50);
        let count = bed.set_uniform_objects(0.01, 3);
        assert!(count > 0);
        let micros = bed.avg_query_micros(Method::Gtree, 5);
        assert!(micros.is_finite() && micros >= 0.0);
        // Unsupported method reports NaN rather than panicking.
        assert!(bed.avg_query_micros(Method::IerPhl, 5).is_nan());
        // Unified stats aggregate over the workload.
        let stats = bed.workload_stats(Method::Gtree, 5).expect("supported");
        assert!(stats.nodes_expanded > 0);
        assert!(bed.workload_stats(Method::IerPhl, 5).is_none());
        // The parallel path answers the same workload.
        assert!(bed.avg_batch_query_micros(Method::Gtree, 5).is_finite());
    }

    #[test]
    fn table_renders_all_rows_and_series() {
        let mut t = Table::new("Figure X", "k", vec!["A".into(), "B".into()], "µs");
        t.push("1", vec![1.0, 2.0]);
        t.push("5", vec![300.0, f64::NAN]);
        let text = t.render();
        assert!(text.contains("Figure X"));
        assert!(text.contains("n/a"));
        assert!(text.lines().count() >= 5);
    }
}
