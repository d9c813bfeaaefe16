//! Quickstart: build a road network, inject an object set and answer kNN queries with
//! every available method.
//!
//! ```sh
//! cargo run --release -p rnknn-examples --bin quickstart
//! ```

use std::time::Duration;

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::{EngineScratch, QueryBudget, QueryOutput};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::EdgeWeightKind;
use rnknn_objects::uniform;

fn main() {
    // 1. A synthetic road network (substitute a DIMACS dataset via rnknn_graph::dimacs
    //    if you have one on disk).
    // 8k vertices keeps the full index build (SILC and CH are the expensive ones)
    // under half a minute; scale up freely when you are not just demoing.
    let network = RoadNetwork::generate(&GeneratorConfig::new(8_000, 42));
    let graph = network.graph(EdgeWeightKind::Distance);
    println!("road network: {} vertices, {} edges", graph.num_vertices(), graph.num_edges());

    // 2. Build the road-network indexes once.
    let config = EngineConfig { build_tnr: true, ..Default::default() };
    let mut engine = Engine::build(graph, &config);
    let times = engine.build_times();
    println!(
        "index build times: G-tree {:.1} ms, ROAD {:.1} ms, SILC {:.1} ms, CH {:.1} ms, PHL {:.1} ms",
        times.gtree_micros as f64 / 1e3,
        times.road_micros as f64 / 1e3,
        times.silc_micros as f64 / 1e3,
        times.ch_micros as f64 / 1e3,
        times.phl_micros as f64 / 1e3,
    );

    // 3. Inject an object set (restaurants, ATMs, ...). Object indexes are decoupled
    //    from the road-network indexes and cheap to rebuild.
    let objects = uniform(engine.graph(), 0.001, 7);
    println!("object set: {} objects (density 0.001)", objects.len());
    engine.set_objects(objects);

    // 4. Query with every method; they all return the same answer. `query` is
    //    fallible — a method whose index was not built reports an error value
    //    instead of panicking — and every answer carries unified QueryStats.
    let query = (engine.graph().num_vertices() / 3) as u32;
    let k = 5;
    for method in Method::all() {
        match engine.query(method, query, k) {
            Ok(output) => println!(
                "{:<10} {:>7} µs  distances: {:?}  (expanded {}, oracle calls {})",
                method.name(),
                output.stats.elapsed_micros,
                output.distances(),
                output.stats.nodes_expanded,
                output.stats.oracle_calls,
            ),
            Err(e) => println!("{:<10} unavailable: {e}", method.name()),
        }
    }

    // 5. The engine is Sync: fan a whole workload across threads.
    let n = engine.graph().num_vertices() as u32;
    let workload: Vec<u32> = (0..10_000u64).map(|i| ((i * 2_654_435) % n as u64) as u32).collect();
    let start = std::time::Instant::now();
    let batch = engine.knn_batch(Method::IerPhl, &workload, k).expect("PHL built above");
    println!(
        "\nknn_batch: {} IER-PHL queries in {:.1} ms across {} threads",
        batch.len(),
        start.elapsed().as_secs_f64() * 1e3,
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
    );

    // 6. The serving path: a caller-owned scratch and output, reused across
    //    queries, answer without allocating once warm; a budget bounds a query's
    //    work and ends it with `DeadlineExceeded` instead of running late.
    let indexes = engine.object_indexes().expect("objects injected above");
    let mut scratch = EngineScratch::new();
    let mut out = QueryOutput::default();
    let start = std::time::Instant::now();
    for &q in &workload {
        engine
            .query_with_objects(Method::Gtree, q, k, indexes, &mut scratch, &mut out)
            .expect("G-tree built above");
    }
    println!(
        "query_with_objects: {} G-tree queries in {:.1} ms on one reused scratch",
        workload.len(),
        start.elapsed().as_secs_f64() * 1e3,
    );
    let budget = QueryBudget::with_timeout(Duration::from_millis(10));
    match engine.query_with_objects_budgeted(
        Method::Gtree,
        query,
        k,
        &budget,
        indexes,
        &mut scratch,
        &mut out,
    ) {
        Ok(()) => println!("within a 10 ms budget: distances {:?}", out.distances()),
        Err(e) => println!("within a 10 ms budget: {e}"),
    }
}
