//! Randomized cross-method conformance harness.
//!
//! The paper's experimental credibility rests on every method answering every query
//! identically; this harness sweeps a seeded configuration matrix — graph size ×
//! edge-weight kind × G-tree leaf capacity × k × object density — and asserts that
//! every method `Engine::supports` reports answers the same ranked kNN set as the
//! INE baseline *and* as the Dijkstra ground truth, including ties-by-distance
//! (vertex identity may differ inside a tie group, distances may not).
//!
//! Everything is derived from one deterministic xorshift stream, so a failure
//! reproduces from the seed printed in the assertion message. The matrix stays
//! debug-CI-sized (the release-only scaling guards live in `ch_scaling.rs` /
//! `gtree_scaling.rs`).

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::verify::{ground_truth, matches_ground_truth};
use rnknn::{EngineError, EngineScratch, QueryBudget, QueryOutput};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_objects::{uniform, ObjectSet};

/// xorshift64* — deterministic, dependency-free stream for seeds and query picks.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// One cell of the sweep: everything needed to rebuild the scenario by hand.
/// The fields exist to appear in `{config:?}` assertion messages (derived `Debug`
/// does not count as a read for the dead-code lint).
#[allow(dead_code)]
#[derive(Debug, Clone, Copy)]
struct Config {
    size: usize,
    graph_seed: u64,
    kind: EdgeWeightKind,
    leaf_capacity: usize,
    density: f64,
    object_seed: u64,
    k: usize,
}

/// Asserts every supported method against INE and the ground truth on `queries`.
/// Every method runs **twice back-to-back** from the same engine — the first call
/// may warm the per-thread scratch pool, the second must reuse it bit-for-bit —
/// and on the first query additionally on a new thread, whose engine scratch and
/// G-tree store pool start cold, closing the class of stale-scratch bugs the
/// pooled query path could introduce. Returns how many (method × query) checks
/// ran.
fn check_conformance(
    engine: &Engine,
    objects: &ObjectSet,
    queries: &[NodeId],
    config: Config,
) -> usize {
    let indexes = engine.object_indexes().expect("objects installed");
    let mut scratch = EngineScratch::new();
    let mut checks = 0;
    for (qi, &q) in queries.iter().enumerate() {
        let ine = engine
            .query(Method::Ine, q, config.k)
            .unwrap_or_else(|e| panic!("INE failed under {config:?}: {e}"));
        let reference = ine.distances();
        // INE itself must match the Dijkstra ground truth (ties by distance: the
        // distance sequence is fully determined even where vertex identity is not).
        let truth = ground_truth(engine.graph(), q, config.k, objects);
        assert_eq!(
            reference,
            truth.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
            "INE disagrees with Dijkstra ground truth at q={q} under {config:?}"
        );
        for method in Method::all() {
            if !engine.supports(method) {
                continue;
            }
            let output = engine
                .query(method, q, config.k)
                .unwrap_or_else(|e| panic!("{} failed under {config:?}: {e}", method.name()));
            assert_eq!(
                output.distances(),
                reference,
                "{} disagrees with INE at q={q} under {config:?}",
                method.name()
            );
            assert!(
                matches_ground_truth(engine.graph(), q, config.k, objects, &output.result),
                "{} returned an invalid result (bad vertex or unsorted) at q={q} under {config:?}",
                method.name()
            );
            // Second pass from the now-warm scratch pool: fresh and reused scratch
            // must agree exactly (including vertex identity, not just distances).
            let reused = engine
                .query(method, q, config.k)
                .unwrap_or_else(|e| panic!("{} rerun failed under {config:?}: {e}", method.name()));
            assert_eq!(
                reused.result,
                output.result,
                "{} diverged on scratch reuse at q={q} under {config:?}",
                method.name()
            );
            // Budget-check placement: a budget that never exhausts — generous
            // deadline, unlimited steps, checked at the tightest possible
            // stride — must leave the answer bit-identical to the unbudgeted
            // path. This sweeps the check placement in every method's search
            // loop across the whole seeded matrix.
            let generous = QueryBudget::new(
                Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
                u64::MAX,
                1,
            );
            let mut budgeted = QueryOutput::default();
            engine
                .query_with_objects_budgeted(
                    method,
                    q,
                    config.k,
                    &generous,
                    indexes,
                    &mut scratch,
                    &mut budgeted,
                )
                .unwrap_or_else(|e| {
                    panic!("{} budgeted rerun failed under {config:?}: {e}", method.name())
                });
            assert_eq!(
                budgeted.result,
                output.result,
                "{} diverged under a generous budget at q={q} under {config:?}",
                method.name()
            );
            // Cold pools: a new thread starts with an empty engine scratch and an
            // empty G-tree store pool, so its answer cannot lean on state this
            // thread's earlier queries left behind. Spot-check the first query of
            // each configuration.
            if qi == 0 {
                let cold = std::thread::scope(|scope| {
                    scope.spawn(|| engine.query(method, q, config.k)).join().expect("no panic")
                })
                .unwrap_or_else(|e| {
                    panic!("{} cold-thread query failed under {config:?}: {e}", method.name())
                });
                assert_eq!(
                    cold.result,
                    output.result,
                    "{} warm pools disagree with cold pools at q={q} under {config:?}",
                    method.name()
                );
            }
            checks += 1;
        }
    }
    checks
}

#[test]
fn seeded_config_matrix_agrees_across_all_supported_methods() {
    let mut rng = Rng(0x5EED_CAFE_F00D_D00D);
    let mut configurations = 0;
    let mut checks = 0;
    for &size in &[400usize, 900] {
        for &kind in &[EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            for &leaf_capacity in &[32usize, 64] {
                let graph_seed = rng.below(1 << 20);
                let net = RoadNetwork::generate(&GeneratorConfig::new(size, graph_seed));
                let graph = net.graph(kind);
                let engine_config = EngineConfig {
                    build_tnr: true,
                    gtree_leaf_capacity: Some(leaf_capacity),
                    ..Default::default()
                };
                let mut engine = Engine::build(graph, &engine_config);
                let n = engine.graph().num_vertices() as NodeId;
                for &density in &[0.005f64, 0.05, 0.4] {
                    let object_seed = rng.below(1 << 20);
                    let objects = uniform(engine.graph(), density, object_seed);
                    if objects.is_empty() {
                        continue;
                    }
                    engine.set_objects(objects.clone());
                    // Exercise k below, at, and beyond the object count, plus k=1.
                    for &k in &[1usize, 4, 11, objects.len() + 3] {
                        let queries: Vec<NodeId> =
                            (0..3).map(|_| rng.below(n as u64) as NodeId).collect();
                        let config = Config {
                            size,
                            graph_seed,
                            kind,
                            leaf_capacity,
                            density,
                            object_seed,
                            k,
                        };
                        checks += check_conformance(&engine, &objects, &queries, config);
                        configurations += 1;
                    }
                }
            }
        }
    }
    // The satellite contract: at least 20 seeded configurations in debug CI, every
    // one exercising every supported registry method.
    assert!(configurations >= 20, "only {configurations} configurations ran");
    assert!(
        checks >= configurations * Method::all().len() / 2,
        "suspiciously few checks: {checks}"
    );
}

/// Ties-by-distance stress: many objects at identical distances (a grid with unit
/// weights and a dense object set) must still produce identical ranked distance
/// sequences across methods, whatever tie-break each method uses internally.
#[test]
fn tie_heavy_workloads_agree_on_ranked_distances() {
    let mut rng = Rng(0xB01D_FACE_0000_0001);
    let net = RoadNetwork::generate(&GeneratorConfig::new(600, 77));
    let graph = net.graph(EdgeWeightKind::Distance);
    let engine_config =
        EngineConfig { build_tnr: true, gtree_leaf_capacity: Some(48), ..Default::default() };
    let mut engine = Engine::build(graph, &engine_config);
    let n = engine.graph().num_vertices() as NodeId;
    // Every vertex is an object: distance ties are guaranteed dense, and the k-th
    // distance boundary almost always cuts through a tie group.
    let all: Vec<NodeId> = (0..n).collect();
    let objects = ObjectSet::new("all-vertices", n as usize, all);
    engine.set_objects(objects.clone());
    for k in [2usize, 7, 25] {
        for _ in 0..4 {
            let q = rng.below(n as u64) as NodeId;
            let config = Config {
                size: 600,
                graph_seed: 77,
                kind: EdgeWeightKind::Distance,
                leaf_capacity: 48,
                density: 1.0,
                object_seed: 0,
                k,
            };
            check_conformance(&engine, &objects, &[q], config);
        }
    }
}

/// Budget exhaustion is clean for every supported method: a two-step budget
/// (the limit is inclusive, so exactly one unit of search work is allowed
/// before the cut) makes the search unwind with
/// [`EngineError::DeadlineExceeded`] carrying **non-zero partial stats** — the
/// allowed work is recorded, not discarded — and the same thread's pooled
/// scratch immediately serves an exact unbudgeted query afterwards: exhaustion
/// never wedges or corrupts the pool.
#[test]
fn exhausted_budgets_fail_cleanly_with_partial_stats() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(900, 4242));
    let engine_config =
        EngineConfig { build_tnr: true, gtree_leaf_capacity: Some(48), ..Default::default() };
    let mut engine = Engine::build(net.graph(EdgeWeightKind::Distance), &engine_config);
    let objects = uniform(engine.graph(), 0.01, 5);
    engine.set_objects(objects.clone());
    let n = engine.graph().num_vertices() as NodeId;
    let k = objects.len().min(8);
    let indexes = engine.object_indexes().expect("objects installed");
    let mut scratch = EngineScratch::new();
    let mut out = QueryOutput::default();
    let mut methods_cut = 0;
    for method in Method::all() {
        if !engine.supports(method) {
            continue;
        }
        for q in [3 as NodeId, n / 2, n - 7] {
            // Two steps (inclusive limit), checked every step: the second
            // charge exhausts, after exactly one unit of search work.
            let starved = QueryBudget::new(None, 2, 1);
            match engine.query_with_objects_budgeted(
                method,
                q,
                k,
                &starved,
                indexes,
                &mut scratch,
                &mut out,
            ) {
                Err(EngineError::DeadlineExceeded { partial }) => {
                    let work = partial.nodes_expanded
                        + partial.heap_operations
                        + partial.oracle_calls
                        + partial.candidates_examined
                        + partial.matrix_cells;
                    assert!(
                        work > 0,
                        "{} reported DeadlineExceeded with all-zero partial stats at q={q}",
                        method.name()
                    );
                    methods_cut += 1;
                }
                Err(e) => {
                    panic!("{} failed oddly under a starved budget at q={q}: {e}", method.name())
                }
                Ok(_) => panic!(
                    "{} completed under a two-step budget at q={q} — budget never charged",
                    method.name()
                ),
            }
            // The scratch survived the unwind: an unbudgeted rerun on it must
            // still be exact.
            engine.query_with_objects(method, q, k, indexes, &mut scratch, &mut out).unwrap();
            assert_eq!(
                out.distances(),
                ground_truth(engine.graph(), q, k, &objects)
                    .iter()
                    .map(|&(_, d)| d)
                    .collect::<Vec<_>>(),
                "{} inexact after a budget-exhausted query at q={q}",
                method.name()
            );
        }
    }
    assert!(methods_cut >= 5 * 3, "only {methods_cut} (method × query) cuts exercised");
}
