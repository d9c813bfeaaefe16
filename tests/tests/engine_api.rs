//! The fallible, thread-safe query surface: error paths of `Engine::query`,
//! parallel/sequential agreement of `Engine::knn_batch`, and the unified
//! `QueryStats` contract for all eleven methods.

use std::sync::atomic::{AtomicUsize, Ordering};

use rnknn::{Engine, EngineConfig, EngineError, IndexKind, Method, QueryOutput};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_objects::uniform;

fn full_engine(n: usize, seed: u64) -> Engine {
    let net = RoadNetwork::generate(&GeneratorConfig::new(n, seed));
    let graph = net.graph(EdgeWeightKind::Distance);
    let config =
        EngineConfig { build_tnr: true, gtree_leaf_capacity: Some(64), ..Default::default() };
    Engine::build(graph, &config)
}

#[test]
fn minimal_config_reports_missing_index_not_panic() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(400, 8));
    let graph = net.graph(EdgeWeightKind::Distance);
    let mut engine = Engine::build(graph, &EngineConfig::minimal());
    engine.set_objects(uniform(engine.graph(), 0.05, 3));

    assert_eq!(
        engine.query(Method::IerPhl, 5, 3).unwrap_err(),
        EngineError::MissingIndex { method: Method::IerPhl, index: IndexKind::Phl }
    );
    assert_eq!(
        engine.query(Method::IerCh, 5, 3).unwrap_err(),
        EngineError::MissingIndex { method: Method::IerCh, index: IndexKind::Ch }
    );
    assert_eq!(
        engine.query(Method::IerTnr, 5, 3).unwrap_err(),
        EngineError::MissingIndex { method: Method::IerTnr, index: IndexKind::Tnr }
    );
    assert_eq!(
        engine.query(Method::DisBrw, 5, 3).unwrap_err(),
        EngineError::MissingIndex { method: Method::DisBrw, index: IndexKind::Silc }
    );
    // Even an empty batch surfaces configuration errors (warm-up batches are a
    // reliable configuration check).
    assert_eq!(
        engine.knn_batch(Method::IerPhl, &[], 3).unwrap_err(),
        EngineError::MissingIndex { method: Method::IerPhl, index: IndexKind::Phl }
    );
    // The registry keeps supports() and query() in agreement.
    for method in Method::all() {
        assert_eq!(
            engine.supports(method),
            engine.query(method, 5, 3).is_ok(),
            "{}",
            method.name()
        );
    }
}

#[test]
fn querying_before_set_objects_is_no_objects() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(300, 9));
    let graph = net.graph(EdgeWeightKind::Distance);
    let engine = Engine::build(graph, &EngineConfig::minimal());
    for method in [Method::Ine, Method::Gtree, Method::Road, Method::IerDijkstra] {
        assert_eq!(engine.query(method, 0, 3).unwrap_err(), EngineError::NoObjects);
    }
}

#[test]
fn out_of_range_vertex_and_zero_k_are_rejected() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(300, 10));
    let graph = net.graph(EdgeWeightKind::Distance);
    let mut engine = Engine::build(graph, &EngineConfig::minimal());
    engine.set_objects(uniform(engine.graph(), 0.05, 4));
    let n = engine.graph().num_vertices();

    assert_eq!(
        engine.query(Method::Ine, n as NodeId, 3).unwrap_err(),
        EngineError::InvalidVertex { vertex: n as NodeId, num_vertices: n }
    );
    assert_eq!(
        engine.query(Method::Ine, NodeId::MAX, 3).unwrap_err(),
        EngineError::InvalidVertex { vertex: NodeId::MAX, num_vertices: n }
    );
    assert_eq!(engine.query(Method::Gtree, 3, 0).unwrap_err(), EngineError::InvalidK { k: 0 });
    // Errors are values: format and compare without touching the engine.
    let message = engine.query(Method::Ine, n as NodeId, 3).unwrap_err().to_string();
    assert!(message.contains("out of range"));
}

#[test]
fn knn_batch_agrees_with_sequential_query_for_all_supported_methods() {
    let engine = {
        let mut engine = full_engine(900, 42);
        engine.set_objects(uniform(engine.graph(), 0.02, 11));
        engine
    };
    let n = engine.graph().num_vertices() as NodeId;
    let queries: Vec<NodeId> = (0..32u32).map(|i| (i * 1_237 + 5) % n).collect();
    for method in Method::all() {
        assert!(engine.supports(method), "{} should be supported", method.name());
        let batch = engine.knn_batch(method, &queries, 6).expect("supported method");
        assert_eq!(batch.len(), queries.len());
        for (&q, output) in queries.iter().zip(&batch) {
            let sequential = engine.query(method, q, 6).expect("supported method");
            assert_eq!(
                output.result,
                sequential.result,
                "{} parallel/sequential mismatch at q={q}",
                method.name()
            );
        }
        // The auto-sized entry point returns the same results.
        let auto = engine.knn_batch(method, &queries[..8], 6).expect("supported method");
        for (output, parallel) in auto.iter().zip(&batch) {
            assert_eq!(output.result, parallel.result, "{}", method.name());
        }
    }
}

#[test]
fn shared_engine_answers_from_explicit_worker_threads() {
    // knn_batch uses scoped threads internally; this exercises the Sync contract
    // directly — one engine, four threads, disjoint query slices.
    let engine = {
        let mut engine = full_engine(700, 77);
        engine.set_objects(uniform(engine.graph(), 0.03, 23));
        engine
    };
    let n = engine.graph().num_vertices() as NodeId;
    let queries: Vec<NodeId> = (0..40u32).map(|i| (i * 911 + 13) % n).collect();
    let answered = AtomicUsize::new(0);
    let (engine, answered_ref) = (&engine, &answered);
    std::thread::scope(|scope| {
        for chunk in queries.chunks(queries.len().div_ceil(4)) {
            scope.spawn(move || {
                for &q in chunk {
                    let output = engine.query(Method::IerPhl, q, 5).expect("PHL built");
                    let reference = engine.query(Method::Ine, q, 5).expect("always supported");
                    assert_eq!(output.distances(), reference.distances(), "q={q}");
                    answered_ref.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(answered.load(Ordering::Relaxed), queries.len());
}

#[test]
fn every_method_reports_non_trivial_query_stats() {
    let engine = {
        let mut engine = full_engine(900, 7);
        engine.set_objects(uniform(engine.graph(), 0.01, 3));
        engine
    };
    let n = engine.graph().num_vertices() as NodeId;
    let q = n / 2;
    let ier_variants = [
        Method::IerDijkstra,
        Method::IerAStar,
        Method::IerCh,
        Method::IerPhl,
        Method::IerTnr,
        Method::IerGtree,
    ];
    // Methods whose search machinery runs a priority queue. The label-intersection
    // oracle (IER-PHL), SILC's interval refinement (DisBrw*), and MGtree's
    // matrix-assembly materialization (IER-Gt) legitimately report zero heap
    // operations on oracle-only work.
    let heap_driven = [
        Method::Ine,
        Method::IerDijkstra,
        Method::IerAStar,
        Method::IerCh,
        Method::IerTnr,
        Method::Road,
        Method::Gtree,
    ];
    for method in Method::all() {
        let output: QueryOutput = engine.query(method, q, 8).expect("supported method");
        assert_eq!(output.result.len(), 8, "{}", method.name());
        let s = output.stats;
        // Every method runs a real search on a non-trivial query, so the unified
        // "vertices settled / hierarchy nodes expanded / hub entries examined"
        // counter must be populated — an all-zero report means an oracle forgot to
        // plumb its counters (the bug this test pins down). One documented
        // exception: DB-ENN expands no object-hierarchy nodes (its effort is the
        // refinement count, mapped to oracle_calls and asserted below).
        if method != Method::DisBrw {
            assert!(s.nodes_expanded > 0, "{} reported zero nodes_expanded", method.name());
        }
        if matches!(method, Method::DisBrw | Method::DisBrwObjectHierarchy) {
            assert!(s.oracle_calls > 0, "{} must report refinements", method.name());
            assert!(s.candidates_examined > 0, "{} must report candidates", method.name());
        }
        if heap_driven.contains(&method) {
            assert!(s.heap_operations > 0, "{} reported zero heap_operations", method.name());
        }
        if ier_variants.contains(&method) {
            assert!(s.oracle_calls > 0, "{} must report oracle calls", method.name());
            assert!(s.candidates_examined > 0, "{} must report candidates", method.name());
        }
        // The two G-tree-backed methods assemble border distances out of the
        // distance matrices. The array layout counts nothing per cell, so the
        // per-search batch counter must carry the matrix work.
        if matches!(method, Method::Gtree | Method::IerGtree) {
            assert!(s.matrix_cells > 0, "{} reported zero matrix_cells", method.name());
        }
    }
}
