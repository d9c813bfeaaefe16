//! Release-only per-method query-latency regression guard (the query-side analogue
//! of `ch_scaling.rs` / `gtree_scaling.rs`).
//!
//! The committed kNN query-latency trajectory (`BENCH_knn_query.json`) has this
//! guard at its 116k tier.
//! Budgets are ~10x the single-core medians measured when the trajectory was
//! committed (G-tree ~1.4ms, INE ~110µs, IER-CH ~630µs, IER-Gt ~660µs at k=10,
//! d=0.01) — if one trips, either the pooled query path regressed or an index
//! build changed query-relevant structure.

#![cfg(not(debug_assertions))]

use std::time::{Duration, Instant};

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::verify::matches_ground_truth;
use rnknn::{EngineScratch, QueryOutput};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_objects::uniform;

/// Median of per-query wall-clock times for `method` over `queries`. With
/// `budgeted`, every query runs under a generous wall-clock deadline at the
/// serving layer's default check cadence — the exact configuration a deadline-
/// carrying [`rnknn_serve::KnnRequest`] dispatches with — so the deadline
/// checks' overhead is inside the measurement.
fn p50_micros(
    engine: &Engine,
    method: Method,
    queries: &[NodeId],
    k: usize,
    budgeted: bool,
) -> f64 {
    let indexes = engine.object_indexes().expect("objects installed");
    let mut scratch = EngineScratch::new();
    let mut out = QueryOutput::default();
    // Warm-up pass: grow every pooled buffer to the workload's high-water mark.
    for &q in queries {
        engine
            .query_with_objects(method, q, k, indexes, &mut scratch, &mut out)
            .expect("warm-up query");
    }
    let mut times: Vec<u64> = Vec::with_capacity(queries.len());
    for &q in queries {
        let budget = rnknn::QueryBudget::new(
            budgeted.then(|| Instant::now() + Duration::from_secs(3600)),
            u64::MAX,
            rnknn::pathfinding::budget::DEFAULT_CHECK_EVERY,
        );
        let start = Instant::now();
        engine
            .query_with_objects_budgeted(method, q, k, &budget, indexes, &mut scratch, &mut out)
            .expect("measured query");
        times.push(start.elapsed().as_micros() as u64);
    }
    times.sort_unstable();
    times[times.len() / 2] as f64
}

/// Applies the exactness gate plus the per-method p50 budgets to one engine.
/// `label` names the engine provenance ("built" / "loaded") in failures.
fn run_guard(engine: &mut Engine, label: &str) {
    let objects = uniform(engine.graph(), 0.01, 1);
    engine.set_objects(objects.clone());

    let n = engine.graph().num_vertices() as NodeId;
    let queries: Vec<NodeId> =
        (0..200u64).map(|i| ((i * 2_654_435_769) % n as u64) as NodeId).collect();
    let k = 10;

    // Exactness first: a fast-but-wrong query path must never pass the guard.
    for &q in queries.iter().take(3) {
        for method in [Method::Gtree, Method::Ine, Method::IerCh, Method::IerGtree] {
            let output = engine.query(method, q, k).expect("query");
            assert!(
                matches_ground_truth(engine.graph(), q, k, &objects, &output.result),
                "{} wrong at q={q} on the {label} engine",
                method.name()
            );
        }
    }

    let budgets = [
        (Method::Gtree, Duration::from_micros(14_000)),
        (Method::Ine, Duration::from_micros(1_500)),
        (Method::IerCh, Duration::from_micros(6_500)),
        (Method::IerGtree, Duration::from_micros(7_000)),
    ];
    for (method, budget) in budgets {
        let p50 = p50_micros(engine, method, &queries, k, false);
        assert!(
            Duration::from_micros(p50 as u64) < budget,
            "{} p50 {}µs exceeds the {budget:?} budget at 116k on the {label} engine",
            method.name(),
            p50
        );
        // Deadline-checked serving path, same thresholds: the cooperative
        // budget checks (one relaxed load + counter compare per charge, a
        // clock read every `DEFAULT_CHECK_EVERY` steps) must be invisible at
        // this granularity — measured overhead is under 2% locally, far inside
        // the 10x headroom these budgets carry.
        let p50_deadline = p50_micros(engine, method, &queries, k, true);
        assert!(
            Duration::from_micros(p50_deadline as u64) < budget,
            "{} deadline-checked p50 {}µs exceeds the unchanged {budget:?} budget at 116k on \
             the {label} engine (unbudgeted p50 {}µs)",
            method.name(),
            p50_deadline,
            p50
        );
    }
}

#[test]
fn per_method_query_p50_stays_within_budget_at_116k_built_and_loaded() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(100_000, 42));
    let graph = net.graph(EdgeWeightKind::Distance);
    let config = EngineConfig {
        build_gtree: true,
        build_road: false,
        build_silc: false,
        build_ch: true,
        build_phl: false,
        build_tnr: false,
        ..Default::default()
    };
    let mut engine = Engine::build(graph, &config);
    run_guard(&mut engine, "built");

    // An engine cold-started from its persisted artifact must meet
    // the same budgets with the same answers — zero-copy views over the
    // mapped arena can't be allowed to trade latency for load speed.
    let dir = std::env::temp_dir().join("rnknn-scaling-guard");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("guard-116k-{}.rnk", std::process::id()));
    engine.save_indexes(&path).expect("save 116k artifact");
    let mut loaded = Engine::load_indexes(&path, &config).expect("load 116k artifact");
    std::fs::remove_file(&path).ok();

    // Identical answers before identical budgets.
    let objects = uniform(engine.graph(), 0.01, 1);
    engine.set_objects(objects.clone());
    loaded.set_objects(objects);
    let n = engine.graph().num_vertices() as NodeId;
    for i in 0..5u64 {
        let q = ((i * 7919 + 1) % n as u64) as NodeId;
        for method in [Method::Gtree, Method::Ine, Method::IerCh, Method::IerGtree] {
            assert_eq!(
                loaded.query(method, q, 10).unwrap().result,
                engine.query(method, q, 10).unwrap().result,
                "built/loaded diverge: {} q={q}",
                method.name()
            );
        }
    }
    drop(engine);
    run_guard(&mut loaded, "loaded");
}
