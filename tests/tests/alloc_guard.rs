//! Steady-state allocation guard for the pooled query path.
//!
//! The engine's contract is that `Engine::query_with_objects` on a warm
//! caller-owned scratch performs **zero heap allocations** for the pooled
//! methods. This binary installs a counting global allocator and proves it for
//! G-tree, INE and IER-CH (and, as a bonus, the remaining IER oracle methods),
//! and pins `Engine::query`'s overhead to exactly the returned result vector.
//!
//! Allocations are counted **per thread**: libtest runs these tests in
//! parallel, and a process-global counter would charge one test's index
//! builds to another test's measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::{EngineScratch, ObjectIndexes, QueryBudget, QueryOutput};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_objects::uniform;

/// Counts `alloc`/`realloc` calls (deallocations are free to the steady-state
/// argument and are not counted) in the calling thread's [`ALLOCATIONS`].
struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread. A `const`-initialised `Cell<u64>` has no
    /// destructor and never allocates, so the allocator may touch it freely.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: allocations during thread teardown have no counter to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: pure pass-through to `System` plus a thread-local counter bump; every
// layout/pointer contract of `GlobalAlloc` is forwarded unchanged, so `System`'s
// own guarantees carry over verbatim.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }
    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract; forwarded as-is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract; forwarded as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A caller-owned query loop: the steady-state serving shape.
struct Querier<'a> {
    engine: &'a Engine,
    indexes: &'a ObjectIndexes,
    scratch: EngineScratch,
    out: QueryOutput,
}

impl<'a> Querier<'a> {
    fn new(engine: &'a Engine) -> Self {
        let indexes = engine.object_indexes().expect("objects installed");
        Querier { engine, indexes, scratch: EngineScratch::new(), out: QueryOutput::default() }
    }

    fn query(&mut self, method: Method, q: NodeId, k: usize) {
        self.engine
            .query_with_objects(method, q, k, self.indexes, &mut self.scratch, &mut self.out)
            .expect("query");
    }

    fn budgeted(
        &mut self,
        method: Method,
        q: NodeId,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<(), rnknn::EngineError> {
        self.engine.query_with_objects_budgeted(
            method,
            q,
            k,
            budget,
            self.indexes,
            &mut self.scratch,
            &mut self.out,
        )
    }
}

/// Builds an engine with the indexes the pooled methods need (no SILC/PHL — the
/// DisBrw OH hierarchy and SILC refinement are documented as not allocation-free).
fn pooled_engine() -> (Engine, Vec<NodeId>) {
    let net = RoadNetwork::generate(&GeneratorConfig::new(2_000, 77));
    let graph = net.graph(EdgeWeightKind::Distance);
    let config = EngineConfig {
        build_gtree: true,
        build_road: true,
        build_silc: false,
        build_ch: true,
        build_phl: false,
        build_tnr: true,
        ..Default::default()
    };
    let mut engine = Engine::build(graph, &config);
    engine.set_objects(uniform(engine.graph(), 0.02, 9));
    let n = engine.graph().num_vertices() as NodeId;
    let queries: Vec<NodeId> = (0..12u32).map(|i| (i * 157 + 11) % n).collect();
    (engine, queries)
}

#[test]
fn steady_state_queries_allocate_nothing_for_pooled_methods() {
    let (engine, queries) = pooled_engine();
    let k = 8;
    // Methods whose pooled path must be allocation-free. G-tree, INE and IER-CH are
    // the acceptance set; the IER oracle variants share the same pooled machinery.
    let methods = [
        Method::Gtree,
        Method::Ine,
        Method::IerCh,
        Method::IerDijkstra,
        Method::IerAStar,
        Method::IerTnr,
        Method::IerGtree,
        Method::Road,
    ];
    let mut querier = Querier::new(&engine);
    for &method in &methods {
        // Warm-up: two full passes over the query set grow every pooled buffer
        // (heaps, distance arrays, border rows, candidate lists) to this workload's
        // high-water mark.
        for _ in 0..2 {
            for &q in &queries {
                querier.query(method, q, k);
            }
        }
        // Steady state: the exact same queries must not touch the allocator.
        for &q in &queries {
            let before = allocations();
            querier.query(method, q, k);
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "{} allocated {} time(s) on a warm scratch pool at q={q}",
                method.name(),
                after - before
            );
            assert!(!querier.out.result.is_empty(), "{} returned nothing at q={q}", method.name());
        }
    }
}

/// The zero-allocation steady state must survive persistence. An
/// engine whose G-tree matrices are zero-copy views into a loaded artifact
/// runs the same pooled query path — loading must not reintroduce per-query
/// allocations (e.g. by materializing matrix rows on demand).
#[test]
fn steady_state_stays_allocation_free_on_a_loaded_engine() {
    let (engine, queries) = pooled_engine();
    let k = 8;
    let bytes = engine.save_indexes_to_vec().expect("save engine");
    // The saved artifact carries CH + G-tree; load the matching subset.
    let config = EngineConfig {
        build_gtree: true,
        build_road: false,
        build_silc: false,
        build_ch: true,
        build_phl: false,
        build_tnr: false,
        ..Default::default()
    };
    let mut loaded =
        rnknn::engine::Engine::load_indexes_from_vec(bytes, &config).expect("load engine");
    loaded.set_objects(uniform(loaded.graph(), 0.02, 9));

    let mut querier = Querier::new(&loaded);
    for &method in &[Method::Gtree, Method::Ine, Method::IerCh, Method::IerGtree] {
        for _ in 0..2 {
            for &q in &queries {
                querier.query(method, q, k);
            }
        }
        for &q in &queries {
            let before = allocations();
            querier.query(method, q, k);
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "{} allocated {} time(s) on a warm pool of a loaded engine at q={q}",
                method.name(),
                after - before
            );
            assert!(!querier.out.result.is_empty(), "{} returned nothing at q={q}", method.name());
        }
    }
}

/// The budgeted path shares the zero-allocation steady state: deadline
/// checking must never buy robustness with per-query allocations — neither
/// when the budget is generous (full search, checked every step) nor when it
/// exhausts mid-search (the `DeadlineExceeded` early return, error payload
/// included, is allocation-free on a warm pool).
#[test]
fn budgeted_queries_and_deadline_cuts_allocate_nothing() {
    use rnknn::EngineError;
    let (engine, queries) = pooled_engine();
    let k = 8;
    let methods = [Method::Gtree, Method::Ine, Method::IerCh, Method::IerGtree];
    let mut querier = Querier::new(&engine);
    for &method in &methods {
        for _ in 0..2 {
            for &q in &queries {
                querier.query(method, q, k);
                // Warm the truncated path too: an exhausted search may park
                // different high-water state in the pool than a completed one.
                let starved = QueryBudget::new(None, 4, 1);
                let _ = querier.budgeted(method, q, k, &starved);
            }
        }
        for &q in &queries {
            // Generous budget, tightest check stride: the full search with a
            // deadline check at every charge must stay allocation-free.
            let generous = QueryBudget::new(
                Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
                u64::MAX,
                1,
            );
            let before = allocations();
            querier.budgeted(method, q, k, &generous).expect("budgeted query");
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "{} allocated {} time(s) under a generous budget at q={q}",
                method.name(),
                after - before
            );
            // Exhausted budget: the early return (truncated search, cleared
            // output, error with partial stats) must also be allocation-free.
            let starved = QueryBudget::new(None, 4, 1);
            let before = allocations();
            let err = querier.budgeted(method, q, k, &starved);
            let after = allocations();
            assert!(
                matches!(err, Err(EngineError::DeadlineExceeded { .. })),
                "{} did not exhaust a 4-step budget at q={q}",
                method.name()
            );
            assert_eq!(
                after - before,
                0,
                "{} allocated {} time(s) on the DeadlineExceeded path at q={q}",
                method.name(),
                after - before
            );
        }
    }
}

#[test]
fn query_overhead_is_exactly_the_result_vector() {
    let (engine, queries) = pooled_engine();
    let k = 8;
    for _ in 0..2 {
        for &q in &queries {
            let _ = engine.query(Method::Gtree, q, k).expect("warm-up");
        }
    }
    for &q in &queries {
        let before = allocations();
        let output = engine.query(Method::Gtree, q, k).expect("query");
        let after = allocations();
        // A returned `Vec` must be heap-allocated (ownership passes to the caller),
        // so `query` can never be zero-allocation — but it must be exactly that one
        // allocation (possibly grown once while filling: ≤ 2 allocator calls).
        assert!(
            (1..=2).contains(&(after - before)),
            "Engine::query made {} allocator calls at q={q}; expected just the result vector",
            after - before
        );
        drop(output);
    }
}

/// The counter is per thread: another thread allocating in a loop during the
/// measured window must not show up in it, as libtest's parallel tests do
/// while this binary's other tests build engines.
#[test]
fn concurrent_allocations_on_another_thread_are_not_counted() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let (engine, queries) = pooled_engine();
    let k = 8;
    let mut querier = Querier::new(&engine);
    for _ in 0..2 {
        for &q in &queries {
            querier.query(Method::Gtree, q, k);
        }
    }
    let stop = AtomicBool::new(false);
    let noise = AtomicU64::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(vec![0u8; 64]);
                noise.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Measure until the other thread has provably allocated inside the window.
        let before = allocations();
        let noise_start = noise.load(Ordering::Relaxed);
        let mut rounds = 0;
        while noise.load(Ordering::Relaxed) < noise_start + 1_000 {
            querier.query(Method::Gtree, queries[rounds % queries.len()], k);
            rounds += 1;
            std::thread::yield_now();
        }
        let after = allocations();
        stop.store(true, Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "{} allocation(s) counted over {rounds} warm queries while another thread allocated",
            after - before
        );
    });
}
