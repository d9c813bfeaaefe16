//! A single facade bundling every index and kNN method.
//!
//! [`Engine`] owns the road network and whichever road-network indexes were requested,
//! plus the currently-injected object set and its per-method object indexes. This
//! mirrors how the paper's experiments operate: road-network indexes are built once,
//! object indexes are cheap and swapped per object set (Section 7.4), and every method
//! answers the same queries.
//!
//! Every query runs one body, [`Engine::query_with_objects_budgeted`], which
//! validates, dispatches through the [`crate::methods`] registry of
//! [`crate::KnnAlgorithm`] implementors and returns the kNN result plus unified
//! [`crate::QueryStats`]. [`Engine::query_with_objects`] is that body without a
//! budget (the zero-allocation serving path on a caller-owned scratch),
//! [`Engine::query`] the allocating convenience on the installed object set, and
//! [`Engine::knn_batch`] fans a workload across scoped threads over one shared
//! ([`Sync`]) engine.

use std::cell::RefCell;
use std::time::Instant;

use rnknn_graph::{ChainIndex, Graph, NodeId};
use rnknn_gtree::{Gtree, GtreeConfig};
use rnknn_objects::{ObjectSet, UpdateEvent};
use rnknn_pathfinding::{QueryBudget, UNLIMITED};
use rnknn_road::{RoadConfig, RoadIndex};
use rnknn_silc::{SilcConfig, SilcIndex};

use crate::error::EngineError;
use crate::live::ObjectIndexes;
use crate::methods;
use crate::query::{IndexKind, KnnAlgorithm, QueryContext, QueryOutput};
use crate::scratch::EngineScratch;

thread_local! {
    /// The engine scratch pool: one [`EngineScratch`] per thread, created lazily on
    /// the first query and reused by every subsequent query on that thread (across
    /// engines — epoch tags keep differently-sized graphs from interfering). This is
    /// what lets `Engine::query` on `&self` reuse heaps, distance arrays, G-tree
    /// border storage, IER candidate buffers and oracle search spaces while keeping
    /// `Engine: Sync`.
    static ENGINE_SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::new());
}

/// The kNN methods the engine can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Incremental Network Expansion.
    Ine,
    /// IER with a fresh Dijkstra per candidate (the historical baseline).
    IerDijkstra,
    /// IER with A*.
    IerAStar,
    /// IER with Contraction Hierarchies.
    IerCh,
    /// IER with hub labels ("IER-PHL").
    IerPhl,
    /// IER with Transit Node Routing.
    IerTnr,
    /// IER with the materialized G-tree oracle ("IER-Gt").
    IerGtree,
    /// Distance Browsing with Euclidean-NN candidates (DB-ENN).
    DisBrw,
    /// Distance Browsing with the original object hierarchy.
    DisBrwObjectHierarchy,
    /// ROAD.
    Road,
    /// G-tree.
    Gtree,
}

impl Method {
    /// Display name matching the paper's figure legends (from the registry).
    pub fn name(self) -> &'static str {
        methods::algorithm(self).name()
    }

    /// The road-network indexes this method needs (from the registry).
    pub fn required_indexes(self) -> &'static [IndexKind] {
        methods::algorithm(self).required_indexes()
    }

    /// Every registered method, in the order the paper introduces them.
    pub fn all() -> Vec<Method> {
        methods::registry().iter().map(|a| a.method()).collect()
    }

    /// The methods compared in the paper's main experiments (Section 7.3).
    pub fn main_lineup() -> [Method; 6] {
        [Method::Ine, Method::Road, Method::Gtree, Method::IerGtree, Method::IerPhl, Method::DisBrw]
    }
}

/// Which road-network indexes the engine builds.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Build the G-tree (needed by `Gtree` and `IerGtree`).
    pub build_gtree: bool,
    /// Build the ROAD index.
    pub build_road: bool,
    /// Build the SILC index (needed by both Distance Browsing variants). Skipped
    /// automatically when the graph exceeds the SILC size limit, as in the paper.
    pub build_silc: bool,
    /// Build the Contraction Hierarchy (needed by `IerCh` and `IerTnr`).
    pub build_ch: bool,
    /// Build hub labels (needed by `IerPhl`).
    pub build_phl: bool,
    /// Build Transit Node Routing (needed by `IerTnr`; implies a CH build).
    pub build_tnr: bool,
    /// Override the G-tree leaf capacity (defaults to the paper's size-based rule).
    pub gtree_leaf_capacity: Option<usize>,
    /// G-tree construction knobs (matrix oracle, worker threads, fanout, matrix
    /// layout; see [`rnknn_gtree::GtreeConfig`]). The leaf capacity inside this value
    /// is ignored — it is controlled by `gtree_leaf_capacity` above, falling back to
    /// the paper's size-based rule.
    pub gtree_config: GtreeConfig,
    /// Override the ROAD level count (defaults to the paper's size-based rule).
    pub road_levels: Option<usize>,
    /// SILC size limit (vertices).
    pub silc_max_vertices: usize,
    /// CH preprocessing knobs (witness settle/hop limits, dense-core endgame,
    /// stall-on-demand). The defaults preprocess ~250k-vertex networks in ~13s and
    /// ~580k in ~43s on one core; see [`rnknn_ch::ChConfig`].
    pub ch_config: rnknn_ch::ChConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            build_gtree: true,
            build_road: true,
            build_silc: true,
            build_ch: true,
            build_phl: true,
            build_tnr: false,
            gtree_leaf_capacity: None,
            gtree_config: GtreeConfig::default(),
            road_levels: None,
            silc_max_vertices: SilcConfig::default().max_vertices,
            ch_config: rnknn_ch::ChConfig::default(),
        }
    }
}

impl EngineConfig {
    /// A configuration that only builds the expansion-based indexes (fast to construct;
    /// useful for examples and tests).
    pub fn minimal() -> Self {
        EngineConfig {
            build_gtree: true,
            build_road: true,
            build_silc: false,
            build_ch: false,
            build_phl: false,
            build_tnr: false,
            ..Default::default()
        }
    }
}

/// Construction times of the road-network indexes, in microseconds (Figure 8(b) /
/// Figure 26(a)).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// G-tree construction time.
    pub gtree_micros: u128,
    /// ROAD construction time.
    pub road_micros: u128,
    /// SILC construction time.
    pub silc_micros: u128,
    /// Contraction-hierarchy preprocessing time.
    pub ch_micros: u128,
    /// Hub-label construction time.
    pub phl_micros: u128,
    /// Transit-node-routing construction time (excluding the CH it reuses).
    pub tnr_micros: u128,
}

/// The engine: road network + road-network indexes + the current object set and its
/// object indexes.
pub struct Engine {
    graph: Graph,
    chains: ChainIndex,
    gtree: Option<Gtree>,
    road: Option<RoadIndex>,
    silc: Option<SilcIndex>,
    ch: Option<rnknn_ch::ContractionHierarchy>,
    phl: Option<rnknn_phl::HubLabels>,
    tnr: Option<rnknn_tnr::TransitNodeRouting>,
    build_times: BuildTimes,
    /// Current object set with its derived object indexes (see [`ObjectIndexes`]).
    live: Option<ObjectIndexes>,
}

impl Engine {
    /// Builds the requested road-network indexes over `graph`.
    pub fn build(graph: Graph, config: &EngineConfig) -> Engine {
        Engine::assemble(graph, config, None, None)
    }

    /// The shared body of [`Engine::build`] and the artifact load path
    /// ([`crate::persist`]): any index handed in as `preloaded_*` is adopted
    /// as-is (its build time stays zero), everything else the config requests
    /// is built here — so a loaded engine can still grow the non-persisted
    /// indexes (ROAD, SILC, PHL, TNR) on top of disk-backed CH and G-tree.
    pub(crate) fn assemble(
        graph: Graph,
        config: &EngineConfig,
        preloaded_gtree: Option<Gtree>,
        preloaded_ch: Option<rnknn_ch::ContractionHierarchy>,
    ) -> Engine {
        let chains = ChainIndex::build(&graph);
        let mut build_times = BuildTimes::default();

        let gtree = config.build_gtree.then(|| {
            preloaded_gtree.unwrap_or_else(|| {
                let start = Instant::now();
                let gconfig = GtreeConfig {
                    leaf_capacity: config
                        .gtree_leaf_capacity
                        .unwrap_or_else(|| GtreeConfig::paper_leaf_capacity(graph.num_vertices())),
                    ..config.gtree_config.clone()
                };
                let t = Gtree::build_with_config(&graph, gconfig);
                build_times.gtree_micros = start.elapsed().as_micros();
                t
            })
        });
        let road = config.build_road.then(|| {
            let start = Instant::now();
            let mut rconfig = RoadConfig::for_network(graph.num_vertices());
            if let Some(levels) = config.road_levels {
                rconfig.levels = levels;
            }
            let r = RoadIndex::build_with_config(&graph, rconfig);
            build_times.road_micros = start.elapsed().as_micros();
            r
        });
        let silc = if config.build_silc {
            let start = Instant::now();
            let silc = SilcIndex::try_build(
                &graph,
                &SilcConfig { max_vertices: config.silc_max_vertices, ..Default::default() },
            );
            build_times.silc_micros = start.elapsed().as_micros();
            silc
        } else {
            None
        };
        let ch = (config.build_ch || config.build_tnr).then(|| {
            preloaded_ch.unwrap_or_else(|| {
                let start = Instant::now();
                let ch =
                    rnknn_ch::ContractionHierarchy::build_with_config(&graph, &config.ch_config);
                build_times.ch_micros = start.elapsed().as_micros();
                ch
            })
        });
        let phl = if config.build_phl {
            let start = Instant::now();
            let phl = match &ch {
                Some(ch) => rnknn_phl::HubLabels::build_with_ch(&graph, ch),
                None => rnknn_phl::HubLabels::build(&graph),
            };
            build_times.phl_micros = start.elapsed().as_micros();
            phl
        } else {
            None
        };
        let tnr = if config.build_tnr {
            let start = Instant::now();
            let ch_clone = ch.clone().expect("TNR requires a CH build");
            let tnr = rnknn_tnr::TransitNodeRouting::build_from_ch(
                &graph,
                ch_clone,
                rnknn_tnr::TnrConfig::default(),
            );
            build_times.tnr_micros = start.elapsed().as_micros();
            Some(tnr)
        } else {
            None
        };

        Engine { graph, chains, gtree, road, silc, ch, phl, tnr, build_times, live: None }
    }

    /// The road network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Index construction times.
    pub fn build_times(&self) -> BuildTimes {
        self.build_times
    }

    /// The G-tree, if built.
    pub fn gtree(&self) -> Option<&Gtree> {
        self.gtree.as_ref()
    }

    /// The ROAD index, if built.
    pub fn road(&self) -> Option<&RoadIndex> {
        self.road.as_ref()
    }

    /// The SILC index, if built (it may be absent because the graph was too large).
    pub fn silc(&self) -> Option<&SilcIndex> {
        self.silc.as_ref()
    }

    /// The contraction hierarchy, if built.
    pub fn ch(&self) -> Option<&rnknn_ch::ContractionHierarchy> {
        self.ch.as_ref()
    }

    /// The hub labels, if built.
    pub fn phl(&self) -> Option<&rnknn_phl::HubLabels> {
        self.phl.as_ref()
    }

    /// The current object set, if any.
    pub fn objects(&self) -> Option<&ObjectSet> {
        self.live.as_ref().map(|l| l.objects())
    }

    /// The currently-installed object indexes, if any.
    pub fn object_indexes(&self) -> Option<&ObjectIndexes> {
        self.live.as_ref()
    }

    /// True when `method` can be answered with the indexes that were built
    /// (derived from the registry's [`IndexKind`] requirements).
    pub fn supports(&self, method: Method) -> bool {
        methods::algorithm(method).required_indexes().iter().all(|&kind| self.has_index(kind))
    }

    /// True when the road-network index `kind` was built.
    pub fn has_index(&self, kind: IndexKind) -> bool {
        match kind {
            IndexKind::Gtree => self.gtree.is_some(),
            IndexKind::Road => self.road.is_some(),
            IndexKind::Silc => self.silc.is_some(),
            IndexKind::Ch => self.ch.is_some(),
            IndexKind::Phl => self.phl.is_some(),
            IndexKind::Tnr => self.tnr.is_some(),
        }
    }

    /// The one query validation: `k` must be positive and every index the method
    /// requires must have been built.
    fn validate(&self, method: Method, k: usize) -> Result<&'static dyn KnnAlgorithm, EngineError> {
        if k == 0 {
            return Err(EngineError::InvalidK { k });
        }
        let algorithm = methods::algorithm(method);
        for &kind in algorithm.required_indexes() {
            if !self.has_index(kind) {
                return Err(EngineError::MissingIndex { method, index: kind });
            }
        }
        Ok(algorithm)
    }

    /// Injects an object set, rebuilding the per-method object indexes (the cheap,
    /// decoupled step of Section 7.4).
    ///
    /// Installing a new set also advances the process-wide object generation, so
    /// per-thread scratches that served the old set invalidate their object-derived
    /// state on their next query (see [`crate::scratch`]).
    pub fn set_objects(&mut self, objects: ObjectSet) {
        let live = self.build_object_indexes(objects);
        self.set_object_indexes(live);
    }

    /// Installs pre-built object indexes (e.g. an epoch snapshot evolved outside the
    /// engine via [`Engine::apply_object_update`]).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `live` lacks an index this engine's methods expect
    /// (occurrence list without a G-tree build is fine; the reverse is not).
    pub fn set_object_indexes(&mut self, live: ObjectIndexes) {
        debug_assert!(
            self.gtree.is_none() || live.occurrence().is_some(),
            "object indexes lack the occurrence list this engine's G-tree needs"
        );
        debug_assert!(
            self.road.is_none() || live.association().is_some(),
            "object indexes lack the association directory this engine's ROAD needs"
        );
        self.live = Some(live);
    }

    /// Builds a fresh [`ObjectIndexes`] bundle for `objects` against this engine's
    /// road-network indexes, without installing it — the full-rebuild baseline, and
    /// the way the serving layer seeds an epoch before evolving it incrementally.
    pub fn build_object_indexes(&self, objects: ObjectSet) -> ObjectIndexes {
        ObjectIndexes::build(&self.graph, self.gtree.as_ref(), self.road.as_ref(), objects)
    }

    /// Applies one update event to `live` **in place** (no index rebuild; see
    /// [`ObjectIndexes::apply`] for the per-index strategies and cost). Returns
    /// whether the event changed anything. `live` must have been built against this
    /// engine (via [`Engine::build_object_indexes`] or cloned from another such
    /// bundle).
    pub fn apply_object_update(&self, live: &mut ObjectIndexes, event: UpdateEvent) -> bool {
        live.apply(&self.graph, self.gtree.as_ref(), self.road.as_ref(), event)
    }

    /// Applies one update event to the engine's installed object indexes in place.
    /// Returns whether the event changed anything; `Err(NoObjects)` if no object set
    /// was ever installed.
    pub fn update_objects(&mut self, event: UpdateEvent) -> Result<bool, EngineError> {
        let mut live = self.live.take().ok_or(EngineError::NoObjects)?;
        let applied = self.apply_object_update(&mut live, event);
        self.live = Some(live);
        Ok(applied)
    }

    /// Answers a kNN query with the chosen method against the installed object
    /// set, returning the result together with unified per-query
    /// [`crate::QueryStats`]. The allocating convenience over
    /// [`Engine::query_with_objects`]: it runs on the calling thread's scratch pool
    /// and allocates only the returned result vector.
    ///
    /// This never panics: a missing index, a missing object set, an out-of-range
    /// vertex or `k == 0` come back as an [`EngineError`]. The engine is borrowed
    /// immutably, so any number of queries may run concurrently (see
    /// [`Engine::knn_batch`]).
    ///
    /// ```
    /// use rnknn::{Engine, EngineConfig, EngineError, Method};
    /// use rnknn_graph::{generator::{GeneratorConfig, RoadNetwork}, EdgeWeightKind};
    /// use rnknn_objects::uniform;
    ///
    /// let graph = RoadNetwork::generate(&GeneratorConfig::new(500, 7))
    ///     .graph(EdgeWeightKind::Distance);
    /// let objects = uniform(&graph, 0.05, 1);
    /// let mut engine = Engine::build(graph, &EngineConfig::minimal());
    ///
    /// // Querying before objects are injected is an error, not a panic.
    /// assert_eq!(engine.query(Method::Gtree, 17, 5).unwrap_err(), EngineError::NoObjects);
    ///
    /// engine.set_objects(objects);
    /// let output = engine.query(Method::Gtree, 17, 5)?;
    /// assert_eq!(output.result.len(), 5);
    /// // Distances are non-decreasing and the stats are populated.
    /// assert!(output.result.windows(2).all(|w| w[0].1 <= w[1].1));
    /// assert!(output.stats.nodes_expanded > 0);
    /// # Ok::<(), rnknn::EngineError>(())
    /// ```
    pub fn query(
        &self,
        method: Method,
        query: NodeId,
        k: usize,
    ) -> Result<QueryOutput, EngineError> {
        let Some(live) = self.live.as_ref() else {
            // Configuration errors take precedence over the missing object set.
            self.validate(method, k)?;
            return Err(EngineError::NoObjects);
        };
        let mut out = QueryOutput::default();
        ENGINE_SCRATCH.with(|scratch| {
            self.query_with_objects(method, query, k, live, &mut scratch.borrow_mut(), &mut out)
        })?;
        Ok(out)
    }

    /// Answers a kNN query against the object indexes `live`, on a caller-owned
    /// scratch, writing into a caller-owned output (its result vector is cleared,
    /// keeping its capacity, and refilled; on error it is left cleared).
    ///
    /// This is the steady-state serving path: with a warm `scratch` and a reused
    /// `out` it performs **zero heap allocations** for the pooled methods (G-tree,
    /// INE, ROAD and the IER oracles; proven by the allocation-guard test). The
    /// reuse contract of the scratch is documented on [`EngineScratch`].
    ///
    /// `live` may be the engine's installed set ([`Engine::object_indexes`]) or
    /// an external epoch snapshot — the engine contributes the (immutable)
    /// road-network indexes, the caller the object view and the scratch, so many
    /// epochs can serve concurrently over one engine. External indexes must have
    /// been built against this engine ([`Engine::build_object_indexes`]) and may
    /// have been evolved with [`Engine::apply_object_update`].
    pub fn query_with_objects(
        &self,
        method: Method,
        query: NodeId,
        k: usize,
        live: &ObjectIndexes,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        self.query_with_objects_budgeted(method, query, k, &UNLIMITED, live, scratch, out)
    }

    /// [`Engine::query_with_objects`] under a [`QueryBudget`] — the body every
    /// query entry point runs, and the serving layer's deadline path.
    ///
    /// The budget is charged cooperatively inside the method's search loops (one
    /// step per settled vertex / materialized cell batch, checked in
    /// [`QueryBudget::check_every`]-sized strides). When it exhausts, the search
    /// unwinds normally — no thread is killed, the scratch stays reusable — and
    /// the call returns [`EngineError::DeadlineExceeded`] carrying the counters
    /// accumulated so far; `out` is left cleared. A budget that never exhausts
    /// leaves the answer bit-identical to the unbudgeted path.
    #[allow(clippy::too_many_arguments)]
    pub fn query_with_objects_budgeted(
        &self,
        method: Method,
        query: NodeId,
        k: usize,
        budget: &QueryBudget,
        live: &ObjectIndexes,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        out.result.clear();
        out.stats = Default::default();
        let algorithm = self.validate(method, k)?;
        let num_vertices = self.graph.num_vertices();
        if query as usize >= num_vertices {
            return Err(EngineError::InvalidVertex { vertex: query, num_vertices });
        }
        // Mutant hook (`mutant-skip-generation-stamp`, for the serving-layer
        // models only): without the stamp, pooled scratch silently reuses
        // object-dependent state across different object sets.
        if !cfg!(feature = "mutant-skip-generation-stamp") {
            scratch.sync_object_generation(live.generation());
        }
        let ctx = QueryContext {
            graph: &self.graph,
            chains: &self.chains,
            gtree: self.gtree.as_ref(),
            road: self.road.as_ref(),
            silc: self.silc.as_ref(),
            ch: self.ch.as_ref(),
            phl: self.phl.as_ref(),
            tnr: self.tnr.as_ref(),
            objects: live.objects(),
            rtree: live.rtree(),
            occurrence: live.occurrence(),
            association: live.association(),
            budget,
        };
        let start = Instant::now();
        algorithm.knn_into(&ctx, query, k, scratch, out)?;
        out.stats.elapsed_micros = start.elapsed().as_micros() as u64;
        if budget.is_exhausted() {
            // The search unwound cooperatively with a truncated result; a partial
            // kNN list is not a valid answer, so clear it and surface the typed
            // error with the counters accumulated up to the cancellation point.
            let partial = out.stats;
            out.result.clear();
            out.stats = Default::default();
            return Err(EngineError::DeadlineExceeded { partial });
        }
        Ok(())
    }

    /// Answers a whole query workload in parallel, fanning the queries across
    /// scoped worker threads (one per available core) over this shared engine
    /// (the paper's 10,000-query measurement loops, parallelized). Results are
    /// returned in input order and are identical to running [`Engine::query`]
    /// sequentially.
    ///
    /// ```
    /// use rnknn::{Engine, EngineConfig, Method};
    /// use rnknn_graph::{generator::{GeneratorConfig, RoadNetwork}, EdgeWeightKind, NodeId};
    /// use rnknn_objects::uniform;
    ///
    /// let graph = RoadNetwork::generate(&GeneratorConfig::new(400, 3))
    ///     .graph(EdgeWeightKind::Distance);
    /// let mut engine = Engine::build(graph, &EngineConfig::minimal());
    /// engine.set_objects(uniform(engine.graph(), 0.05, 2));
    ///
    /// let n = engine.graph().num_vertices() as NodeId;
    /// let queries: Vec<NodeId> = (0..16).map(|i| i * 17 % n).collect();
    /// let batch = engine.knn_batch(Method::Ine, &queries, 3)?;
    /// assert_eq!(batch.len(), queries.len());
    /// // Order-preserving: batch[i] answers queries[i].
    /// let sequential = engine.query(Method::Ine, queries[4], 3)?;
    /// assert_eq!(batch[4].result, sequential.result);
    /// # Ok::<(), rnknn::EngineError>(())
    /// ```
    pub fn knn_batch(
        &self,
        method: Method,
        queries: &[NodeId],
        k: usize,
    ) -> Result<Vec<QueryOutput>, EngineError> {
        // Surface configuration errors (bad k, missing index, no objects) even for
        // an empty workload, so a warm-up batch is a reliable configuration check.
        self.validate(method, k)?;
        if self.live.is_none() {
            return Err(EngineError::NoObjects);
        }
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = threads.min(queries.len());
        if threads <= 1 {
            return queries.iter().map(|&q| self.query(method, q, k)).collect();
        }
        let chunk_len = queries.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .chunks(chunk_len)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk.iter().map(|&q| self.query(method, q, k)).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("kNN batch worker panicked")).collect()
        })
    }
}

// Compile-time guarantee that one `Engine` can be shared across threads — the
// contract `Engine::knn_batch` and any server embedding the engine rely on.
const _: () = {
    fn assert_sync<T: Sync>() {}
    // Referencing the instantiation is enough; the function never runs.
    let _ = assert_sync::<Engine>;
};

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_objects::uniform;

    /// Answers one query against external object indexes on a fresh scratch.
    fn query_on(
        engine: &Engine,
        m: Method,
        q: NodeId,
        k: usize,
        live: &ObjectIndexes,
    ) -> QueryOutput {
        let mut out = QueryOutput::default();
        engine.query_with_objects(m, q, k, live, &mut EngineScratch::new(), &mut out).unwrap();
        out
    }

    #[test]
    fn engine_answers_identically_across_all_supported_methods() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(900, 77));
        let graph = net.graph(EdgeWeightKind::Distance);
        let config =
            EngineConfig { build_tnr: true, gtree_leaf_capacity: Some(64), ..Default::default() };
        let mut engine = Engine::build(graph, &config);
        let objects = uniform(engine.graph(), 0.02, 5);
        engine.set_objects(objects);

        let n = engine.graph().num_vertices() as NodeId;
        for &q in &[5u32, n / 2, n - 3] {
            let reference = engine.query(Method::Ine, q, 8).unwrap().distances();
            for m in Method::all() {
                assert!(engine.supports(m), "{} should be supported", m.name());
                let output = engine.query(m, q, 8).unwrap();
                assert_eq!(output.distances(), reference, "method {} disagrees at q={q}", m.name());
                let s = output.stats;
                assert!(
                    s.nodes_expanded + s.heap_operations + s.oracle_calls + s.candidates_examined
                        > 0,
                    "method {} reported trivial stats",
                    m.name()
                );
            }
        }
        assert!(engine.build_times().gtree_micros > 0);
    }

    #[test]
    fn swapping_object_sets_reuses_road_network_indexes() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 3));
        let graph = net.graph(EdgeWeightKind::Distance);
        let mut engine = Engine::build(graph, &EngineConfig::minimal());
        assert!(!engine.supports(Method::IerPhl));
        assert!(engine.supports(Method::Gtree));

        let sparse = uniform(engine.graph(), 0.005, 1);
        engine.set_objects(sparse);
        let a = engine.query(Method::Gtree, 10, 3).unwrap().result;
        assert_eq!(a, engine.query(Method::Ine, 10, 3).unwrap().result);

        let dense = uniform(engine.graph(), 0.2, 2);
        engine.set_objects(dense);
        let b = engine.query(Method::Road, 10, 3).unwrap().result;
        assert_eq!(b, engine.query(Method::Ine, 10, 3).unwrap().result);
        assert!(b[0].1 <= a[0].1, "denser objects cannot be farther");
    }

    #[test]
    fn method_names_and_lineup() {
        assert_eq!(Method::IerPhl.name(), "IER-PHL");
        assert_eq!(Method::Gtree.name(), "Gtree");
        assert_eq!(Method::main_lineup().len(), 6);
        assert_eq!(Method::all().len(), 11);
        assert_eq!(Method::IerPhl.required_indexes(), &[crate::IndexKind::Phl]);
    }

    #[test]
    fn query_reports_errors_instead_of_panicking() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(300, 4));
        let graph = net.graph(EdgeWeightKind::Distance);
        let mut engine = Engine::build(graph, &EngineConfig::minimal());

        // Before set_objects: NoObjects (for a supported method).
        assert_eq!(engine.query(Method::Ine, 0, 3).unwrap_err(), crate::EngineError::NoObjects);
        // minimal() builds neither PHL nor SILC: MissingIndex, even without objects.
        assert_eq!(
            engine.query(Method::IerPhl, 0, 3).unwrap_err(),
            crate::EngineError::MissingIndex {
                method: Method::IerPhl,
                index: crate::IndexKind::Phl
            }
        );
        assert_eq!(
            engine.query(Method::DisBrw, 0, 3).unwrap_err(),
            crate::EngineError::MissingIndex {
                method: Method::DisBrw,
                index: crate::IndexKind::Silc
            }
        );

        let objects = uniform(engine.graph(), 0.05, 9);
        engine.set_objects(objects);
        let n = engine.graph().num_vertices();
        assert_eq!(
            engine.query(Method::Ine, n as NodeId, 3).unwrap_err(),
            crate::EngineError::InvalidVertex { vertex: n as NodeId, num_vertices: n }
        );
        assert_eq!(
            engine.query(Method::Ine, 0, 0).unwrap_err(),
            crate::EngineError::InvalidK { k: 0 }
        );
        assert!(engine.query(Method::Ine, 0, 3).is_ok());
    }

    /// The drift guard for `Engine::supports` vs what `KnnAlgorithm::knn`
    /// implementations actually dereference: for every registry entry and every
    /// index kind, an engine built without that index must (a) report
    /// `supports == false` exactly when the method requires it, and (b) surface a
    /// structured `MissingIndex` naming the method and the first missing index —
    /// never panic inside the algorithm because it grabbed an index it did not
    /// declare in `required_indexes`.
    #[test]
    fn missing_index_is_structured_and_consistent_with_supports_for_every_method() {
        use crate::IndexKind;

        let kinds = [
            IndexKind::Gtree,
            IndexKind::Road,
            IndexKind::Silc,
            IndexKind::Ch,
            IndexKind::Phl,
            IndexKind::Tnr,
        ];
        for &removed in &kinds {
            let config = EngineConfig {
                build_gtree: removed != IndexKind::Gtree,
                build_road: removed != IndexKind::Road,
                build_silc: removed != IndexKind::Silc,
                // `build_tnr` implies a CH build, so removing CH removes TNR too.
                build_ch: removed != IndexKind::Ch,
                build_phl: removed != IndexKind::Phl,
                build_tnr: removed != IndexKind::Tnr && removed != IndexKind::Ch,
                ..Default::default()
            };
            let net = RoadNetwork::generate(&GeneratorConfig::new(300, 5));
            let mut engine = Engine::build(net.graph(EdgeWeightKind::Distance), &config);
            engine.set_objects(uniform(engine.graph(), 0.05, 7));
            for algorithm in methods::registry() {
                let method = algorithm.method();
                let missing: Vec<IndexKind> = algorithm
                    .required_indexes()
                    .iter()
                    .copied()
                    .filter(|&kind| !engine.has_index(kind))
                    .collect();
                assert_eq!(
                    engine.supports(method),
                    missing.is_empty(),
                    "{} supports() disagrees with required_indexes when {} is absent",
                    method.name(),
                    removed.name()
                );
                match engine.query(method, 3, 2) {
                    Ok(_) => {
                        assert!(missing.is_empty(), "{} answered without its index", method.name())
                    }
                    Err(EngineError::MissingIndex { method: m, index }) => {
                        assert_eq!(m, method, "error names the wrong method");
                        assert_eq!(index, missing[0], "error names the wrong index");
                    }
                    Err(other) => panic!("{} returned unexpected error {other}", method.name()),
                }
            }
        }
    }

    /// Incremental object updates through `update_objects` must answer exactly like
    /// an engine whose indexes were rebuilt from the same membership.
    #[test]
    fn incremental_updates_answer_like_a_rebuilt_engine() {
        use rnknn_objects::{churn_stream, ChurnConfig};

        let net = RoadNetwork::generate(&GeneratorConfig::new(700, 21));
        let graph = net.graph(EdgeWeightKind::Distance);
        let mut engine = Engine::build(graph, &EngineConfig::minimal());
        let initial = uniform(engine.graph(), 0.03, 11);
        let mut reference = initial.clone();
        engine.set_objects(initial);

        let events = churn_stream(
            engine.graph().num_vertices(),
            &reference,
            &ChurnConfig { events: 120, seed: 77, ..Default::default() },
        );
        let n = engine.graph().num_vertices() as NodeId;
        for (i, event) in events.into_iter().enumerate() {
            assert_eq!(engine.update_objects(event).unwrap(), event.apply_to(&mut reference));
            if i % 15 == 0 {
                let q = (i as NodeId * 37) % n;
                let rebuilt = ObjectIndexes::build(
                    engine.graph(),
                    engine.gtree(),
                    engine.road(),
                    reference.clone(),
                );
                for m in [Method::Ine, Method::Gtree, Method::Road, Method::IerDijkstra] {
                    let live = engine.query(m, q, 5).unwrap();
                    let fresh = query_on(&engine, m, q, 5, &rebuilt);
                    assert_eq!(
                        live.distances(),
                        fresh.distances(),
                        "event {i}: {} diverged from rebuild",
                        m.name()
                    );
                }
            }
        }
    }

    /// External snapshots answer through `query_with_objects` without touching (or
    /// requiring) the engine's installed set, and generations stay distinct.
    #[test]
    fn external_snapshots_serve_queries_independently() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(400, 6));
        let graph = net.graph(EdgeWeightKind::Distance);
        let engine = Engine::build(graph, &EngineConfig::minimal());
        // No installed object set at all: query() errors, snapshots still serve.
        assert_eq!(engine.query(Method::Ine, 3, 2).unwrap_err(), EngineError::NoObjects);

        let a = engine.build_object_indexes(uniform(engine.graph(), 0.02, 1));
        let mut b = a.clone();
        assert!(engine.apply_object_update(&mut b, UpdateEvent::Insert(3)));
        assert!(b.generation() > a.generation(), "updates must advance the generation");

        let from_a = query_on(&engine, Method::Gtree, 3, 3, &a);
        let from_b = query_on(&engine, Method::Gtree, 3, 3, &b);
        assert_eq!(from_b.result[0], (3, 0), "snapshot b has an object at the query vertex");
        assert_ne!(from_a.result[0].1, 0, "snapshot a must not see b's insert");
        // Conformance against INE on the same snapshot.
        let ine_b = query_on(&engine, Method::Ine, 3, 3, &b);
        assert_eq!(from_b.distances(), ine_b.distances());
    }

    #[test]
    fn knn_batch_matches_sequential_queries() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 12));
        let graph = net.graph(EdgeWeightKind::Distance);
        let mut engine = Engine::build(graph, &EngineConfig::minimal());
        engine.set_objects(uniform(engine.graph(), 0.02, 5));
        let n = engine.graph().num_vertices() as NodeId;
        let queries: Vec<NodeId> = (0..40u32).map(|i| (i * 131) % n).collect();
        let batch = engine.knn_batch(Method::Gtree, &queries, 4).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (&q, output) in queries.iter().zip(&batch) {
            let sequential = engine.query(Method::Gtree, q, 4).unwrap();
            assert_eq!(output.result, sequential.result, "q={q}");
        }
        assert!(engine.knn_batch(Method::Gtree, &[], 4).unwrap().is_empty());
        assert_eq!(
            engine.knn_batch(Method::Gtree, &queries, 0).unwrap_err(),
            crate::EngineError::InvalidK { k: 0 }
        );
    }
}
