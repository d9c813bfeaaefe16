//! Incremental Euclidean Restriction (Papadias et al., VLDB 2003), revisited with fast
//! shortest-path oracles (Section 5 of the paper).
//!
//! IER retrieves candidate objects in increasing Euclidean distance (from an R-tree)
//! and computes their exact network distances with a pluggable [`DistanceOracle`]. The
//! search stops as soon as the Euclidean lower bound of the next candidate exceeds the
//! network distance of the current k-th candidate. The paper's headline result is that
//! IER combined with a modern oracle (PHL, or G-tree with materialization) is the
//! fastest method in most settings; the original Dijkstra-based IER is kept as the
//! baseline it dethroned (Figure 4).

use rnknn_graph::{EuclideanBound, Graph, NodeId, Weight, INFINITY};
use rnknn_objects::{BrowserScratch, ObjectRTree, ObjectSet};
use rnknn_pathfinding::scratch::SearchScratch;
use rnknn_pathfinding::{QueryBudget, UNLIMITED};

use crate::KnnResult;

/// A point-to-point network-distance oracle usable by IER.
///
/// `begin_query` is called once per kNN query with the query vertex, letting oracles
/// with per-source state (MGtree materialization, cached CH search spaces) reset or
/// pre-compute; `network_distance` is then called once per candidate object.
pub trait DistanceOracle {
    /// Human-readable name used in experiment output ("Dijk", "PHL", "MGtree", ...).
    fn name(&self) -> &'static str;
    /// Prepares the oracle for a sequence of distance queries from `source`.
    fn begin_query(&mut self, _source: NodeId) {}
    /// Exact network distance from `source` to `target` ([`INFINITY`] when unreachable).
    fn network_distance(&mut self, source: NodeId, target: NodeId) -> Weight;
    /// Bounded network distance: exact when it is `< bound`, any value `>= bound`
    /// otherwise (IER discards such candidates without reading the value). Search
    /// oracles override this to prune against the caller's current k-th candidate;
    /// the default ignores the bound.
    fn network_distance_within(&mut self, source: NodeId, target: NodeId, bound: Weight) -> Weight {
        let _ = bound;
        self.network_distance(source, target)
    }
    /// Search-effort counters accumulated since construction. Oracles that run real
    /// searches per candidate (CH) report settles and heap work here so IER's unified
    /// [`crate::QueryStats`] reflects oracle effort; table-lookup oracles keep the
    /// default zeros.
    fn search_stats(&self) -> OracleSearchStats {
        OracleSearchStats::default()
    }
}

/// Search effort an oracle spent answering distance queries (see
/// [`DistanceOracle::search_stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleSearchStats {
    /// Vertices settled by oracle-internal searches.
    pub nodes_expanded: u64,
    /// Priority-queue operations performed by oracle-internal searches.
    pub heap_operations: u64,
    /// Distance-matrix cells read by G-tree assembly (MGtree oracle only).
    pub matrix_cells: u64,
}

/// Operation counters for one IER query.
#[derive(Debug, Clone, Copy, Default)]
pub struct IerStats {
    /// Candidates retrieved from the R-tree.
    pub euclidean_candidates: usize,
    /// Exact network-distance computations performed.
    pub network_distance_computations: usize,
    /// Candidates whose network distance was computed but that did not end up in the
    /// kNN result ("false hits"; these grow when the Euclidean bound is loose, e.g. on
    /// travel-time graphs).
    pub false_hits: usize,
}

/// IER query processor, generic over the network-distance oracle.
#[derive(Debug)]
pub struct IerSearch<'a, O: DistanceOracle> {
    graph: &'a Graph,
    oracle: O,
    bound: EuclideanBound,
    budget: &'a QueryBudget,
}

impl<'a, O: DistanceOracle> IerSearch<'a, O> {
    /// Creates an IER search over `graph` using `oracle` for network distances. The
    /// Euclidean lower bound is derived from the graph's weight kind (Section 7.5's
    /// `S = max(d_i / w_i)` scaling for travel times).
    pub fn new(graph: &'a Graph, oracle: O) -> Self {
        let bound = graph.euclidean_bound();
        IerSearch { graph, oracle, bound, budget: &UNLIMITED }
    }

    /// Attaches a [`QueryBudget`], charged once per Euclidean candidate examined
    /// (search oracles additionally charge their own settles — see their
    /// `set_budget` methods). When exhausted, the candidate loop stops early with
    /// a truncated candidate list.
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
    }

    /// The oracle's display name.
    pub fn oracle_name(&self) -> &'static str {
        self.oracle.name()
    }

    /// Access to the oracle (e.g. to read its statistics).
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// Consumes the search, returning the oracle (so callers can recover pooled
    /// state the oracle borrowed-by-value from a scratch, e.g. the IER-CH forward
    /// search space).
    pub fn into_oracle(self) -> O {
        self.oracle
    }

    /// The `k` objects nearest to `query` by network distance.
    pub fn knn(
        &mut self,
        query: NodeId,
        k: usize,
        rtree: &ObjectRTree,
        objects: &ObjectSet,
    ) -> KnnResult {
        self.knn_with_stats(query, k, rtree, objects).0
    }

    /// Same as [`IerSearch::knn`] but also returns operation counters. Allocates the
    /// browse heap and result fresh per call; the production query path is
    /// [`IerSearch::knn_with_stats_into`].
    pub fn knn_with_stats(
        &mut self,
        query: NodeId,
        k: usize,
        rtree: &ObjectRTree,
        _objects: &ObjectSet,
    ) -> (KnnResult, IerStats) {
        let mut browser = BrowserScratch::new();
        let mut candidates: Vec<(NodeId, Weight)> = Vec::new();
        let stats = self.knn_with_stats_into(query, k, rtree, &mut browser, &mut candidates);
        (candidates, stats)
    }

    /// [`IerSearch::knn_with_stats`] running on a reusable R-tree browse heap and
    /// writing the candidates into a caller-owned vector (cleared first). The
    /// candidate list is kept sorted by binary-search insertion — `O(log k)` to
    /// locate plus a shift, instead of re-sorting the whole list on every improving
    /// insert. With warmed buffers (and an oracle whose own state is pooled) a query
    /// allocates nothing.
    pub fn knn_with_stats_into(
        &mut self,
        query: NodeId,
        k: usize,
        rtree: &ObjectRTree,
        browser_scratch: &mut BrowserScratch,
        candidates: &mut KnnResult,
    ) -> IerStats {
        let mut stats = IerStats::default();
        candidates.clear();
        if k == 0 || rtree.is_empty() {
            return stats;
        }
        candidates.reserve(k + 1);
        self.oracle.begin_query(query);
        let query_point = self.graph.coord(query);
        let mut browser = rtree.browse_in(query_point, browser_scratch);

        // Dk = network distance of the current k-th candidate (upper bound on the k-th
        // nearest neighbor's distance once we hold k candidates).
        let mut dk = INFINITY;
        // Peek the Euclidean lower bound of the next candidate; stop when it cannot
        // beat the current k-th candidate.
        while let Some(next_euclid) = browser.peek_distance() {
            let lower_bound = self.bound.lower_bound_from_euclidean(next_euclid);
            if candidates.len() >= k && lower_bound >= dk {
                break;
            }
            if !self.budget.charge(1) {
                break;
            }
            let Some((_, object)) = browser.next() else { break };
            stats.euclidean_candidates += 1;
            // Candidates at distance >= dk are discarded below, so the oracle may
            // stop searching at dk (exactness of kept candidates is unaffected).
            let d = self.oracle.network_distance_within(query, object, dk);
            stats.network_distance_computations += 1;
            if d == INFINITY {
                continue;
            }
            if candidates.len() < k {
                let pos = candidates.partition_point(|&(_, e)| e <= d);
                candidates.insert(pos, (object, d));
                if candidates.len() == k {
                    dk = candidates[k - 1].1;
                }
            } else if d < dk {
                candidates.pop();
                let pos = candidates.partition_point(|&(_, e)| e <= d);
                candidates.insert(pos, (object, d));
                dk = candidates[k - 1].1;
                stats.false_hits += 1; // the displaced candidate was a false hit
            } else {
                stats.false_hits += 1;
            }
        }
        stats
    }
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// The original IER oracle: a Dijkstra per candidate (the configuration every
/// previous study used, and the slowest line of Figure 4). The search state lives in
/// an owned [`SearchScratch`], so candidates after the first reuse the distance
/// arrays and heap; construct it via [`DijkstraOracle::with_scratch`] to reuse a
/// pooled scratch across whole queries as well.
#[derive(Debug)]
pub struct DijkstraOracle<'a> {
    graph: &'a Graph,
    scratch: SearchScratch,
    budget: &'a QueryBudget,
    stats: OracleSearchStats,
}

impl<'a> DijkstraOracle<'a> {
    /// Creates the oracle over a fresh scratch.
    pub fn new(graph: &'a Graph) -> Self {
        Self::with_scratch(graph, SearchScratch::new())
    }

    /// Creates the oracle over a caller-provided scratch (candidate searches are
    /// bounded by IER's current k-th candidate); recover the scratch with
    /// [`DijkstraOracle::into_scratch`].
    pub fn with_scratch(graph: &'a Graph, scratch: SearchScratch) -> Self {
        DijkstraOracle { graph, scratch, budget: &UNLIMITED, stats: OracleSearchStats::default() }
    }

    /// Attaches a [`QueryBudget`] charged per settled vertex inside the
    /// per-candidate Dijkstra searches.
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
    }

    /// Consumes the oracle, returning its search scratch to the caller's pool.
    pub fn into_scratch(self) -> SearchScratch {
        self.scratch
    }
}

impl<'a> DistanceOracle for DijkstraOracle<'a> {
    fn name(&self) -> &'static str {
        "Dijk"
    }
    fn network_distance(&mut self, source: NodeId, target: NodeId) -> Weight {
        let (d, stats) = rnknn_pathfinding::dijkstra::distance_with_stats_budgeted_in(
            self.graph,
            source,
            target,
            &mut self.scratch,
            self.budget,
        );
        self.stats.nodes_expanded += stats.settled as u64;
        self.stats.heap_operations += stats.pushes as u64;
        d
    }
    fn network_distance_within(&mut self, source: NodeId, target: NodeId, bound: Weight) -> Weight {
        let (d, stats) = rnknn_pathfinding::dijkstra::distance_within_with_stats_budgeted_in(
            self.graph,
            source,
            target,
            bound,
            &mut self.scratch,
            self.budget,
        );
        self.stats.nodes_expanded += stats.settled as u64;
        self.stats.heap_operations += stats.pushes as u64;
        d
    }
    fn search_stats(&self) -> OracleSearchStats {
        self.stats
    }
}

/// A* with the Euclidean lower bound — the natural strengthening of the Dijkstra
/// oracle. Search state is reused across candidates exactly like
/// [`DijkstraOracle`]'s.
#[derive(Debug)]
pub struct AStarOracle<'a> {
    graph: &'a Graph,
    bound: EuclideanBound,
    scratch: SearchScratch,
    budget: &'a QueryBudget,
    stats: OracleSearchStats,
}

impl<'a> AStarOracle<'a> {
    /// Creates the oracle over a fresh scratch.
    pub fn new(graph: &'a Graph) -> Self {
        Self::with_scratch(graph, SearchScratch::new())
    }

    /// Creates the oracle over a caller-provided scratch (candidate searches are
    /// bounded by IER's current k-th candidate); recover the scratch with
    /// [`AStarOracle::into_scratch`].
    pub fn with_scratch(graph: &'a Graph, scratch: SearchScratch) -> Self {
        AStarOracle {
            graph,
            bound: graph.euclidean_bound(),
            scratch,
            budget: &UNLIMITED,
            stats: OracleSearchStats::default(),
        }
    }

    /// Attaches a [`QueryBudget`] charged per settled vertex inside the
    /// per-candidate A* searches.
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
    }

    /// Consumes the oracle, returning its search scratch to the caller's pool.
    pub fn into_scratch(self) -> SearchScratch {
        self.scratch
    }
}

impl<'a> DistanceOracle for AStarOracle<'a> {
    fn name(&self) -> &'static str {
        "A*"
    }
    fn network_distance(&mut self, source: NodeId, target: NodeId) -> Weight {
        let (d, stats) = rnknn_pathfinding::astar::astar_distance_with_stats_budgeted_in(
            self.graph,
            &self.bound,
            source,
            target,
            &mut self.scratch,
            self.budget,
        );
        self.stats.nodes_expanded += stats.settled as u64;
        self.stats.heap_operations += stats.pushes as u64;
        d
    }
    fn network_distance_within(&mut self, source: NodeId, target: NodeId, bound: Weight) -> Weight {
        let (d, stats) = rnknn_pathfinding::astar::astar_distance_within_with_stats_budgeted_in(
            self.graph,
            &self.bound,
            source,
            target,
            bound,
            &mut self.scratch,
            self.budget,
        );
        self.stats.nodes_expanded += stats.settled as u64;
        self.stats.heap_operations += stats.pushes as u64;
        d
    }
    fn search_stats(&self) -> OracleSearchStats {
        self.stats
    }
}

/// Contraction Hierarchies oracle. The forward (query-side) upward search space is
/// computed once per kNN query and reused for every candidate; each candidate then
/// runs only a pruned backward upward search
/// ([`rnknn_ch::ContractionHierarchy::distance_from_space`]) instead of materialising
/// its full search space. The forward space's entry buffer is owned by value (take it
/// from a pool with [`ChOracle::with_space`], recover it with
/// [`ChOracle::into_parts`]), so re-materialising for a new source allocates nothing
/// once the buffer has grown.
#[derive(Debug)]
pub struct ChOracle<'a> {
    ch: &'a rnknn_ch::ContractionHierarchy,
    source: Option<NodeId>,
    space: rnknn_ch::ChSearchSpace,
    projection: rnknn_ch::ChSpaceProjection,
    budget: &'a QueryBudget,
    counters: rnknn_ch::ChSearchCounters,
}

impl<'a> ChOracle<'a> {
    /// Creates the oracle over a fresh forward-space buffer and projection.
    pub fn new(ch: &'a rnknn_ch::ContractionHierarchy) -> Self {
        Self::with_space(ch, rnknn_ch::ChSearchSpace::new(), rnknn_ch::ChSpaceProjection::new())
    }

    /// Creates the oracle over a caller-provided forward-space buffer and dense
    /// projection: per-candidate searches are bounded by IER's current k-th
    /// candidate and meet tests are one array load.
    pub fn with_space(
        ch: &'a rnknn_ch::ContractionHierarchy,
        space: rnknn_ch::ChSearchSpace,
        projection: rnknn_ch::ChSpaceProjection,
    ) -> Self {
        ChOracle {
            ch,
            source: None,
            space,
            projection,
            budget: &UNLIMITED,
            counters: rnknn_ch::ChSearchCounters::default(),
        }
    }

    /// Attaches a [`QueryBudget`] charged per settled vertex inside the forward
    /// upward search and the per-candidate backward searches.
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
    }

    /// Consumes the oracle, returning the forward-space buffer and projection to the
    /// caller's pool.
    pub fn into_parts(self) -> (rnknn_ch::ChSearchSpace, rnknn_ch::ChSpaceProjection) {
        (self.space, self.projection)
    }
}

impl<'a> DistanceOracle for ChOracle<'a> {
    fn name(&self) -> &'static str {
        "CH"
    }
    fn begin_query(&mut self, source: NodeId) {
        // Stall-pruned forward space: dominated labels are recorded but not
        // expanded, shrinking the space (and the projection fill) while meets
        // stay exact.
        let counters =
            self.ch.upward_search_space_stalled_budgeted_into(source, &mut self.space, self.budget);
        self.counters.accumulate(counters);
        self.projection.set_from(self.ch.num_vertices(), &self.space);
        self.source = Some(source);
    }
    fn network_distance(&mut self, source: NodeId, target: NodeId) -> Weight {
        self.network_distance_within(source, target, rnknn_graph::INFINITY)
    }
    fn network_distance_within(&mut self, source: NodeId, target: NodeId, bound: Weight) -> Weight {
        if source == target {
            return 0;
        }
        if self.source != Some(source) {
            self.begin_query(source);
        }
        let (d, counters) = self.ch.distance_from_projection_within_budgeted_with_counters(
            &self.projection,
            target,
            bound,
            self.budget,
        );
        self.counters.accumulate(counters);
        d
    }
    fn search_stats(&self) -> OracleSearchStats {
        OracleSearchStats {
            nodes_expanded: self.counters.settled,
            heap_operations: self.counters.heap_pushes,
            matrix_cells: 0,
        }
    }
}

/// Hub-labelling ("PHL") oracle: one sorted-array label intersection per candidate.
#[derive(Debug)]
pub struct PhlOracle<'a> {
    labels: &'a rnknn_phl::HubLabels,
    stats: OracleSearchStats,
}

impl<'a> PhlOracle<'a> {
    /// Creates the oracle over prebuilt labels.
    pub fn new(labels: &'a rnknn_phl::HubLabels) -> Self {
        PhlOracle { labels, stats: OracleSearchStats::default() }
    }
}

impl<'a> DistanceOracle for PhlOracle<'a> {
    fn name(&self) -> &'static str {
        "PHL"
    }
    fn network_distance(&mut self, source: NodeId, target: NodeId) -> Weight {
        let (d, entries) = self.labels.distance_with_stats(source, target);
        // Label intersection has no heap or settled set; the hub entries examined
        // are its comparable notion of "nodes expanded".
        self.stats.nodes_expanded += entries;
        d
    }
    fn search_stats(&self) -> OracleSearchStats {
        self.stats
    }
}

/// Transit Node Routing oracle. Per source, the stopped forward search space and the
/// source side of the access-node table are computed once
/// ([`rnknn_tnr::TransitNodeRouting::begin_source`]) and every candidate pays only a
/// stopped backward search plus an `O(|access(t)|)` table fold — the TNR analogue of
/// the IER-CH `distance_from_space` path.
#[derive(Debug)]
pub struct TnrOracle<'a> {
    tnr: &'a rnknn_tnr::TransitNodeRouting,
    state: rnknn_tnr::TnrSourceState,
    counters: rnknn_ch::ChSearchCounters,
}

impl<'a> TnrOracle<'a> {
    /// Creates the oracle over a fresh source state.
    pub fn new(tnr: &'a rnknn_tnr::TransitNodeRouting) -> Self {
        Self::with_state(tnr, rnknn_tnr::TnrSourceState::new())
    }

    /// Creates the oracle over a caller-provided source state (forward stopped
    /// space + folded table row computed once per source).
    pub fn with_state(
        tnr: &'a rnknn_tnr::TransitNodeRouting,
        state: rnknn_tnr::TnrSourceState,
    ) -> Self {
        TnrOracle { tnr, state, counters: rnknn_ch::ChSearchCounters::default() }
    }

    /// Consumes the oracle, returning the source state to the caller's pool.
    pub fn into_state(self) -> rnknn_tnr::TnrSourceState {
        self.state
    }
}

impl<'a> DistanceOracle for TnrOracle<'a> {
    fn name(&self) -> &'static str {
        "TNR"
    }
    fn begin_query(&mut self, source: NodeId) {
        let counters = self.tnr.begin_source(source, &mut self.state);
        self.counters.accumulate(counters);
    }
    fn network_distance(&mut self, source: NodeId, target: NodeId) -> Weight {
        if self.state.source() != Some(source) {
            self.begin_query(source);
        }
        let (d, counters) = self.tnr.distance_from_source_with_counters(&mut self.state, target);
        self.counters.accumulate(counters);
        d
    }
    fn search_stats(&self) -> OracleSearchStats {
        OracleSearchStats {
            nodes_expanded: self.counters.settled,
            heap_operations: self.counters.heap_pushes,
            matrix_cells: 0,
        }
    }
}

/// MGtree oracle: G-tree distance assembly with per-source materialization (Section 5).
/// The materialization cache is epoch-reset (not rebuilt) whenever the query source
/// changes, so hopping between sources reuses all of the search's pooled buffers.
#[derive(Debug)]
pub struct GtreeOracle<'a> {
    gtree: &'a rnknn_gtree::Gtree,
    graph: &'a Graph,
    search: Option<rnknn_gtree::GtreeSearch<'a>>,
    budget: &'a QueryBudget,
}

impl<'a> GtreeOracle<'a> {
    /// Creates the oracle over a prebuilt G-tree (materialization storage comes from
    /// the G-tree crate's thread-local pool).
    pub fn new(gtree: &'a rnknn_gtree::Gtree, graph: &'a Graph) -> Self {
        GtreeOracle { gtree, graph, search: None, budget: &UNLIMITED }
    }

    /// Attaches a [`QueryBudget`], forwarded to the underlying [`GtreeSearch`]
    /// (charged per materialized matrix-cell batch and leaf-search settle).
    ///
    /// [`GtreeSearch`]: rnknn_gtree::GtreeSearch
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
        if let Some(search) = &mut self.search {
            search.set_budget(budget);
        }
    }

    /// Border-to-border computation count accumulated by the current materialization
    /// (the IER-Gt series of Figure 9(b)).
    pub fn border_computations(&self) -> u64 {
        self.search.as_ref().map_or(0, |s| s.stats.border_computations)
    }
}

impl<'a> DistanceOracle for GtreeOracle<'a> {
    fn name(&self) -> &'static str {
        "MGtree"
    }
    fn begin_query(&mut self, source: NodeId) {
        match &mut self.search {
            Some(search) => search.reset(source),
            None => {
                let mut search = rnknn_gtree::GtreeSearch::new(self.gtree, self.graph, source);
                search.set_budget(self.budget);
                self.search = Some(search);
            }
        }
    }
    fn network_distance(&mut self, source: NodeId, target: NodeId) -> Weight {
        let rebuild = match &self.search {
            Some(s) => s.source() != source,
            None => true,
        };
        if rebuild {
            self.begin_query(source);
        }
        self.search.as_mut().expect("initialised").distance_to(target)
    }
    fn network_distance_within(&mut self, source: NodeId, target: NodeId, bound: Weight) -> Weight {
        let rebuild = match &self.search {
            Some(s) => s.source() != source,
            None => true,
        };
        if rebuild {
            self.begin_query(source);
        }
        // Bound-pruned materialization: rows are assembled only up to the caller's
        // current k-th candidate distance, and rematerialized if a later (exact or
        // looser) request needs them — see `GtreeSearch::distance_to_within`.
        self.search.as_mut().expect("initialised").distance_to_within(target, bound)
    }
    fn search_stats(&self) -> OracleSearchStats {
        self.search.as_ref().map_or_else(OracleSearchStats::default, |s| OracleSearchStats {
            nodes_expanded: s.stats.materialized_nodes + s.stats.leaf_vertices_settled,
            heap_operations: s.stats.heap_pushes,
            matrix_cells: s.stats.matrix_cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_objects::{uniform, ObjectRTree};
    use rnknn_pathfinding::dijkstra;

    fn brute_knn(g: &Graph, q: NodeId, k: usize, objects: &ObjectSet) -> Vec<Weight> {
        let all = dijkstra::single_source(g, q);
        let mut d: Vec<Weight> = objects.vertices().iter().map(|&o| all[o as usize]).collect();
        d.sort_unstable();
        d.truncate(k);
        d
    }

    fn check_oracle<O: DistanceOracle>(
        g: &Graph,
        oracle: O,
        objects: &ObjectSet,
        rtree: &ObjectRTree,
    ) {
        let mut ier = IerSearch::new(g, oracle);
        let n = g.num_vertices() as NodeId;
        for &q in &[1u32, n / 3, n - 2] {
            let want = brute_knn(g, q, 6, objects);
            let (got, stats) = ier.knn_with_stats(q, 6, rtree, objects);
            assert_eq!(
                got.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
                want,
                "oracle {} q={q}",
                ier.oracle_name()
            );
            assert!(stats.network_distance_computations >= got.len());
            assert!(stats.euclidean_candidates >= got.len());
        }
    }

    #[test]
    fn ier_is_exact_with_every_oracle_on_distance_graphs() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(700, 17));
        let g = net.graph(EdgeWeightKind::Distance);
        let objects = uniform(&g, 0.02, 3);
        let rtree = ObjectRTree::build(&g, &objects);

        check_oracle(&g, DijkstraOracle::new(&g), &objects, &rtree);
        check_oracle(&g, AStarOracle::new(&g), &objects, &rtree);
        let ch = rnknn_ch::ContractionHierarchy::build(&g);
        check_oracle(&g, ChOracle::new(&ch), &objects, &rtree);
        let labels = rnknn_phl::HubLabels::build(&g).expect("within budget");
        check_oracle(&g, PhlOracle::new(&labels), &objects, &rtree);
        let tnr = rnknn_tnr::TransitNodeRouting::build(&g);
        check_oracle(&g, TnrOracle::new(&tnr), &objects, &rtree);
        let gtree = rnknn_gtree::Gtree::build_with_config(
            &g,
            rnknn_gtree::GtreeConfig { leaf_capacity: 64, ..Default::default() },
        );
        check_oracle(&g, GtreeOracle::new(&gtree, &g), &objects, &rtree);
    }

    #[test]
    fn ier_is_exact_on_travel_time_graphs() {
        // Travel-time graphs use the scaled Euclidean lower bound (more false hits, but
        // still exact results).
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 23));
        let g = net.graph(EdgeWeightKind::Time);
        let objects = uniform(&g, 0.01, 5);
        let rtree = ObjectRTree::build(&g, &objects);
        check_oracle(&g, DijkstraOracle::new(&g), &objects, &rtree);
        let gtree = rnknn_gtree::Gtree::build_with_config(
            &g,
            rnknn_gtree::GtreeConfig { leaf_capacity: 64, ..Default::default() },
        );
        check_oracle(&g, GtreeOracle::new(&gtree, &g), &objects, &rtree);
        let labels = rnknn_phl::HubLabels::build(&g).expect("within budget");
        check_oracle(&g, PhlOracle::new(&labels), &objects, &rtree);
    }

    #[test]
    fn edge_cases_empty_objects_and_small_k() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(200, 2));
        let g = net.graph(EdgeWeightKind::Distance);
        let empty = ObjectSet::new("empty", g.num_vertices(), vec![]);
        let rtree = ObjectRTree::build(&g, &empty);
        let mut ier = IerSearch::new(&g, DijkstraOracle::new(&g));
        assert!(ier.knn(0, 5, &rtree, &empty).is_empty());

        let two = ObjectSet::new("two", g.num_vertices(), vec![10, 20]);
        let rtree = ObjectRTree::build(&g, &two);
        assert_eq!(ier.knn(10, 5, &rtree, &two).len(), 2);
        assert!(ier.knn(10, 0, &rtree, &two).is_empty());
        assert_eq!(ier.knn(10, 1, &rtree, &two)[0], (10, 0));
    }

    #[test]
    fn false_hits_are_counted_when_euclidean_order_disagrees() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(800, 31));
        // Travel time weights make the Euclidean ordering less reliable.
        let g = net.graph(EdgeWeightKind::Time);
        let objects = uniform(&g, 0.05, 7);
        let rtree = ObjectRTree::build(&g, &objects);
        let mut ier = IerSearch::new(&g, DijkstraOracle::new(&g));
        let mut total_false = 0;
        let n = g.num_vertices() as NodeId;
        for q in (0..n).step_by(97) {
            let (_, stats) = ier.knn_with_stats(q, 5, &rtree, &objects);
            total_false += stats.false_hits;
        }
        // Across many queries on a travel-time graph at this density, at least one
        // Euclidean candidate should have been displaced.
        assert!(total_false > 0);
    }
}
