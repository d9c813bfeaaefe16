//! G-tree queries: materialized distance assembly, the kNN algorithm (with both leaf
//! searches) and the MGtree point-to-point oracle.
//!
//! All per-query state is pooled. Leaf-confined Dijkstras run on a thread-local,
//! epoch-tagged scratch — distance/settled arrays and the heap are reused across
//! queries, so "clearing" between queries is one integer increment instead of an
//! O(τ) wipe (mirroring the CH query scratch in `rnknn-ch`). The materialization
//! store itself (per-node border-distance rows, the within-leaf distance cache and
//! the kNN traversal queue) lives in a thread-local [`SearchStore`] pool:
//! [`GtreeSearch::new`] takes the store from the pool and `Drop` returns it, so the
//! steady-state kNN query performs **zero heap allocations** — materializing a node
//! reuses that node's row buffer from earlier queries, keyed by a query epoch
//! instead of freshly zeroed vectors. [`GtreeSearch::reset`] re-arms an existing
//! search for a new source (one epoch bump), which is how the IER-Gt oracle hops
//! between sources without touching the allocator.
//!
//! Two query-side optimisations ride on the materialization sweep (see
//! `docs/METHODS.md` "Query performance"):
//!
//! * **SIMD min-plus assembly** — the row-major sweep `dist[b] = min(dist[b],
//!   src[a] + M[a][b])` over the contiguous matrix arena dispatches to the shared
//!   [`crate::kernel`] min-plus kernels (AVX-512F/AVX2, scalar under Miri and off
//!   x86-64), the same code the build-side refinement sweep runs.
//! * **Bound-pruned materialization** — once the kNN search holds `k` candidate
//!   distances, their maximum `B` upper-bounds the final answer: source borders
//!   whose distance exceeds `B` are skipped, materialized entries above `B` are
//!   clamped to [`INFINITY`], and whole nodes whose best entry distance exceeds
//!   `B` are never enqueued. Every value `<= B` stays exact (an inflated value is
//!   always `> B`), so results are unchanged; rows remember the bound they were
//!   materialized under and are recomputed when a later caller needs them exact
//!   (`row_bound` in [`SearchStore`]).
//!
//! Epoch tags are `u64`: at one query per nanosecond a serving thread would need
//! ~580 years to wrap, so stale-row aliasing after epoch reuse is structurally
//! unreachable — and the wrap branch still resets every tag and is unit-tested.
//! Rows are mutated strictly in place (disjoint borrows via `get_disjoint_mut`
//! instead of take-and-restore), so a panic mid-materialization can never leave a
//! row emptied-but-marked-valid: the interrupted node's epoch tag is simply never
//! set, and the next query rematerializes it.

use std::cell::{Cell, RefCell};

use rnknn_graph::{Graph, NodeId, Weight, INFINITY};
use rnknn_pathfinding::budget::{QueryBudget, UNLIMITED};
use rnknn_pathfinding::heap::MinHeap;

use crate::distmatrix::MatrixKind;
use crate::kernel;
use crate::occurrence::OccurrenceList;
use crate::tree::{Gtree, NodeIndex};

/// Reusable per-thread state for leaf-confined Dijkstras. Distance and settled
/// entries are validated by an epoch tag, so starting a new search is one integer
/// increment; the arrays grow to the largest leaf seen by this thread and are then
/// reused by every query on it.
struct LeafScratch {
    /// Tentative distances per leaf position.
    dist: Vec<Weight>,
    /// Epoch that wrote each `dist` entry; a mismatch means "unvisited this search".
    dist_epoch: Vec<u64>,
    /// Epoch that settled each leaf position.
    settled_epoch: Vec<u64>,
    /// Border row of each leaf position (improved leaf search only).
    border_row: Vec<u32>,
    /// Epoch that wrote each `border_row` entry.
    border_row_epoch: Vec<u64>,
    heap: MinHeap<u32>,
    epoch: u64,
}

impl LeafScratch {
    fn new() -> Self {
        LeafScratch {
            dist: Vec::new(),
            dist_epoch: Vec::new(),
            settled_epoch: Vec::new(),
            border_row: Vec::new(),
            border_row_epoch: Vec::new(),
            heap: MinHeap::new(),
            epoch: 0,
        }
    }

    /// Starts a new search over a leaf of `n` vertices: grows the arrays if this
    /// thread has only seen smaller leaves, clears the heap, and advances the epoch
    /// (resetting the tags on the — with `u64` tags, unreachable in practice —
    /// wrap-around, so reuse can never alias a stale entry as current).
    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, INFINITY);
            self.dist_epoch.resize(n, 0);
            self.settled_epoch.resize(n, 0);
            self.border_row.resize(n, u32::MAX);
            self.border_row_epoch.resize(n, 0);
        }
        self.heap.clear();
        if self.epoch == u64::MAX {
            self.dist_epoch.iter_mut().for_each(|e| *e = 0);
            self.settled_epoch.iter_mut().for_each(|e| *e = 0);
            self.border_row_epoch.iter_mut().for_each(|e| *e = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    #[inline]
    fn get(&self, p: u32) -> Weight {
        if self.dist_epoch[p as usize] == self.epoch {
            self.dist[p as usize]
        } else {
            INFINITY
        }
    }

    #[inline]
    fn set(&mut self, p: u32, d: Weight) {
        self.dist[p as usize] = d;
        self.dist_epoch[p as usize] = self.epoch;
    }

    /// Marks `p` settled, returning false when it already was this search.
    #[inline]
    fn settle(&mut self, p: u32) -> bool {
        if self.settled_epoch[p as usize] == self.epoch {
            return false;
        }
        self.settled_epoch[p as usize] = self.epoch;
        true
    }

    #[inline]
    fn is_settled(&self, p: u32) -> bool {
        self.settled_epoch[p as usize] == self.epoch
    }

    #[inline]
    fn set_border_row(&mut self, p: u32, row: u32) {
        self.border_row[p as usize] = row;
        self.border_row_epoch[p as usize] = self.epoch;
    }

    /// The border row recorded for leaf position `p` this search, if any.
    #[inline]
    fn border_row_of(&self, p: u32) -> Option<u32> {
        if self.border_row_epoch[p as usize] == self.epoch {
            Some(self.border_row[p as usize])
        } else {
            None
        }
    }
}

thread_local! {
    static LEAF_SCRATCH: RefCell<LeafScratch> = RefCell::new(LeafScratch::new());
}

/// Reusable per-search materialization state, pooled per thread. Border-distance
/// rows are validated by an epoch tag: a row whose `row_epoch` does not match the
/// current epoch is "not materialized this search", so starting a new search (or
/// [`GtreeSearch::reset`]) is one integer increment — the row buffers keep their
/// capacity and are refilled in place when their node is next materialized.
#[derive(Debug, Default)]
struct SearchStore {
    /// Per G-tree node: distances from the source to the node's borders.
    rows: Vec<Vec<Weight>>,
    /// Epoch that materialized each row; a mismatch means "stale".
    row_epoch: Vec<u64>,
    /// The kNN bound each row was materialized under ([`INFINITY`] = exact).
    /// Entries above the bound were clamped, so a later caller that needs the row
    /// under a looser bound must rematerialize it; see
    /// [`GtreeSearch::ensure_border_distances`].
    row_bound: Vec<Weight>,
    /// Within-leaf distances from the source to every vertex of its own leaf.
    same_leaf: Vec<Weight>,
    /// Epoch that filled `same_leaf` (valid iff it equals `epoch`).
    same_leaf_epoch: u64,
    /// The kNN traversal queue.
    queue: MinHeap<Element>,
    /// Full-matrix-width scratch for the climb-case SIMD sweep (the node's own
    /// borders sit at scattered columns; sweeping the whole contiguous row into
    /// this buffer and gathering afterwards beats a strided per-column walk).
    wide: Vec<Weight>,
    /// The `min(k, discovered)` smallest candidate distances seen by the current
    /// kNN query, sorted ascending. Full at `k` entries, its maximum is the
    /// pruning bound `B` (see the module docs).
    knn_cand: Vec<Weight>,
    epoch: u64,
}

impl SearchStore {
    /// Starts a new search over a tree of `n` nodes: grows the per-node arrays if
    /// this store has only seen smaller trees, clears the queue and candidate
    /// bound, and advances the epoch (resetting the tags on the — with `u64`
    /// tags, unreachable in practice — wrap-around).
    fn begin(&mut self, n: usize) {
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
            self.row_epoch.resize(n, 0);
            self.row_bound.resize(n, INFINITY);
        }
        self.queue.clear();
        self.knn_cand.clear();
        if self.epoch == u64::MAX {
            self.row_epoch.iter_mut().for_each(|e| *e = 0);
            self.same_leaf_epoch = 0;
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// True when `node`'s border distances were materialized this search.
    #[inline]
    fn is_materialized(&self, node: NodeIndex) -> bool {
        self.row_epoch[node as usize] == self.epoch
    }
}

thread_local! {
    /// One pooled [`SearchStore`] per thread: `GtreeSearch::new` takes it,
    /// `Drop` puts it back (keeping the larger of the two on collisions), so
    /// back-to-back searches on a thread reuse all materialization buffers.
    static STORE_POOL: Cell<Option<SearchStore>> = const { Cell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// Test-only fault injection: `Some(n)` makes the `n+1`-th materialization on
    /// this thread panic mid-assembly (see the panic-safety regression test).
    static FAIL_MATERIALIZE_AFTER: Cell<Option<u32>> = const { Cell::new(None) };
}

#[cfg(test)]
fn materialize_panic_tick() {
    FAIL_MATERIALIZE_AFTER.with(|c| {
        if let Some(n) = c.get() {
            if n == 0 {
                c.set(None);
                panic!("injected materialization panic");
            }
            c.set(Some(n - 1));
        }
    });
}

/// Operation counters for one G-tree search. `border_computations` is the "path cost"
/// series of Figure 9(b); `materialized_nodes` counts how many node border-distance
/// vectors were computed (and therefore reused by later traversals).
#[derive(Debug, Clone, Copy, Default)]
pub struct GtreeSearchStats {
    /// Border-to-border matrix-cell combinations evaluated during assembly.
    pub border_computations: u64,
    /// G-tree nodes whose border distances were materialized.
    pub materialized_nodes: u64,
    /// Priority-queue pushes performed by the kNN search.
    pub heap_pushes: u64,
    /// Vertices settled by leaf searches.
    pub leaf_vertices_settled: u64,
    /// Distance-matrix cells read, counted in per-row batches (the array layout's
    /// SIMD sweeps count every cell of each swept row). On the hash-table layouts
    /// this equals the reads their [`crate::MatrixStats`] count.
    pub matrix_cells: u64,
}

/// Which leaf-search algorithm the kNN query uses within the query vertex's leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafSearchMode {
    /// The improved leaf search of Appendix A.2.1 (default): a single Dijkstra over the
    /// leaf subgraph augmented with exact border-to-border shortcuts, stopping after `k`
    /// objects.
    Improved,
    /// The original G-tree leaf search: settle every leaf object with a restricted
    /// Dijkstra, then additionally evaluate the path through the borders for each.
    Original,
}

/// Elements of the kNN priority queue.
#[derive(Debug, Clone, Copy)]
enum Element {
    Node(NodeIndex),
    Object(NodeId),
}

/// A per-query (or per-source) search context over a G-tree.
///
/// The context memoizes, for every visited G-tree node, the distances from the source to
/// that node's borders — the paper's "materialization" property. Reusing one context for
/// many distance queries from the same source (as IER-Gt does) amortises the assembly
/// work; the kNN algorithm uses the same cache internally. The memo's storage comes
/// from a thread-local pool (see the module docs), so constructing a search per query
/// allocates nothing in steady state; [`GtreeSearch::reset`] re-arms the same search
/// for a new source.
#[derive(Debug)]
pub struct GtreeSearch<'a> {
    gtree: &'a Gtree,
    graph: &'a Graph,
    source: NodeId,
    source_leaf: NodeIndex,
    /// Pooled materialization state (border rows, same-leaf cache, kNN queue).
    store: SearchStore,
    /// Cooperative cancellation: charged per materialized matrix cell, per kNN
    /// traversal step and per leaf-search settle. Defaults to [`UNLIMITED`].
    budget: &'a QueryBudget,
    /// Operation counters.
    pub stats: GtreeSearchStats,
}

impl<'a> Drop for GtreeSearch<'a> {
    fn drop(&mut self) {
        let store = std::mem::take(&mut self.store);
        STORE_POOL.with(|pool| {
            let keep = match pool.take() {
                Some(existing) if existing.rows.len() >= store.rows.len() => existing,
                _ => store,
            };
            pool.set(Some(keep));
        });
    }
}

impl<'a> GtreeSearch<'a> {
    /// Creates a search context for queries originating at `source`, taking its
    /// materialization store from the thread-local pool (zero allocations when a
    /// previous search on this thread has warmed the pool).
    pub fn new(gtree: &'a Gtree, graph: &'a Graph, source: NodeId) -> Self {
        let mut store = STORE_POOL.with(|pool| pool.take()).unwrap_or_default();
        store.begin(gtree.num_nodes());
        GtreeSearch {
            gtree,
            graph,
            source,
            source_leaf: gtree.leaf_of(source),
            store,
            budget: &UNLIMITED,
            stats: GtreeSearchStats::default(),
        }
    }

    /// Attaches a [`QueryBudget`]: materialization charges one step per matrix
    /// cell touched, the kNN traversal one per queue pop, and the leaf searches
    /// one per settled vertex. Once the budget exhausts, distance queries return
    /// [`INFINITY`] and the kNN traversal stops early with a truncated result.
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
    }

    /// Re-arms this search for a new source: one epoch bump invalidates every
    /// materialized row (their buffers are kept and refilled lazily) and the
    /// counters restart. Equivalent to — but much cheaper than — constructing a
    /// fresh search, and the way long-lived consumers (the IER-Gt oracle) hop
    /// between sources.
    pub fn reset(&mut self, source: NodeId) {
        self.store.begin(self.gtree.num_nodes());
        self.source = source;
        self.source_leaf = self.gtree.leaf_of(source);
        self.stats = GtreeSearchStats::default();
    }

    /// The source vertex of this context.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Exact network distance from the source to `target` (the MGtree oracle).
    pub fn distance_to(&mut self, target: NodeId) -> Weight {
        self.distance_to_within(target, INFINITY)
    }

    /// Bounded network distance: exact whenever the true distance is `<= bound`
    /// (in particular, whenever the returned value is `< bound`), and some value
    /// `> bound` — possibly [`INFINITY`] — otherwise. Materialization prunes
    /// against `bound`, which is how the IER-Gt oracle skips assembly work for
    /// candidates that cannot beat its current k-th neighbor.
    pub fn distance_to_within(&mut self, target: NodeId, bound: Weight) -> Weight {
        if target == self.source {
            return 0;
        }
        if self.budget.is_exhausted() {
            return INFINITY;
        }
        let target_leaf = self.gtree.leaf_of(target);
        if target_leaf == self.source_leaf {
            let inside = self.same_leaf_distance(target);
            let via = self.via_border_distance(target_leaf, target, bound);
            return inside.min(via);
        }
        self.ensure_border_distances(target_leaf, bound);
        self.via_border_distance(target_leaf, target, bound)
    }

    /// `min_b dist(source, b) + matrix(b, target)` over the borders of `leaf`.
    /// Exact whenever the true via-border distance is `<= bound`; borders whose
    /// source distance already exceeds the bound are skipped.
    fn via_border_distance(&mut self, leaf: NodeIndex, target: NodeId, bound: Weight) -> Weight {
        self.ensure_border_distances(leaf, bound);
        let gtree = self.gtree;
        let node = gtree.node(leaf);
        let col = gtree.position_in_leaf(target) as usize;
        let dists = &self.store.rows[leaf as usize];
        let mut best = INFINITY;
        let mut combinations = 0u64;
        for (bi, &d) in dists.iter().enumerate() {
            if d == INFINITY || d > bound {
                continue;
            }
            let m = node.matrix.get(bi, col);
            combinations += 1;
            if m != INFINITY && d + m < best {
                best = d + m;
            }
        }
        self.stats.border_computations += combinations;
        self.stats.matrix_cells += combinations;
        best
    }

    /// Distance from the source to `target` using only vertices of the source's leaf.
    fn same_leaf_distance(&mut self, target: NodeId) -> Weight {
        if self.store.same_leaf_epoch != self.store.epoch {
            let gtree = self.gtree;
            let graph = self.graph;
            let source = self.source;
            let source_leaf = self.source_leaf;
            let node = gtree.node(source_leaf);
            let nv = node.leaf_vertices.len();
            let store = &mut self.store;
            store.same_leaf.clear();
            LEAF_SCRATCH.with(|scratch| {
                let scratch = &mut *scratch.borrow_mut();
                scratch.begin(nv);
                let qpos = gtree.position_in_leaf(source);
                scratch.set(qpos, 0);
                scratch.heap.push(0, qpos);
                while let Some((d, p)) = scratch.heap.pop() {
                    if !scratch.settle(p) {
                        continue;
                    }
                    let v = node.leaf_vertices[p as usize];
                    for (t, w) in graph.neighbors(v) {
                        if gtree.leaf_of(t) != source_leaf {
                            continue;
                        }
                        let tp = gtree.position_in_leaf(t);
                        let nd = d + w;
                        if nd < scratch.get(tp) {
                            scratch.set(tp, nd);
                            scratch.heap.push(nd, tp);
                        }
                    }
                }
                store.same_leaf.extend((0..nv as u32).map(|p| scratch.get(p)));
            });
            store.same_leaf_epoch = store.epoch;
        }
        let pos = self.gtree.position_in_leaf(target) as usize;
        self.store.same_leaf[pos]
    }

    /// Minimum distance from the source to any border of `node` (the priority-queue key
    /// for G-tree nodes). Exact — kNN-internal callers use the bounded variant.
    pub fn min_border_distance(&mut self, node: NodeIndex) -> Weight {
        self.min_border_distance_bounded(node, INFINITY)
    }

    /// [`GtreeSearch::min_border_distance`] under a pruning bound: exact whenever
    /// the true minimum is `<= bound`, some value `> bound` otherwise.
    fn min_border_distance_bounded(&mut self, node: NodeIndex, bound: Weight) -> Weight {
        self.ensure_border_distances(node, bound);
        self.store.rows[node as usize].iter().copied().min().unwrap_or(INFINITY)
    }

    /// The current kNN pruning bound: the k-th smallest candidate distance
    /// discovered so far, or [`INFINITY`] while fewer than `k` are known. Every
    /// discovered distance upper-bounds its object's true distance, so the k-th
    /// smallest upper-bounds the final k-th result — values above it can never
    /// appear in the answer.
    #[inline]
    fn knn_bound(&self, k: usize) -> Weight {
        let cand = &self.store.knn_cand;
        if cand.len() == k {
            *cand.last().expect("k > 0 candidates")
        } else {
            INFINITY
        }
    }

    /// Records a discovered candidate distance (once per distinct object — the
    /// traversal enqueues every object at most once), tightening the bound.
    fn note_candidate(&mut self, d: Weight, k: usize) {
        let cand = &mut self.store.knn_cand;
        if cand.len() == k {
            match cand.last() {
                Some(&worst) if d < worst => {
                    cand.pop();
                }
                _ => return,
            }
        }
        let pos = cand.partition_point(|&e| e <= d);
        cand.insert(pos, d);
    }

    /// Materializes the distances from the source to the borders of `t` (assembly along
    /// the tree path, reusing previously materialized nodes). The row buffer of `t` is
    /// reused from earlier queries — epoch tags mark it stale, and it is refilled in
    /// place (disjoint in-place borrows, so a panic mid-assembly leaves no row
    /// emptied-but-valid), so steady-state materialization performs no allocation.
    ///
    /// Under a finite `bound`, source borders beyond the bound are skipped and
    /// entries that come out above it are clamped to [`INFINITY`]; the bound is
    /// recorded in `row_bound` so a later request needing looser (or exact) values
    /// rematerializes the row.
    fn ensure_border_distances(&mut self, t: NodeIndex, bound: Weight) {
        let ti = t as usize;
        if self.store.is_materialized(t) {
            let rb = self.store.row_bound[ti];
            if rb == INFINITY || bound <= rb {
                return;
            }
            // Materialized under a tighter bound than requested: recompute below.
        }
        #[cfg(test)]
        materialize_panic_tick();
        let gtree = self.gtree;
        // Charge the budget for the cells *this* frame touches: recursive
        // assembly calls charge their own deltas, so the mark is re-taken
        // after each nested call returns.
        let mut cells_mark = self.stats.matrix_cells;
        if t == self.source_leaf {
            // Column of the source vertex in its own leaf matrix: one strided
            // gather per border, always exact (it is the root of every assembly).
            let node = gtree.node(t);
            let col = gtree.position_in_leaf(self.source) as usize;
            let nb = node.borders.len();
            let out = &mut self.store.rows[ti];
            out.clear();
            out.extend((0..nb).map(|row| node.matrix.get(row, col)));
            self.stats.matrix_cells += nb as u64;
            self.store.row_bound[ti] = INFINITY;
        } else if gtree.is_ancestor_of(t, self.source_leaf) {
            // Climb: combine the child-on-the-path's border distances with this node's
            // matrix to reach this node's own borders.
            let c = gtree.child_towards(t, self.source_leaf);
            self.ensure_border_distances(c, bound);
            cells_mark = self.stats.matrix_cells;
            let node = gtree.node(t);
            let child_pos = node.children.iter().position(|&x| x == c).expect("child of t");
            let base = node.child_border_offsets[child_pos] as usize;
            let nb = node.borders.len();
            let stats = &mut self.stats;
            let wide = &mut self.store.wide;
            let [out, src] = self
                .store
                .rows
                .get_disjoint_mut([ti, c as usize])
                .expect("a node is distinct from its on-path child");
            out.clear();
            out.resize(nb, INFINITY);
            if node.matrix.kind() == MatrixKind::Array {
                // The node's own borders sit at scattered matrix columns, so a
                // direct sweep would be a per-column gather. Instead min-plus the
                // full contiguous rows into the pooled full-width buffer with the
                // SIMD kernel and gather the border positions once at the end —
                // more cells touched than strictly needed, but contiguous, which
                // wins for any realistic border density.
                let width = node.matrix.cols();
                wide.clear();
                wide.resize(width, INFINITY);
                let mut active = 0u64;
                for (bi, &d) in src.iter().enumerate() {
                    if d == INFINITY || d > bound {
                        continue;
                    }
                    active += 1;
                    let row = node.matrix.row_slice(base + bi).expect("array layout");
                    kernel::min_plus_into(wide, d, row);
                }
                for (out_x, &px) in out.iter_mut().zip(&node.own_border_positions) {
                    *out_x = wide[px as usize];
                }
                stats.border_computations += active * nb as u64;
                stats.matrix_cells += active * width as u64;
            } else {
                // Hash-table ablation layouts: per-cell gather, same arithmetic.
                let mut active = 0u64;
                for (bi, &d) in src.iter().enumerate() {
                    if d == INFINITY || d > bound {
                        continue;
                    }
                    active += 1;
                    for (out_x, &px) in out.iter_mut().zip(&node.own_border_positions) {
                        let m = node.matrix.get(base + bi, px as usize);
                        if m != INFINITY && d + m < *out_x {
                            *out_x = d + m;
                        }
                    }
                }
                stats.border_computations += active * nb as u64;
                stats.matrix_cells += active * nb as u64;
            }
            if bound < INFINITY {
                for o in out.iter_mut() {
                    if *o > bound {
                        *o = INFINITY;
                    }
                }
            }
            self.store.row_bound[ti] = bound;
        } else {
            // Descend: this node hangs off the path; go through its parent's matrix.
            let node = gtree.node(t);
            let p = node.parent.expect("non-root because the root is an ancestor of every leaf");
            let pnode = gtree.node(p);
            let t_child_pos =
                pnode.children.iter().position(|&x| x == t).expect("t is a child of p");
            let t_base = pnode.child_border_offsets[t_child_pos] as usize;
            // Source side within the parent: either the sibling subtree containing the
            // source (when the parent is an ancestor of the source leaf) or the parent's
            // own borders. `s_base` maps source index `si` to its parent-matrix
            // position: `s_base + si` for a sibling subtree, or the parent's own
            // border positions otherwise.
            let (src_node, s_base) = if gtree.is_ancestor_of(p, self.source_leaf) {
                let s = gtree.child_towards(p, self.source_leaf);
                self.ensure_border_distances(s, bound);
                let s_child_pos =
                    pnode.children.iter().position(|&x| x == s).expect("s is a child of p");
                (s, Some(pnode.child_border_offsets[s_child_pos] as usize))
            } else {
                self.ensure_border_distances(p, bound);
                (p, None)
            };
            cells_mark = self.stats.matrix_cells;
            let nb = node.borders.len();
            let stats = &mut self.stats;
            let [out, src] = self
                .store
                .rows
                .get_disjoint_mut([ti, src_node as usize])
                .expect("the materialization source is a sibling or the parent, never t");
            out.clear();
            out.resize(nb, INFINITY);
            // The target's borders occupy the contiguous parent-matrix columns
            // `t_base..t_base+nb`, so each surviving source border contributes
            // one contiguous row segment — a pure SIMD min-plus row sweep.
            let mut active = 0u64;
            for (si, &d) in src.iter().enumerate() {
                if d == INFINITY || d > bound {
                    continue;
                }
                active += 1;
                let pos = match s_base {
                    Some(sb) => sb + si,
                    None => pnode.own_border_positions[si] as usize,
                };
                match pnode.matrix.row_slice(pos) {
                    Some(row) => {
                        kernel::min_plus_into(out, d, &row[t_base..t_base + nb]);
                    }
                    None => {
                        for (yi, out_y) in out.iter_mut().enumerate() {
                            let m = pnode.matrix.get(pos, t_base + yi);
                            if m != INFINITY && d + m < *out_y {
                                *out_y = d + m;
                            }
                        }
                    }
                }
            }
            stats.border_computations += active * nb as u64;
            stats.matrix_cells += active * nb as u64;
            if bound < INFINITY {
                for o in out.iter_mut() {
                    if *o > bound {
                        *o = INFINITY;
                    }
                }
            }
            self.store.row_bound[ti] = bound;
        }
        self.budget.charge(self.stats.matrix_cells - cells_mark);
        self.stats.materialized_nodes += 1;
        self.store.row_epoch[ti] = self.store.epoch;
    }

    /// k-nearest-neighbor query: the `k` objects of `occurrence` closest to the source
    /// by network distance, as `(vertex, distance)` pairs in increasing distance order.
    pub fn knn(
        &mut self,
        k: usize,
        occurrence: &OccurrenceList,
        mode: LeafSearchMode,
    ) -> Vec<(NodeId, Weight)> {
        let mut result: Vec<(NodeId, Weight)> = Vec::new();
        self.knn_into(k, occurrence, mode, &mut result);
        result
    }

    /// [`GtreeSearch::knn`] writing into a caller-owned result vector (cleared first).
    /// With a warmed pool and a reused result buffer, this performs no allocation.
    ///
    /// Unreachable candidates (`dist == INFINITY`) are skipped at enqueue time —
    /// nothing unreachable ever enters the queue, so a disconnected workload simply
    /// yields fewer than `k` results once the queue drains. Once `k` candidate
    /// distances are known, their maximum prunes both materialization (see
    /// `ensure_border_distances`) and enqueueing: objects and whole subtrees
    /// provably beyond the k-th candidate are dropped without heap work.
    pub fn knn_into(
        &mut self,
        k: usize,
        occurrence: &OccurrenceList,
        mode: LeafSearchMode,
        result: &mut Vec<(NodeId, Weight)>,
    ) {
        result.clear();
        if k == 0 || occurrence.num_objects() == 0 {
            return;
        }
        let gtree = self.gtree;
        let root = gtree.root();
        self.store.queue.clear();
        self.store.knn_cand.clear();

        if !occurrence.leaf_objects(self.source_leaf).is_empty() {
            match mode {
                LeafSearchMode::Improved => self.improved_leaf_search(k, occurrence, result),
                LeafSearchMode::Original => self.original_leaf_search(k, occurrence),
            }
        }

        let mut tn = self.source_leaf;
        let mut tmin = if tn == root {
            INFINITY
        } else {
            let b = self.knn_bound(k);
            self.min_border_distance_bounded(tn, b)
        };

        while result.len() < k && (!self.store.queue.is_empty() || tn != root) {
            if !self.budget.charge(1) {
                break;
            }
            if self.store.queue.is_empty() {
                let (new_tn, new_tmin) = self.expand_tn(tn, k, occurrence);
                tn = new_tn;
                tmin = new_tmin;
                continue;
            }
            let (d, element) = self.store.queue.pop().expect("non-empty");
            if d > tmin && tn != root {
                let (new_tn, new_tmin) = self.expand_tn(tn, k, occurrence);
                tn = new_tn;
                tmin = new_tmin;
                self.store.queue.push(d, element);
                self.stats.heap_pushes += 1;
                continue;
            }
            match element {
                Element::Object(v) => {
                    result.push((v, d));
                }
                Element::Node(x) => {
                    let xnode = gtree.node(x);
                    if xnode.is_leaf() {
                        let b = self.knn_bound(k);
                        self.ensure_border_distances(x, b);
                        for &o in occurrence.leaf_objects(x) {
                            let b = self.knn_bound(k);
                            let dist = self.via_border_distance(x, o, b);
                            if dist == INFINITY || dist > b {
                                continue; // unreachable or beyond the k-th candidate
                            }
                            self.store.queue.push(dist, Element::Object(o));
                            self.stats.heap_pushes += 1;
                            self.note_candidate(dist, k);
                        }
                    } else {
                        for &ci in occurrence.children_with_objects(x) {
                            let c = xnode.children[ci as usize];
                            let b = self.knn_bound(k);
                            let dist = self.min_border_distance_bounded(c, b);
                            if dist == INFINITY || dist > b {
                                continue; // unreachable or beyond the k-th candidate
                            }
                            self.store.queue.push(dist, Element::Node(c));
                            self.stats.heap_pushes += 1;
                        }
                    }
                }
            }
        }
    }

    /// Moves the traversal frontier one level up: enqueues the object-bearing siblings
    /// of `tn` under its parent and returns the new `(Tn, Tmin)`.
    fn expand_tn(
        &mut self,
        tn: NodeIndex,
        k: usize,
        occurrence: &OccurrenceList,
    ) -> (NodeIndex, Weight) {
        let gtree = self.gtree;
        let root = gtree.root();
        let parent = match gtree.node(tn).parent {
            Some(p) => p,
            None => return (tn, INFINITY),
        };
        let pnode = gtree.node(parent);
        for &ci in occurrence.children_with_objects(parent) {
            let c = pnode.children[ci as usize];
            if c == tn {
                continue;
            }
            let b = self.knn_bound(k);
            let dist = self.min_border_distance_bounded(c, b);
            if dist == INFINITY || dist > b {
                continue; // unreachable or beyond the k-th candidate
            }
            self.store.queue.push(dist, Element::Node(c));
            self.stats.heap_pushes += 1;
        }
        let tmin = if parent == root {
            INFINITY
        } else {
            let b = self.knn_bound(k);
            self.min_border_distance_bounded(parent, b)
        };
        (parent, tmin)
    }

    /// Improved leaf search (Appendix A.2.1, Algorithm 4): a Dijkstra over the source
    /// leaf's subgraph augmented with exact border-to-border shortcuts. Objects settled
    /// before any border are global kNNs and go straight into `result`; later objects
    /// are enqueued with their exact distances.
    fn improved_leaf_search(
        &mut self,
        k: usize,
        occurrence: &OccurrenceList,
        result: &mut Vec<(NodeId, Weight)>,
    ) {
        let gtree = self.gtree;
        let leaf = self.source_leaf;
        let node = gtree.node(leaf);
        let nv = node.leaf_vertices.len();
        LEAF_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.begin(nv);
            // border_row[pos] = row of the border located at leaf position `pos`.
            for (row, &pos) in node.own_border_positions.iter().enumerate() {
                scratch.set_border_row(pos, row as u32);
            }
            let qpos = gtree.position_in_leaf(self.source);
            scratch.set(qpos, 0);
            scratch.heap.push(0, qpos);
            let mut targets_found = 0usize;
            let mut border_found = false;
            while let Some((d, p)) = scratch.heap.pop() {
                if result.len() >= k || targets_found >= k {
                    break;
                }
                if !scratch.settle(p) {
                    continue;
                }
                self.stats.leaf_vertices_settled += 1;
                if !self.budget.charge(1) {
                    break;
                }
                let v = node.leaf_vertices[p as usize];
                if occurrence.is_object_in_leaf(leaf, v) {
                    targets_found += 1;
                    if !border_found {
                        result.push((v, d));
                    } else {
                        self.store.queue.push(d, Element::Object(v));
                        self.stats.heap_pushes += 1;
                    }
                    self.note_candidate(d, k);
                }
                // Relax ordinary leaf edges.
                for (t, w) in self.graph.neighbors(v) {
                    if gtree.leaf_of(t) != leaf {
                        continue;
                    }
                    let tp = gtree.position_in_leaf(t);
                    if scratch.is_settled(tp) {
                        continue;
                    }
                    let nd = d + w;
                    if nd < scratch.get(tp) {
                        scratch.set(tp, nd);
                        scratch.heap.push(nd, tp);
                    }
                }
                // Relax border-to-border shortcuts when standing on a border.
                if let Some(row) = scratch.border_row_of(p) {
                    border_found = true;
                    for (orow, &opos) in node.own_border_positions.iter().enumerate() {
                        if orow as u32 == row || scratch.is_settled(opos) {
                            continue;
                        }
                        let w = node.matrix.get(row as usize, opos as usize);
                        self.stats.border_computations += 1;
                        self.stats.matrix_cells += 1;
                        if w == INFINITY {
                            continue;
                        }
                        let nd = d + w;
                        if nd < scratch.get(opos) {
                            scratch.set(opos, nd);
                            scratch.heap.push(nd, opos);
                        }
                    }
                }
            }
        });
    }

    /// The original G-tree leaf search: settle every leaf object with a Dijkstra
    /// restricted to the leaf, additionally evaluate the path through the borders for
    /// each object, and enqueue everything (nothing goes straight to the result).
    fn original_leaf_search(&mut self, k: usize, occurrence: &OccurrenceList) {
        let gtree = self.gtree;
        let leaf = self.source_leaf;
        let node = gtree.node(leaf);
        let objects = occurrence.leaf_objects(leaf).to_vec();
        let nv = node.leaf_vertices.len();
        let inside_dists: Vec<Weight> = LEAF_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.begin(nv);
            let qpos = gtree.position_in_leaf(self.source);
            scratch.set(qpos, 0);
            scratch.heap.push(0, qpos);
            let mut remaining = objects.len();
            while let Some((d, p)) = scratch.heap.pop() {
                if remaining == 0 {
                    break;
                }
                if !scratch.settle(p) {
                    continue;
                }
                self.stats.leaf_vertices_settled += 1;
                if !self.budget.charge(1) {
                    break;
                }
                let v = node.leaf_vertices[p as usize];
                if occurrence.is_object_in_leaf(leaf, v) {
                    remaining -= 1;
                }
                for (t, w) in self.graph.neighbors(v) {
                    if gtree.leaf_of(t) != leaf {
                        continue;
                    }
                    let tp = gtree.position_in_leaf(t);
                    if scratch.is_settled(tp) {
                        continue;
                    }
                    let nd = d + w;
                    if nd < scratch.get(tp) {
                        scratch.set(tp, nd);
                        scratch.heap.push(nd, tp);
                    }
                }
            }
            objects.iter().map(|&o| scratch.get(gtree.position_in_leaf(o))).collect()
        });
        for (&o, &inside) in objects.iter().zip(&inside_dists) {
            let b = self.knn_bound(k);
            let via = self.via_border_distance(leaf, o, b);
            let dist = inside.min(via);
            if dist == INFINITY || dist > b {
                continue; // unreachable or beyond the k-th candidate
            }
            self.store.queue.push(dist, Element::Object(o));
            self.stats.heap_pushes += 1;
            self.note_candidate(dist, k);
        }
    }
}

/// The "MGtree" point-to-point oracle: a thin wrapper around [`GtreeSearch`] that keeps
/// the materialization cache alive across many distance queries from the same source —
/// the property that makes IER-Gt robust to Euclidean false hits (Section 5).
#[derive(Debug)]
pub struct GtreeDistanceOracle<'a> {
    search: GtreeSearch<'a>,
}

impl<'a> GtreeDistanceOracle<'a> {
    /// Creates an oracle for distances originating at `source`.
    pub fn new(gtree: &'a Gtree, graph: &'a Graph, source: NodeId) -> Self {
        GtreeDistanceOracle { search: GtreeSearch::new(gtree, graph, source) }
    }

    /// Attaches a [`QueryBudget`] to the wrapped search (see
    /// [`GtreeSearch::set_budget`]).
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.search.set_budget(budget);
    }

    /// Exact network distance from the source to `target`.
    pub fn distance(&mut self, target: NodeId) -> Weight {
        self.search.distance_to(target)
    }

    /// Operation counters accumulated so far.
    pub fn stats(&self) -> GtreeSearchStats {
        self.search.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GtreeConfig;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_pathfinding::dijkstra;

    fn setup(n: usize, seed: u64, tau: usize) -> (Graph, Gtree) {
        let net = RoadNetwork::generate(&GeneratorConfig::new(n, seed));
        let g = net.graph(EdgeWeightKind::Distance);
        let t =
            Gtree::build_with_config(&g, GtreeConfig { leaf_capacity: tau, ..Default::default() });
        (g, t)
    }

    /// Reference kNN by brute force over all objects.
    fn brute_knn(g: &Graph, q: NodeId, k: usize, objects: &[NodeId]) -> Vec<Weight> {
        let all = dijkstra::single_source(g, q);
        let mut d: Vec<Weight> = objects.iter().map(|&o| all[o as usize]).collect();
        d.sort_unstable();
        d.truncate(k);
        d
    }

    #[test]
    fn point_to_point_distances_match_dijkstra() {
        let (g, tree) = setup(700, 4, 50);
        let n = g.num_vertices() as NodeId;
        for s in [0u32, 13, 401] {
            let mut search = GtreeSearch::new(&tree, &g, s % n);
            let truth = dijkstra::single_source(&g, s % n);
            for t in (0..n).step_by(23) {
                assert_eq!(search.distance_to(t), truth[t as usize], "{s}->{t}");
            }
            assert!(search.stats.materialized_nodes > 0);
        }
    }

    #[test]
    fn bounded_distances_honor_the_oracle_contract() {
        // `distance_to_within(t, bound)` must be exact whenever the true distance
        // fits the bound, and must never under-report. Interleaves bounded and
        // exact queries so bounded rows get rematerialized for exact requests.
        let (g, tree) = setup(700, 21, 48);
        let n = g.num_vertices() as NodeId;
        for s in [9u32, 333] {
            let truth = dijkstra::single_source(&g, s);
            let finite: Vec<Weight> =
                (0..n).map(|t| truth[t as usize]).filter(|&d| d < INFINITY).collect();
            let mid = finite[finite.len() / 2];
            let mut search = GtreeSearch::new(&tree, &g, s);
            for t in (0..n).step_by(17) {
                let want = truth[t as usize];
                for bound in [0, mid / 2, mid, INFINITY] {
                    let got = search.distance_to_within(t, bound);
                    assert!(got >= want, "{s}->{t} bound {bound}: {got} < true {want}");
                    if want <= bound {
                        assert_eq!(got, want, "{s}->{t} bound {bound}");
                    }
                }
                // An exact request after the bounded ones must rematerialize.
                assert_eq!(search.distance_to(t), want, "{s}->{t} exact");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force_both_leaf_searches() {
        let (g, tree) = setup(900, 8, 64);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 13 == 1).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        for q in [3u32, 250, 777] {
            let q = q % n;
            let want = brute_knn(&g, q, 10, &objects);
            for mode in [LeafSearchMode::Improved, LeafSearchMode::Original] {
                let mut search = GtreeSearch::new(&tree, &g, q);
                let got = search.knn(10, &occ, mode);
                let got_d: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
                assert_eq!(got_d, want, "query {q} mode {mode:?}");
                // Results are sorted and are actual objects.
                assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
                assert!(got.iter().all(|&(v, _)| objects.contains(&v)));
            }
        }
    }

    #[test]
    fn knn_with_dense_and_sparse_objects() {
        let (g, tree) = setup(600, 15, 40);
        let n = g.num_vertices() as NodeId;
        // Dense: every other vertex; sparse: a handful of vertices.
        let dense: Vec<NodeId> = (0..n).filter(|v| v % 2 == 0).collect();
        let sparse: Vec<NodeId> = vec![1, n / 2, n - 3];
        for objects in [dense, sparse] {
            let occ = OccurrenceList::build(&tree, &objects);
            for &q in &[0u32, n / 3, n - 1] {
                let want = brute_knn(&g, q, 5, &objects);
                let mut search = GtreeSearch::new(&tree, &g, q);
                let got: Vec<Weight> =
                    search.knn(5, &occ, LeafSearchMode::Improved).iter().map(|&(_, d)| d).collect();
                assert_eq!(got, want, "q={q} |O|={}", objects.len());
            }
        }
    }

    #[test]
    fn k_larger_than_object_count_returns_all_objects() {
        let (g, tree) = setup(300, 2, 32);
        let objects: Vec<NodeId> = vec![5, 17, 100];
        let occ = OccurrenceList::build(&tree, &objects);
        let mut search = GtreeSearch::new(&tree, &g, 50);
        let got = search.knn(10, &occ, LeafSearchMode::Improved);
        assert_eq!(got.len(), 3);
        let want = brute_knn(&g, 50, 3, &objects);
        assert_eq!(got.iter().map(|&(_, d)| d).collect::<Vec<_>>(), want);
    }

    #[test]
    fn query_vertex_that_is_an_object_is_its_own_nearest_neighbor() {
        let (g, tree) = setup(400, 6, 32);
        let objects: Vec<NodeId> = vec![42, 77, 200];
        let occ = OccurrenceList::build(&tree, &objects);
        let mut search = GtreeSearch::new(&tree, &g, 42);
        let got = search.knn(2, &occ, LeafSearchMode::Improved);
        assert_eq!(got[0], (42, 0));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn empty_object_set_and_k_zero() {
        let (g, tree) = setup(300, 9, 32);
        let occ = OccurrenceList::build(&tree, &[]);
        let mut search = GtreeSearch::new(&tree, &g, 10);
        assert!(search.knn(5, &occ, LeafSearchMode::Improved).is_empty());
        let occ2 = OccurrenceList::build(&tree, &[1, 2]);
        assert!(search.knn(0, &occ2, LeafSearchMode::Improved).is_empty());
    }

    #[test]
    fn oracle_materialization_reuses_computations() {
        let (g, tree) = setup(800, 11, 64);
        let n = g.num_vertices() as NodeId;
        let mut oracle = GtreeDistanceOracle::new(&tree, &g, 7);
        let truth = dijkstra::single_source(&g, 7);
        let targets: Vec<NodeId> = (0..n).step_by(41).collect();
        for &t in &targets {
            assert_eq!(oracle.distance(t), truth[t as usize]);
        }
        let first_pass = oracle.stats().materialized_nodes;
        for &t in &targets {
            assert_eq!(oracle.distance(t), truth[t as usize]);
        }
        // The second pass must not materialize any additional nodes.
        assert_eq!(oracle.stats().materialized_nodes, first_pass);
    }

    #[test]
    fn pooled_searches_report_matrix_cells() {
        // The array layout counts nothing in MatrixStats, so matrix work must
        // show up in the per-search batch counter.
        let (g, tree) = setup(700, 27, 48);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 11 == 3).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        let mut pooled = GtreeSearch::new(&tree, &g, 5);
        pooled.knn(8, &occ, LeafSearchMode::Improved);
        assert!(pooled.stats.matrix_cells > 0, "pooled kNN read no matrix cells?");
    }

    #[test]
    fn matrix_layouts_agree_and_hash_layouts_count_their_reads() {
        // The Table 3 contract: one kNN workload answers identically on every
        // layout; on the two hash layouts the search's `matrix_cells` equals the
        // reads their MatrixStats count, with one probe per read for chained
        // hashing and at least one for quadratic probing.
        let net = RoadNetwork::generate(&GeneratorConfig::new(700, 29));
        let g = net.graph(EdgeWeightKind::Distance);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 17 == 5).collect();
        let queries: Vec<NodeId> = (0..12u32).map(|i| (i * 131 + 7) % n).collect();
        let mut answers = Vec::new();
        let mut hash_cells = Vec::new();
        for kind in MatrixKind::all() {
            let config = GtreeConfig { leaf_capacity: 48, matrix_kind: kind, ..Default::default() };
            let tree = Gtree::build_with_config(&g, config);
            let occ = OccurrenceList::build(&tree, &objects);
            tree.nodes().iter().for_each(|node| node.matrix.stats().reset());
            let mut cells = 0;
            let mut results = Vec::new();
            for &q in &queries {
                let mut search = GtreeSearch::new(&tree, &g, q);
                results.push(search.knn(8, &occ, LeafSearchMode::Improved));
                cells += search.stats.matrix_cells;
            }
            let (reads, probes) = tree.nodes().iter().fold((0, 0), |(r, p), node| {
                let (nr, np) = node.matrix.stats().snapshot();
                (r + nr, p + np)
            });
            match kind {
                MatrixKind::Array => assert_eq!((reads, probes), (0, 0)),
                MatrixKind::ChainedHashing => {
                    assert_eq!(reads, cells);
                    assert_eq!(probes, reads);
                    hash_cells.push(cells);
                }
                MatrixKind::QuadraticProbing => {
                    assert_eq!(reads, cells);
                    assert!(probes >= reads);
                    hash_cells.push(cells);
                }
            }
            answers.push(results);
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "layouts disagree");
        assert_eq!(hash_cells[0], hash_cells[1], "hash layouts read different cell counts");
        assert!(hash_cells[0] > 0);
    }

    #[test]
    fn leaf_scratch_is_reusable_across_trees_and_leaves() {
        // The thread-local leaf scratch grows monotonically; interleaving queries
        // against a large and a small tree (and many different leaves) on one thread
        // must not leak state between searches.
        let (gb, tb) = setup(900, 31, 64);
        let (gs, ts) = setup(200, 32, 24);
        let nb = gb.num_vertices() as NodeId;
        let ns = gs.num_vertices() as NodeId;
        let objects_b: Vec<NodeId> = (0..nb).filter(|v| v % 11 == 2).collect();
        let objects_s: Vec<NodeId> = (0..ns).filter(|v| v % 7 == 1).collect();
        let occ_b = OccurrenceList::build(&tb, &objects_b);
        let occ_s = OccurrenceList::build(&ts, &objects_s);
        for i in 0..12u32 {
            let qb = (i * 131) % nb;
            let qs = (i * 17) % ns;
            let want_b = brute_knn(&gb, qb, 5, &objects_b);
            let got_b: Vec<Weight> = GtreeSearch::new(&tb, &gb, qb)
                .knn(5, &occ_b, LeafSearchMode::Improved)
                .iter()
                .map(|&(_, d)| d)
                .collect();
            assert_eq!(got_b, want_b, "big tree q={qb}");
            let want_s = brute_knn(&gs, qs, 5, &objects_s);
            let got_s: Vec<Weight> = GtreeSearch::new(&ts, &gs, qs)
                .knn(5, &occ_s, LeafSearchMode::Original)
                .iter()
                .map(|&(_, d)| d)
                .collect();
            assert_eq!(got_s, want_s, "small tree q={qs}");
        }
    }

    #[test]
    fn reset_matches_fresh_searches() {
        let (g, tree) = setup(700, 19, 48);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 9 == 4).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        let mut reused = GtreeSearch::new(&tree, &g, 0);
        let mut result = Vec::new();
        for i in 0..10u32 {
            let q = (i * 157 + 3) % n;
            reused.reset(q);
            assert_eq!(reused.source(), q);
            reused.knn_into(6, &occ, LeafSearchMode::Improved, &mut result);
            let mut fresh = GtreeSearch::new(&tree, &g, q);
            let want = fresh.knn(6, &occ, LeafSearchMode::Improved);
            assert_eq!(result, want, "q={q}");
            // The reused search also answers point-to-point queries correctly
            // after the reset (the IER-Gt oracle pattern) — bound-pruned kNN rows
            // must not leak inflated values into exact queries.
            let truth = dijkstra::single_source(&g, q);
            for t in (0..n).step_by(97) {
                assert_eq!(reused.distance_to(t), truth[t as usize], "{q}->{t}");
            }
        }
    }

    #[test]
    fn repeated_queries_share_one_epoch_without_reset() {
        // kNN with a small k (tight bound), then a larger k (looser bound), then
        // exact point-to-point queries — all on one epoch. Rows materialized under
        // the tighter bound must be recomputed, not reused, by the looser callers.
        let (g, tree) = setup(800, 37, 56);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 10 == 6).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        let q = 17u32 % n;
        let mut search = GtreeSearch::new(&tree, &g, q);
        let got3: Vec<Weight> =
            search.knn(3, &occ, LeafSearchMode::Improved).iter().map(|&(_, d)| d).collect();
        assert_eq!(got3, brute_knn(&g, q, 3, &objects), "k=3");
        let got12: Vec<Weight> =
            search.knn(12, &occ, LeafSearchMode::Improved).iter().map(|&(_, d)| d).collect();
        assert_eq!(got12, brute_knn(&g, q, 12, &objects), "k=12 after k=3");
        let truth = dijkstra::single_source(&g, q);
        for t in (0..n).step_by(61) {
            assert_eq!(search.distance_to(t), truth[t as usize], "{q}->{t} after kNN");
        }
    }

    #[test]
    fn back_to_back_searches_reuse_the_pooled_store() {
        // Two consecutive (construct, query, drop) cycles on one thread must agree
        // with brute force — the second takes the first's store from the pool with
        // all rows stale-by-epoch, which is exactly the engine's steady state.
        let (g, tree) = setup(500, 23, 40);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 7 == 2).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        for q in [5u32, 250, 5, 499 % n] {
            let want = brute_knn(&g, q, 8, &objects);
            let got: Vec<Weight> = GtreeSearch::new(&tree, &g, q)
                .knn(8, &occ, LeafSearchMode::Improved)
                .iter()
                .map(|&(_, d)| d)
                .collect();
            assert_eq!(got, want, "q={q}");
        }
    }

    #[test]
    fn single_leaf_tree_supports_queries() {
        let (g, tree) = setup(80, 3, 200);
        assert_eq!(tree.num_nodes(), 1);
        let objects: Vec<NodeId> = vec![3, 9, 40];
        let occ = OccurrenceList::build(&tree, &objects);
        let mut search = GtreeSearch::new(&tree, &g, 0);
        let got = search.knn(2, &occ, LeafSearchMode::Improved);
        let want = brute_knn(&g, 0, 2, &objects);
        assert_eq!(got.iter().map(|&(_, d)| d).collect::<Vec<_>>(), want);
        let mut s2 = GtreeSearch::new(&tree, &g, 5);
        assert_eq!(s2.distance_to(40), dijkstra::distance(&g, 5, 40));
    }

    #[test]
    fn search_store_epoch_wrap_resets_all_tags() {
        let mut store = SearchStore::default();
        store.begin(4);
        store.row_epoch[2] = store.epoch; // pretend node 2 was materialized
        store.same_leaf_epoch = store.epoch;
        // Force the wrap: the next begin() must zero every tag, so nothing stale
        // can alias as materialized under the restarted epoch counter.
        store.epoch = u64::MAX;
        store.begin(4);
        assert_eq!(store.epoch, 1);
        assert!(store.row_epoch.iter().all(|&e| e == 0));
        assert_ne!(store.same_leaf_epoch, store.epoch);
        assert!(!store.is_materialized(2));
    }

    #[test]
    fn leaf_scratch_epoch_wrap_resets_all_tags() {
        let mut scratch = LeafScratch::new();
        scratch.begin(3);
        scratch.set(1, 42);
        scratch.settle(1);
        scratch.set_border_row(2, 7);
        scratch.epoch = u64::MAX;
        scratch.begin(3);
        assert_eq!(scratch.epoch, 1);
        assert_eq!(scratch.get(1), INFINITY, "stale distance aliased across the wrap");
        assert!(!scratch.is_settled(1));
        assert_eq!(scratch.border_row_of(2), None);
    }

    #[test]
    fn queries_stay_exact_across_a_forced_epoch_wrap() {
        let (g, tree) = setup(400, 41, 40);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 6 == 1).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        let mut search = GtreeSearch::new(&tree, &g, 3);
        search.knn(5, &occ, LeafSearchMode::Improved);
        // Park the epoch at the wrap boundary; the next reset takes the wrap path.
        search.store.epoch = u64::MAX;
        search.reset(77 % n);
        let got: Vec<Weight> =
            search.knn(5, &occ, LeafSearchMode::Improved).iter().map(|&(_, d)| d).collect();
        assert_eq!(got, brute_knn(&g, 77 % n, 5, &objects), "post-wrap kNN");
        let truth = dijkstra::single_source(&g, 77 % n);
        for t in (0..n).step_by(37) {
            assert_eq!(search.distance_to(t), truth[t as usize], "post-wrap {t}");
        }
    }

    #[test]
    fn panic_during_materialization_leaves_search_and_pool_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (g, tree) = setup(700, 43, 48);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 8 == 5).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        let truth = dijkstra::single_source(&g, 11);

        let mut search = GtreeSearch::new(&tree, &g, 11);
        // Arm the injector so the third materialization of the next query panics
        // mid-assembly, with ancestors' rows cleared but not yet tagged valid.
        FAIL_MATERIALIZE_AFTER.with(|c| c.set(Some(2)));
        let far = (0..n).max_by_key(|&t| truth[t as usize].min(INFINITY - 1)).unwrap();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected backtrace
        let outcome = catch_unwind(AssertUnwindSafe(|| search.distance_to(far)));
        std::panic::set_hook(hook);
        FAIL_MATERIALIZE_AFTER.with(|c| c.set(None));
        assert!(outcome.is_err(), "the injected panic must fire (query too shallow?)");

        // 1. The same search must keep answering exactly — the interrupted
        //    materialization may not have left a half-built row marked valid.
        for t in (0..n).step_by(43) {
            assert_eq!(search.distance_to(t), truth[t as usize], "same-search 11->{t}");
        }
        let got: Vec<Weight> =
            search.knn(6, &occ, LeafSearchMode::Improved).iter().map(|&(_, d)| d).collect();
        assert_eq!(got, brute_knn(&g, 11, 6, &objects), "same-search kNN");

        // 2. After dropping it, the pooled store a new search inherits must be
        //    clean as well (this used to poison the thread-local pool).
        drop(search);
        let mut next = GtreeSearch::new(&tree, &g, 200 % n);
        let got: Vec<Weight> =
            next.knn(6, &occ, LeafSearchMode::Improved).iter().map(|&(_, d)| d).collect();
        assert_eq!(got, brute_knn(&g, 200 % n, 6, &objects), "post-drop kNN");
    }
}
