//! The engine's per-thread query scratch pool.
//!
//! Every kNN method needs per-query working state — heaps, distance/settled arrays,
//! candidate buffers, oracle search spaces. Allocating it per query dominates the
//! cost of short queries on large graphs, so [`EngineScratch`] keeps one instance of
//! everything alive per thread: `Engine::query` (on `&self`) borrows the calling
//! thread's scratch from a `thread_local` pool and hands it to the dispatched
//! [`crate::KnnAlgorithm`], which reuses whichever pieces it needs. Stale state is
//! invalidated by epoch tags (one integer bump per query) rather than wiped, the
//! buffers grow to the largest workload seen on the thread and are then reused
//! forever, and the steady-state query path performs **zero heap allocations** for
//! the pooled methods (proven by the allocation-guard test for G-tree, INE and
//! IER-CH).
//!
//! ## Reuse contract
//!
//! * **Thread-local lifecycle** — one scratch per OS thread, created lazily on the
//!   first query and kept until the thread exits. Scratches are never shared, so the
//!   engine stays [`Sync`] and `knn_batch`'s worker threads each warm their own.
//! * **Epoch invalidation** — nothing in the scratch carries meaning across queries;
//!   each query re-arms what it uses (epoch bump or `clear()` that keeps capacity).
//!   A scratch serves engines of different sizes interleaved on one thread: arrays
//!   size to the largest graph seen, epoch tags keep smaller queries correct.
//! * **Object-generation invalidation** — candidate buffers, browse heaps and
//!   best-k storage are refilled per query, but as a hard backstop every scratch
//!   also carries the [object generation](crate::ObjectIndexes::generation) it
//!   last served. The dispatch path compares it against the queried indexes'
//!   generation and, on mismatch, clears all object-derived buffers (keeping
//!   capacity) before stamping the new generation — so `Engine::set_objects`,
//!   an applied update or an epoch swap can never leak stale candidates into a
//!   pooled query, even across engines interleaved on one thread.

use rnknn_objects::BrowserScratch;
use rnknn_pathfinding::scratch::SearchScratch;

use crate::disbrw::DisBrwScratch;

/// Reusable per-thread working state for one query at a time (see the module docs
/// for the reuse contract). Obtain one with [`EngineScratch::new`] — or not at all:
/// `Engine::query` manages a thread-local instance automatically.
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// Expansion-search state (epoch-tagged distances/settled + heap), shared by
    /// INE, ROAD and the Dijkstra/A* IER oracles.
    pub(crate) expansion: SearchScratch,
    /// R-tree browse heap, shared by every IER variant and DB-ENN.
    pub(crate) browser: BrowserScratch,
    /// IER-CH forward upward search space, re-materialised per query into the same
    /// entry buffer.
    pub(crate) ch_forward: rnknn_ch::ChSearchSpace,
    /// Dense epoch-tagged projection of `ch_forward` (O(1) meet tests in the
    /// candidate loop — affordable only because it is pooled).
    pub(crate) ch_projection: rnknn_ch::ChSpaceProjection,
    /// IER-TNR per-source state (stopped forward space, folded table row, backward
    /// space buffer).
    pub(crate) tnr: rnknn_tnr::TnrSourceState,
    /// Distance Browsing candidate pool, refinement queues and best-k storage.
    pub(crate) disbrw: DisBrwScratch,
    /// The object generation this scratch last served (0 = never). See the module
    /// docs: a mismatch on dispatch clears all object-derived buffers.
    pub(crate) objects_generation: u64,
}

impl EngineScratch {
    /// Creates an empty scratch: nothing is allocated until a query uses a piece.
    pub fn new() -> Self {
        Self::default()
    }

    /// The [object generation](crate::ObjectIndexes::generation) this scratch last
    /// served (0 = never). Read-only verification hook: after any dispatched query
    /// it must equal the queried indexes' generation — the serving-layer loom
    /// models assert exactly that to pin the stamp protocol in place.
    pub fn objects_generation(&self) -> u64 {
        self.objects_generation
    }

    /// Ensures this scratch carries no state derived from an object view other than
    /// `generation`: on mismatch, clears every object-derived buffer (browse heap,
    /// Distance Browsing candidates/queues/best-k — capacity kept) and stamps the
    /// new generation. `O(1)` in the steady state where the generation is unchanged.
    pub(crate) fn sync_object_generation(&mut self, generation: u64) {
        if self.objects_generation == generation {
            return;
        }
        self.browser.clear();
        self.disbrw.clear_object_state();
        self.objects_generation = generation;
    }
}
