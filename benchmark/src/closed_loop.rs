//! The closed-loop query phase: one thread runs INE, G-tree, IER-Gt and IER-CH
//! round-robin on each query vertex, so every method sees the same vertices
//! under the same conditions, and compares the four answers after the clock
//! stops. Which method goes first rotates, so the first touch of each query
//! vertex's neighbourhood is not always charged to the same method.
//!
//! In a traced run, odd rounds are traced and even rounds are not, so the
//! same run yields the tracing overhead. A traced round records a span around
//! each engine call and then replays the layers underneath it by calling each
//! crate's public functions directly: the G-tree search, the R-tree browse,
//! the G-tree and CH distance oracles. The replays run after all four engine
//! calls of the round, so they never warm an engine call of the same round.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rnknn::graph::generator::SplitMix64;
use rnknn::graph::NodeId;
use rnknn::gtree::{GtreeDistanceOracle, GtreeSearch, GtreeSearchStats, LeafSearchMode};
use rnknn::{Engine, EngineScratch, Method, ObjectIndexes, QueryOutput, QueryStats};
use rnknn_serve::ObjectStore;

use crate::clock::thread_cpu;
use crate::open_loop::Churn;
use crate::stats::Samples;
use crate::trace::Tracer;

/// The methods of the closed-loop phase, in round-robin order.
pub const METHODS: [Method; 4] = [Method::Ine, Method::Gtree, Method::IerGtree, Method::IerCh];
/// Metric-name labels of [`METHODS`].
pub const LABELS: [&str; 4] = ["ine", "gtree", "ier_gt", "ier_ch"];
const SPANS: [&str; 4] =
    ["core.query.ine", "core.query.gtree", "core.query.ier_gt", "core.query.ier_ch"];

/// Untraced rounds needed before the phase may end, so every method's p99 has
/// at least ten samples beyond it.
pub const MIN_ROUNDS: usize = 1000;

/// Where the closed loop reads its objects from.
pub enum Objects {
    /// Fixed object sets drawn from the seed; round `r` queries set
    /// `r % sets.len()`.
    Pooled(Vec<ObjectIndexes>),
    /// The live store's current epoch, pinned once per round.
    Live(Arc<ObjectStore>),
}

/// What the closed-loop phase measured.
pub struct ClosedLoop {
    /// Engine-call latency per method in untraced rounds, µs of the
    /// querying thread's CPU time (see [`crate::clock`]).
    pub plain_us: [Samples; 4],
    /// Engine-call latency per method in traced rounds, µs of CPU time.
    pub traced_us: [Samples; 4],
    /// Engine counters per method in traced rounds.
    pub stats: [Vec<QueryStats>; 4],
    /// Counters of the direct G-tree search replays.
    pub gtree_stats: Vec<GtreeSearchStats>,
    /// Queries run.
    pub attempted: u64,
    /// Queries that errored or disagreed with the other methods.
    pub failed: u64,
}

/// Reusable buffers of the layer replays.
struct Replay {
    result: Vec<(NodeId, rnknn::graph::Weight)>,
    candidates: Vec<NodeId>,
}

/// Runs rounds until `duration` has passed (and, untraced, until
/// [`MIN_ROUNDS`] rounds are done). `warm` rounds run first, untimed.
#[allow(clippy::too_many_arguments)]
pub fn run(
    engine: &Engine,
    objects: &Objects,
    mut churn: Option<&mut Churn>,
    k: usize,
    seed: u64,
    warm: usize,
    duration: Duration,
    tracer: &mut Tracer,
) -> ClosedLoop {
    let n = engine.graph().num_vertices() as u64;
    let mut vertices = SplitMix64::new(seed ^ 0xC105_ED10);
    let mut outs: [QueryOutput; 4] = Default::default();
    let mut scratch = EngineScratch::new();
    let mut replay = Replay { result: Vec::with_capacity(k), candidates: Vec::new() };
    let mut plain: [Vec<f64>; 4] = Default::default();
    let mut traced: [Vec<f64>; 4] = Default::default();
    let mut stats: [Vec<QueryStats>; 4] = Default::default();
    let mut gtree_stats = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut start = Instant::now();
    let mut round = 0usize;
    loop {
        if round == warm {
            start = Instant::now();
            if let Some(churn) = churn.as_deref_mut() {
                churn.resume();
            }
        }
        let timed = round >= warm;
        let timed_rounds = round.saturating_sub(warm);
        if timed && start.elapsed() >= duration && (tracer.enabled() || timed_rounds >= MIN_ROUNDS)
        {
            break;
        }
        // Under churn, the moves due so far become a new epoch before the
        // round pins one. This thread applies them between rounds, so the
        // timed queries share the host with no writer (the front's updater
        // thread, and its clone when a pinned epoch blocks the reclaim, load
        // the saturation phase instead).
        if let (Objects::Live(store), Some(churn)) = (objects, churn.as_deref_mut()) {
            churn.apply_due(store, Instant::now());
        }
        let q = vertices.next_below(n) as NodeId;
        let snapshot;
        let indexes = match objects {
            Objects::Pooled(sets) => &sets[round % sets.len()],
            Objects::Live(store) => {
                snapshot = store.snapshot();
                snapshot.indexes()
            }
        };
        let traced_round = timed && tracer.enabled() && round % 2 == 1;
        let root_start = Instant::now();
        let mut times = [Duration::ZERO; 4];
        let mut ok = [false; 4];
        // The method that goes first rotates every two rounds, so traced and
        // untraced rounds both see each order.
        let order: [usize; 4] = std::array::from_fn(|i| (round / 2 + i) % 4);
        for m in order {
            let t0 = thread_cpu();
            let result =
                engine.query_with_objects(METHODS[m], q, k, indexes, &mut scratch, &mut outs[m]);
            times[m] = thread_cpu() - t0;
            ok[m] = result.is_ok();
        }
        let root_end = Instant::now();
        if timed {
            attempted += 4;
            failed += ok.iter().filter(|&&o| !o).count() as u64;
            // Every answer must match INE's distances (ties may pick other objects).
            let reference = &outs[0].result;
            for m in 1..4 {
                let same = reference.len() == outs[m].result.len()
                    && reference.iter().zip(&outs[m].result).all(|(a, b)| a.1 == b.1);
                if ok[0] && ok[m] && !same {
                    failed += 1;
                }
            }
            let sink = if traced_round { &mut traced } else { &mut plain };
            for m in 0..4 {
                sink[m].push(times[m].as_nanos() as f64 / 1e3);
            }
        }
        if traced_round {
            let request = round as u64;
            let root = tracer.record("core.round", request, None, root_start, root_end, 0);
            let mut at = root_start;
            for m in order {
                // Engine calls ran back to back; lay their spans end to end
                // from the measured CPU times, so no wall-clock timestamp was
                // taken between them.
                let end = at + times[m];
                tracer.record(SPANS[m], request, root, at, end, outs[m].stats.nodes_expanded);
                stats[m].push(outs[m].stats);
                at = end;
            }
            let candidates = [outs[2].stats.candidates_examined, outs[3].stats.candidates_examined];
            gtree_stats.push(replay_layers(
                engine,
                indexes,
                q,
                k,
                candidates,
                &mut replay,
                tracer,
                request,
                root,
            ));
        }
        round += 1;
    }
    ClosedLoop {
        plain_us: plain.map(Samples::new),
        traced_us: traced.map(Samples::new),
        stats,
        gtree_stats,
        attempted,
        failed,
    }
}

/// Replays the layers under one round's engine calls, each in its own span.
#[allow(clippy::too_many_arguments)]
fn replay_layers(
    engine: &Engine,
    indexes: &ObjectIndexes,
    q: NodeId,
    k: usize,
    [ier_gt, ier_ch]: [u64; 2],
    replay: &mut Replay,
    tracer: &mut Tracer,
    request: u64,
    root: Option<usize>,
) -> GtreeSearchStats {
    let graph = engine.graph();
    let gtree = engine.gtree().expect("the benchmark engine builds a G-tree");
    let ch = engine.ch().expect("the benchmark engine builds a CH");
    let occurrence = indexes.occurrence().expect("G-tree engines keep an occurrence list");

    let search_stats = tracer.span("gtree.search", request, root, || {
        let mut search = GtreeSearch::new(gtree, graph, q);
        search.knn_into(k, occurrence, LeafSearchMode::Improved, &mut replay.result);
        (search.stats, search.stats.materialized_nodes)
    });

    let wanted = ier_gt.max(ier_ch) as usize;
    tracer.span("spatial.browse", request, root, || {
        replay.candidates.clear();
        replay
            .candidates
            .extend(indexes.rtree().browse(graph.coord(q)).take(wanted).map(|(_, v)| v));
        ((), replay.candidates.len() as u64)
    });

    let gt = &replay.candidates[..(ier_gt as usize).min(replay.candidates.len())];
    tracer.span("gtree.oracle", request, root, || {
        let mut oracle = GtreeDistanceOracle::new(gtree, graph, q);
        for &v in gt {
            black_box(oracle.distance(v));
        }
        ((), gt.len() as u64)
    });

    let space = tracer.span("ch.upward_space", request, root, || {
        let space = ch.upward_search_space(q);
        let len = space.len() as u64;
        (space, len)
    });
    let chs = &replay.candidates[..(ier_ch as usize).min(replay.candidates.len())];
    tracer.span("ch.oracle", request, root, || {
        for &v in chs {
            black_box(ch.distance_from_space(&space, v));
        }
        ((), chs.len() as u64)
    });
    search_stats
}
