//! The epoch-snapshotted object store.
//!
//! [`ObjectStore`] is the single writer for a live object set. Mutations
//! ([`insert`], [`remove`], [`move_to`], plus TTL-driven expirations) are applied
//! **incrementally** to a private working copy of the engine's [`ObjectIndexes`]
//! (no index is ever rebuilt) and become visible to readers only at a
//! [`publish`]: one atomic swap of an `Arc`-shared [`EpochSnapshot`]. A reader
//! that grabbed a snapshot keeps a fully consistent object-set + index view for
//! as long as it holds the `Arc`, no matter how many epochs are published
//! underneath it — exactly what a pooled kNN query needs.
//!
//! ## Double buffering, not cloning
//!
//! Publishing must not cost `O(|O|)`: the store keeps **two** index bundles and
//! rotates them. At publish time the working copy (which is ahead by the pending
//! events) is *moved* in as the new snapshot, and the *previous* snapshot's
//! buffer is reclaimed (a bounded spin on [`Arc::try_unwrap`] while late readers
//! drain) and caught up by replaying the same pending events onto it — `O(batch)`
//! instead of `O(|O|)`. Only when a reader holds the old epoch past the spin
//! budget does the store fall back to cloning the fresh snapshot — correctness
//! never depends on the reclaim winning, only the publish cost does.
//!
//! [`insert`]: ObjectStore::insert
//! [`remove`]: ObjectStore::remove
//! [`move_to`]: ObjectStore::move_to
//! [`publish`]: ObjectStore::publish

use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

use crate::sync::{thread, Arc, Mutex, RwLock};

use rnknn::{Engine, ObjectIndexes};
use rnknn_graph::NodeId;
use rnknn_objects::{ObjectSet, UpdateEvent};

/// One published epoch: an immutable object-set + object-index view tagged with
/// the epoch number it was published under. Readers hold it via `Arc` and query
/// through `Engine::query_with_objects(..., snapshot.indexes(), ...)`.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    indexes: ObjectIndexes,
}

impl EpochSnapshot {
    /// The epoch number (0 for the initial build, +1 per publish).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The object indexes of this epoch.
    pub fn indexes(&self) -> &ObjectIndexes {
        &self.indexes
    }

    /// The object set of this epoch.
    pub fn objects(&self) -> &ObjectSet {
        self.indexes.objects()
    }
}

/// Writer-side state: the working index bundle (ahead of the published snapshot
/// by `pending`), the events to replay at the next reclaim, and the TTL tracker.
struct WriterState {
    /// The writer's private bundle; `None` only transiently inside `publish`.
    working: Option<ObjectIndexes>,
    /// Events applied to `working` since the last publish (the replay log that
    /// catches the reclaimed buffer up).
    pending: Vec<UpdateEvent>,
    /// Per-vertex expiry deadline for TTL'd objects. Authoritative: heap entries
    /// whose deadline disagrees are stale and skipped.
    ttl: HashMap<NodeId, Instant>,
    /// Expiry deadlines as a min-heap (std's `BinaryHeap` is a max-heap, hence
    /// `Reverse`). May hold stale entries; `ttl` disambiguates.
    ttl_queue: BinaryHeap<std::cmp::Reverse<(Instant, NodeId)>>,
    /// Epochs published so far (the next publish gets this number).
    epochs_published: u64,
    /// Publishes that failed to reclaim the old buffer and fell back to a clone.
    clone_fallbacks: u64,
}

impl WriterState {
    fn working_mut(&mut self) -> &mut ObjectIndexes {
        self.working.as_mut().expect("working buffer absent outside publish")
    }
}

/// The single-writer, many-reader object store (see the module docs).
///
/// All methods take `&self`; update methods serialize on an internal writer lock,
/// while [`ObjectStore::snapshot`] only touches the read-mostly published slot.
/// Updates are **staged**: they take effect on the working copy immediately but
/// readers only observe them after the next [`ObjectStore::publish`].
pub struct ObjectStore {
    engine: Arc<Engine>,
    writer: Mutex<WriterState>,
    published: RwLock<Arc<EpochSnapshot>>,
    /// Store birth; TTL deadlines are cached relative to it (monotonic clocks
    /// have no portable epoch, so we make our own).
    created: Instant,
    /// Earliest deadline in `ttl_queue` as nanos since `created` (`u64::MAX` =
    /// none), maintained conservatively: it may be *early* (stale heap entries)
    /// but never late. Lets [`ObjectStore::publish_if_expiry_due`] answer "is
    /// anything overdue?" with one relaxed load, no lock. Deliberately a plain
    /// `std` atomic (observe-and-nudge only — the loom models never take the
    /// TTL path, and correctness never depends on this cache, only staleness
    /// bounds do).
    earliest_ttl: std::sync::atomic::AtomicU64,
}

/// How many times to spin (with a `yield_now` each round) waiting for late
/// readers to release the previous epoch before giving up and cloning.
#[cfg(not(feature = "loom-model"))]
const RECLAIM_SPINS: usize = 128;
/// Under the model checker every spin iteration is a scheduling point, so the
/// budget shrinks — but stays **strictly above the explorer's preemption bound
/// of 2**: each failed reclaim requires preempting the reader right before its
/// snapshot drop, so with 3 spins no schedule within the bound can exhaust
/// them, and the models may assert `clone_fallbacks() == 0` whenever readers
/// release promptly (the protocol's `O(batch)` publish obligation).
#[cfg(feature = "loom-model")]
const RECLAIM_SPINS: usize = 3;

impl ObjectStore {
    /// Builds the store's initial indexes from `initial` and publishes them as
    /// epoch 0. This full build is the only non-incremental step in the store's
    /// life (plus one clone to seed the double buffer).
    pub fn new(engine: Arc<Engine>, initial: ObjectSet) -> ObjectStore {
        let indexes = engine.build_object_indexes(initial);
        let working = indexes.clone();
        let snapshot = Arc::new(EpochSnapshot { epoch: 0, indexes });
        ObjectStore {
            engine,
            writer: Mutex::new(WriterState {
                working: Some(working),
                pending: Vec::new(),
                ttl: HashMap::new(),
                ttl_queue: BinaryHeap::new(),
                epochs_published: 1,
                clone_fallbacks: 0,
            }),
            published: RwLock::new(snapshot),
            created: Instant::now(),
            earliest_ttl: std::sync::atomic::AtomicU64::new(u64::MAX),
        }
    }

    /// The engine whose road-network indexes back every epoch.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The currently-published epoch. Cheap (one `Arc` clone under a read lock);
    /// the returned view stays consistent for as long as the caller holds it.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.published.read().expect("object store poisoned").clone()
    }

    /// Stages an object appearing at vertex `v` (no TTL). Returns whether the
    /// working set changed (`false` if `v` was already present).
    pub fn insert(&self, v: NodeId) -> bool {
        self.stage(UpdateEvent::Insert(v))
    }

    /// [`ObjectStore::insert`] with a time-to-live: unless removed or moved first,
    /// the object is expired (staged as a removal) by the first
    /// [`ObjectStore::publish`] at or after `now + ttl`.
    pub fn insert_with_ttl(&self, v: NodeId, ttl: Duration) -> bool {
        let mut w = self.writer.lock().expect("object store poisoned");
        let inserted = Self::stage_locked(&self.engine, &mut w, UpdateEvent::Insert(v));
        if inserted {
            let deadline = Instant::now() + ttl;
            w.ttl.insert(v, deadline);
            w.ttl_queue.push(std::cmp::Reverse((deadline, v)));
            self.earliest_ttl
                .fetch_min(self.deadline_nanos(deadline), std::sync::atomic::Ordering::Relaxed);
        }
        inserted
    }

    /// `deadline` as nanos since store birth (the cache's unit), saturating.
    fn deadline_nanos(&self, deadline: Instant) -> u64 {
        u64::try_from(deadline.saturating_duration_since(self.created).as_nanos())
            .unwrap_or(u64::MAX)
    }

    /// Stages the removal of the object at `v`. Returns whether it was present.
    pub fn remove(&self, v: NodeId) -> bool {
        self.stage(UpdateEvent::Remove(v))
    }

    /// Stages a relocation of the object at `from` to the free vertex `to` (one
    /// atomic event — readers can never see the object at both or neither
    /// location). Any TTL moves with the object. Returns whether the move was
    /// valid (`from` present, `to` absent, `from != to`).
    pub fn move_to(&self, from: NodeId, to: NodeId) -> bool {
        self.stage(UpdateEvent::Move { from, to })
    }

    /// Stages one [`UpdateEvent`] (the generic form of the mutators above).
    pub fn stage(&self, event: UpdateEvent) -> bool {
        let mut w = self.writer.lock().expect("object store poisoned");
        Self::stage_locked(&self.engine, &mut w, event)
    }

    fn stage_locked(engine: &Engine, w: &mut WriterState, event: UpdateEvent) -> bool {
        if !engine.apply_object_update(w.working_mut(), event) {
            return false;
        }
        w.pending.push(event);
        match event {
            UpdateEvent::Remove(v) => {
                w.ttl.remove(&v);
            }
            UpdateEvent::Move { from, to } => {
                if let Some(deadline) = w.ttl.remove(&from) {
                    w.ttl.insert(to, deadline);
                    w.ttl_queue.push(std::cmp::Reverse((deadline, to)));
                }
            }
            UpdateEvent::Insert(_) => {}
        }
        true
    }

    /// Number of staged events not yet visible to readers.
    pub fn pending_updates(&self) -> usize {
        self.writer.lock().expect("object store poisoned").pending.len()
    }

    /// Number of publishes that could not reclaim the previous buffer and fell
    /// back to an `O(|O|)` clone (late readers held the epoch too long).
    pub fn clone_fallbacks(&self) -> u64 {
        self.writer.lock().expect("object store poisoned").clone_fallbacks
    }

    /// Expires every TTL'd object whose deadline has passed (staged as ordinary
    /// removals), then atomically publishes the working state as a new epoch.
    /// Returns the new snapshot (also immediately visible to
    /// [`ObjectStore::snapshot`] callers). A publish with nothing pending still
    /// advances the epoch.
    pub fn publish(&self) -> Arc<EpochSnapshot> {
        let mut w = self.writer.lock().expect("object store poisoned");
        self.expire_due_locked(&mut w, Instant::now());
        self.publish_locked(&mut w)
    }

    /// Expiry-driven publish: if the earliest TTL deadline is overdue by more
    /// than `slack`, expire and publish; otherwise do nothing. The not-due path
    /// is one relaxed atomic load — cheap enough for serving workers to call at
    /// every batch boundary, which is what bounds how stale an expired object
    /// can remain visible when no ordinary updates are flowing (the updater
    /// only publishes on update traffic). Returns the new snapshot if one was
    /// published.
    pub fn publish_if_expiry_due(&self, slack: Duration) -> Option<Arc<EpochSnapshot>> {
        let nanos = self.earliest_ttl.load(std::sync::atomic::Ordering::Relaxed);
        if nanos == u64::MAX {
            return None;
        }
        if Instant::now() < self.created + Duration::from_nanos(nanos) + slack {
            return None;
        }
        let mut w = self.writer.lock().expect("object store poisoned");
        let staged_before = w.pending.len();
        self.expire_due_locked(&mut w, Instant::now());
        if w.pending.len() == staged_before {
            // Raced with another publisher, or the cache was early because of
            // stale heap entries (now popped and the cache refreshed): nothing
            // actually expired, so leave the updater's publish pacing alone.
            return None;
        }
        Some(self.publish_locked(&mut w))
    }

    /// The swap-and-reclaim core of [`ObjectStore::publish`], expirations
    /// already staged.
    fn publish_locked(&self, w: &mut WriterState) -> Arc<EpochSnapshot> {
        let epoch = w.epochs_published;
        w.epochs_published += 1;

        // Move the working copy in as the published epoch (no clone)...
        let working = w.working.take().expect("working buffer absent outside publish");
        let fresh = Arc::new(EpochSnapshot { epoch, indexes: working });
        let mut previous = {
            let mut slot = self.published.write().expect("object store poisoned");
            std::mem::replace(&mut *slot, Arc::clone(&fresh))
        };
        // ...and rebuild the working copy from the previous epoch's buffer: wait
        // briefly for late readers, reclaim it, and replay the pending events so
        // it catches up with what was just published.
        let mut reclaimed = None;
        if cfg!(feature = "mutant-no-reclaim-spin") {
            // Mutant: give up immediately — every publish pays the O(|O|) clone.
            drop(previous);
        } else {
            for _ in 0..RECLAIM_SPINS {
                match Arc::try_unwrap(previous) {
                    Ok(snapshot) => {
                        reclaimed = Some(snapshot.indexes);
                        break;
                    }
                    Err(still_shared) => {
                        previous = still_shared;
                        thread::yield_now();
                    }
                }
            }
        }
        w.working = Some(match reclaimed {
            Some(mut indexes) => {
                // Mutant: skip the catch-up replay, so the next epoch publishes
                // from a buffer missing this batch's events.
                if !cfg!(feature = "mutant-skip-replay") {
                    for &event in &w.pending {
                        self.engine.apply_object_update(&mut indexes, event);
                    }
                }
                indexes
            }
            None => {
                w.clone_fallbacks += 1;
                fresh.indexes.clone()
            }
        });
        w.pending.clear();
        fresh
    }

    /// Stages removals for every TTL deadline at or before `now`.
    fn expire_due_locked(&self, w: &mut WriterState, now: Instant) {
        while let Some(&std::cmp::Reverse((deadline, v))) = w.ttl_queue.peek() {
            if deadline > now {
                break;
            }
            w.ttl_queue.pop();
            // Only expire if this heap entry is still the vertex's live deadline
            // (it is stale after a remove, a move, or a TTL refresh).
            if w.ttl.get(&v) == Some(&deadline) {
                Self::stage_locked(&self.engine, w, UpdateEvent::Remove(v));
            }
        }
        // Re-derive the cache from the heap top: never later than the true
        // earliest live deadline (every live deadline is in the heap), at worst
        // early because of stale entries — which only costs a spurious
        // `publish_if_expiry_due` lock round that then self-cleans.
        let nanos = match w.ttl_queue.peek() {
            Some(&std::cmp::Reverse((deadline, _))) => self.deadline_nanos(deadline),
            None => u64::MAX,
        };
        self.earliest_ttl.store(nanos, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rnknn::{EngineConfig, EngineScratch, Method, QueryOutput};
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_objects::uniform;

    /// Answers one query against `indexes` on a fresh scratch.
    pub(crate) fn query_on(
        engine: &Engine,
        m: Method,
        q: NodeId,
        k: usize,
        indexes: &ObjectIndexes,
    ) -> QueryOutput {
        let mut out = QueryOutput::default();
        engine.query_with_objects(m, q, k, indexes, &mut EngineScratch::new(), &mut out).unwrap();
        out
    }

    fn engine() -> Arc<Engine> {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 31));
        Arc::new(Engine::build(net.graph(EdgeWeightKind::Distance), &EngineConfig::minimal()))
    }

    #[test]
    fn updates_stay_invisible_until_publish() {
        let engine = engine();
        let store = ObjectStore::new(Arc::clone(&engine), uniform(engine.graph(), 0.02, 3));
        let before = store.snapshot();
        let v = engine.graph().vertices().find(|&v| !before.objects().contains(v)).unwrap();
        assert!(store.insert(v));
        assert!(!store.insert(v), "duplicate insert must be a no-op");
        assert_eq!(store.pending_updates(), 1);
        // Still epoch 0 and still without v.
        let unpublished = store.snapshot();
        assert_eq!(unpublished.epoch(), 0);
        assert!(!unpublished.objects().contains(v));

        let published = store.publish();
        assert_eq!(published.epoch(), 1);
        assert!(published.objects().contains(v));
        assert_eq!(store.pending_updates(), 0);
        // The old Arc still serves its old view.
        assert!(!unpublished.objects().contains(v));
        // And queries against the new epoch see the new object.
        let out = query_on(&engine, Method::Ine, v, 1, published.indexes());
        assert_eq!(out.result[0], (v, 0));
    }

    #[test]
    fn move_is_atomic_and_reclaim_replays_correctly() {
        let engine = engine();
        let store = ObjectStore::new(Arc::clone(&engine), uniform(engine.graph(), 0.05, 9));
        for round in 0..50u32 {
            let snap = store.snapshot();
            let from = *snap.objects().vertices().first().unwrap();
            let to = engine.graph().vertices().find(|&v| !snap.objects().contains(v)).unwrap();
            let population = snap.objects().len();
            // Drop the reader before publishing so the double buffer can reclaim.
            drop(snap);
            assert!(store.move_to(from, to), "round {round}");
            assert!(!store.move_to(from, to), "round {round}: replayed move must no-op");
            let published = store.publish();
            assert!(!published.objects().contains(from));
            assert!(published.objects().contains(to));
            assert_eq!(published.objects().len(), population);
        }
        // With snapshots dropped promptly, the double buffer should win every time.
        assert_eq!(store.clone_fallbacks(), 0);
    }

    /// Forces the clone fallback deterministically: a snapshot held across the
    /// publish pins the previous epoch, so every reclaim spin fails and the
    /// publisher must clone — exactly once. The cloned bundle and a later
    /// replayed (reclaimed) bundle must both match a from-scratch rebuild.
    #[test]
    fn pinned_snapshot_forces_exactly_one_clone_fallback_with_correct_contents() {
        let engine = engine();
        let store = ObjectStore::new(Arc::clone(&engine), uniform(engine.graph(), 0.03, 21));
        let pinned = store.snapshot();
        let mut free = engine.graph().vertices().filter(|&v| !pinned.objects().contains(v));
        let (a, b) = (free.next().unwrap(), free.next().unwrap());

        // Publish while `pinned` still holds the previous epoch's Arc: no spin
        // can win `try_unwrap`, so this publish *must* take the clone path.
        assert!(store.insert(a));
        let cloned = store.publish();
        assert_eq!(store.clone_fallbacks(), 1, "pinned reader must force the clone fallback");
        assert_eq!(cloned.epoch(), 1);
        assert!(cloned.objects().contains(a));
        // The pinned epoch is untouched by the clone.
        assert!(!pinned.objects().contains(a));
        assert_eq!(pinned.epoch(), 0);

        // A published bundle must be indistinguishable from a from-scratch
        // build over the same membership: same objects, same query answers.
        let matches_rebuild = |snap: &EpochSnapshot, queries: &[u32]| {
            let rebuilt = ObjectStore::new(
                Arc::clone(&engine),
                rnknn_objects::ObjectSet::new(
                    "rebuilt",
                    engine.graph().num_vertices(),
                    snap.objects().vertices().to_vec(),
                ),
            );
            let fresh = rebuilt.snapshot();
            assert_eq!(snap.objects().len(), fresh.objects().len());
            for v in engine.graph().vertices() {
                assert_eq!(snap.objects().contains(v), fresh.objects().contains(v), "vertex {v}");
            }
            for &q in queries {
                let via_snap = query_on(&engine, Method::Ine, q, 3, snap.indexes());
                let via_fresh = query_on(&engine, Method::Ine, q, 3, fresh.indexes());
                assert_eq!(via_snap.result, via_fresh.result, "query at {q}");
            }
        };
        matches_rebuild(&cloned, &[a]);

        // Release every pin: the next publish reclaims the double buffer (which
        // is two epochs behind) and catches it up by replaying epoch 1's
        // insert. No further fallback.
        drop(pinned);
        drop(cloned);
        assert!(store.insert(b));
        let replayed = store.publish();
        assert_eq!(store.clone_fallbacks(), 1, "reclaim must win once the pins are gone");
        assert_eq!(replayed.epoch(), 2);
        assert!(replayed.objects().contains(a), "replayed buffer lost epoch 1's insert");
        assert!(replayed.objects().contains(b));
        matches_rebuild(&replayed, &[a, b]);
    }

    /// The expiry-driven publish path: with no update traffic at all, an
    /// overdue TTL forces a fresh epoch via `publish_if_expiry_due` — and a
    /// reader pinned *across* that expiry keeps seeing the object while every
    /// post-expiry snapshot does not (the "query straddling an expiry"
    /// regression).
    #[test]
    fn expiry_driven_publish_fires_without_update_traffic() {
        let engine = engine();
        let store = ObjectStore::new(Arc::clone(&engine), uniform(engine.graph(), 0.02, 11));
        let base = store.snapshot();
        let v = engine.graph().vertices().find(|&v| !base.objects().contains(v)).unwrap();

        // Nothing due yet: the cheap path declines without publishing.
        assert!(store.publish_if_expiry_due(Duration::ZERO).is_none());

        assert!(store.insert_with_ttl(v, Duration::from_millis(5)));
        let with_v = store.publish(); // make the TTL'd object visible
        assert!(with_v.objects().contains(v));

        // A query pinned on this epoch straddles the expiry: it must keep its
        // consistent pre-expiry view no matter what publishes underneath.
        let straddling = store.snapshot();
        assert!(straddling.objects().contains(v));

        // Not yet overdue (generous slack): no publish.
        assert!(store.publish_if_expiry_due(Duration::from_secs(3600)).is_none());

        std::thread::sleep(Duration::from_millis(10));
        let expired =
            store.publish_if_expiry_due(Duration::ZERO).expect("overdue TTL must force a publish");
        assert!(!expired.objects().contains(v), "expired object still visible");
        assert_eq!(expired.epoch(), with_v.epoch() + 1);

        // The straddling reader's epoch was never mutated...
        assert!(straddling.objects().contains(v));
        let out = query_on(&engine, Method::Ine, v, 1, straddling.indexes());
        assert_eq!(out.result[0], (v, 0), "pinned epoch must still answer with the object");
        // ...while fresh snapshots see the expiry.
        assert!(!store.snapshot().objects().contains(v));

        // One-shot: with the expiry handled, the nudge goes quiet again.
        assert!(store.publish_if_expiry_due(Duration::ZERO).is_none());
    }

    #[test]
    fn ttl_expiry_fires_on_publish_and_respects_churn() {
        let engine = engine();
        let store = ObjectStore::new(Arc::clone(&engine), uniform(engine.graph(), 0.02, 5));
        let base = store.snapshot();
        let mut free = engine.graph().vertices().filter(|&v| !base.objects().contains(v));
        let (a, b, c) = (free.next().unwrap(), free.next().unwrap(), free.next().unwrap());
        let dest = free.next().unwrap();

        assert!(store.insert_with_ttl(a, Duration::from_secs(0)));
        assert!(store.insert_with_ttl(b, Duration::from_secs(3600)));
        assert!(store.insert_with_ttl(c, Duration::from_secs(0)));
        assert!(store.move_to(c, dest)); // TTL travels to `dest`.

        let snap = store.publish();
        assert!(!snap.objects().contains(a), "expired TTL must be gone");
        assert!(snap.objects().contains(b), "live TTL must survive");
        assert!(!snap.objects().contains(dest), "moved TTL expires at the new vertex");
        assert!(!snap.objects().contains(c));
    }
}
