//! Weight stashing and vertical sync (paper §3.3).
//!
//! In a naively pipelined system a minibatch's forward pass runs with one
//! weight version and its backward pass with another — producing invalid
//! gradients. **Weight stashing** keeps one weight version per in-flight
//! minibatch: the forward pass uses (and stashes) the latest version, and
//! the backward pass for the same minibatch retrieves exactly that version.
//!
//! [`WeightStash`] implements the default semantics; [`VersionedStore`]
//! adds the bookkeeping for the optional **vertical sync**, where the
//! version observed at the input stage is pinned and propagated with the
//! activations so *every* stage uses the same version for a given
//! minibatch.
//!
//! [`staleness`] encodes the paper's update formulas so tests (and the
//! runtime's trace checker) can assert exactly which version each stage is
//! expected to use.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which memory/staleness schedule variant a stashed pipeline runs.
///
/// Vanilla 1F1B (§3.3) stashes one weight version per in-flight minibatch
/// and keeps every layer's activations until the backward pass. The two
/// memory-efficient variants ("Memory-Efficient Pipeline-Parallel DNN
/// Training", Narayanan et al.) relax each axis independently, so they
/// compose:
///
/// * [`ScheduleKind::TwoBW`] — double-buffered weight updates: gradients
///   are accumulated over fixed groups of minibatches and applied once per
///   group, and every minibatch of group `g` runs both passes against
///   generation `g − 1` — so at most **2** weight versions are ever held,
///   independent of pipeline depth, at a uniform staleness of 1 group
///   update ([`staleness::two_bw_delay`]).
/// * [`ScheduleKind::Recompute`] — activation recomputation: each stage
///   drops its per-layer activation stash right after the forward pass,
///   keeping only the stage *input*, and re-runs the forward (under the
///   stashed weight version, so gradients are bit-identical) immediately
///   before the backward — the activation stash shrinks from O(depth)
///   minibatches to O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ScheduleKind {
    /// The paper's default: weight stashing, full activation stashes.
    #[default]
    Vanilla1F1B,
    /// Double-buffered weight updates (≤ 2 versions held).
    TwoBW,
    /// Drop activations after forward, recompute before backward.
    Recompute,
    /// Both memory optimizations at once.
    TwoBWRecompute,
}

impl ScheduleKind {
    /// All four variants, in severity order (for sweeps and benches).
    pub fn all() -> [ScheduleKind; 4] {
        [
            ScheduleKind::Vanilla1F1B,
            ScheduleKind::TwoBW,
            ScheduleKind::Recompute,
            ScheduleKind::TwoBWRecompute,
        ]
    }

    /// Does this kind use double-buffered (2BW) weight updates?
    pub fn uses_two_bw(self) -> bool {
        matches!(self, ScheduleKind::TwoBW | ScheduleKind::TwoBWRecompute)
    }

    /// Does this kind recompute activations before the backward pass?
    pub fn uses_recompute(self) -> bool {
        matches!(self, ScheduleKind::Recompute | ScheduleKind::TwoBWRecompute)
    }

    /// Canonical CLI/wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ScheduleKind::Vanilla1F1B => "vanilla",
            ScheduleKind::TwoBW => "2bw",
            ScheduleKind::Recompute => "recompute",
            ScheduleKind::TwoBWRecompute => "2bw-recompute",
        }
    }

    /// Parse a CLI/wire spelling (several aliases per variant).
    pub fn parse(s: &str) -> Option<ScheduleKind> {
        match s.to_ascii_lowercase().as_str() {
            "vanilla" | "1f1b" | "vanilla-1f1b" => Some(ScheduleKind::Vanilla1F1B),
            "2bw" | "twobw" | "two-bw" => Some(ScheduleKind::TwoBW),
            "recompute" | "recomputation" => Some(ScheduleKind::Recompute),
            "2bw-recompute" | "twobw-recompute" | "recompute-2bw" => {
                Some(ScheduleKind::TwoBWRecompute)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Weight stash with PipeDream's default semantics.
///
/// ```
/// use pipedream_core::stash::WeightStash;
///
/// let mut stash = WeightStash::new(vec![0.0f32]);
/// stash.begin_forward(7);                  // minibatch 7's forward pass
/// stash.install(vec![1.0]);                // other minibatches update…
/// // …but minibatch 7's backward still sees the weights its forward used:
/// assert_eq!(stash.for_backward(7)[0], 0.0);
/// assert_eq!(stash.latest()[0], 1.0);
/// // Once minibatch 7 is done nothing pins version 0: it comes back to
/// // the caller, who owns it outright.
/// let retired = std::sync::Arc::try_unwrap(stash.complete_backward(7));
/// assert_eq!(retired, Ok(vec![0.0]));
/// ```
///
/// Versions are shared (`Arc`) so stashing is O(1), and the stash never
/// clones a `W`: an update hands in the new version the caller built, and
/// a version nothing pins any more is handed back for reuse. Memory is
/// paid only while old versions are pinned by in-flight minibatches — the
/// paper's "at most one version per in-flight minibatch" bound, which
/// [`WeightStash::versions_held`] exposes for the memory-footprint
/// experiments.
#[derive(Debug, Clone)]
pub struct WeightStash<W> {
    latest: Arc<W>,
    version: u64,
    stashed: BTreeMap<u64, (u64, Arc<W>)>,
}

impl<W> WeightStash<W> {
    /// Start at version 0 with the given initial weights.
    pub fn new(initial: W) -> Self {
        WeightStash {
            latest: Arc::new(initial),
            version: 0,
            stashed: BTreeMap::new(),
        }
    }

    /// Begin the forward pass of `mb`: stash the latest version under the
    /// minibatch id and return it. Panics if `mb` is already in flight.
    pub fn begin_forward(&mut self, mb: u64) -> Arc<W> {
        let prev = self
            .stashed
            .insert(mb, (self.version, Arc::clone(&self.latest)));
        assert!(
            prev.is_none(),
            "minibatch {mb} already has a stashed version"
        );
        Arc::clone(&self.latest)
    }

    /// The stashed weights for `mb`'s backward pass — guaranteed to be the
    /// version its forward pass used.
    pub fn for_backward(&self, mb: u64) -> Arc<W> {
        let (_, w) = self
            .stashed
            .get(&mb)
            .unwrap_or_else(|| panic!("no stashed weights for minibatch {mb}"));
        Arc::clone(w)
    }

    /// The version id stashed for `mb`.
    pub fn version_for(&self, mb: u64) -> u64 {
        self.stashed
            .get(&mb)
            .unwrap_or_else(|| panic!("no stashed weights for minibatch {mb}"))
            .0
    }

    /// Complete `mb`'s backward pass: drop its stash entry and hand back
    /// the version it pinned. "Parameters are discarded once a backward
    /// pass that uses fresher parameters is performed" (§4) — with 1F1B's
    /// in-order backward passes, dropping at backward completion realises
    /// exactly that rule. The returned `Arc` is unique (the caller may
    /// move the weights out) exactly when nothing else — no other
    /// minibatch, and not the latest slot — still holds that version.
    pub fn complete_backward(&mut self, mb: u64) -> Arc<W> {
        self.stashed
            .remove(&mb)
            .unwrap_or_else(|| panic!("no stashed weights for minibatch {mb}"))
            .1
    }

    /// Install `new` as the latest version (one weight update); stashed
    /// versions are untouched. Returns the superseded latest if no
    /// in-flight minibatch pins it, so the caller can reuse its storage.
    pub fn install(&mut self, new: W) -> Option<W> {
        let old = std::mem::replace(&mut self.latest, Arc::new(new));
        self.version += 1;
        Arc::try_unwrap(old).ok()
    }

    /// The latest weights (what the next forward pass will use).
    pub fn latest(&self) -> Arc<W> {
        Arc::clone(&self.latest)
    }

    /// The latest version id.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of minibatches currently holding a stash.
    pub fn in_flight(&self) -> usize {
        self.stashed.len()
    }

    /// Number of *distinct* weight versions held (latest + stashed),
    /// the quantity bounding PipeDream's memory overhead (§3.3).
    pub fn versions_held(&self) -> usize {
        let mut versions: Vec<u64> = self.stashed.values().map(|(v, _)| *v).collect();
        versions.push(self.version);
        versions.sort_unstable();
        versions.dedup();
        versions.len()
    }
}

/// One stage's version store under vertical sync.
///
/// With vertical sync, minibatch `b_i` entering the pipeline is tagged with
/// the latest version `w^(i−x)` seen at the input stage; every stage then
/// runs both passes of `b_i` against its *own* copy of that version, and
/// applies its update to its own latest weights afterwards (§3.3).
///
/// Tags reach a stage in non-decreasing order, so a version is kept while
/// it is the latest, or no older than the oldest tag still in flight (or,
/// with none in flight, the newest tag seen): any later minibatch may
/// still carry it. Everything older is retired.
///
/// ```
/// use pipedream_core::stash::VersionedStore;
///
/// let mut store = VersionedStore::new(0i64);
/// let w = store.begin_forward(5, 0).unwrap();   // mb 5 tagged with v0
/// assert_eq!(*w, 0);
/// drop(w);
/// store.install(1);                             // this stage's update: v1
/// store.begin_forward(6, 1).unwrap();           // mb 6 tagged with v1
/// assert_eq!(store.versions_held(), 2);         // v0 still pinned by mb 5
/// // No later minibatch can carry tag 0: v0 retires with mb 5's backward.
/// let pinned = store.complete_backward(5);
/// assert_eq!(std::sync::Arc::try_unwrap(pinned), Ok(0));
/// assert_eq!(store.versions_held(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct VersionedStore<W> {
    versions: BTreeMap<u64, Arc<W>>,
    latest: u64,
    /// Tag pinned by each in-flight minibatch.
    in_flight: BTreeMap<u64, u64>,
    newest_tag: u64,
}

impl<W> VersionedStore<W> {
    /// Start with version 0.
    pub fn new(initial: W) -> Self {
        VersionedStore {
            versions: BTreeMap::from([(0, Arc::new(initial))]),
            latest: 0,
            in_flight: BTreeMap::new(),
            newest_tag: 0,
        }
    }

    /// Latest version id.
    pub fn latest_version(&self) -> u64 {
        self.latest
    }

    /// Begin `mb`'s forward pass under version `tag`: pin it and return
    /// its weights, or `None` if that version was already retired (a tag
    /// arriving out of order). Panics if `mb` is already in flight.
    pub fn begin_forward(&mut self, mb: u64, tag: u64) -> Option<Arc<W>> {
        let w = Arc::clone(self.versions.get(&tag)?);
        let prev = self.in_flight.insert(mb, tag);
        assert!(prev.is_none(), "minibatch {mb} already in flight");
        self.newest_tag = self.newest_tag.max(tag);
        self.collect();
        Some(w)
    }

    /// The version tag `mb`'s forward pinned, if it is in flight.
    pub fn version_of(&self, mb: u64) -> Option<u64> {
        self.in_flight.get(&mb).copied()
    }

    /// Complete `mb`'s backward pass: unpin its version and hand it back.
    /// The `Arc` is unique exactly when this retired the version.
    pub fn complete_backward(&mut self, mb: u64) -> Arc<W> {
        let tag = self
            .in_flight
            .remove(&mb)
            .unwrap_or_else(|| panic!("no pinned version for minibatch {mb}"));
        let w = Arc::clone(&self.versions[&tag]);
        self.collect();
        w
    }

    /// Install `new` as the next latest version (this stage's update);
    /// returns a superseded version that nothing needs any more.
    pub fn install(&mut self, new: W) -> Option<W> {
        self.latest += 1;
        self.versions.insert(self.latest, Arc::new(new));
        self.collect()
            .into_iter()
            .find_map(|w| Arc::try_unwrap(w).ok())
    }

    /// Retire the versions no current or future minibatch can use.
    fn collect(&mut self) -> Vec<Arc<W>> {
        let floor = self
            .in_flight
            .values()
            .copied()
            .min()
            .unwrap_or(self.newest_tag);
        let dead: Vec<u64> = self
            .versions
            .range(..floor)
            .map(|(&v, _)| v)
            .filter(|&v| v != self.latest)
            .collect();
        dead.iter()
            .filter_map(|v| self.versions.remove(v))
            .collect()
    }

    /// Number of minibatches currently pinning a version.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Number of versions currently held.
    pub fn versions_held(&self) -> usize {
        self.versions.len()
    }
}

/// Weight store for PipeDream-2BW double-buffered updates.
///
/// Minibatches are grouped into fixed windows of `group` consecutive ids;
/// the worker accumulates gradients across a group and applies **one**
/// update per group, producing a new weight *generation*. Both passes of
/// every minibatch in group `g` run against generation `(g − 1).max(0)` —
/// the double buffer — so the update rule is exactly the 2BW paper's
///
/// ```text
/// W(g+1) = W(g) − ν · ∇f(W(g−1))
/// ```
///
/// Feasibility requires `group ≥` the pipeline's in-flight depth: group
/// `g`'s first forward can only need generation `g − 1` (produced by group
/// `g − 2`'s update) once group `g − 2` has fully drained, which 1F1B
/// guarantees when the group spans at least one full in-flight window.
/// Under that invariant at most **two** generations are ever live: the one
/// pinned by in-flight minibatches and the latest.
///
/// ```
/// use pipedream_core::stash::TwoBwStash;
///
/// let mut s = TwoBwStash::new(2, vec![0.0f32]); // groups of 2 minibatches
/// assert_eq!(s.begin_forward(0)[0], 0.0);       // group 0 → generation 0
/// assert_eq!(s.begin_forward(1)[0], 0.0);
/// s.complete_backward(0);
/// s.complete_backward(1);
/// s.install(vec![1.0]);                         // group 0's update → gen 1
/// assert_eq!(s.begin_forward(2)[0], 0.0);       // group 1 → generation 0
/// s.complete_backward(2);
/// assert!(s.versions_held() <= 2);
/// ```
#[derive(Debug, Clone)]
pub struct TwoBwStash<W> {
    group: u64,
    generations: BTreeMap<u64, Arc<W>>,
    latest_gen: u64,
    in_flight: BTreeMap<u64, u64>,
}

impl<W> TwoBwStash<W> {
    /// Start at generation 0 with the given initial weights and a group
    /// (gradient-accumulation window) of `group` minibatches.
    pub fn new(group: usize, initial: W) -> Self {
        assert!(group >= 1, "2BW group must hold at least one minibatch");
        TwoBwStash {
            group: group as u64,
            generations: BTreeMap::from([(0, Arc::new(initial))]),
            latest_gen: 0,
            in_flight: BTreeMap::new(),
        }
    }

    /// The gradient-accumulation group size, in minibatches.
    pub fn group(&self) -> u64 {
        self.group
    }

    /// The generation minibatch `mb` must run against: one behind its own
    /// group (group 0 and 1 both use the initial generation 0).
    pub fn generation_for_mb(&self, mb: u64) -> u64 {
        (mb / self.group).saturating_sub(1)
    }

    /// Pin the double-buffered generation for `mb`'s forward pass and
    /// return it. Panics if `mb` is already in flight or its generation
    /// was never produced (a scheduling-invariant violation: the group is
    /// smaller than the pipeline's in-flight depth).
    pub fn begin_forward(&mut self, mb: u64) -> Arc<W> {
        let g = self.generation_for_mb(mb);
        let w = self.generations.get(&g).unwrap_or_else(|| {
            panic!(
                "2BW generation {g} unavailable for minibatch {mb} \
                 (group {}, latest generation {})",
                self.group, self.latest_gen
            )
        });
        let w = Arc::clone(w);
        let prev = self.in_flight.insert(mb, g);
        assert!(prev.is_none(), "minibatch {mb} already in flight");
        w
    }

    /// The pinned generation's weights for `mb`'s backward pass — the same
    /// version its forward used.
    pub fn for_backward(&self, mb: u64) -> Arc<W> {
        Arc::clone(&self.generations[&self.generation_of(mb)])
    }

    /// The generation id pinned for `mb`.
    pub fn generation_of(&self, mb: u64) -> u64 {
        *self
            .in_flight
            .get(&mb)
            .unwrap_or_else(|| panic!("no pinned generation for minibatch {mb}"))
    }

    /// Complete `mb`'s backward pass: unpin it, collect generations no
    /// in-flight minibatch needs any more, and hand back the generation it
    /// pinned — a unique `Arc` exactly when this retired it.
    pub fn complete_backward(&mut self, mb: u64) -> Arc<W> {
        let w = self.for_backward(mb);
        self.in_flight.remove(&mb);
        self.collect();
        w
    }

    /// Install one group's update as the new latest generation; returns a
    /// generation that nothing needs any more, for the caller to reuse.
    pub fn install(&mut self, new: W) -> Option<W> {
        self.latest_gen += 1;
        self.generations.insert(self.latest_gen, Arc::new(new));
        self.collect()
            .into_iter()
            .find_map(|w| Arc::try_unwrap(w).ok())
    }

    /// Retire generations that are neither the latest, the double buffer
    /// behind it, nor pinned by an in-flight minibatch.
    fn collect(&mut self) -> Vec<Arc<W>> {
        let latest = self.latest_gen;
        let dead: Vec<u64> = self
            .generations
            .keys()
            .copied()
            .filter(|&g| {
                g != latest && g + 1 != latest && !self.in_flight.values().any(|&p| p == g)
            })
            .collect();
        dead.iter()
            .filter_map(|g| self.generations.remove(g))
            .collect()
    }

    /// The latest weights (what the next group's update builds on).
    pub fn latest(&self) -> Arc<W> {
        Arc::clone(&self.generations[&self.latest_gen])
    }

    /// The latest generation id (= number of group updates applied).
    pub fn latest_generation(&self) -> u64 {
        self.latest_gen
    }

    /// Number of minibatches currently pinned.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Number of *distinct* weight generations held — the 2BW claim is
    /// that this never exceeds 2.
    pub fn versions_held(&self) -> usize {
        self.generations.len()
    }
}

/// The paper's staleness formulas (§3.3), for an `n`-stage straight
/// pipeline with stages indexed from 0.
pub mod staleness {
    /// Weight stashing: stage `s` (0-indexed) of `n` computes minibatch
    /// `t`'s gradient with weights delayed `n − 1 − s` update steps —
    /// `w^(t−n+1)` at the first stage through `w^(t)` at the last.
    pub fn weight_stashing_delay(stage: usize, n: usize) -> usize {
        assert!(stage < n);
        n - 1 - stage
    }

    /// Vertical sync: every stage uses the version pinned at the input
    /// stage, i.e. a uniform delay of `n − 1` steps.
    pub fn vertical_sync_delay(_stage: usize, n: usize) -> usize {
        n - 1
    }

    /// Data parallelism with BSP: no staleness.
    pub fn bsp_delay(_stage: usize, _n: usize) -> usize {
        0
    }

    /// PipeDream-2BW double-buffered updates: every stage computes group
    /// `g`'s gradient against generation `g − 1` while generation `g` is
    /// the latest — a **uniform** delay of exactly 1 group update at every
    /// stage (the warm-up groups 0 and 1 run at delay 0, before any or
    /// only one update exists), independent of pipeline depth.
    pub fn two_bw_delay(_stage: usize, _n: usize) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn backward_sees_forward_version() {
        let mut stash = WeightStash::new(vec![1.0f32]);
        let w_fwd = stash.begin_forward(0);
        // Two updates land while mb 0 is in flight.
        stash.install(vec![2.0]);
        stash.install(vec![3.0]);
        let w_bwd = stash.for_backward(0);
        assert_eq!(w_fwd[0], w_bwd[0]);
        assert_eq!(w_bwd[0], 1.0);
        assert_eq!(stash.latest()[0], 3.0);
        stash.complete_backward(0);
        assert_eq!(stash.in_flight(), 0);
    }

    #[test]
    fn versions_held_bounded_by_in_flight_plus_one() {
        let mut stash = WeightStash::new(0u64);
        for mb in 0..4 {
            stash.begin_forward(mb);
            let next = *stash.latest() + 1;
            stash.install(next);
        }
        assert_eq!(stash.in_flight(), 4);
        assert!(stash.versions_held() <= 5);
        for mb in 0..4 {
            stash.complete_backward(mb);
        }
        assert_eq!(stash.versions_held(), 1);
    }

    #[test]
    fn consecutive_forwards_share_a_version_when_no_update() {
        let mut stash = WeightStash::new(7i32);
        stash.begin_forward(0);
        stash.begin_forward(1);
        assert_eq!(stash.version_for(0), stash.version_for(1));
        assert_eq!(stash.versions_held(), 1, "no copy until an update lands");
    }

    #[test]
    #[should_panic(expected = "already has a stashed version")]
    fn double_forward_rejected() {
        let mut stash = WeightStash::new(0u8);
        stash.begin_forward(3);
        stash.begin_forward(3);
    }

    #[test]
    #[should_panic(expected = "no stashed weights")]
    fn backward_without_forward_rejected() {
        let stash: WeightStash<u8> = WeightStash::new(0);
        stash.for_backward(1);
    }

    #[test]
    fn figure9_weight_versions() {
        // Figure 9: minibatch 5 on stage 0 (machine 1) uses weights that
        // include minibatch 1's update; on stage 2 (machine 3) weights that
        // include updates from minibatches 1–3. Model stage 0 of a 4-stage
        // pipeline: updates from mb 1 land before mb 5's forward.
        let mut stash = WeightStash::new(Vec::<u64>::new());
        // Startup: forwards of 1..4 (paper numbers minibatches from 1).
        for mb in 1..=4 {
            stash.begin_forward(mb);
        }
        // mb 1's backward completes; its update lands; then mb 5 forward.
        stash.complete_backward(1);
        stash.install(vec![1]);
        let w5 = stash.begin_forward(5);
        assert_eq!(&*w5, &vec![1], "mb 5's forward sees exactly update 1");
        // Stage keeps serving mb 5's backward with that same version even
        // after more updates.
        for mb in 2..=4 {
            stash.complete_backward(mb);
            let mut w = (*stash.latest()).clone();
            w.push(mb);
            stash.install(w);
        }
        assert_eq!(&*stash.for_backward(5), &vec![1]);
        assert_eq!(&*stash.latest(), &vec![1, 2, 3, 4]);
    }

    #[test]
    fn versioned_store_pins_keep_versions_alive() {
        let mut store = VersionedStore::new(10i64);
        store.begin_forward(0, 0).unwrap();
        store.install(11);
        assert_eq!(store.latest_version(), 1);
        assert_eq!(store.versions_held(), 2, "v0 pinned, v1 latest");
        // A later minibatch tagged v1 means no future one can name v0…
        store.begin_forward(1, 1).unwrap();
        assert_eq!(store.versions_held(), 2, "…but mb 0 still pins it");
        assert_eq!(store.version_of(0), Some(0));
        let v0 = Arc::try_unwrap(store.complete_backward(0));
        assert_eq!(v0, Ok(10), "v0 retires with its last pin");
        assert_eq!(store.versions_held(), 1);
    }

    #[test]
    fn versioned_store_keeps_versions_a_later_tag_may_name() {
        let mut store = VersionedStore::new(0i64);
        // Nothing in flight and no tag newer than 0 seen yet: a minibatch
        // tagged 0, 1 or 2 may still arrive, so nothing retires.
        assert!(store.install(1).is_none());
        assert!(store.install(2).is_none());
        assert_eq!(store.versions_held(), 3);
        // Tag 2 arrives: versions 0 and 1 can never be named again.
        let w = store.begin_forward(7, 2).unwrap();
        assert_eq!(*w, 2);
        assert_eq!(store.versions_held(), 1);
        drop(w);
        drop(store.complete_backward(7));
        assert_eq!(store.install(3), None, "v2 may still be named");
        assert_eq!(store.versions_held(), 2);
    }

    #[test]
    fn versioned_store_rejects_a_retired_version() {
        let mut store = VersionedStore::new(0i64);
        store.install(1);
        store.begin_forward(0, 1).unwrap();
        assert!(store.begin_forward(1, 0).is_none(), "v0 was retired");
    }

    /// A weight version that counts how often it is cloned.
    #[derive(Debug)]
    struct Counted {
        id: u32,
        clones: Rc<Cell<usize>>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones.set(self.clones.get() + 1);
            Counted {
                id: self.id,
                clones: Rc::clone(&self.clones),
            }
        }
    }

    #[test]
    fn weight_stash_installs_without_cloning_and_hands_back_retired() {
        let clones = Rc::new(Cell::new(0));
        let w = |id| Counted {
            id,
            clones: Rc::clone(&clones),
        };
        let mut stash = WeightStash::new(w(0));
        // Input-stage pattern: a new version lands while older ones are
        // pinned by in-flight minibatches.
        stash.begin_forward(0);
        assert!(stash.install(w(1)).is_none(), "v0 is pinned by mb 0");
        stash.begin_forward(1);
        assert!(stash.install(w(2)).is_none(), "v1 is pinned by mb 1");
        assert_eq!(stash.versions_held(), 3);
        let v0 = Arc::try_unwrap(stash.complete_backward(0)).expect("nothing else pins v0");
        assert_eq!(v0.id, 0);
        // The latest stays shared with the stash after its backward…
        stash.begin_forward(2);
        assert!(Arc::try_unwrap(stash.complete_backward(2)).is_err());
        // …and comes back from the update that supersedes it.
        assert_eq!(stash.install(w(3)).map(|w| w.id), Some(2));
        assert_eq!(clones.get(), 0, "the stash never clones a version");
    }

    #[test]
    fn two_bw_installs_without_cloning_and_hands_back_retired() {
        let clones = Rc::new(Cell::new(0));
        let w = |id| Counted {
            id,
            clones: Rc::clone(&clones),
        };
        let mut s = TwoBwStash::new(2, w(0));
        s.begin_forward(0);
        s.begin_forward(1);
        drop(s.complete_backward(0));
        drop(s.complete_backward(1));
        assert!(s.install(w(1)).is_none(), "gen 0 is the double buffer");
        s.begin_forward(2); // group 1 runs against generation 0
        assert!(s.install(w(2)).is_none(), "gen 0 is pinned by mb 2");
        let g0 = Arc::try_unwrap(s.complete_backward(2)).expect("gen 0 retires with mb 2");
        assert_eq!(g0.id, 0);
        // Generation 1 falls out of the double buffer unpinned.
        assert_eq!(s.install(w(3)).map(|w| w.id), Some(1));
        assert_eq!(s.versions_held(), 2);
        assert_eq!(clones.get(), 0, "the 2BW store never clones a generation");
    }

    #[test]
    fn staleness_formulas() {
        use staleness::*;
        // 4-stage pipeline: delays 3, 2, 1, 0 with stashing.
        assert_eq!(weight_stashing_delay(0, 4), 3);
        assert_eq!(weight_stashing_delay(3, 4), 0);
        // Vertical sync: uniform n−1 = 3.
        for s in 0..4 {
            assert_eq!(vertical_sync_delay(s, 4), 3);
        }
        assert_eq!(bsp_delay(2, 4), 0);
        // 2BW: uniform delay 1 regardless of stage or depth.
        for s in 0..4 {
            assert_eq!(two_bw_delay(s, 4), 1);
        }
        assert_eq!(two_bw_delay(0, 64), 1);
    }

    #[test]
    fn schedule_kind_axes_and_spellings() {
        use ScheduleKind::*;
        assert!(!Vanilla1F1B.uses_two_bw() && !Vanilla1F1B.uses_recompute());
        assert!(TwoBW.uses_two_bw() && !TwoBW.uses_recompute());
        assert!(!Recompute.uses_two_bw() && Recompute.uses_recompute());
        assert!(TwoBWRecompute.uses_two_bw() && TwoBWRecompute.uses_recompute());
        // Every canonical spelling parses back to itself.
        for k in ScheduleKind::all() {
            assert_eq!(ScheduleKind::parse(k.as_str()), Some(k), "{k}");
            assert_eq!(ScheduleKind::parse(&k.to_string().to_uppercase()), Some(k));
        }
        assert_eq!(ScheduleKind::parse("1f1b"), Some(Vanilla1F1B));
        assert_eq!(ScheduleKind::parse("twobw"), Some(TwoBW));
        assert_eq!(ScheduleKind::parse("quantum"), None);
        assert_eq!(ScheduleKind::default(), Vanilla1F1B);
    }

    #[test]
    fn two_bw_holds_at_most_two_generations() {
        // Group of 4 minibatches on a depth-4 pipeline stage: simulate the
        // 1F1B interleaving at the input stage (fwd k after bwd k−4) for
        // many groups and check the two-version bound throughout.
        let mut s = TwoBwStash::new(4, vec![0u64]);
        let total = 32u64;
        let mut next_fwd = 0u64;
        let mut next_bwd = 0u64;
        let mut max_held = 0usize;
        while next_bwd < total {
            if next_fwd < total && next_fwd < next_bwd + 4 {
                s.begin_forward(next_fwd);
                next_fwd += 1;
            } else {
                s.complete_backward(next_bwd);
                next_bwd += 1;
                if next_bwd.is_multiple_of(4) {
                    let g = next_bwd / 4 - 1;
                    let mut w = (*s.latest()).clone();
                    w.push(g);
                    s.install(w);
                }
            }
            max_held = max_held.max(s.versions_held());
        }
        assert_eq!(
            max_held, 2,
            "2BW must hold exactly 2 generations in steady state"
        );
        assert_eq!(s.latest_generation(), total / 4);
    }

    #[test]
    fn two_bw_runs_group_g_against_generation_g_minus_one() {
        // W(g+1) = W(g) − ν∇f(W(g−1)): the generation pinned for group g's
        // passes must be g−1 (0 for the warm-up groups 0 and 1).
        let mut s = TwoBwStash::new(2, 0i64);
        for group in 0..5u64 {
            for mb in (group * 2)..(group * 2 + 2) {
                s.begin_forward(mb);
                assert_eq!(s.generation_of(mb), group.saturating_sub(1));
                let pinned = s.for_backward(mb);
                assert_eq!(*pinned, group.saturating_sub(1) as i64 * 10);
                s.complete_backward(mb);
            }
            s.install(*s.latest() + 10);
            assert_eq!(s.latest_generation(), group + 1);
        }
    }

    #[test]
    #[should_panic(expected = "generation 3 unavailable")]
    fn two_bw_rejects_a_group_ahead_of_its_buffer() {
        // Minibatch 8 of group 4 needs generation 3, which only exists
        // after 3 group updates — pinning it fresh is an invariant breach.
        let mut s = TwoBwStash::new(2, 0u8);
        s.begin_forward(8);
    }
}
