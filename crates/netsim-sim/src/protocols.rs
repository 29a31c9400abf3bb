//! Reusable building-block protocols.
//!
//! These are the primitives the paper composes repeatedly:
//!
//! * [`BfsBuild`] — synchronous breadth-first spanning-tree construction from
//!   a root (Gallager 1982), used by the point-to-point baselines and by the
//!   randomized partition's component growth;
//! * [`Convergecast`] — "broadcast and respond" / *propagation of information
//!   with feedback* (Segall 1983) over a known rooted tree, aggregating values
//!   up to the root with an arbitrary associative combiner — the paper's
//!   Step 1 ("count the nodes of the fragment") and the local stage of the
//!   global-sensitive-function algorithm (Section 5.1);
//! * [`TreeBroadcast`] — dissemination of a value from the root down a known
//!   rooted tree, the "feedback" direction of PIF;
//! * [`ChannelShardedSum`] — global-sum aggregation sharded over the `K`
//!   channels of a [`ChannelSet`], the multi-channel scenario family of the
//!   `chansum-*` benchmark workloads.

use crate::channel::{ChannelId, ChannelSet, SlotOutcome};
use crate::node::{Protocol, RoundIo};
use netsim_graph::NodeId;

// ---------------------------------------------------------------------------
// BFS tree construction
// ---------------------------------------------------------------------------

/// Message of the BFS builder: `Explore(distance_of_sender)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Explore(pub u32);

/// Synchronous BFS spanning-tree construction from a single root.
///
/// In round `r` exactly the nodes at distance `r` from the root adopt a
/// parent (the lowest-id neighbour that reached them) and forward the wave.
/// After the run, [`BfsBuild::parent`] / [`BfsBuild::depth`] describe the
/// BFS tree; total time is `ecc(root) + O(1)` rounds and total messages are
/// `2m` (each edge is crossed at most twice).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsBuild {
    id: NodeId,
    is_root: bool,
    parent: Option<NodeId>,
    depth: Option<u32>,
    forwarded: bool,
}

impl BfsBuild {
    /// Creates the per-node state; `root` is the BFS source.
    pub fn new(id: NodeId, root: NodeId) -> Self {
        BfsBuild {
            id,
            is_root: id == root,
            parent: None,
            depth: if id == root { Some(0) } else { None },
            forwarded: false,
        }
    }

    /// Parent in the BFS tree (`None` for the root and for unreached nodes).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Distance from the root, once reached.
    pub fn depth(&self) -> Option<u32> {
        self.depth
    }

    /// Returns `true` when this node has been reached by the wave.
    pub fn reached(&self) -> bool {
        self.depth.is_some()
    }
}

impl Protocol for BfsBuild {
    type Msg = Explore;

    fn step(&mut self, io: &mut RoundIo<'_, Explore>) {
        if self.depth.is_none() {
            // Adopt the best (lowest-id) neighbour that reached us this round.
            let best = io
                .inbox()
                .iter()
                .map(|(from, &Explore(d))| (from, d))
                .min_by_key(|&(from, d)| (d, from));
            if let Some((from, d)) = best {
                self.parent = Some(from);
                self.depth = Some(d + 1);
            }
        }
        if let Some(d) = self.depth {
            if !self.forwarded {
                io.send_all(Explore(d));
                self.forwarded = true;
            }
        }
        let _ = self.is_root;
        let _ = self.id;
    }

    fn is_done(&self) -> bool {
        self.forwarded
    }
}

// ---------------------------------------------------------------------------
// Convergecast over a known rooted tree
// ---------------------------------------------------------------------------

/// Aggregation ("response") message carrying a partial value of type `V`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partial<V>(pub V);

/// Convergecast of values up a **known** rooted tree with an associative
/// combiner.
///
/// Every node is given its parent and its number of children.  Leaves send
/// their value to their parent in the first round; an internal node responds
/// to its parent only after receiving the responses of all its children,
/// exactly as in Step 1 of the paper's deterministic partition.  The run
/// takes `depth(tree) + O(1)` rounds and `n - 1` messages; at the end the
/// root's [`Convergecast::result`] holds the combined value of the whole tree.
#[derive(Clone, Debug)]
pub struct Convergecast<V, F> {
    parent: Option<NodeId>,
    pending_children: usize,
    value: V,
    combine: F,
    sent: bool,
}

impl<V: Clone, F: Fn(&V, &V) -> V> Convergecast<V, F> {
    /// Creates the per-node state.
    ///
    /// * `parent` — tree parent (`None` for the root);
    /// * `children` — number of tree children of this node;
    /// * `value` — this node's local input;
    /// * `combine` — associative combiner.
    pub fn new(parent: Option<NodeId>, children: usize, value: V, combine: F) -> Self {
        Convergecast {
            parent,
            pending_children: children,
            value,
            combine,
            sent: false,
        }
    }

    /// The aggregate of this node's subtree (meaningful once the node is done;
    /// at the root this is the global result).
    pub fn result(&self) -> &V {
        &self.value
    }
}

impl<V: Clone, F: Fn(&V, &V) -> V> Protocol for Convergecast<V, F> {
    type Msg = Partial<V>;

    fn step(&mut self, io: &mut RoundIo<'_, Partial<V>>) {
        for (_, Partial(v)) in io.inbox() {
            self.value = (self.combine)(&self.value, v);
            self.pending_children = self.pending_children.saturating_sub(1);
        }
        if self.pending_children == 0 && !self.sent {
            if let Some(p) = self.parent {
                io.send(p, Partial(self.value.clone()));
            }
            self.sent = true;
        }
    }

    fn is_done(&self) -> bool {
        self.sent
    }
}

// ---------------------------------------------------------------------------
// Broadcast down a known rooted tree
// ---------------------------------------------------------------------------

/// Dissemination of a root value down a known rooted tree.
///
/// Each node is given the list of its children; the root starts with the
/// value, every other node learns it from its parent and forwards it.  Takes
/// `depth(tree) + O(1)` rounds and `n - 1` messages.
#[derive(Clone, Debug)]
pub struct TreeBroadcast<V> {
    children: Vec<NodeId>,
    value: Option<V>,
    forwarded: bool,
}

impl<V: Clone> TreeBroadcast<V> {
    /// Creates the per-node state.  The root passes `Some(value)`, all other
    /// nodes pass `None`.
    pub fn new(children: Vec<NodeId>, value: Option<V>) -> Self {
        TreeBroadcast {
            children,
            value,
            forwarded: false,
        }
    }

    /// The received value, once it has arrived.
    pub fn value(&self) -> Option<&V> {
        self.value.as_ref()
    }
}

impl<V: Clone> Protocol for TreeBroadcast<V> {
    type Msg = V;

    fn step(&mut self, io: &mut RoundIo<'_, V>) {
        if self.value.is_none() {
            if let Some((_, v)) = io.inbox().first() {
                self.value = Some(v.clone());
            }
        }
        // Borrow the value and children in place: a step after the forward
        // round touches no heap at all (previously every round cloned the
        // value *and* the children list, even when `forwarded` was set), and
        // the forward round itself clones only the per-child payloads.
        if !self.forwarded {
            if let Some(v) = &self.value {
                for &c in &self.children {
                    io.send(c, v.clone());
                }
                self.forwarded = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.forwarded
    }
}

// ---------------------------------------------------------------------------
// Channel-sharded global sum
// ---------------------------------------------------------------------------

/// Global sum over a `K`-channel [`ChannelSet`]: node `v` is attached to
/// channel `v mod K` and writes its value on that channel when the shard's
/// *turn* reaches its rank (`v div K`); every shard member folds the
/// successes it hears.  Fault-free the turn advances once per round (a
/// shard-local TDMA schedule, so every slot is a success) and after `⌈n/K⌉`
/// rounds each shard knows its shard sum — `K` channels compute `K` partial
/// sums concurrently, cutting the round count by a factor of `K` against the
/// paper's single-channel schedule.
///
/// Under a [`FaultPlan`](crate::FaultPlan) the schedule is *dynamic*: the
/// turn is driven by the shard's shared channel feedback, not by the round
/// number.
///
/// * a **`Success`** folds the heard value and advances the turn (the next
///   rank writes);
/// * an **`Erased`** slot (or a `Collision`) holds the turn — the same
///   writer, which saw the same feedback, retries next round;
/// * an **`Idle`** slot while the turn points at an unwritten rank is a
///   *strike*: after [`ChannelShardedSum::TIMEOUT`] consecutive strikes the
///   shard concludes the rank's owner has crashed and skips it.
///
/// All never-crashed members of a shard observe the identical feedback
/// sequence, so their turn/strike counters evolve in lockstep and at most
/// one node writes per slot — collisions never arise from the protocol
/// itself.  A node that crashes and later recovers rejoins *crashed out*
/// ([`Protocol::on_recover`]): it keeps listening (so it terminates) but
/// never writes again, since its slot may already have been skipped; its
/// own sum is best-effort, and only never-crashed members are guaranteed
/// the exact sum of the values the shard actually heard.
///
/// This is the *channel-sharded scenario family* of the repo benchmark
/// (`mmbench`'s `chansum-*` workloads, faulted and wire variants included);
/// its delivery semantics are pinned across all three engines by the
/// `engine_conformance` suite, fault schedules included.
/// Build the matching attachment with [`ChannelShardedSum::channel_set`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelShardedSum {
    chan: ChannelId,
    /// This node's slot in the shard-local schedule (`v div K`).
    rank: u64,
    /// Number of members (= ranks) of this node's shard.
    shard_size: u64,
    value: u64,
    sum: u64,
    /// The rank whose write this node is currently waiting to hear.
    turn: u64,
    /// Consecutive idle slots observed while waiting on `turn`.
    strikes: u32,
    /// Set on recovery from a crash: the node keeps listening but never
    /// writes again (its rank may already have been skipped).
    crashed_out: bool,
}

impl ChannelShardedSum {
    /// Consecutive idle slots after which the shard skips the current turn's
    /// rank, concluding its owner has crashed.  An idle slot while a live
    /// writer holds the turn is impossible (the writer retries every round
    /// until its write succeeds), so one strike already implies a dead rank;
    /// the second confirms it across a recovery boundary, where a node
    /// promoted mid-slot has not written yet.
    pub const TIMEOUT: u32 = 2;

    /// Per-node state for node `v` of `n` with `k` channels and local input
    /// `value`.
    pub fn new(v: NodeId, n: usize, k: u16, value: u64) -> Self {
        let k = k as usize;
        let chan = ChannelId((v.index() % k) as u16);
        // Members of shard `c` are the nodes `c, c + k, c + 2k, ...`; the
        // shard of node `v` has `ceil((n - c) / k)` members.
        let shard_size = (n - chan.index()).div_ceil(k) as u64;
        ChannelShardedSum {
            chan,
            rank: (v.index() / k) as u64,
            shard_size,
            value,
            sum: 0,
            turn: 0,
            strikes: 0,
            crashed_out: false,
        }
    }

    /// The sharded attachment this protocol expects: node `v` on channel
    /// `v mod k`.
    pub fn channel_set(n: usize, k: u16) -> ChannelSet {
        ChannelSet::sharded(k, n, |v| ChannelId((v.index() % k as usize) as u16))
    }

    /// Per-node state under an **arbitrary** shard assignment: this node
    /// computes on `chan` as the `rank`-th of `shard_size` members (ranks
    /// are the shard's TDMA schedule, so every member of a shard must
    /// receive a distinct rank in `0..shard_size`).  [`new`](Self::new) is
    /// the `v mod k` special case; adaptive re-sharding
    /// (`netsim_sim::reshard`) reseeds with this after migrating nodes
    /// between channels.
    pub fn with_assignment(chan: ChannelId, rank: u64, shard_size: u64, value: u64) -> Self {
        ChannelShardedSum {
            chan,
            rank,
            shard_size,
            value,
            sum: 0,
            turn: 0,
            strikes: 0,
            crashed_out: false,
        }
    }

    /// Sum of the values of this node's shard (meaningful once done).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The channel this node computes on.
    pub fn channel(&self) -> ChannelId {
        self.chan
    }

    /// `true` once this node has crashed and recovered: it keeps listening
    /// but never writes again, and its own sum is best-effort only.
    pub fn crashed_out(&self) -> bool {
        self.crashed_out
    }
}

impl Protocol for ChannelShardedSum {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        if self.turn < self.shard_size {
            match io.prev_slot_on(self.chan) {
                SlotOutcome::Success { msg, .. } => {
                    self.sum = self.sum.wrapping_add(*msg);
                    self.turn += 1;
                    self.strikes = 0;
                }
                // The writer saw the same feedback and retries: hold the
                // turn, reset the crash suspicion.
                SlotOutcome::Collision | SlotOutcome::Erased => self.strikes = 0,
                SlotOutcome::Idle => {
                    // Round 0 observes the axiomatic all-idle slots before
                    // time 0 — no rank has had a chance to write yet.
                    if io.round() > 0 {
                        self.strikes += 1;
                        if self.strikes >= Self::TIMEOUT {
                            self.turn += 1;
                            self.strikes = 0;
                        }
                    }
                }
            }
        }
        if self.turn == self.rank && !self.crashed_out {
            io.write_channel_on(self.chan, self.value);
        }
        // The idle-strike timer advances on *idle* slots, which never wake a
        // node under sparse stepping — so an unfinished node arms its own
        // next round explicitly.
        if !self.is_done() {
            io.wake_me();
        }
    }

    fn is_done(&self) -> bool {
        // Every rank has been heard or skipped.
        self.turn >= self.shard_size
    }

    fn on_recover(&mut self) {
        self.crashed_out = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{EngineBuilder, EngineControl};
    use crate::engine::SyncEngine;
    use crate::fault::{FaultEvent, FaultPlan};
    use netsim_graph::{generators, traversal, SpanningForest};

    #[test]
    fn bfs_build_matches_sequential_bfs() {
        let g = generators::Family::Grid.generate(36, 3);
        let root = NodeId(0);
        let mut eng = SyncEngine::new(&g, |id| BfsBuild::new(id, root));
        let out = eng.run(1000);
        assert!(out.is_completed());
        let reference = traversal::bfs(&g, root);
        for v in g.nodes() {
            assert!(eng.node(v).reached());
            assert_eq!(eng.node(v).depth(), reference.distance(v));
        }
        // Time is eccentricity + O(1); messages are exactly 2m (every node
        // forwards once to all its neighbours).
        assert!(out.rounds() as u32 <= reference.max_distance() + 3);
        assert_eq!(eng.cost().p2p_messages, 2 * g.edge_count() as u64);
    }

    #[test]
    fn bfs_parents_form_valid_forest() {
        let g = generators::random_connected(50, 0.08, 9);
        let root = NodeId(7);
        let mut eng = SyncEngine::new(&g, |id| BfsBuild::new(id, root));
        eng.run(1000);
        let parents: Vec<Option<NodeId>> = g.nodes().map(|v| eng.node(v).parent()).collect();
        let forest = SpanningForest::from_parents(&g, parents).unwrap();
        assert_eq!(forest.tree_count(), 1);
        assert_eq!(forest.roots(), &[root]);
    }

    #[test]
    fn convergecast_sums_path() {
        // Path rooted at node 0: parent of i is i-1, one child each except the last.
        let g = generators::path(6);
        let n = g.node_count();
        let mut eng = SyncEngine::new(&g, |id| {
            let parent = if id.index() == 0 {
                None
            } else {
                Some(NodeId(id.index() - 1))
            };
            let children = usize::from(id.index() + 1 < n);
            Convergecast::new(parent, children, id.index() as u64, |a, b| a + b)
        });
        let out = eng.run(100);
        assert!(out.is_completed());
        assert_eq!(*eng.node(NodeId(0)).result(), (0..6).sum::<u64>());
        // n - 1 responses, depth + O(1) rounds.
        assert_eq!(eng.cost().p2p_messages, (n - 1) as u64);
        assert!(out.rounds() <= n as u64 + 2);
    }

    #[test]
    fn convergecast_min_on_star() {
        let g = generators::star(8);
        let values = [50u64, 3, 9, 1, 7, 30, 22, 4];
        let mut eng = SyncEngine::new(&g, |id| {
            let parent = if id.index() == 0 {
                None
            } else {
                Some(NodeId(0))
            };
            let children = if id.index() == 0 { 7 } else { 0 };
            Convergecast::new(parent, children, values[id.index()], |a, b| *a.min(b))
        });
        let out = eng.run(100);
        assert!(out.is_completed());
        assert_eq!(*eng.node(NodeId(0)).result(), 1);
        assert!(out.rounds() <= 4);
    }

    #[test]
    fn channel_sharded_sum_computes_shard_sums() {
        let n = 37;
        let g = generators::ring(n);
        let values: Vec<u64> = (0..n as u64).map(|i| i * 31 + 5).collect();
        for k in [1u16, 4, 16] {
            let mut eng = EngineBuilder::new(&g)
                .channels(ChannelShardedSum::channel_set(n, k))
                .build_flat(|v| ChannelShardedSum::new(v, n, k, values[v.index()]));
            let out = eng.run(1000);
            assert!(out.is_completed(), "k={k}");
            // K channels cut the schedule to ceil(n/K) writing rounds plus
            // one observation round.
            assert_eq!(out.rounds(), (n as u64).div_ceil(u64::from(k)) + 1, "k={k}");
            // Every slot of the schedule succeeds: one writer per channel
            // per round.
            assert_eq!(eng.cost().slots_success, n as u64, "k={k}");
            assert_eq!(eng.cost().slots_collision, 0, "k={k}");
            for v in g.nodes() {
                let expected: u64 = (0..n)
                    .filter(|u| u % (k as usize) == v.index() % (k as usize))
                    .map(|u| values[u])
                    .sum();
                assert_eq!(eng.node(v).sum(), expected, "k={k} node {v:?}");
            }
        }
    }

    #[test]
    fn channel_sharded_sum_is_exact_under_erasures() {
        // Erasures only delay the schedule (the blocked writer retries), so
        // every shard still computes its exact sum.
        let n = 37;
        let g = generators::ring(n);
        let values: Vec<u64> = (0..n as u64).map(|i| i * 31 + 5).collect();
        let k = 4u16;
        let mut eng = EngineBuilder::new(&g)
            .channels(ChannelShardedSum::channel_set(n, k))
            .fault_plan(FaultPlan::from_rates(0xE5A5, 0.25, 0.0, 0.0, 0.0))
            .build_flat(|v| ChannelShardedSum::new(v, n, k, values[v.index()]));
        let out = eng.run(1000);
        assert!(out.is_completed());
        assert!(eng.cost().erased_slots > 0);
        // Each erased slot costs the shard exactly one retry round.
        assert!(out.rounds() > (n as u64).div_ceil(u64::from(k)) + 1);
        for v in g.nodes() {
            let expected: u64 = (0..n)
                .filter(|u| u % (k as usize) == v.index() % (k as usize))
                .map(|u| values[u])
                .sum();
            assert_eq!(eng.node(v).sum(), expected, "node {v:?}");
        }
    }

    #[test]
    fn channel_sharded_sum_skips_crashed_rank() {
        // Single shard of 9; node 4 crashes before its turn and recovers
        // late.  The survivors strike out its idle slot, skip the rank, and
        // finish with the sum of every value the channel actually carried;
        // the recovered node rejoins crashed-out and still terminates.
        let n = 9;
        let g = generators::ring(n);
        let values: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
        let mut eng = EngineBuilder::new(&g)
            .channels(ChannelShardedSum::channel_set(n, 1))
            .fault_plan(FaultPlan::none().with_events(vec![
                FaultEvent::Crash {
                    round: 2,
                    node: NodeId(4),
                },
                FaultEvent::Recover {
                    round: 8,
                    node: NodeId(4),
                },
            ]))
            .build_flat(|v| ChannelShardedSum::new(v, n, 1, values[v.index()]));
        let out = eng.run(1000);
        assert!(out.is_completed());
        let heard: u64 = values.iter().sum::<u64>() - values[4];
        for v in g.nodes().filter(|v| v.index() != 4) {
            assert_eq!(eng.node(v).sum(), heard, "node {v:?}");
        }
        // The skipped rank costs TIMEOUT idle rounds on top of the
        // fault-free schedule; the recovered node's late catch-up (strike
        // out every rank it missed) dominates the tail.
        assert!(eng.node(NodeId(4)).is_done());
        assert!(eng.cost().slots_success == (n as u64) - 1);
    }

    #[test]
    fn channel_sharded_sum_survives_churn_identically_on_flat_and_reference() {
        // Multi-shard churn under seeded erasures: node 9 crashes before its
        // turn and recovers crashed-out.  Both engines must agree bit for
        // bit; every never-crashed member of a shard holds the same sum, and
        // a shard nobody left is exact.
        use crate::control::{EngineBuilder, EngineControl};
        let (n, k) = (200usize, 4u16);
        let g = generators::ring(n);
        let value = |v: usize| (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let plan = FaultPlan::from_rates(0xfa02, 0.1, 0.0, 0.0, 0.0).with_events(vec![
            FaultEvent::Crash {
                round: 3,
                node: NodeId(9),
            },
            FaultEvent::Recover {
                round: 20,
                node: NodeId(9),
            },
        ]);
        let builder = EngineBuilder::new(&g)
            .channels(ChannelShardedSum::channel_set(n, k))
            .fault_plan(plan);
        let init = |v: NodeId| ChannelShardedSum::new(v, n, k, value(v.index()));
        let mut flat = builder.build_flat(init);
        let mut reference = builder.build_reference(init);
        assert!(flat.run(10_000).is_completed());
        assert!(reference.run(10_000).is_completed());
        assert_eq!(flat.cost(), reference.cost());
        assert!(flat.cost().erased_slots > 0 && flat.cost().crashed_rounds > 0);
        for v in g.nodes() {
            assert_eq!(flat.node(v), reference.node(v), "node {v:?}");
            assert_eq!(flat.lifecycle(v), reference.lifecycle(v), "node {v:?}");
        }
        for shard in 0..k as usize {
            let members = || (shard..n).step_by(k as usize);
            let witnesses: Vec<u64> = members()
                .map(NodeId)
                .filter(|&v| flat.lifecycle(v).is_operational() && !flat.node(v).crashed_out())
                .map(|v| flat.node(v).sum())
                .collect();
            assert!(witnesses.windows(2).all(|w| w[0] == w[1]), "shard {shard}");
            if witnesses.len() == members().count() {
                let exact = members().fold(0u64, |a, v| a.wrapping_add(value(v)));
                assert_eq!(witnesses[0], exact, "intact shard {shard}");
            }
        }
    }

    #[test]
    fn tree_broadcast_reaches_everyone() {
        let g = generators::path(7);
        let n = g.node_count();
        let mut eng = SyncEngine::new(&g, |id| {
            let children = if id.index() + 1 < n {
                vec![NodeId(id.index() + 1)]
            } else {
                vec![]
            };
            let value = if id.index() == 0 { Some(1234u64) } else { None };
            TreeBroadcast::new(children, value)
        });
        let out = eng.run(100);
        assert!(out.is_completed());
        for v in g.nodes() {
            assert_eq!(eng.node(v).value(), Some(&1234));
        }
        assert_eq!(eng.cost().p2p_messages, (n - 1) as u64);
    }
}
