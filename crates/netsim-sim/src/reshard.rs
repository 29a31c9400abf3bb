//! Adaptive channel re-sharding: contention monitoring and the
//! distributed, engine-executed recombination protocol.
//!
//! A sharded workload attaches each node to exactly one of `K` collision
//! channels ([`ChannelSet::sharded`](crate::ChannelSet::sharded)).  When the
//! attachment is skewed — one channel carries far more writers than another —
//! the hot channel serialises its shard while the cold one idles.  This
//! module provides the two halves of the adaptive fix:
//!
//! 1. [`ContentionMonitor`] watches per-channel
//!    [`CostAccount`] deltas
//!    ([`EngineControl::channel_costs`](crate::EngineControl::channel_costs) and
//!    friends) between observation points and, when the hottest channel's
//!    load exceeds a configured skew bound over the coldest's, emits a
//!    [`ReshardDecision`] pairing them.
//!
//! 2. [`ReshardNode`] is a [`Protocol`] executed *by the engine* (not the
//!    driver) over the merged member set of the paired channels: the leader
//!    grows a loop-erased-random-walk spanning tree (Wilson's algorithm,
//!    [`wilson_parents`]) over the merged roster, streams it to every member
//!    as sequenced lane words on the hot channel with erasure-driven
//!    retransmission, broadcasts the balance-optimal cut edge
//!    ([`balance_cut`]) with a checksum, and the members then run a
//!    one-round multiaccess veto: migrators notify their roster
//!    neighbours point-to-point, every member compares the notify count it
//!    heard against the count the shared tree predicts, and any mismatch —
//!    dropped notifies across a partition, a corrupted stream word, a
//!    checksum failure — is a single slot write whose non-idle outcome
//!    aborts the migration for everyone.  An idle veto slot commits it.
//!
//! The driver side (pairing the decision with a workload, re-attaching the
//! cut subtree to the cold channel between rounds, reseeding shard ranks)
//! lives in `multimedia::rebalance`, written once against
//! [`EngineControl`](crate::EngineControl) and therefore identical across
//! all four substrates.
//!
//! # Determinism
//!
//! Everything here is a pure function of `(roster, hot, cold, seed)` and the
//! engine's pinned delivery semantics: the walk uses stateless keyed draws
//! ([`rand::FaultRng`]), the stream is a deterministic replay with
//! deterministic erasure retries, and the commit/abort verdict is a shared
//! slot outcome.  The conformance suite pins the full decision trace
//! bit-identically across the flat, reference, lockstep-async and wire
//! substrates.
//!
//! # Fault semantics
//!
//! The protocol is *conservative*: it either commits on every operational
//! member or aborts on every operational member.
//!
//! * **Erasures** on the stream lane stall the sequence number, so the
//!   leader (whose own mirror stalls identically) retransmits; the stream
//!   makes progress at one word per non-erased round.
//! * **Corruption** of a stream word either misses the expected sequence
//!   number (ignored, retransmitted) or poisons every mirror identically,
//!   in which case the leader's checksum fails on all members at once and
//!   the veto aborts the attempt.
//! * **Drops** of notify messages (e.g. a
//!   [`FaultPlan::with_partition`](crate::FaultPlan) edge cut) leave some
//!   member short of its predicted count; it vetoes, and the shared slot
//!   outcome aborts everyone.
//! * **Crashes** mid-protocol make the recovering node abstain
//!   (`committed == Some(false)`, no migration); a crashed leader stalls
//!   the stream and the driver's round budget aborts the attempt.

use std::sync::Arc;

use crate::channel::{ChannelId, LaneOutcome};
use crate::metrics::CostAccount;
use crate::node::{Protocol, RoundIo};
use netsim_graph::{NodeId, SpanningForest};
use rand::FaultRng;

/// Upper bound on the merged roster size: parent entries travel as 14-bit
/// indices, three to a lane word.
pub const MAX_ROSTER: usize = 1 << 14;

/// Opcode of a lane word carrying up to three parent entries.
const OP_PARENTS: u64 = 0b01 << 62;
/// Opcode of the lane word broadcasting the cut edge and tree checksum.
const OP_CUT: u64 = 0b10 << 62;
/// Opcode mask (top two bits of the word).
const OP_MASK: u64 = 0b11 << 62;

/// Point-to-point sentinel a migrating member sends its roster neighbours
/// in the notify round.
pub const NOTIFY: u64 = 0x5245_5348_4e46_5931;
/// Slot message written by any member whose notify census or checksum
/// disagrees with the shared tree; a non-idle veto slot aborts the attempt.
pub const VETO: u64 = 0x5245_5348_5654_4f31;

// ---------------------------------------------------------------------------
// Contention monitoring
// ---------------------------------------------------------------------------

/// A re-sharding trigger: the hottest and coldest channel of an observation
/// window, with their window loads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReshardDecision {
    /// The most contended channel (ties broken towards the lowest index).
    pub hot: ChannelId,
    /// The least contended channel (ties broken towards the lowest index).
    pub cold: ChannelId,
    /// The hot channel's load over the window.
    pub hot_load: u64,
    /// The cold channel's load over the window.
    pub cold_load: u64,
}

/// One observation window's result: the per-channel loads and, when the
/// skew bound was exceeded, the [`ReshardDecision`] pairing the extremes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContentionReport {
    /// Per-channel load over the window (see [`ContentionMonitor`]).
    pub loads: Vec<u64>,
    /// `Some` when `max_load > skew * max(min_load, 1)`.
    pub decision: Option<ReshardDecision>,
}

/// Watches per-channel [`CostAccount`] deltas between observation points.
///
/// A channel's **load** over a window is the delta of
/// `slots_busy() + lanes_busy + lanes_erased`: the number of slot and lane
/// sub-slots that carried (or lost) traffic.  Idle capacity is free, so a
/// perfectly balanced attachment reports near-equal loads and never fires.
/// The monitor fires when `max_load > skew * max(min_load, 1)` — the
/// `max(·, 1)` floor makes an entirely idle channel count as load 1, so the
/// bound stays a finite multiplier.
///
/// The monitor is driver state (it never enters the engine); feeding it the
/// reconciled [`channel_costs`](crate::EngineControl::channel_costs) of any
/// substrate yields the same decisions, which the conformance suite pins.
#[derive(Clone, Debug)]
pub struct ContentionMonitor {
    skew: u64,
    last: Vec<CostAccount>,
}

impl ContentionMonitor {
    /// A monitor over `k` channels firing at the given skew multiplier
    /// (`skew >= 1`).
    pub fn new(k: u16, skew: u64) -> Self {
        assert!(skew >= 1, "skew bound must be at least 1");
        ContentionMonitor {
            skew,
            last: vec![CostAccount::new(); usize::from(k)],
        }
    }

    /// Ingests the current cumulative per-channel accounts, returning the
    /// window's loads (delta since the previous call) and the re-sharding
    /// decision, if the skew bound was exceeded.  Needs at least two
    /// channels to ever fire.
    pub fn observe(&mut self, costs: &[CostAccount]) -> ContentionReport {
        assert_eq!(costs.len(), self.last.len(), "channel count changed");
        let loads: Vec<u64> = costs
            .iter()
            .zip(self.last.iter())
            .map(|(cur, old)| {
                (cur.slots_busy() - old.slots_busy())
                    + (cur.lanes_busy - old.lanes_busy)
                    + (cur.lanes_erased - old.lanes_erased)
            })
            .collect();
        self.last.copy_from_slice(costs);
        let decision = self.decide(&loads);
        ContentionReport { loads, decision }
    }

    fn decide(&self, loads: &[u64]) -> Option<ReshardDecision> {
        if loads.len() < 2 {
            return None;
        }
        let mut hot = 0usize;
        let mut cold = 0usize;
        for (c, &load) in loads.iter().enumerate() {
            if load > loads[hot] {
                hot = c;
            }
            if load < loads[cold] {
                cold = c;
            }
        }
        if hot == cold || loads[hot] <= self.skew * loads[cold].max(1) {
            return None;
        }
        Some(ReshardDecision {
            hot: ChannelId(hot as u16),
            cold: ChannelId(cold as u16),
            hot_load: loads[hot],
            cold_load: loads[cold],
        })
    }
}

// ---------------------------------------------------------------------------
// Tree construction and cutting (leader-local, checksummed on the wire)
// ---------------------------------------------------------------------------

/// Grows a uniform spanning tree of the **complete graph** on `m` vertices
/// by Wilson's loop-erased-random-walk algorithm, rooted at vertex 0.
///
/// Returns the parent array: `parents[0] == 0` (the root), and for
/// `i >= 1`, `parents[i]` is `i`'s tree parent.  Every random step is a
/// stateless keyed draw of [`FaultRng`] on `(step_counter, vertex)`, so the
/// tree is a pure function of `(m, seed)` — the leader grows it locally and
/// the checksum in the cut broadcast lets every mirror audit the streamed
/// copy against it.
pub fn wilson_parents(m: usize, seed: u64) -> Vec<u32> {
    assert!(m >= 1, "empty roster");
    assert!(m <= MAX_ROSTER, "roster exceeds 14-bit index space");
    let rng = FaultRng::new(seed);
    let mut parents = vec![0u32; m];
    let mut in_tree = vec![false; m];
    in_tree[0] = true;
    let mut successor = vec![0u32; m];
    let mut ctr = 0u64;
    for start in 1..m {
        if in_tree[start] {
            continue;
        }
        // Random walk from `start` until it hits the tree, remembering only
        // the latest successor of each vertex (the loop erasure).
        let mut v = start;
        while !in_tree[v] {
            let r = rng.draw(ctr, v as u64) as usize % (m - 1);
            ctr += 1;
            let u = if r >= v { r + 1 } else { r };
            successor[v] = u as u32;
            v = u;
        }
        // Commit the loop-erased path.
        let mut v = start;
        while !in_tree[v] {
            in_tree[v] = true;
            parents[v] = successor[v];
            v = successor[v] as usize;
        }
    }
    parents
}

/// Intrusive child lists of a parent array: `head[p]` is `p`'s first child,
/// `next[c]` its next sibling (`usize::MAX` terminated).  Children appear in
/// ascending index order.
fn child_lists(parents: &[u32]) -> (Vec<usize>, Vec<usize>) {
    let m = parents.len();
    let mut head = vec![usize::MAX; m];
    let mut next = vec![usize::MAX; m];
    for i in (1..m).rev() {
        let p = (parents[i] as usize).min(m - 1);
        next[i] = head[p];
        head[p] = i;
    }
    (head, next)
}

/// The balance-optimal cut edge of a spanning tree: the non-root vertex
/// `c` minimising `|2 * subtree_size(c) - m|` (ties broken towards the
/// smallest index).  Cutting the edge `(c, parent(c))` splits the tree into
/// the most even two-coloring any single tree edge allows.  Returns
/// `(cut_child, subtree_size)`.
///
/// # Panics
///
/// Panics if `m < 2` or if the parents of `1..m` do not form a tree
/// rooted at 0 (a parent out of range, or a cycle).
pub fn balance_cut(parents: &[u32]) -> (usize, usize) {
    let m = parents.len();
    assert!(m >= 2, "a single-vertex tree has no edge to cut");
    let tree = SpanningForest::from_fn(m, |v| {
        (v.index() != 0).then(|| NodeId(parents[v.index()] as usize))
    })
    .expect("the parent array is a spanning tree rooted at 0");
    let size = |i| tree.subtree_size(NodeId(i));
    let mut best = 1usize;
    let mut best_score = (2 * size(1)).abs_diff(m);
    for i in 2..m {
        let score = (2 * size(i)).abs_diff(m);
        if score < best_score {
            best = i;
            best_score = score;
        }
    }
    (best, size(best))
}

/// Membership of the subtree rooted at `cut`: `members[i]` is `true` iff
/// `i` lies in `cut`'s subtree (the side that migrates to the cold
/// channel).  Out-of-range or root cuts yield an empty membership.
///
/// An oracle: a roster member answers the same question for one index at a
/// time by walking its parent chain, without building child lists.
pub fn subtree_members(parents: &[u32], cut: usize) -> Vec<bool> {
    let m = parents.len();
    let mut members = vec![false; m];
    if cut == 0 || cut >= m {
        return members;
    }
    let (head, next) = child_lists(parents);
    let mut queue = vec![cut];
    members[cut] = true;
    while let Some(v) = queue.pop() {
        let mut c = head[v];
        while c != usize::MAX {
            if !members[c] {
                members[c] = true;
                queue.push(c);
            }
            c = next[c];
        }
    }
    members
}

/// FNV-1a digest of a parent array and cut choice, folded to 32 bits: the
/// audit value the cut broadcast carries so every mirror can verify its
/// streamed tree against the leader's private one.
///
/// The leader computes it for its cut broadcast; a roster member folds the same
/// digest entry by entry as the stream arrives, so this is its oracle.
pub fn tree_checksum(parents: &[u32], cut: usize) -> u32 {
    let h = parents
        .iter()
        .fold(FNV_OFFSET, |h, &p| fnv(h, u64::from(p)));
    fold32(fnv(h, cut as u64))
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over a whole word.
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}

/// Folds a 64-bit digest to the 32 bits the cut word carries.
fn fold32(h: u64) -> u32 {
    (h ^ (h >> 32)) as u32
}

// ---------------------------------------------------------------------------
// The engine-executed protocol
// ---------------------------------------------------------------------------

/// Immutable parameters of one re-sharding attempt, shared by every
/// participating [`ReshardNode`].
#[derive(Clone, Debug)]
pub struct ReshardSpec {
    /// The merged member set of the paired channels, sorted ascending.
    /// `roster[0]` is the leader.  Every roster node must be attached to
    /// [`hot`](Self::hot) for the duration of the attempt (the driver
    /// re-attaches before running it).
    pub roster: Arc<Vec<NodeId>>,
    /// The contended channel: carries the stream lane and the veto slot.
    pub hot: ChannelId,
    /// The destination channel for the cut subtree.
    pub cold: ChannelId,
    /// Seed of the leader's loop-erased random walk.
    pub seed: u64,
}

impl ReshardSpec {
    /// A spec over a sorted roster.  Panics when the roster is unsorted,
    /// smaller than two members, larger than [`MAX_ROSTER`], or the
    /// channels coincide.
    pub fn new(roster: Vec<NodeId>, hot: ChannelId, cold: ChannelId, seed: u64) -> Self {
        assert!(roster.len() >= 2, "re-sharding needs at least two members");
        assert!(
            roster.len() <= MAX_ROSTER,
            "roster exceeds 14-bit index space"
        );
        assert!(
            roster.windows(2).all(|w| w[0] < w[1]),
            "roster must be sorted"
        );
        assert_ne!(hot, cold, "hot and cold channel must differ");
        ReshardSpec {
            roster: Arc::new(roster),
            hot,
            cold,
            seed,
        }
    }

    fn len(&self) -> usize {
        self.roster.len()
    }
}

/// Phase of a roster member's state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Receiving (leader: also transmitting) the parent stream and cut
    /// broadcast on the hot channel's lanes.
    Stream,
    /// The cut is applied; notifies were sent last round, and this step
    /// counts them and writes the veto slot on mismatch.
    Veto,
    /// The veto slot was resolved last round; this step reads the verdict.
    Observe,
    /// Verdict reached (or bystander / crashed-out).
    Done,
}

/// One node's state in the engine-executed re-sharding protocol (see the
/// [module docs](self) for the wire protocol and fault semantics).
///
/// Nodes outside the merged roster participate as [`bystander`]s: they are
/// done from round 0 and ignore all traffic.  Roster members run the
/// stream / notify / veto / observe state machine and finish with
/// [`committed`](Self::committed) set on every operational member — `true`
/// meaning the subtree reported by [`migrating`](Self::migrating) moves to
/// the cold channel, `false` meaning the attempt aborted and nothing moves.
///
/// A member never rebuilds the tree.  It mirrors the stream in 2 bytes per
/// entry, folds the audit checksum as entries arrive, and answers "is roster
/// index `i` in the cut subtree?" by walking `i`'s parent chain, so its work
/// at the cut is O(depth · degree) with no allocation.
///
/// [`bystander`]: Self::bystander
#[derive(Clone, Debug)]
pub struct ReshardNode {
    spec: Option<ReshardSpec>,
    my_idx: u32,
    /// Leader only: the private walk (streamed, never shared directly).
    walk: Option<Vec<u32>>,
    /// Parent entries as heard on the stream, clamped into the roster;
    /// `mirror[0] == 0`.  [`MAX_ROSTER`] keeps every index in 16 bits.
    mirror: Vec<u16>,
    /// FNV-1a fold of `mirror[0..=received]`, the prefix of
    /// [`tree_checksum`]'s digest.
    digest: u64,
    /// Count of parent entries applied (entries cover indices
    /// `1..=received`).
    received: usize,
    phase: Phase,
    /// Local evidence of a malformed or corrupted stream; forces a veto.
    invalid: bool,
    cut: u32,
    checksum: u32,
    /// The cut word arrived (cleared again by a crash).
    heard_cut: bool,
    /// Notifies this node expects in the veto round, from the shared tree.
    expected: u64,
    committed: Option<bool>,
}

impl ReshardNode {
    /// A roster member's initial state.  Panics when `me` is not on the
    /// roster.  `roster[0]` becomes the leader and grows the walk locally.
    pub fn new(spec: ReshardSpec, me: NodeId) -> Self {
        let my_idx = spec
            .roster
            .binary_search(&me)
            .expect("node is not on the re-sharding roster") as u32;
        let m = spec.len();
        let walk = (my_idx == 0).then(|| wilson_parents(m, spec.seed));
        ReshardNode {
            spec: Some(spec),
            my_idx,
            walk,
            mirror: vec![0; m],
            digest: fnv(FNV_OFFSET, 0),
            received: 0,
            phase: Phase::Stream,
            invalid: false,
            cut: 0,
            checksum: 0,
            heard_cut: false,
            expected: 0,
            committed: None,
        }
    }

    /// A non-roster node: done from round 0, deaf to all traffic.
    pub fn bystander() -> Self {
        ReshardNode {
            spec: None,
            my_idx: 0,
            walk: None,
            mirror: Vec::new(),
            digest: 0,
            received: 0,
            phase: Phase::Done,
            invalid: false,
            cut: 0,
            checksum: 0,
            heard_cut: false,
            expected: 0,
            committed: None,
        }
    }

    /// The verdict: `Some(true)` committed, `Some(false)` aborted (or
    /// crashed out), `None` still running or bystander.
    pub fn committed(&self) -> Option<bool> {
        self.committed
    }

    /// Whether this node is on the migrating (cut-subtree) side.  Only
    /// meaningful once [`committed`](Self::committed) is `Some(true)`.
    pub fn migrating(&self) -> bool {
        self.heard_cut && !self.invalid && self.in_cut_subtree(self.my_idx as usize)
    }

    /// The cut child index broadcast by the leader, once heard.
    pub fn cut_child(&self) -> Option<u32> {
        (self.phase == Phase::Done && self.spec.is_some() && self.heard_cut).then_some(self.cut)
    }

    /// The tree checksum broadcast by the leader, once heard.
    pub fn checksum(&self) -> Option<u32> {
        self.cut_child().map(|_| self.checksum)
    }

    /// The migrating node set, from this node's mirror of the shared tree
    /// (identical on every member that reached a verdict).  Empty unless
    /// the attempt committed.
    pub fn migrating_nodes(&self) -> Vec<NodeId> {
        // A commit implies a valid mirror: an invalid member vetoes.
        if self.committed != Some(true) {
            return Vec::new();
        }
        let spec = self.spec.as_ref().expect("verdict implies roster member");
        spec.roster
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| self.in_cut_subtree(i).then_some(v))
            .collect()
    }

    /// Whether roster index `i` lies in the cut subtree of the mirror: walks
    /// `i`'s parent chain until it meets the root (no) or the cut (yes).
    /// Equals `subtree_members(mirror, cut)[i]` on any mirror; the hop bound
    /// ends the walk on a corrupted, cyclic one.
    fn in_cut_subtree(&self, i: usize) -> bool {
        let cut = self.cut as usize;
        let mut v = i;
        for _ in 0..self.mirror.len() {
            if v == 0 {
                return false;
            }
            if v == cut {
                return true;
            }
            v = usize::from(self.mirror[v]);
        }
        false
    }

    /// Applies one heard lane word to the mirror / state machine.
    fn apply_stream_word(&mut self, w: u64) {
        let m = self.mirror.len();
        match w & OP_MASK {
            OP_PARENTS => {
                let count = ((w >> 60) & 0b11) as usize;
                let seq = ((w >> 44) & 0xFFFF) as usize;
                if seq != self.received {
                    return; // stale retransmission (or corrupted seq: retried)
                }
                if count == 0 || self.received + count > m - 1 {
                    self.invalid = true;
                    return;
                }
                for i in 0..count {
                    let p = ((w >> (30 - 14 * i)) & 0x3FFF) as usize;
                    let idx = 1 + self.received;
                    if p >= m || p == idx {
                        self.invalid = true;
                    }
                    // Clamp so parent-chain walks stay in bounds; the
                    // checksum audit catches the divergence regardless.
                    let p = p.min(m - 1) as u16;
                    self.mirror[idx] = p;
                    self.digest = fnv(self.digest, u64::from(p));
                    self.received += 1;
                }
            }
            OP_CUT => {
                if self.received != m - 1 {
                    return; // premature (corrupted opcode): retried
                }
                let cut = ((w >> 48) & 0x3FFF) as u32;
                let ck = ((w >> 16) & 0xFFFF_FFFF) as u32;
                // `digest` covers the whole mirror now, so this is
                // `tree_checksum(mirror, cut)`.
                if cut == 0 || cut as usize >= m || ck != fold32(fnv(self.digest, u64::from(cut))) {
                    self.invalid = true;
                }
                self.cut = cut;
                self.checksum = ck;
                self.heard_cut = true;
                self.phase = Phase::Veto;
            }
            _ => {} // unrecognised opcode (corruption): ignored, retried
        }
    }

    /// Leader transmit: the next stream word everyone (including the
    /// leader's own mirror) still needs.
    fn leader_word(&self) -> Option<u64> {
        let walk = self.walk.as_ref()?;
        let m = walk.len();
        if self.received < m - 1 {
            let first = 1 + self.received;
            let count = (m - 1 - self.received).min(3);
            let mut w = OP_PARENTS | ((count as u64) << 60) | ((self.received as u64) << 44);
            for (i, &p) in walk[first..first + count].iter().enumerate() {
                w |= u64::from(p) << (30 - 14 * i);
            }
            Some(w)
        } else {
            let (cut, _) = balance_cut(walk);
            let ck = tree_checksum(walk, cut);
            Some(OP_CUT | ((cut as u64) << 48) | (u64::from(ck) << 16))
        }
    }
}

impl Protocol for ReshardNode {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        // Only `hot` is copied out: cloning the spec would cost two atomic
        // RMWs on the roster `Arc` shared by every member, every step.
        let Some(hot) = self.spec.as_ref().map(|spec| spec.hot) else {
            return; // bystander
        };
        match self.phase {
            Phase::Stream => {
                if let LaneOutcome::Word(w) = io.prev_lanes_on(hot) {
                    self.apply_stream_word(w);
                }
                if self.phase == Phase::Veto {
                    // The cut landed this very step: send the notifies now
                    // so next round's census counts them, and predict that
                    // census from the shared tree — one notify per migrating
                    // roster graph-neighbour.
                    let migrating = self.migrating();
                    let roster = &self.spec.as_ref().expect("roster member").roster;
                    let mut expected = 0u64;
                    for (u, _) in io.neighbors() {
                        let Ok(i) = roster.binary_search(&u) else {
                            continue;
                        };
                        if migrating {
                            io.send(u, NOTIFY);
                        }
                        if !self.invalid && self.in_cut_subtree(i) {
                            expected += 1;
                        }
                    }
                    self.expected = expected;
                } else if self.my_idx == 0 {
                    if let Some(w) = self.leader_word() {
                        io.write_lanes_on(hot, w);
                    }
                }
                io.wake_me();
            }
            Phase::Veto => {
                let heard = io.inbox().iter().filter(|&(_, &m)| m == NOTIFY).count() as u64;
                if heard != self.expected || self.invalid {
                    io.write_channel_on(hot, VETO);
                }
                self.phase = Phase::Observe;
                io.wake_me();
            }
            Phase::Observe => {
                self.committed = Some(io.prev_slot_on(hot).is_idle());
                self.phase = Phase::Done;
            }
            Phase::Done => {}
        }
    }

    fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    fn on_recover(&mut self) {
        // A crash loses stream words irrecoverably (the sequence moved on),
        // so the recovering node abstains: no migration, no further writes.
        if self.spec.is_some() && self.phase != Phase::Done {
            self.phase = Phase::Done;
            self.committed = Some(false);
            self.heard_cut = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelSet;
    use crate::control::{EngineBuilder, EngineControl};
    use crate::engine::SyncEngine;
    use netsim_graph::generators;

    #[test]
    fn wilson_is_a_deterministic_spanning_tree() {
        for &m in &[2usize, 3, 17, 200] {
            let a = wilson_parents(m, 42);
            let b = wilson_parents(m, 42);
            assert_eq!(a, b, "same seed, same tree");
            assert_eq!(a[0], 0);
            // Every vertex reaches the root: the parent pointers are acyclic.
            for start in 1..m {
                let mut v = start;
                let mut hops = 0;
                while v != 0 {
                    v = a[v] as usize;
                    hops += 1;
                    assert!(hops <= m, "cycle in parent array");
                }
            }
            let c = wilson_parents(m, 43);
            if m > 3 {
                assert_ne!(a, c, "different seed, different tree (w.h.p.)");
            }
        }
    }

    #[test]
    fn balance_cut_minimises_imbalance() {
        // A path 0 <- 1 <- 2 <- 3 <- 4 <- 5: the best cut is at index 3
        // (subtree {3,4,5}, |2*3-6| = 0).
        let parents = vec![0, 0, 1, 2, 3, 4];
        let (cut, size) = balance_cut(&parents);
        assert_eq!((cut, size), (3, 3));
        let members = subtree_members(&parents, cut);
        assert_eq!(members, vec![false, false, false, true, true, true]);
        // A star rooted at 0: every leaf subtree has size 1; ties break to
        // the smallest index.
        let star = vec![0, 0, 0, 0];
        assert_eq!(balance_cut(&star), (1, 1));
    }

    /// A leader whose mirror heard `entries` (raw 14-bit parents of indices
    /// `1..m`) on the stream, packed by its own word builder.
    fn streamed(entries: &[u32]) -> ReshardNode {
        let m = entries.len() + 1;
        let roster = (0..m).map(NodeId).collect();
        let spec = ReshardSpec::new(roster, ChannelId(0), ChannelId(1), 0);
        let mut node = ReshardNode::new(spec, NodeId(0));
        node.walk = Some(std::iter::once(0).chain(entries.iter().copied()).collect());
        while node.received < m - 1 {
            let w = node.leader_word().expect("leader");
            node.apply_stream_word(w);
        }
        node
    }

    /// The member's parent-chain walk and streamed digest against the
    /// oracles, at every cut (the root and one out of range included).
    fn assert_member_matches_oracles(what: &str, entries: &[u32]) {
        let m = entries.len() + 1;
        let clamped: Vec<u32> = std::iter::once(0)
            .chain(entries.iter().map(|&p| p.min(m as u32 - 1)))
            .collect();
        let mut node = streamed(entries);
        let mirror: Vec<u32> = node.mirror.iter().map(|&p| u32::from(p)).collect();
        assert_eq!(
            mirror, clamped,
            "{what}: the mirror stores the clamped entries"
        );
        for cut in 0..=m {
            node.cut = cut as u32;
            for (i, &member) in subtree_members(&clamped, cut).iter().enumerate() {
                assert_eq!(node.in_cut_subtree(i), member, "{what}: cut={cut} i={i}");
            }
            assert_eq!(
                fold32(fnv(node.digest, cut as u64)),
                tree_checksum(&clamped, cut),
                "{what}: cut={cut}"
            );
        }
    }

    /// A member's per-index parent-chain walk and running digest equal the
    /// whole-tree oracles on real walks and on mirrors a corrupted stream
    /// can leave behind; on the cyclic ones only the hop bound ends the walk.
    #[test]
    fn parent_chain_and_streamed_digest_match_the_oracles() {
        for (m, seed) in [(2, 1), (3, 2), (17, 3), (200, 4), (2574, 0x5eed)] {
            assert_member_matches_oracles(&format!("wilson m={m}"), &wilson_parents(m, seed)[1..]);
        }
        // Hand-corrupted mirrors of m = 8 (entries for indices 1..=7).
        let corrupted: [(&str, [u32; 7]); 5] = [
            ("self-parent", [0, 1, 3, 0, 4, 5, 6]),
            ("2-cycle off the root", [0, 1, 4, 3, 4, 1, 6]),
            ("cycle through the cut", [2, 3, 1, 2, 4, 0, 5]),
            ("out-of-range entries", [0, 8, 0x3FFF, 2, 9, 100, 6]),
            ("a path, the deepest tree", [0, 1, 2, 3, 4, 5, 6]),
        ];
        for (what, entries) in corrupted {
            assert_member_matches_oracles(what, &entries);
        }
    }

    #[test]
    fn monitor_fires_on_skew_and_pairs_extremes() {
        let mut mon = ContentionMonitor::new(3, 2);
        let mut costs = vec![CostAccount::new(); 3];
        // Window 1: balanced-ish — no decision.
        for c in &mut costs {
            c.add_channel_slot(1);
            c.add_channel_slot(1);
        }
        let r = mon.observe(&costs);
        assert_eq!(r.loads, vec![2, 2, 2]);
        assert!(r.decision.is_none());
        // Window 2: channel 1 runs hot, channel 2 stays idle.
        for _ in 0..10 {
            costs[1].add_channel_slot(2);
        }
        costs[0].add_channel_slot(1);
        let r = mon.observe(&costs);
        assert_eq!(r.loads, vec![1, 10, 0]);
        let d = r.decision.expect("skew 10 > 2 * max(0, 1)");
        assert_eq!(d.hot, ChannelId(1));
        assert_eq!(d.cold, ChannelId(2));
        assert_eq!((d.hot_load, d.cold_load), (10, 0));
    }

    #[test]
    fn protocol_commits_and_agrees_on_the_cut() {
        // Merged roster = all 12 nodes of a ring, hot = 0, cold = 1.
        let g = generators::ring(12);
        let n = 12usize;
        let roster: Vec<NodeId> = (0..n).map(NodeId).collect();
        let spec = ReshardSpec::new(roster.clone(), ChannelId(0), ChannelId(1), 7);
        // Every roster node attached to the hot channel.
        let channels = ChannelSet::from_masks(2, vec![0b01; n]);
        let mut eng = EngineBuilder::new(&g)
            .channels(channels)
            .build_flat(|v| ReshardNode::new(spec.clone(), v));
        let outcome = eng.run(100);
        assert!(outcome.is_completed(), "protocol quiesces");
        let leader = eng.node(NodeId(0));
        assert_eq!(leader.committed(), Some(true));
        let migrators = leader.migrating_nodes();
        assert!(!migrators.is_empty() && migrators.len() < n);
        // Every member reaches the same verdict, cut and migrating set.
        for v in g.nodes() {
            let node = eng.node(v);
            assert_eq!(node.committed(), Some(true));
            assert_eq!(node.cut_child(), leader.cut_child());
            assert_eq!(node.checksum(), leader.checksum());
            assert_eq!(node.migrating_nodes(), migrators);
            assert_eq!(node.migrating(), migrators.contains(&v));
        }
        // The cut is balance-optimal for the leader's private walk.
        let walk = wilson_parents(n, 7);
        let (cut, size) = balance_cut(&walk);
        assert_eq!(leader.cut_child(), Some(cut as u32));
        assert_eq!(migrators.len(), size);
        // Stream rounds: ceil((m-1)/3) parent words + cut + notify + veto
        // + observe, plus the engine's final all-idle round.
        let words = n.div_ceil(3);
        assert!(eng.round() <= (words + 5) as u64);
    }

    #[test]
    fn bystanders_are_inert() {
        let g = generators::ring(4);
        let mut eng = SyncEngine::new(&g, |_| ReshardNode::bystander());
        let outcome = eng.run(10);
        assert!(outcome.is_completed());
        assert!(eng.round() <= 1);
        for v in g.nodes() {
            assert_eq!(eng.node(v).committed(), None);
        }
    }
}
