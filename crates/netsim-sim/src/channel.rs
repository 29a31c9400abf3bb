//! The multiaccess (collision) channel substrate.
//!
//! Every node of the network can write to, and read from, each slot of a
//! channel it is attached to.  A slot is **idle** when no attached node
//! writes, a **success** when exactly one node writes (its message is then
//! heard by every attached node), and a **collision** when two or more nodes
//! write; collisions are detected by all attached nodes but the colliding
//! messages are lost.  With a single channel to which every node is attached
//! this is exactly the model of Section 2 of the paper.
//!
//! # Multiple channels
//!
//! Real multi-access deployments multiplex several channels (traffic-class
//! FDMA carriers, per-group multicast channels).  A [`ChannelSet`] describes
//! `K` independent slotted collision channels plus a per-node *attachment*:
//! each round, every channel resolves its own slot among the writes of its
//! attached nodes, and only attached nodes hear the outcome (an unattached
//! node observes [`SlotOutcome::Idle`]).  [`ChannelId(0)`](ChannelId) is the
//! *default* channel: the single-channel API
//! ([`RoundIo::write_channel`](crate::RoundIo::write_channel) /
//! [`RoundIo::prev_slot`](crate::RoundIo::prev_slot)) is sugar for it, so
//! protocols written against the paper's one-channel model run unchanged on
//! any `ChannelSet` whose channel 0 they are attached to.

use netsim_graph::NodeId;

/// Identifier of one channel of a [`ChannelSet`].
///
/// Channel 0 ([`ChannelId::DEFAULT`]) is the paper's single multiaccess
/// channel; higher ids address the additional carriers of a multi-channel
/// deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u16);

impl ChannelId {
    /// The default channel, used by the single-channel convenience API.
    pub const DEFAULT: ChannelId = ChannelId(0);

    /// The channel's index within its [`ChannelSet`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Maximum number of channels in a [`ChannelSet`] (attachment is stored as a
/// per-node `u64` bitmask).
pub const MAX_CHANNELS: u16 = 64;

/// A set of `K` slotted collision channels with per-node attachment.
///
/// The engines resolve one slot per channel per round.  Attachment governs
/// both directions: a node may only write to channels it is attached to
/// (writing elsewhere panics, like sending to a non-neighbour), and it
/// observes [`SlotOutcome::Idle`] on channels it is not attached to.
///
/// `K` is capped at [`MAX_CHANNELS`] (64) so an attachment fits in one
/// machine word per node — the engines test a single bit on the hot path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelSet {
    /// Number of channels.
    k: u16,
    /// Per-node attachment bitmasks (`masks[v] & (1 << c)` set iff node `v`
    /// is attached to channel `c`); `None` means every node is attached to
    /// every channel.
    masks: Option<Vec<u64>>,
}

impl ChannelSet {
    /// The paper's model: one channel, every node attached.
    pub fn single() -> Self {
        ChannelSet::uniform(1)
    }

    /// `k` channels, every node attached to all of them.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= MAX_CHANNELS`.
    pub fn uniform(k: u16) -> Self {
        assert!(
            (1..=MAX_CHANNELS).contains(&k),
            "channel count {k} outside 1..={MAX_CHANNELS}"
        );
        ChannelSet { k, masks: None }
    }

    /// `k` channels with explicit per-node attachment bitmasks (one `u64`
    /// per node, bit `c` = attached to channel `c`).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= MAX_CHANNELS`, or if a mask has a bit set at
    /// or above `k`.
    pub fn from_masks(k: u16, masks: Vec<u64>) -> Self {
        assert!(
            (1..=MAX_CHANNELS).contains(&k),
            "channel count {k} outside 1..={MAX_CHANNELS}"
        );
        let all = Self::full_mask(k);
        for (v, &m) in masks.iter().enumerate() {
            assert!(
                m & !all == 0,
                "node {v} attachment mask {m:#x} addresses channels >= {k}"
            );
        }
        ChannelSet {
            k,
            masks: Some(masks),
        }
    }

    /// `k` channels with each of `n` nodes attached to exactly the one
    /// channel `assign(v)` returns — the *sharded* layout used by the
    /// channel-sharded global-function scenarios.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= MAX_CHANNELS`, or if `assign` returns a
    /// channel `>= k`.
    pub fn sharded<F: FnMut(NodeId) -> ChannelId>(k: u16, n: usize, mut assign: F) -> Self {
        assert!(
            (1..=MAX_CHANNELS).contains(&k),
            "channel count {k} outside 1..={MAX_CHANNELS}"
        );
        let masks = (0..n)
            .map(|v| {
                let c = assign(NodeId(v));
                assert!(
                    c.0 < k,
                    "node {v} assigned to channel {} of a {k}-channel set",
                    c.0
                );
                1u64 << c.0
            })
            .collect();
        ChannelSet {
            k,
            masks: Some(masks),
        }
    }

    /// Number of channels `K`.
    pub fn channels(&self) -> u16 {
        self.k
    }

    /// Replaces the per-node attachment with a new snapshot, one bitmask per
    /// node (bit `c` = attached to channel `c`) — the **dynamic attachment**
    /// primitive behind phase-boundary re-attachment (e.g. the channel-
    /// sharded MST re-attaching a merged fragment to its winner's channel
    /// between merge phases).
    ///
    /// # Determinism contract
    ///
    /// The new attachment is a pure *snapshot*: the resulting set is exactly
    /// [`ChannelSet::from_masks`]`(k, masks)` regardless of the set's
    /// history, so any sequence of re-attachments collapses to the last one
    /// (pinned by the `channel_properties` proptests).  When an engine
    /// applies the snapshot **between rounds** (see
    /// [`EngineControl::reattach`](crate::EngineControl::reattach)), the next
    /// round's steps observe the *previous* round's slot outcomes gated by
    /// the **new** masks, and write gating uses the new masks too; writes
    /// already staged under the old attachment still resolve.  The snapshot
    /// never reallocates once a table exists (the masks are copied in
    /// place), so phase boundaries stay off the allocation hot path.
    ///
    /// # Panics
    ///
    /// Panics if a mask addresses a channel at or beyond `K`, or if the set
    /// already has an attachment table of a different node count.
    pub fn reattach(&mut self, masks: &[u64]) {
        let all = Self::full_mask(self.k);
        for (v, &m) in masks.iter().enumerate() {
            assert!(
                m & !all == 0,
                "node {v} attachment mask {m:#x} addresses channels >= {}",
                self.k
            );
        }
        match &mut self.masks {
            Some(table) => {
                assert_eq!(
                    table.len(),
                    masks.len(),
                    "re-attachment covers {} nodes, table has {}",
                    masks.len(),
                    table.len()
                );
                table.copy_from_slice(masks);
            }
            None => self.masks = Some(masks.to_vec()),
        }
    }

    /// Attachment bitmask of node `v` (bit `c` set iff attached to channel `c`).
    pub fn mask(&self, v: NodeId) -> u64 {
        match &self.masks {
            None => Self::full_mask(self.k),
            Some(masks) => masks[v.index()],
        }
    }

    /// Returns `true` when node `v` is attached to channel `chan`.
    pub fn is_attached(&self, v: NodeId, chan: ChannelId) -> bool {
        chan.0 < self.k && self.mask(v) & (1 << chan.0) != 0
    }

    /// Number of nodes the attachment table covers (`None` for uniform sets,
    /// which cover any node count).  Execution substrates (the engines, the
    /// `netsim-io` wire backend) validate this against their graph before a
    /// run starts.
    pub fn table_len(&self) -> Option<usize> {
        self.masks.as_ref().map(Vec::len)
    }

    /// The per-node attachment table, or `None` for uniform sets (every node
    /// attached to every channel). Sparse stepping uses this to wake exactly
    /// the nodes that will observe a non-idle slot outcome next round.
    pub(crate) fn masks_table(&self) -> Option<&[u64]> {
        self.masks.as_deref()
    }

    /// Attachment bitmask covering every channel of a `k`-channel set; the
    /// single source of the shift-overflow-sensitive expression (also used
    /// by the detached [`RoundIo`](crate::RoundIo) constructors).
    pub(crate) fn full_mask(k: u16) -> u64 {
        if k as u32 >= 64 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }
}

impl Default for ChannelSet {
    fn default() -> Self {
        ChannelSet::single()
    }
}

/// Outcome of one channel slot, as observed by **every** node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlotOutcome<M> {
    /// Nobody wrote in this slot.
    Idle,
    /// Exactly one node wrote; all nodes hear the message.
    Success {
        /// The node whose write succeeded.
        from: NodeId,
        /// The broadcast message.
        msg: M,
    },
    /// Two or more nodes wrote; everyone detects the collision but no
    /// message content is delivered.
    Collision,
    /// The slot carried at least one write but an injected channel fault
    /// erased it: every attached node hears the distinguished erasure
    /// feedback (the slot was audibly busy) but no message content and no
    /// collision/success classification is delivered.
    ///
    /// Erasures are produced only by a [`FaultPlan`](crate::FaultPlan) and
    /// only for slots with at least one writer — an idle slot stays
    /// [`SlotOutcome::Idle`] even when scheduled for erasure, so a fault-free
    /// execution can never observe this variant.  The exact application
    /// point is pinned in the [`fault`](crate::fault) module docs.
    Erased,
}

impl<M> SlotOutcome<M> {
    /// Returns `true` for [`SlotOutcome::Idle`].
    pub fn is_idle(&self) -> bool {
        matches!(self, SlotOutcome::Idle)
    }

    /// Returns `true` for [`SlotOutcome::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, SlotOutcome::Success { .. })
    }

    /// Returns `true` for [`SlotOutcome::Collision`].
    pub fn is_collision(&self) -> bool {
        matches!(self, SlotOutcome::Collision)
    }

    /// Returns `true` for [`SlotOutcome::Erased`].
    pub fn is_erased(&self) -> bool {
        matches!(self, SlotOutcome::Erased)
    }

    /// The delivered message, when the slot was a success.
    pub fn message(&self) -> Option<&M> {
        match self {
            SlotOutcome::Success { msg, .. } => Some(msg),
            _ => None,
        }
    }

    /// The successful writer, when the slot was a success.
    pub fn sender(&self) -> Option<NodeId> {
        match self {
            SlotOutcome::Success { from, .. } => Some(*from),
            _ => None,
        }
    }

    /// The same outcome over `f` of the winning message — how the flat
    /// engine's handle-carrying outcomes (`SlotOutcome<PayloadHandle>`)
    /// resolve against the delivery arena.
    pub(crate) fn map<'s, N>(&'s self, f: impl FnOnce(&'s M) -> N) -> SlotOutcome<N> {
        match self {
            SlotOutcome::Idle => SlotOutcome::Idle,
            SlotOutcome::Success { from, msg } => SlotOutcome::Success {
                from: *from,
                msg: f(msg),
            },
            SlotOutcome::Collision => SlotOutcome::Collision,
            SlotOutcome::Erased => SlotOutcome::Erased,
        }
    }
}

/// Outcome of one channel's **lane sub-slot**, as observed by every attached
/// node.
///
/// Lanes are the word-wide *bit-parallel* sibling of the message slot: each
/// round, every channel resolves — next to its ordinary [`SlotOutcome`] — one
/// lane word formed as the **bitwise OR** of every `u64` staged through
/// [`RoundIo::write_lanes_on`](crate::RoundIo::write_lanes_on) on that
/// channel.  Unlike the message slot there is no collision: concurrent
/// writers *merge*, which is exactly the busy/idle-per-bit feedback 64
/// concurrent bitwise elections need (each election occupies one bit lane;
/// a set bit means "some contender of this lane transmitted").
///
/// The lane sub-slot is independent of the message slot of the same channel
/// and round: a protocol may stage both a message write and a lane write,
/// and each resolves on its own.  Fault semantics mirror the message slot —
/// an injected erasure (same `(round, channel)` draw as
/// [`SlotOutcome::Erased`]) destroys a *busy* lane word in flight, and a
/// seeded corruption fault may flip one bit of a busy word (counted in
/// [`CostAccount::corrupted_payloads`](crate::CostAccount)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LaneOutcome {
    /// Nobody staged a lane write on this channel this round.
    Idle,
    /// At least one node wrote; the word is the OR of every staged word
    /// (after any injected corruption bit-flip).
    Word(u64),
    /// The sub-slot carried at least one write but an injected channel fault
    /// erased it: attached nodes hear that the lanes were busy but learn no
    /// word.  Like [`SlotOutcome::Erased`], fault-free executions never
    /// observe this variant.
    Erased,
}

impl LaneOutcome {
    /// Returns `true` for [`LaneOutcome::Idle`].
    pub fn is_idle(&self) -> bool {
        matches!(self, LaneOutcome::Idle)
    }

    /// Returns `true` for [`LaneOutcome::Erased`].
    pub fn is_erased(&self) -> bool {
        matches!(self, LaneOutcome::Erased)
    }

    /// The resolved word, when the sub-slot was busy and not erased.
    pub fn word(&self) -> Option<u64> {
        match self {
            LaneOutcome::Word(w) => Some(*w),
            _ => None,
        }
    }
}

/// Resolves every channel's lane sub-slot from the flat list of
/// `(channel, writer, word)` attempts: the outcome of channel `c` is the OR
/// of every word staged on it ([`LaneOutcome::Idle`] with zero writers).
/// The clone-free sibling of [`resolve_slots`], used by the reference
/// engine; the other substrates fold through
/// [`ChannelFold`](crate::ChannelFold) instead.
///
/// # Panics
///
/// Panics if a write addresses a channel at or beyond `k`.
pub fn resolve_lanes(k: u16, writes: &[(ChannelId, NodeId, u64)]) -> Vec<LaneOutcome> {
    let mut out: Vec<LaneOutcome> = (0..k).map(|_| LaneOutcome::Idle).collect();
    for (chan, from, word) in writes {
        assert!(
            chan.0 < k,
            "{from:?} wrote lanes on {chan:?} of a {k}-channel set"
        );
        let lane = &mut out[chan.index()];
        *lane = match *lane {
            LaneOutcome::Idle => LaneOutcome::Word(*word),
            LaneOutcome::Word(w) => LaneOutcome::Word(w | *word),
            LaneOutcome::Erased => unreachable!("erasure happens post-fold"),
        };
    }
    out
}

/// Resolves a slot from the list of `(writer, message)` attempts.
///
/// When several nodes write, the outcome is a collision and the message
/// contents are discarded, matching the model (no capture effect).
pub fn resolve_slot<M: Clone>(writes: &[(NodeId, M)]) -> SlotOutcome<M> {
    match writes {
        [] => SlotOutcome::Idle,
        [(from, msg)] => SlotOutcome::Success {
            from: *from,
            msg: msg.clone(),
        },
        _ => SlotOutcome::Collision,
    }
}

/// Resolves every channel of a `k`-channel set from the flat list of
/// `(channel, writer, message)` attempts, cloning each winning message into
/// its outcome — the **clone path** used by the
/// [`ReferenceEngine`](crate::ReferenceEngine) (the other substrates fold
/// through [`ChannelFold`](crate::ChannelFold)).  Attempts on the same channel may appear anywhere
/// in the list; the outcome of every channel is independent of the order of
/// `writes` (property-tested in `tests/channel_properties.rs`).
///
/// # Panics
///
/// Panics if a write addresses a channel at or beyond `k`.
pub fn resolve_slots<M: Clone>(k: u16, writes: &[(ChannelId, NodeId, M)]) -> Vec<SlotOutcome<M>> {
    let mut out: Vec<SlotOutcome<M>> = (0..k).map(|_| SlotOutcome::Idle).collect();
    for (chan, from, msg) in writes {
        assert!(
            chan.0 < k,
            "{from:?} wrote to {chan:?} of a {k}-channel set"
        );
        let slot = &mut out[chan.index()];
        *slot = match slot {
            SlotOutcome::Idle => SlotOutcome::Success {
                from: *from,
                msg: msg.clone(),
            },
            _ => SlotOutcome::Collision,
        };
    }
    out
}

/// Ternary channel feedback without message content, used where only the
/// slot state (idle / success / collision) matters — e.g. the busy-tone
/// synchronizer of Section 7.1 and the slotting construction of Section 7.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SlotState {
    /// Zero writers.
    Idle,
    /// One writer.
    Success,
    /// Two or more writers.
    Collision,
    /// One or more writers, but the slot was erased by an injected fault.
    Erased,
}

impl<M> From<&SlotOutcome<M>> for SlotState {
    fn from(o: &SlotOutcome<M>) -> Self {
        match o {
            SlotOutcome::Idle => SlotState::Idle,
            SlotOutcome::Success { .. } => SlotState::Success,
            SlotOutcome::Collision => SlotState::Collision,
            SlotOutcome::Erased => SlotState::Erased,
        }
    }
}

impl<M> From<SlotOutcome<M>> for SlotState {
    fn from(o: SlotOutcome<M>) -> Self {
        SlotState::from(&o)
    }
}

/// Converts an **unslotted** channel into a slotted one using a second
/// (FDMA) carrier, following Section 7.2 of the paper: every node that is
/// still active in the current slot transmits a busy tone on the extra
/// carrier; the first idle period on that carrier marks the slot boundary.
///
/// The simulation works in fine-grained *ticks*.  Each active node keeps its
/// busy tone up for the (integer) number of ticks its transmission needs;
/// the slot ends at the first tick in which no busy tone is heard.  The
/// function returns the number of ticks each of the `durations.len()` slots
/// lasted, demonstrating that the construction yields well-defined slot
/// boundaries whose length adapts to the slowest writer.
///
/// `durations[s]` holds the per-node transmission lengths (in ticks) of the
/// nodes active in slot `s`; an empty list yields the minimum slot length of
/// one tick (the idle period itself).
pub fn fdma_slot_lengths(durations: &[Vec<u32>]) -> Vec<u32> {
    durations
        .iter()
        .map(|active| active.iter().copied().max().unwrap_or(0) + 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_idle_success_collision() {
        let empty: Vec<(NodeId, u32)> = vec![];
        assert!(resolve_slot(&empty).is_idle());

        let one = vec![(NodeId(3), 42u32)];
        let out = resolve_slot(&one);
        assert!(out.is_success());
        assert_eq!(out.sender(), Some(NodeId(3)));
        assert_eq!(out.message(), Some(&42));

        let two = vec![(NodeId(1), 1u32), (NodeId(2), 2u32)];
        let out = resolve_slot(&two);
        assert!(out.is_collision());
        assert_eq!(out.message(), None);
        assert_eq!(out.sender(), None);
    }

    #[test]
    fn slot_state_from_outcome() {
        let o: SlotOutcome<u8> = SlotOutcome::Idle;
        assert_eq!(SlotState::from(&o), SlotState::Idle);
        let o = SlotOutcome::Success {
            from: NodeId(0),
            msg: 7u8,
        };
        assert_eq!(SlotState::from(&o), SlotState::Success);
        let o: SlotOutcome<u8> = SlotOutcome::Collision;
        assert_eq!(SlotState::from(&o), SlotState::Collision);
        let o: SlotOutcome<u8> = SlotOutcome::Erased;
        assert_eq!(SlotState::from(&o), SlotState::Erased);
        assert!(o.is_erased());
        assert!(!o.is_idle() && !o.is_success() && !o.is_collision());
        assert_eq!(o.message(), None);
        assert_eq!(o.sender(), None);
    }

    #[test]
    fn fdma_slots_adapt_to_slowest_writer() {
        let lens = fdma_slot_lengths(&[vec![3, 1, 2], vec![], vec![5]]);
        assert_eq!(lens, vec![4, 1, 6]);
    }

    #[test]
    fn resolve_slots_is_per_channel() {
        let writes = vec![
            (ChannelId(1), NodeId(0), 10u32),
            (ChannelId(0), NodeId(1), 20),
            (ChannelId(1), NodeId(2), 30),
            (ChannelId(3), NodeId(3), 40),
        ];
        let out = resolve_slots(4, &writes);
        assert!(out[0].is_success());
        assert_eq!(out[0].sender(), Some(NodeId(1)));
        assert!(out[1].is_collision());
        assert!(out[2].is_idle());
        assert_eq!(out[3].message(), Some(&40));
    }

    #[test]
    fn resolve_lanes_or_merges_per_channel() {
        let writes = vec![
            (ChannelId(1), NodeId(0), 0b0011u64),
            (ChannelId(1), NodeId(2), 0b0110),
            (ChannelId(3), NodeId(3), 1 << 63),
        ];
        let out = resolve_lanes(4, &writes);
        assert_eq!(out[0], LaneOutcome::Idle);
        assert!(out[0].is_idle());
        assert_eq!(out[1], LaneOutcome::Word(0b0111));
        assert_eq!(out[1].word(), Some(0b0111));
        assert_eq!(out[2].word(), None);
        assert_eq!(out[3], LaneOutcome::Word(1 << 63));
        assert!(LaneOutcome::Erased.is_erased());
        assert_eq!(LaneOutcome::Erased.word(), None);
    }

    #[test]
    #[should_panic(expected = "wrote lanes on")]
    fn resolve_lanes_rejects_out_of_range_channel() {
        let _ = resolve_lanes(2, &[(ChannelId(2), NodeId(0), 1)]);
    }

    #[test]
    fn channel_set_attachment() {
        let all = ChannelSet::uniform(3);
        assert_eq!(all.channels(), 3);
        assert!(all.is_attached(NodeId(7), ChannelId(2)));
        assert!(!all.is_attached(NodeId(7), ChannelId(3)));
        assert_eq!(all.mask(NodeId(7)), 0b111);
        assert_eq!(all.table_len(), None);

        let sharded = ChannelSet::sharded(4, 8, |v| ChannelId((v.index() % 4) as u16));
        assert!(sharded.is_attached(NodeId(6), ChannelId(2)));
        assert!(!sharded.is_attached(NodeId(6), ChannelId(0)));
        assert_eq!(sharded.table_len(), Some(8));

        let masks = ChannelSet::from_masks(2, vec![0b01, 0b11]);
        assert!(!masks.is_attached(NodeId(0), ChannelId(1)));
        assert!(masks.is_attached(NodeId(1), ChannelId(1)));
        assert_eq!(ChannelSet::default(), ChannelSet::single());
    }

    #[test]
    fn channel_set_full_width_mask() {
        let wide = ChannelSet::uniform(MAX_CHANNELS);
        assert_eq!(wide.mask(NodeId(0)), u64::MAX);
        assert!(wide.is_attached(NodeId(0), ChannelId(63)));
    }

    #[test]
    fn reattach_is_a_pure_snapshot() {
        // From a uniform set: reattaching materialises the table.
        let mut set = ChannelSet::uniform(3);
        set.reattach(&[0b001, 0b010, 0b100]);
        assert_eq!(set, ChannelSet::from_masks(3, vec![0b001, 0b010, 0b100]));
        // History collapses: only the last snapshot matters.
        set.reattach(&[0b111, 0b111, 0b001]);
        set.reattach(&[0b010, 0b001, 0b100]);
        assert_eq!(set, ChannelSet::from_masks(3, vec![0b010, 0b001, 0b100]));
        assert!(set.is_attached(NodeId(0), ChannelId(1)));
        assert!(!set.is_attached(NodeId(0), ChannelId(0)));
        assert_eq!(set.table_len(), Some(3));
    }

    #[test]
    #[should_panic(expected = "addresses channels")]
    fn reattach_mask_out_of_range_rejected() {
        let mut set = ChannelSet::uniform(2);
        set.reattach(&[0b01, 0b100]);
    }

    #[test]
    #[should_panic(expected = "re-attachment covers")]
    fn reattach_node_count_mismatch_rejected() {
        let mut set = ChannelSet::from_masks(2, vec![0b01, 0b10]);
        set.reattach(&[0b01]);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn zero_channels_rejected() {
        let _ = ChannelSet::uniform(0);
    }

    #[test]
    #[should_panic(expected = "assigned to channel")]
    fn sharded_out_of_range_rejected() {
        let _ = ChannelSet::sharded(2, 3, |_| ChannelId(2));
    }

    #[test]
    #[should_panic(expected = "addresses channels")]
    fn mask_out_of_range_rejected() {
        let _ = ChannelSet::from_masks(2, vec![0b100]);
    }

    /// The resolve core against the reference functions and the plan's own
    /// draws: for every writer count × lane writer count × plan on K = 2,
    /// the verdict, the lane outcome and both accounts are what
    /// `resolve_slots` / `resolve_lanes` + `FaultPlan` give.  Then the
    /// pooled [`ChannelFold`] the substrates settle through, over seeded
    /// random rounds of writes on K = 3 under the same plans: the same slot
    /// outcomes (winners included) and lane outcomes as the reference
    /// resolution + plan draws, every discarded payload handed back, the
    /// same accounts as settling each channel on its own, and the busy mask
    /// of the channels that carried a write.
    #[test]
    fn settle_core_matches_reference_resolution_and_plan_draws() {
        use crate::fault::{FaultPlan, FaultSession};
        use crate::metrics::CostAccount;
        use crate::round::{settle_lanes, settle_slot, ChannelFold};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let plans = [
            None,
            Some(FaultPlan::from_rates(3, 1.0, 0.0, 0.0, 0.0)),
            Some(FaultPlan::none().with_corruption(1.0)),
            Some(FaultPlan::from_rates(3, 1.0, 0.0, 0.0, 0.0).with_corruption(1.0)),
        ];
        let (k, round) = (2u16, 5u64);
        for plan in &plans {
            let session = plan.clone().map(|p| FaultSession::new(p, 4));
            for (w, lw, c) in (0..4u64)
                .flat_map(|w| (0..3u64).flat_map(move |lw| (0..k).map(move |c| (w, lw, c))))
            {
                let chan = ChannelId(c);
                let writes: Vec<_> = (0..w).map(|i| (chan, NodeId(i as usize), i)).collect();
                let lanes: Vec<_> = (0..lw)
                    .map(|i| (chan, NodeId(i as usize), 1u64 << (7 * i)))
                    .collect();
                let erased = plan.as_ref().is_some_and(|p| p.erases_slot(round, chan));
                let flip = plan.as_ref().and_then(|p| p.corrupts_lane(round, chan));

                let (mut want, mut want_chan) = (CostAccount::new(), CostAccount::new());
                want_chan.add_round();
                let mut want_state = SlotState::from(&resolve_slots(k, &writes)[chan.index()]);
                for cost in [&mut want, &mut want_chan] {
                    if w > 0 && erased {
                        cost.add_erased_slot(w);
                    } else {
                        cost.add_channel_slot(w);
                    }
                }
                if w > 0 && erased {
                    want_state = SlotState::Erased;
                }
                let mut want_lane = resolve_lanes(k, &lanes)[chan.index()];
                if let LaneOutcome::Word(word) = want_lane {
                    want_lane = match (erased, flip) {
                        (true, _) => LaneOutcome::Erased,
                        (false, Some(bit)) => LaneOutcome::Word(word ^ (1 << bit)),
                        (false, None) => want_lane,
                    };
                    for cost in [&mut want, &mut want_chan] {
                        match want_lane {
                            LaneOutcome::Erased => cost.add_erased_lanes(lw),
                            _ => {
                                cost.add_corrupted_payloads(u64::from(flip.is_some()));
                                cost.add_lane_slot(lw);
                            }
                        }
                    }
                }

                let (mut cost, mut chan_cost) = (CostAccount::new(), CostAccount::new());
                let faults = session.as_ref();
                let state = settle_slot(faults, round, chan, w, &mut cost, &mut chan_cost);
                let word = lanes.iter().fold(0, |acc, l| acc | l.2);
                let lane = settle_lanes(faults, round, chan, lw, word, &mut cost, &mut chan_cost);
                let case = format!("plan {plan:?} w={w} lw={lw} {chan:?}");
                assert_eq!(state, want_state, "{case}");
                assert_eq!(lane, want_lane, "{case}");
                assert_eq!((cost, chan_cost), (want, want_chan), "{case}");
                // An idle slot is never erased, whatever the plan says.
                assert_eq!(state == SlotState::Idle, w == 0, "{case}");
                assert_eq!(lane.is_idle(), lw == 0, "{case}");
            }

            // One fold for every round, so the reset between rounds counts
            // and the accounts accumulate.
            let (k, faults) = (3u16, session.as_ref());
            let mut fold = ChannelFold::new(k);
            let mut want_chan = [CostAccount::new(); 3];
            let mut rng = StdRng::seed_from_u64(29);
            for round in 0..64u64 {
                let mut chan = || ChannelId(rng.gen_range(0..k));
                let writes: Vec<_> = (0..6).map(|i| (chan(), NodeId(i), i)).collect();
                let lanes: Vec<_> = (0..4)
                    .map(|i| (chan(), NodeId(i), 1u64 << (9 * i)))
                    .collect();
                let writes = &writes[..rng.gen_range(0..=6)];
                let lanes = &lanes[..rng.gen_range(0..=4)];
                let mut lost = Vec::new();
                for &(chan, from, msg) in writes {
                    fold.write(chan, from, msg, |m| lost.push(m));
                }
                for &(chan, _, word) in lanes {
                    fold.write_lanes(chan, word);
                }
                let mut cost = CostAccount::new();
                fold.settle(faults, round, &mut cost, |m| lost.push(m));

                let (ref_slots, ref_lanes) = (resolve_slots(k, writes), resolve_lanes(k, lanes));
                let mut want = CostAccount::new();
                want.add_round();
                let mut want_lost: Vec<_> = writes.iter().map(|w| w.2).collect();
                for (c, want_chan) in want_chan.iter_mut().enumerate() {
                    let chan = ChannelId(c as u16);
                    let case = format!("plan {plan:?} round {round} {chan:?}");
                    let erased = plan.as_ref().is_some_and(|p| p.erases_slot(round, chan));
                    let want_slot = match &ref_slots[c] {
                        SlotOutcome::Idle => SlotOutcome::Idle,
                        _ if erased => SlotOutcome::Erased,
                        kept => kept.clone(),
                    };
                    assert_eq!(fold.slots()[c], want_slot, "{case}");
                    want_lost.retain(|&m| want_slot.message() != Some(&m));
                    let want_lane = match ref_lanes[c] {
                        LaneOutcome::Word(_) if erased => LaneOutcome::Erased,
                        LaneOutcome::Word(w) => {
                            match plan.as_ref().and_then(|p| p.corrupts_lane(round, chan)) {
                                Some(bit) => LaneOutcome::Word(w ^ (1 << bit)),
                                None => LaneOutcome::Word(w),
                            }
                        }
                        idle => idle,
                    };
                    assert_eq!(fold.lanes()[c], want_lane, "{case}");
                    let carried = !ref_slots[c].is_idle() || !ref_lanes[c].is_idle();
                    assert_eq!(fold.busy() >> c & 1 == 1, carried, "{case}");
                    let count = |n: usize| n as u64;
                    let w = count(writes.iter().filter(|x| x.0 == chan).count());
                    let lw = count(lanes.iter().filter(|x| x.0 == chan).count());
                    let word = ref_lanes[c].word().unwrap_or(0);
                    settle_slot(faults, round, chan, w, &mut want, want_chan);
                    settle_lanes(faults, round, chan, lw, word, &mut want, want_chan);
                }
                // Every payload but a surviving winner is handed back.
                lost.sort_unstable();
                let case = format!("plan {plan:?} round {round}");
                assert_eq!(lost, want_lost, "{case}");
                assert_eq!((cost, fold.costs()), (want, &want_chan[..]), "{case}");
            }
        }
    }
}
