//! The per-processor protocol interface of the synchronous engine.
//!
//! A multimedia-network algorithm is written as a [`Protocol`] state machine.
//! In every round the engine calls [`Protocol::step`] exactly once per node;
//! the node observes the messages delivered to it (sent by its neighbours in
//! the previous round) and the outcome of the previous channel slot, and
//! decides which point-to-point messages to send and whether to write to the
//! channel in the current slot.  This is the model of Section 2 of the paper.
//!
//! Message plumbing is pooled **and arena-backed**: a step writes its sends
//! into a borrowed [`OutboxBuffer`] owned by the engine (or by the
//! simulation wrapper when using [`RoundIo::detached`]).  The buffer interns
//! each payload once into its [`PayloadArena`] and stages 4-byte
//! [`PayloadHandle`]s — a broadcast stores one payload however many
//! neighbours it reaches — so steady-state rounds perform no heap
//! allocation even for non-`Copy` message types (see the
//! [`payload`](crate::payload) module docs for the epoch discipline).
//! Deliveries are read back through the [`Inbox`] view, which yields
//! `(sender, &payload)` pairs whether the engine stores materialised
//! messages (the reference clone path) or arena handles (the flat engines).

use crate::channel::{ChannelId, LaneOutcome, SlotOutcome};
use crate::payload::{PayloadArena, PayloadHandle};
use netsim_graph::{Neighbors, NodeId};

/// A distributed algorithm, as executed by one processor.
pub trait Protocol {
    /// Message type carried both by the point-to-point links and the channel.
    ///
    /// The paper assumes messages of `O(log n)` bits plus one data element;
    /// protocol implementations should keep their messages within that spirit
    /// (ids, counters, one weight/value), but the engine does not enforce a
    /// bit bound — variable-length multimedia frames (`Vec<u8>` and friends)
    /// are first-class citizens of the arena-backed delivery path.
    type Msg: Clone;

    /// Executes one round.
    ///
    /// Inputs (previous-round deliveries, previous slot outcome) and outputs
    /// (link sends, channel write) are exchanged through `io`.
    fn step(&mut self, io: &mut RoundIo<'_, Self::Msg>);

    /// Returns `true` once this node has terminated locally.
    ///
    /// The engine stops when every node is done and no messages are in
    /// flight.  For the engine's O(1) quiescence tracking to be sound, the
    /// value returned must only change as a result of [`Protocol::step`]
    /// (which is the only way engine users can reach `&mut self` anyway) —
    /// or of [`Protocol::on_recover`], which the engines invoke themselves
    /// and account for.
    fn is_done(&self) -> bool;

    /// Re-initialisation hook fired when a crashed node starts recovering
    /// (the `Crashed → Booting` transition of a
    /// [`FaultPlan`](crate::FaultPlan)'s node lifecycle; see the
    /// [`fault`](crate::fault) module docs).  The node steps again from the
    /// *next* round on; whatever state the crash left behind is whatever
    /// `step` last produced, and this hook is the node's one chance to
    /// re-initialise before rejoining.  The default does nothing (the node
    /// resumes with its pre-crash state).
    fn on_recover(&mut self) {}
}

/// A staged point-to-point message: `(to, from, payload handle)`, the two
/// nodes as 32-bit indices (the graph's CSR index space).
///
/// The payload itself lives in the staging [`PayloadArena`]; the triple is
/// `Copy`, so the engine's bucketing passes move 12-byte records regardless
/// of the message type.
pub(crate) type Staged = (u32, u32, PayloadHandle);
const _: () = assert!(std::mem::size_of::<Staged>() == 12);

/// One flat-engine inbox entry: `(sender index, payload handle)`, 8 bytes;
/// [`Inbox`] hands the sender out as a [`NodeId`].
pub(crate) type Delivery = (u32, PayloadHandle);
const _: () = assert!(std::mem::size_of::<Delivery>() == 8);

/// A reusable buffer of staged sends plus the arena their payloads are
/// interned in, pooled across rounds by the engine.
///
/// Protocol steps append to it through [`RoundIo::send`] /
/// [`RoundIo::send_all`]; the engine (or a simulation wrapper using
/// [`RoundIo::detached`]) drains it afterwards.  Clearing keeps the backing
/// capacity — of the entry vector and of the payload slab — which is what
/// makes steady-state rounds allocation-free.
#[derive(Debug)]
pub struct OutboxBuffer<M> {
    pub(crate) entries: Vec<Staged>,
    pub(crate) arena: PayloadArena<M>,
    /// Channel writes staged this round as `(channel, writer, payload
    /// handle)` triples; the payloads are interned in `arena` next to the
    /// point-to-point ones, which is what lets the flat engines deliver slot
    /// winners by handle instead of cloning them.
    pub(crate) chan_writes: Vec<(ChannelId, NodeId, PayloadHandle)>,
    /// Lane words staged this round as `(channel, writer, word)` triples.
    /// Lane payloads are bare `u64`s (see
    /// [`LaneOutcome`](crate::LaneOutcome)), so they bypass the arena
    /// entirely; same-node same-channel writes are OR-merged at staging
    /// time, keeping at most one entry per `(node, channel)`.
    pub(crate) lane_writes: Vec<(ChannelId, NodeId, u64)>,
    /// Self-scheduled wakeups requested through [`RoundIo::wake_me`]: the
    /// indices of nodes asking to be on the next round's activity frontier.
    /// Engines running dense ignore (and clear) them; the sparse stepping
    /// mode folds them into the frontier.
    pub(crate) wakes: Vec<u32>,
}

impl<M> OutboxBuffer<M> {
    /// An empty buffer.
    pub fn new() -> Self {
        OutboxBuffer {
            entries: Vec::new(),
            arena: PayloadArena::new(),
            chan_writes: Vec::new(),
            lane_writes: Vec::new(),
            wakes: Vec::new(),
        }
    }

    /// Number of staged sends.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no sends are staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes all staged sends and channel writes and expires their payload
    /// epoch, keeping every allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.chan_writes.clear();
        self.lane_writes.clear();
        self.wakes.clear();
        self.arena.expire();
    }

    /// Moves every wakeup requested through [`RoundIo::wake_me`] out of the
    /// buffer, in request order. Simulation wrappers (the reference engine,
    /// the wire backend) forward these onto their own wakeup substrate.
    pub fn take_wakes(&mut self, mut f: impl FnMut(NodeId)) {
        for v in self.wakes.drain(..) {
            f(NodeId(v as usize));
        }
    }

    /// Moves every staged channel write out as `(channel, writer, message)`,
    /// in staging order, leaving the point-to-point sends untouched.
    ///
    /// Simulation wrappers (the reference engine, the wire backend) use
    /// this to forward writes onto their own substrate; it must
    /// run **before** [`OutboxBuffer::drain_sends`], whose completion retires
    /// the payload epoch the write handles point into.
    pub fn take_channel_writes(&mut self, mut f: impl FnMut(ChannelId, NodeId, M)) {
        let OutboxBuffer {
            chan_writes, arena, ..
        } = self;
        for (chan, from, h) in chan_writes.drain(..) {
            f(chan, from, arena.take(h));
        }
    }

    /// Moves every staged lane write out as `(channel, writer, word)`, in
    /// staging order (at most one entry per node and channel — same-node
    /// repeats were OR-merged at staging time).  Simulation wrappers (the
    /// reference engine, the wire backend) use this to forward lane words
    /// onto their own substrate.
    pub fn take_lane_writes(&mut self, mut f: impl FnMut(ChannelId, NodeId, u64)) {
        for (chan, from, word) in self.lane_writes.drain(..) {
            f(chan, from, word);
        }
    }

    /// The staging payload arena (interned payloads of the current epoch).
    pub fn arena(&self) -> &PayloadArena<M> {
        &self.arena
    }

    /// Drains the staged sends as owned `(to, msg)` pairs, reproducing the
    /// seed's pre-arena clone path exactly: a payload is **cloned** while
    /// later entries still share its handle and **moved** out of the arena
    /// on its last use — so a unicast costs no clone and a degree-`d`
    /// broadcast costs `d - 1`, just as when the seed cloned in `send_all`
    /// and moved through the staging buffer.  The
    /// [`ReferenceEngine`](crate::ReferenceEngine) and detached simulation
    /// wrappers use this; the flat engines move handles instead and never
    /// clone.  When the iterator is dropped the payload epoch expires, so
    /// the buffer is immediately reusable (and heap payloads become
    /// recyclable).
    pub fn drain_sends(&mut self) -> DrainSends<'_, M>
    where
        M: Clone,
    {
        DrainSends(self.drain_sends_with_sender())
    }

    /// [`OutboxBuffer::drain_sends`] that also yields each send's staging
    /// node: `(to, from, msg)` triples in staging order, same clone-or-move
    /// and epoch-expiry semantics.  A wrapper that stages *many* nodes'
    /// steps into one buffer before draining it (the wire backend's
    /// round-batched translate pass) needs the sender per entry.
    pub fn drain_sends_with_sender(&mut self) -> DrainSendsWithSender<'_, M>
    where
        M: Clone,
    {
        debug_assert!(
            self.chan_writes.is_empty(),
            "take_channel_writes must run before draining the sends: the \
             drain retires the payload epoch the staged channel writes point \
             into"
        );
        let OutboxBuffer { entries, arena, .. } = self;
        DrainSendsWithSender {
            entries: entries.drain(..),
            arena,
        }
    }

    /// Visits the staged sends as `(to, &payload)` pairs in send order
    /// **without cloning**, then clears the buffer and retires the payload
    /// epoch (heap payloads become recyclable).
    ///
    /// Simulation wrappers that re-wrap payloads into their own message type
    /// use this to clone into *recycled* storage instead of paying a fresh
    /// allocation per send (see the channel synchronizer).
    pub fn drain_sends_by_ref(&mut self, mut f: impl FnMut(NodeId, &M)) {
        debug_assert!(
            self.chan_writes.is_empty(),
            "take_channel_writes must run before draining the sends: the \
             drain retires the payload epoch the staged channel writes point \
             into"
        );
        let OutboxBuffer { entries, arena, .. } = self;
        for (to, _, h) in entries.drain(..) {
            f(NodeId(to as usize), arena.get(h));
        }
        arena.expire();
    }
}

impl<M> Default for OutboxBuffer<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// Draining iterator returned by [`OutboxBuffer::drain_sends`].
#[derive(Debug)]
pub struct DrainSends<'a, M>(DrainSendsWithSender<'a, M>);

impl<'a, M: Clone> Iterator for DrainSends<'a, M> {
    type Item = (NodeId, M);

    fn next(&mut self) -> Option<(NodeId, M)> {
        self.0.next().map(|(to, _, msg)| (to, msg))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// Draining iterator returned by [`OutboxBuffer::drain_sends_with_sender`].
#[derive(Debug)]
pub struct DrainSendsWithSender<'a, M> {
    entries: std::vec::Drain<'a, Staged>,
    arena: &'a mut PayloadArena<M>,
}

impl<'a, M: Clone> Iterator for DrainSendsWithSender<'a, M> {
    type Item = (NodeId, NodeId, M);

    fn next(&mut self) -> Option<(NodeId, NodeId, M)> {
        let (to, from, h) = self.entries.next()?;
        // A handle's staged entries are contiguous (one `send` / `send_all`
        // call at a time appends them), so this entry is the payload's last
        // use exactly when the next entry carries a different handle — clone
        // for shared earlier uses, move on the last.
        let shared_ahead = self
            .entries
            .as_slice()
            .first()
            .is_some_and(|&(_, _, ahead)| ahead == h);
        let msg = if shared_ahead {
            self.arena.get(h).clone()
        } else {
            self.arena.take(h)
        };
        Some((NodeId(to as usize), NodeId(from as usize), msg))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl<'a, M> Drop for DrainSendsWithSender<'a, M> {
    fn drop(&mut self) {
        // End of the staging epoch: undrained entries are discarded by the
        // inner `Drain`, and every payload is retired (heap payloads move to
        // the graveyard for recycling).
        self.arena.expire();
    }
}

/// Read-only view of one node's deliveries for the current round, yielding
/// `(sender, &payload)` pairs ordered by the sender's node index.
///
/// The two variants correspond to the two delivery substrates: materialised
/// `(from, msg)` pairs (reference engine, detached wrappers) and arena
/// handles resolved against a [`PayloadArena`] (the flat engines).  Protocol
/// code cannot tell them apart — which is precisely what the
/// `engine_conformance` suite checks.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    entries: InboxEntries<'a, M>,
}

#[derive(Debug)]
enum InboxEntries<'a, M> {
    /// Materialised messages (one owned `M` per delivery).
    Direct(&'a [(NodeId, M)]),
    /// Arena handles (one interned `M` per *send*, shared by broadcasts).
    Arena {
        entries: &'a [Delivery],
        payloads: &'a PayloadArena<M>,
    },
}

impl<'a, M> InboxEntries<'a, M> {
    /// The `i`-th delivery, senders converted to [`NodeId`] at this boundary.
    #[inline]
    fn get(self, i: usize) -> Option<(NodeId, &'a M)> {
        match self {
            InboxEntries::Direct(s) => s.get(i).map(|(from, m)| (*from, m)),
            InboxEntries::Arena { entries, payloads } => entries
                .get(i)
                .map(|&(from, h)| (NodeId(from as usize), payloads.get(h))),
        }
    }
}

impl<'a, M> Clone for Inbox<'a, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, M> Copy for Inbox<'a, M> {}
impl<'a, M> Clone for InboxEntries<'a, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, M> Copy for InboxEntries<'a, M> {}

impl<'a, M> Inbox<'a, M> {
    /// A view over materialised `(sender, message)` pairs; the constructor
    /// used by detached simulation wrappers and the reference engine.
    pub fn direct(entries: &'a [(NodeId, M)]) -> Self {
        Inbox {
            entries: InboxEntries::Direct(entries),
        }
    }

    /// A view over arena handles; used by the flat engines.
    pub(crate) fn arena(entries: &'a [Delivery], payloads: &'a PayloadArena<M>) -> Self {
        Inbox {
            entries: InboxEntries::Arena { entries, payloads },
        }
    }

    /// An empty inbox.
    pub fn empty() -> Self {
        Inbox {
            entries: InboxEntries::Direct(&[]),
        }
    }

    /// Number of messages delivered this round.
    pub fn len(&self) -> usize {
        match self.entries {
            InboxEntries::Direct(s) => s.len(),
            InboxEntries::Arena { entries, .. } => entries.len(),
        }
    }

    /// `true` when nothing was delivered this round.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th delivery (senders ascending), if any.
    pub fn get(&self, i: usize) -> Option<(NodeId, &'a M)> {
        self.entries.get(i)
    }

    /// The first delivery, if any.
    pub fn first(&self) -> Option<(NodeId, &'a M)> {
        self.get(0)
    }

    /// Iterates the deliveries as `(sender, &payload)` pairs, ordered by
    /// sender node index (then send order within one sender).
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            entries: self.entries,
            next: 0,
        }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = (NodeId, &'a M);
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

impl<'a, M> IntoIterator for &Inbox<'a, M> {
    type Item = (NodeId, &'a M);
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`], yielding `(sender, &payload)` pairs.
#[derive(Clone, Debug)]
pub struct InboxIter<'a, M> {
    entries: InboxEntries<'a, M>,
    next: usize,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (NodeId, &'a M);

    fn next(&mut self) -> Option<(NodeId, &'a M)> {
        let item = self.entries.get(self.next);
        if item.is_some() {
            self.next += 1;
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = match self.entries {
            InboxEntries::Direct(s) => s.len().saturating_sub(self.next),
            InboxEntries::Arena { entries, .. } => entries.len().saturating_sub(self.next),
        };
        (remaining, Some(remaining))
    }
}

impl<'a, M> ExactSizeIterator for InboxIter<'a, M> {}

/// Read-only view of the previous round's per-channel slot outcomes, the
/// slot-side sibling of [`Inbox`]: materialised outcomes (reference engine,
/// detached wrappers) or handle-based outcomes resolved against the delivery
/// [`PayloadArena`] (the flat engines — where a slot winner is therefore
/// delivered without ever being cloned).
#[derive(Debug)]
pub(crate) enum Slots<'a, M> {
    /// One owned [`SlotOutcome`] per channel.
    Direct(&'a [SlotOutcome<M>]),
    /// One handle-carrying outcome per channel, winners resolved in
    /// `payloads`.
    Arena {
        outcomes: &'a [SlotOutcome<PayloadHandle>],
        payloads: &'a PayloadArena<M>,
    },
}

impl<'a, M> Clone for Slots<'a, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, M> Copy for Slots<'a, M> {}

impl<'a, M> Slots<'a, M> {
    fn len(&self) -> usize {
        match self {
            Slots::Direct(s) => s.len(),
            Slots::Arena { outcomes, .. } => outcomes.len(),
        }
    }

    fn get(&self, c: usize) -> SlotOutcome<&'a M> {
        match *self {
            Slots::Direct(s) => s[c].map(|msg| msg),
            Slots::Arena { outcomes, payloads } => outcomes[c].map(|&h| payloads.get(h)),
        }
    }
}

/// Per-round input/output window handed to [`Protocol::step`].
#[derive(Debug)]
pub struct RoundIo<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) round: u64,
    pub(crate) neighbors: Neighbors<'a>,
    pub(crate) inbox: Inbox<'a, M>,
    /// Previous round's outcome of every channel of the set.
    pub(crate) slots: Slots<'a, M>,
    /// Previous round's lane sub-slot outcome of every channel; an empty
    /// slice (the detached default) reads as all-[`LaneOutcome::Idle`].
    pub(crate) lanes: &'a [LaneOutcome],
    /// Bitmask of the channels this node is attached to.
    pub(crate) attached: u64,
    pub(crate) outbox: &'a mut OutboxBuffer<M>,
}

impl<'a, M: Clone> RoundIo<'a, M> {
    /// Builds a detached single-channel `RoundIo`, outside of a
    /// [`SyncEngine`](crate::SyncEngine) run.
    ///
    /// This is the hook used by *simulation wrappers* such as the channel
    /// synchronizer of the paper's Section 7.1: the wrapper drives an
    /// existing synchronous [`Protocol`] round by round on a different
    /// substrate (e.g. an asynchronous engine) by constructing the round
    /// window itself and collecting the outputs.  The sends of the step land
    /// in `outbox` (drain them with [`OutboxBuffer::drain_sends`]); the
    /// channel write is returned by [`RoundIo::finish`].  Reusing one
    /// `OutboxBuffer` across rounds keeps the wrapper allocation-free too.
    /// Multi-channel wrappers use [`RoundIo::detached_multi`] instead.
    pub fn detached(
        node: NodeId,
        round: u64,
        neighbors: Neighbors<'a>,
        inbox: Inbox<'a, M>,
        prev_slot: &'a SlotOutcome<M>,
        outbox: &'a mut OutboxBuffer<M>,
    ) -> Self {
        RoundIo::detached_multi(
            node,
            round,
            neighbors,
            inbox,
            std::slice::from_ref(prev_slot),
            outbox,
        )
    }

    /// Builds a detached `RoundIo` over a `K`-channel set, with one
    /// materialised [`SlotOutcome`] per channel.  By default the node is
    /// attached to every channel of the slice; chain
    /// [`RoundIo::with_attachment`] to replay a sharded attachment.  Collect
    /// the writes afterwards with [`OutboxBuffer::take_channel_writes`] —
    /// before draining the sends.
    pub fn detached_multi(
        node: NodeId,
        round: u64,
        neighbors: Neighbors<'a>,
        inbox: Inbox<'a, M>,
        prev_slots: &'a [SlotOutcome<M>],
        outbox: &'a mut OutboxBuffer<M>,
    ) -> Self {
        let k = prev_slots.len();
        assert!(
            (1..=crate::channel::MAX_CHANNELS as usize).contains(&k),
            "detached RoundIo needs 1..=64 channel outcomes, got {k}"
        );
        assert!(
            u32::try_from(node.index()).is_ok(),
            "{node:?} is beyond the 32-bit node index space"
        );
        RoundIo {
            node,
            round,
            neighbors,
            inbox,
            slots: Slots::Direct(prev_slots),
            lanes: &[],
            attached: crate::channel::ChannelSet::full_mask(k as u16),
            outbox,
        }
    }

    /// Attaches the previous round's per-channel lane outcomes to a detached
    /// window (the default is all-idle).  Wrappers replaying lane-writing
    /// protocols (the async lockstep adapter) chain this so
    /// [`RoundIo::prev_lanes_on`] observes the real sub-slot feedback.
    ///
    /// # Panics
    ///
    /// Panics unless the slice covers exactly the window's channel count.
    pub fn with_lanes(mut self, lanes: &'a [LaneOutcome]) -> Self {
        assert_eq!(
            lanes.len(),
            self.slots.len(),
            "lane outcomes cover {} channels, window has {}",
            lanes.len(),
            self.slots.len()
        );
        self.lanes = lanes;
        self
    }

    /// Restricts a detached window to an explicit attachment bitmask, so
    /// wrappers replaying a sharded [`ChannelSet`](crate::ChannelSet) gate
    /// [`RoundIo::is_attached`] / [`RoundIo::write_channel_on`] exactly as
    /// the engines do (the async lockstep conformance adapter uses this).
    ///
    /// # Panics
    ///
    /// Panics if the mask addresses a channel outside the window's slot
    /// slice.
    pub fn with_attachment(mut self, mask: u64) -> Self {
        let k = self.slots.len();
        let full = crate::channel::ChannelSet::full_mask(k as u16);
        assert!(
            mask & !full == 0,
            "attachment mask {mask:#x} addresses channels >= {k}"
        );
        self.attached = mask;
        self
    }

    /// Consumes the window, returning the write staged on the **default**
    /// channel during the step (the link sends are in the `OutboxBuffer` the
    /// window was built over; writes on other channels stay staged for
    /// [`OutboxBuffer::take_channel_writes`]).
    pub fn finish(self) -> Option<M> {
        let pos = self
            .outbox
            .chan_writes
            .iter()
            .position(|&(chan, from, _)| chan == ChannelId::DEFAULT && from == self.node)?;
        let (_, _, h) = self.outbox.chan_writes.remove(pos);
        Some(self.outbox.arena.take(h))
    }

    /// The identity of the executing node.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The current round number (first round is 0).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The node's incident links as a CSR [`Neighbors`] view (iterates
    /// `(neighbour, edge id)` pairs), in the graph's ascending
    /// edge-weight order.
    pub fn neighbors(&self) -> Neighbors<'a> {
        self.neighbors
    }

    /// Number of incident links.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Messages delivered this round (sent by neighbours in the previous
    /// round), as an [`Inbox`] view ordered by the sender's node index.
    pub fn inbox(&self) -> Inbox<'a, M> {
        self.inbox
    }

    /// Outcome of the previous slot of the **default** channel
    /// ([`ChannelId::DEFAULT`]), as heard by every attached node; sugar for
    /// [`RoundIo::prev_slot_on`].
    ///
    /// In round 0 this is [`SlotOutcome::Idle`].
    pub fn prev_slot(&self) -> SlotOutcome<&'a M> {
        self.prev_slot_on(ChannelId::DEFAULT)
    }

    /// Outcome of the previous slot of channel `chan`.
    ///
    /// The winning message is borrowed from wherever the substrate keeps it:
    /// the round's delivery [`PayloadArena`] on the flat engines (the winner
    /// is delivered *by handle*, never cloned) or a materialised outcome on
    /// the clone-path reference engine and detached wrappers.  A node that
    /// is not attached to `chan` observes [`SlotOutcome::Idle`].
    ///
    /// # Panics
    ///
    /// Panics if `chan` is not a channel of the engine's
    /// [`ChannelSet`](crate::ChannelSet).
    pub fn prev_slot_on(&self, chan: ChannelId) -> SlotOutcome<&'a M> {
        let c = chan.index();
        assert!(
            c < self.slots.len(),
            "{:?} read {chan:?} of a {}-channel set",
            self.node,
            self.slots.len()
        );
        if self.attached & (1 << c) == 0 {
            return SlotOutcome::Idle;
        }
        self.slots.get(c)
    }

    /// Outcome of the previous round's **lane sub-slot** of channel `chan`
    /// (see [`LaneOutcome`]): the OR of every word staged there through
    /// [`RoundIo::write_lanes_on`], independent of the channel's message
    /// slot.  A node that is not attached to `chan` observes
    /// [`LaneOutcome::Idle`]; in round 0 every channel reads idle.
    ///
    /// # Panics
    ///
    /// Panics if `chan` is not a channel of the engine's
    /// [`ChannelSet`](crate::ChannelSet).
    pub fn prev_lanes_on(&self, chan: ChannelId) -> LaneOutcome {
        let c = chan.index();
        assert!(
            c < self.slots.len(),
            "{:?} read lanes on {chan:?} of a {}-channel set",
            self.node,
            self.slots.len()
        );
        if self.attached & (1 << c) == 0 {
            return LaneOutcome::Idle;
        }
        self.lanes.get(c).copied().unwrap_or(LaneOutcome::Idle)
    }

    /// Number of channels `K` of the engine's [`ChannelSet`](crate::ChannelSet).
    pub fn channels(&self) -> u16 {
        self.slots.len() as u16
    }

    /// Returns `true` when this node is attached to channel `chan` (may both
    /// write to it and hear its outcomes).
    pub fn is_attached(&self, chan: ChannelId) -> bool {
        chan.index() < self.slots.len() && self.attached & (1 << chan.index()) != 0
    }

    /// Takes a dead payload from the staging arena for reuse, if one is
    /// available.
    ///
    /// Heap-carrying protocols (`Vec<u8>` frames and the like) overwrite the
    /// returned value in place and pass it back to [`RoundIo::send`] /
    /// [`RoundIo::send_all`], closing the allocation loop: after warm-up the
    /// payload buffers of round `r` become the payload buffers of round
    /// `r + 2` (the arena pair swaps roles every round).  Returns `None` for
    /// payload types without heap storage and while the graveyard is empty.
    pub fn recycle_payload(&mut self) -> Option<M> {
        self.outbox.arena.recycle()
    }

    /// Sends `msg` to the neighbour `to` (delivered at the start of the next
    /// round).
    ///
    /// The payload is interned into the staging arena and staged as a
    /// handle; nothing is cloned.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbour of this node: the point-to-point
    /// medium only connects adjacent processors.
    pub fn send(&mut self, to: NodeId, msg: M) {
        // `contains` never narrows an id beyond the 32-bit row space, so the
        // `as u32` below only ever sees a checked neighbour index.
        assert!(
            self.neighbors.contains(to),
            "{:?} attempted to send to non-neighbour {:?}",
            self.node,
            to
        );
        let h = self.outbox.arena.intern(msg);
        let from = self.node.index() as u32;
        self.outbox.entries.push((to.index() as u32, from, h));
    }

    /// Sends `msg` to every neighbour.
    ///
    /// Intern-on-broadcast: the payload is stored **once** and every
    /// neighbour's delivery entry shares the handle, so a degree-`d`
    /// broadcast costs one payload move plus `d` staged 12-byte records
    /// copied straight off the CSR row — not `d` clones.
    pub fn send_all(&mut self, msg: M) {
        let targets = self.neighbors.targets();
        if targets.is_empty() {
            return;
        }
        let h = self.outbox.arena.intern(msg);
        let from = self.node.index() as u32;
        let staged = targets.iter().map(|&to| (to, from, h));
        self.outbox.entries.extend(staged);
    }

    /// Writes `msg` to the **default** channel ([`ChannelId::DEFAULT`]) in
    /// the current slot; sugar for [`RoundIo::write_channel_on`].
    pub fn write_channel(&mut self, msg: M) {
        self.write_channel_on(ChannelId::DEFAULT, msg);
    }

    /// Writes `msg` to channel `chan` in the current slot.
    ///
    /// If more than one attached node writes to the same channel in the same
    /// slot, every attached node observes a collision on it in the next
    /// round.  Writing twice to one channel in one round keeps only the last
    /// message (a node owns a single transmitter per channel).  The payload
    /// is interned into the staging arena — on the flat engines the winner
    /// is later delivered by handle, without a clone.
    ///
    /// # Panics
    ///
    /// Panics if `chan` is not a channel of the engine's
    /// [`ChannelSet`](crate::ChannelSet) or this node is not attached to it:
    /// a node can only key a transmitter it owns.
    pub fn write_channel_on(&mut self, chan: ChannelId, msg: M) {
        assert!(
            chan.index() < self.slots.len(),
            "{:?} wrote to {chan:?} of a {}-channel set",
            self.node,
            self.slots.len()
        );
        assert!(
            self.attached & (1 << chan.index()) != 0,
            "{:?} attempted to write to unattached {chan:?}",
            self.node
        );
        let h = self.outbox.arena.intern(msg);
        // Last-write-wins per channel: this node's staged writes are the
        // contiguous tail of the buffer (one node steps at a time), so a
        // short reverse scan finds an earlier write to the same channel.
        // The replaced payload stays interned and simply expires with the
        // epoch, exactly like an undelivered send.
        let node = self.node;
        let earlier = self
            .outbox
            .chan_writes
            .iter_mut()
            .rev()
            .take_while(|&&mut (_, from, _)| from == node)
            .find(|&&mut (c, _, _)| c == chan);
        match earlier {
            Some(entry) => entry.2 = h,
            None => self.outbox.chan_writes.push((chan, node, h)),
        }
    }

    /// Writes `word` to channel `chan`'s **lane sub-slot** in the current
    /// round.  All words staged on one channel resolve by bitwise OR into a
    /// single [`LaneOutcome::Word`] every attached node observes next round
    /// — there is no collision, which is what lets 64 concurrent bitwise
    /// elections share one channel (one bit lane each; see
    /// `channel_access::LaneElectionSeries`).  Writing twice in one round
    /// ORs into the earlier word (one transmitter per channel, but bits
    /// merge, unlike the message slot's last-write-wins).
    ///
    /// # Panics
    ///
    /// Panics if `chan` is not a channel of the engine's
    /// [`ChannelSet`](crate::ChannelSet) or this node is not attached to it.
    pub fn write_lanes_on(&mut self, chan: ChannelId, word: u64) {
        assert!(
            chan.index() < self.slots.len(),
            "{:?} wrote lanes on {chan:?} of a {}-channel set",
            self.node,
            self.slots.len()
        );
        assert!(
            self.attached & (1 << chan.index()) != 0,
            "{:?} attempted to write lanes on unattached {chan:?}",
            self.node
        );
        // OR-merge per channel: this node's staged lane writes are the
        // contiguous tail of the buffer (one node steps at a time), so a
        // short reverse scan finds an earlier write to the same channel.
        let node = self.node;
        let earlier = self
            .outbox
            .lane_writes
            .iter_mut()
            .rev()
            .take_while(|&&mut (_, from, _)| from == node)
            .find(|&&mut (c, _, _)| c == chan);
        match earlier {
            Some(entry) => entry.2 |= word,
            None => self.outbox.lane_writes.push((chan, node, word)),
        }
    }

    /// Schedules this node onto the **next round's activity frontier**.
    ///
    /// Under dense stepping every node steps every round and this is a no-op.
    /// Under sparse (active-set) stepping an idle node — empty inbox, every
    /// attached slot `Idle`, no lifecycle transition — is *not stepped at
    /// all*, so a protocol that advances internal timers on idle observations
    /// (idle-strike counters, phase arming) must call `wake_me` before
    /// returning from [`Protocol::step`] whenever it still wants to run next
    /// round. The canonical adoption pattern is:
    ///
    /// ```ignore
    /// fn step(&mut self, io: &mut RoundIo<'_, Msg>) {
    ///     // ... protocol logic ...
    ///     if !self.is_done() {
    ///         io.wake_me();
    ///     }
    /// }
    /// ```
    ///
    /// # Determinism contract
    ///
    /// Wakeup rounds are part of the determinism tuple: the set of rounds in
    /// which a node steps is `(messages received, non-idle attached slots,
    /// lifecycle transitions, wake_me requests)`, and two runs agree
    /// bit-for-bit only if the protocol requests the same wakeups in the
    /// same rounds. `wake_me` must therefore be a pure function of the
    /// node's observable state, like every other [`Protocol::step`] output.
    ///
    /// # Quiescence
    ///
    /// `wake_me` does **not** prevent quiescence. The engine's termination
    /// check is unchanged by sparse stepping (all nodes done or exempt, no
    /// messages in flight, all slots idle); a node that needs more rounds
    /// must report `!is_done()`, not merely keep waking itself.
    pub fn wake_me(&mut self) {
        self.outbox.wakes.push(self.node.index() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TARGETS: [u32; 2] = [1, 2];
    const EDGES: [u32; 2] = [0, 1];

    fn make_io<'a>(
        neighbors: Neighbors<'a>,
        inbox: &'a [(NodeId, u32)],
        prev: &'a SlotOutcome<u32>,
        outbox: &'a mut OutboxBuffer<u32>,
    ) -> RoundIo<'a, u32> {
        RoundIo::detached(NodeId(0), 3, neighbors, Inbox::direct(inbox), prev, outbox)
    }

    #[test]
    fn accessors() {
        let inbox = [(NodeId(1), 9u32)];
        let prev = SlotOutcome::Idle;
        let mut outbox = OutboxBuffer::new();
        let io = make_io(Neighbors::new(&TARGETS, &EDGES), &inbox, &prev, &mut outbox);
        assert_eq!(io.id(), NodeId(0));
        assert_eq!(io.round(), 3);
        assert_eq!(io.degree(), 2);
        assert_eq!(io.inbox().len(), 1);
        assert_eq!(io.inbox().first(), Some((NodeId(1), &9)));
        assert!(io.prev_slot().is_idle());
        assert!(io.finish().is_none());
    }

    #[test]
    fn send_and_broadcast() {
        let prev = SlotOutcome::Idle;
        let mut outbox = OutboxBuffer::new();
        let mut io = make_io(Neighbors::new(&TARGETS, &EDGES), &[], &prev, &mut outbox);
        io.send(NodeId(2), 5);
        io.send_all(7);
        io.write_channel(1);
        io.write_channel(2);
        assert_eq!(io.finish(), Some(2));
        assert_eq!(outbox.len(), 3);
        // The broadcast interned one payload shared by both entries; the two
        // channel writes interned one payload each (the overwritten first
        // write stays interned until the epoch expires, like the seed
        // dropping a replaced `Option` write).
        assert_eq!(outbox.arena().live(), 4);
        let sends: Vec<(NodeId, u32)> = outbox.drain_sends().collect();
        assert_eq!(sends, vec![(NodeId(2), 5), (NodeId(1), 7), (NodeId(2), 7)]);
        assert!(outbox.is_empty());
        assert!(outbox.arena().is_empty());
    }

    #[test]
    fn outbox_is_reusable_across_rounds() {
        let targets = [1];
        let edges = [0];
        let prev = SlotOutcome::Idle;
        let mut outbox = OutboxBuffer::new();
        for round in 0..3u64 {
            let mut io = RoundIo::detached(
                NodeId(0),
                round,
                Neighbors::new(&targets, &edges),
                Inbox::empty(),
                &prev,
                &mut outbox,
            );
            io.send(NodeId(1), round as u32);
            assert!(io.finish().is_none());
            let sends: Vec<(NodeId, u32)> = outbox.drain_sends().collect();
            assert_eq!(sends, vec![(NodeId(1), round as u32)]);
        }
    }

    #[test]
    fn recycle_hands_back_heap_payloads() {
        // `drain_sends_by_ref` leaves the interned payloads in the arena, so
        // expiry parks them for `recycle_payload` (the synchronizer's loop);
        // the moving `drain_sends` transfers ownership out instead — exactly
        // the seed semantics — leaving nothing to recycle.
        let targets = [1];
        let edges = [0];
        let prev: SlotOutcome<Vec<u8>> = SlotOutcome::Idle;
        let mut outbox: OutboxBuffer<Vec<u8>> = OutboxBuffer::new();
        for round in 0..4u64 {
            let mut io = RoundIo::detached(
                NodeId(0),
                round,
                Neighbors::new(&targets, &edges),
                Inbox::empty(),
                &prev,
                &mut outbox,
            );
            let mut frame = io.recycle_payload().unwrap_or_default();
            if round >= 1 {
                assert!(frame.capacity() >= 64, "capacity must be recycled");
            }
            frame.clear();
            frame.resize(64, round as u8);
            io.send(NodeId(1), frame);
            let mut sends: Vec<(NodeId, Vec<u8>)> = Vec::new();
            outbox.drain_sends_by_ref(|to, msg| sends.push((to, msg.clone())));
            assert_eq!(sends.len(), 1);
            assert_eq!(sends[0].1, vec![round as u8; 64]);
        }
    }

    #[test]
    fn drain_sends_moves_on_last_use() {
        // Seed clone-path parity: a unicast payload is moved (no clone), a
        // degree-d broadcast is cloned d - 1 times with the interned
        // original moved on its last entry — afterwards the arena holds
        // nothing recyclable.
        let prev: SlotOutcome<Vec<u8>> = SlotOutcome::Idle;
        let mut outbox: OutboxBuffer<Vec<u8>> = OutboxBuffer::new();
        let mut io = make_vec_io(&prev, &mut outbox);
        io.send(NodeId(1), vec![7; 32]);
        io.send_all(vec![8; 32]);
        let sends: Vec<(NodeId, Vec<u8>)> = outbox.drain_sends().collect();
        assert_eq!(sends.len(), 3);
        assert_eq!(sends[0], (NodeId(1), vec![7; 32]));
        assert_eq!(sends[1], (NodeId(1), vec![8; 32]));
        assert_eq!(sends[2], (NodeId(2), vec![8; 32]));
        let mut outbox2: OutboxBuffer<Vec<u8>> = OutboxBuffer::new();
        std::mem::swap(&mut outbox, &mut outbox2);
        assert_eq!(
            outbox2.arena.recycle(),
            None,
            "moved-out payloads must not reach the graveyard"
        );
    }

    #[test]
    fn drain_sends_with_sender_spans_many_nodes() {
        // Two nodes step into ONE buffer (the wire backend's round-batched
        // staging); the drain names each entry's stager and keeps the
        // clone-shared / move-last discipline across the node boundary.
        let prev: SlotOutcome<Vec<u8>> = SlotOutcome::Idle;
        let mut outbox: OutboxBuffer<Vec<u8>> = OutboxBuffer::new();
        for (node, byte) in [(NodeId(0), 7u8), (NodeId(5), 8)] {
            let mut io = RoundIo::detached(
                node,
                0,
                Neighbors::new(&TARGETS, &EDGES),
                Inbox::empty(),
                &prev,
                &mut outbox,
            );
            io.send_all(vec![byte; 4]);
        }
        let sends: Vec<_> = outbox.drain_sends_with_sender().collect();
        assert_eq!(
            sends,
            vec![
                (NodeId(1), NodeId(0), vec![7; 4]),
                (NodeId(2), NodeId(0), vec![7; 4]),
                (NodeId(1), NodeId(5), vec![8; 4]),
                (NodeId(2), NodeId(5), vec![8; 4]),
            ]
        );
        assert!(outbox.is_empty());
        assert!(outbox.arena().is_empty());
    }

    fn make_vec_io<'a>(
        prev: &'a SlotOutcome<Vec<u8>>,
        outbox: &'a mut OutboxBuffer<Vec<u8>>,
    ) -> RoundIo<'a, Vec<u8>> {
        RoundIo::detached(
            NodeId(0),
            0,
            Neighbors::new(&TARGETS, &EDGES),
            Inbox::empty(),
            prev,
            outbox,
        )
    }

    #[test]
    fn inbox_views_are_equivalent() {
        let direct = [(NodeId(1), 10u32), (NodeId(4), 20)];
        let mut arena = PayloadArena::new();
        let h1 = arena.intern(10u32);
        let h2 = arena.intern(20u32);
        let entries = [(1, h1), (4, h2)];
        let a = Inbox::direct(&direct);
        let b = Inbox::arena(&entries, &arena);
        assert_eq!(a.len(), b.len());
        let va: Vec<(NodeId, u32)> = a.iter().map(|(f, &m)| (f, m)).collect();
        let vb: Vec<(NodeId, u32)> = b.iter().map(|(f, &m)| (f, m)).collect();
        assert_eq!(va, vb);
        assert_eq!(a.first().map(|(f, &m)| (f, m)), Some((NodeId(1), 10)));
        assert_eq!(b.get(1).map(|(f, &m)| (f, m)), Some((NodeId(4), 20)));
        assert!(Inbox::<u32>::empty().is_empty());
    }

    #[test]
    #[should_panic]
    fn send_to_non_neighbor_panics() {
        let prev = SlotOutcome::Idle;
        let mut outbox = OutboxBuffer::new();
        let mut io = make_io(Neighbors::new(&TARGETS, &EDGES), &[], &prev, &mut outbox);
        io.send(NodeId(9), 1);
    }

    #[test]
    #[should_panic(expected = "attempted to send to non-neighbour")]
    fn send_to_id_aliasing_a_neighbour_above_2_pow_32_panics() {
        // `(1 << 32) | 1` truncates to neighbour 1; it must not pass as it.
        let prev = SlotOutcome::Idle;
        let mut outbox = OutboxBuffer::new();
        let mut io = make_io(Neighbors::new(&TARGETS, &EDGES), &[], &prev, &mut outbox);
        assert!(!io.neighbors().contains(NodeId((1 << 32) | 1)));
        io.send(NodeId((1 << 32) | 1), 1);
    }

    #[test]
    #[should_panic(expected = "beyond the 32-bit node index space")]
    fn detached_window_rejects_a_node_beyond_2_pow_32() {
        // Staged records tag the sender as a `u32`; a wider id would alias.
        let prev = SlotOutcome::<u32>::Idle;
        let mut outbox = OutboxBuffer::new();
        let neighbors = Neighbors::new(&TARGETS, &EDGES);
        let _ = RoundIo::detached(
            NodeId(1 << 32),
            0,
            neighbors,
            Inbox::empty(),
            &prev,
            &mut outbox,
        );
    }

    #[test]
    fn multi_channel_slots_and_writes() {
        let prev = [
            SlotOutcome::Idle,
            SlotOutcome::Success {
                from: NodeId(4),
                msg: 11u32,
            },
            SlotOutcome::Collision,
        ];
        let mut outbox = OutboxBuffer::new();
        let mut io = RoundIo::detached_multi(
            NodeId(0),
            0,
            Neighbors::new(&TARGETS, &EDGES),
            Inbox::empty(),
            &prev,
            &mut outbox,
        );
        assert_eq!(io.channels(), 3);
        assert!(io.is_attached(ChannelId(2)));
        assert!(io.prev_slot().is_idle());
        let s = io.prev_slot_on(ChannelId(1));
        assert_eq!(s.sender(), Some(NodeId(4)));
        assert!(matches!(s, SlotOutcome::Success { msg: &11, .. }));
        assert!(io.prev_slot_on(ChannelId(2)).is_collision());

        io.write_channel_on(ChannelId(2), 7);
        io.write_channel_on(ChannelId(1), 5);
        io.write_channel_on(ChannelId(2), 9); // overwrites the first write
        assert!(io.finish().is_none(), "no default-channel write staged");
        let mut writes = Vec::new();
        outbox.take_channel_writes(|c, from, m| writes.push((c, from, m)));
        assert_eq!(
            writes,
            vec![(ChannelId(2), NodeId(0), 9), (ChannelId(1), NodeId(0), 5)]
        );
    }

    #[test]
    fn lane_writes_or_merge_and_reads_default_idle() {
        let prev = [SlotOutcome::Idle, SlotOutcome::Idle];
        let lanes = [LaneOutcome::Word(0b101), LaneOutcome::Erased];
        let mut outbox: OutboxBuffer<u32> = OutboxBuffer::new();
        let mut io = RoundIo::detached_multi(
            NodeId(0),
            0,
            Neighbors::new(&TARGETS, &EDGES),
            Inbox::empty(),
            &prev,
            &mut outbox,
        )
        .with_lanes(&lanes);
        assert_eq!(io.prev_lanes_on(ChannelId(0)), LaneOutcome::Word(0b101));
        assert_eq!(io.prev_lanes_on(ChannelId(1)), LaneOutcome::Erased);
        io.write_lanes_on(ChannelId(0), 0b0011);
        io.write_lanes_on(ChannelId(1), 1 << 7);
        io.write_lanes_on(ChannelId(0), 0b0110); // OR-merges with the first
        let mut writes = Vec::new();
        outbox.take_lane_writes(|c, from, w| writes.push((c, from, w)));
        assert_eq!(
            writes,
            vec![
                (ChannelId(0), NodeId(0), 0b0111),
                (ChannelId(1), NodeId(0), 1 << 7)
            ]
        );
    }

    #[test]
    fn lanes_default_to_idle_and_gate_on_attachment() {
        let prev = [SlotOutcome::<u32>::Idle, SlotOutcome::Idle];
        let lanes = [LaneOutcome::Word(1), LaneOutcome::Word(2)];
        let mut outbox = OutboxBuffer::new();
        // No with_lanes: everything reads idle.
        let io = RoundIo::detached_multi(
            NodeId(0),
            0,
            Neighbors::new(&TARGETS, &EDGES),
            Inbox::empty(),
            &prev,
            &mut outbox,
        );
        assert!(io.prev_lanes_on(ChannelId(0)).is_idle());
        assert!(io.prev_lanes_on(ChannelId(1)).is_idle());
        // Unattached channels read idle even when the lane word was busy.
        let io = RoundIo::detached_multi(
            NodeId(0),
            0,
            Neighbors::new(&TARGETS, &EDGES),
            Inbox::empty(),
            &prev,
            &mut outbox,
        )
        .with_lanes(&lanes)
        .with_attachment(0b10);
        assert!(io.prev_lanes_on(ChannelId(0)).is_idle());
        assert_eq!(io.prev_lanes_on(ChannelId(1)), LaneOutcome::Word(2));
    }

    #[test]
    #[should_panic(expected = "wrote lanes on")]
    fn lane_write_to_unknown_channel_panics() {
        let prev = SlotOutcome::<u32>::Idle;
        let mut outbox = OutboxBuffer::new();
        let mut io = make_io(Neighbors::new(&TARGETS, &EDGES), &[], &prev, &mut outbox);
        io.write_lanes_on(ChannelId(1), 1);
    }

    #[test]
    fn detached_attachment_gates_reads_and_writes() {
        let prev = [SlotOutcome::Collision, SlotOutcome::Collision];
        let mut outbox: OutboxBuffer<u32> = OutboxBuffer::new();
        let io = RoundIo::detached_multi(
            NodeId(0),
            0,
            Neighbors::new(&TARGETS, &EDGES),
            Inbox::empty(),
            &prev,
            &mut outbox,
        )
        .with_attachment(0b10);
        assert!(!io.is_attached(ChannelId(0)));
        assert!(io.is_attached(ChannelId(1)));
        // Unattached channels read as idle even when the slot was busy.
        assert!(io.prev_slot_on(ChannelId(0)).is_idle());
        assert!(io.prev_slot_on(ChannelId(1)).is_collision());
    }

    #[test]
    #[should_panic(expected = "attachment mask")]
    fn detached_attachment_mask_must_fit() {
        let prev = [SlotOutcome::<u32>::Idle];
        let mut outbox = OutboxBuffer::new();
        let _ = RoundIo::detached_multi(
            NodeId(0),
            0,
            Neighbors::new(&TARGETS, &EDGES),
            Inbox::empty(),
            &prev,
            &mut outbox,
        )
        .with_attachment(0b10);
    }

    #[test]
    #[should_panic(expected = "wrote to")]
    fn write_to_unknown_channel_panics() {
        let prev = SlotOutcome::Idle;
        let mut outbox = OutboxBuffer::new();
        let mut io = make_io(Neighbors::new(&TARGETS, &EDGES), &[], &prev, &mut outbox);
        io.write_channel_on(ChannelId(1), 1);
    }

    #[test]
    #[should_panic(expected = "read")]
    fn read_unknown_channel_panics() {
        let prev = SlotOutcome::Idle;
        let mut outbox = OutboxBuffer::new();
        let io = make_io(Neighbors::new(&TARGETS, &EDGES), &[], &prev, &mut outbox);
        let _ = io.prev_slot_on(ChannelId(3));
    }
}
