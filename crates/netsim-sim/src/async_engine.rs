//! Event-driven engine for the **asynchronous** point-to-point network.
//!
//! The paper's base network model is asynchronous: a message sent over a link
//! arrives error-free after an *arbitrary but finite* delay.  Section 7.1
//! shows that the multiaccess channel can implement a synchronizer with O(1)
//! overhead, which is why the rest of the paper assumes synchrony.  This
//! engine exists to validate that claim experimentally (experiment E6): it
//! delivers every point-to-point message after a pseudo-random delay chosen
//! by a seeded adversary, while the channel remains slotted.
//!
//! Time is measured in *ticks*; one channel slot lasts [`AsyncConfig::slot_ticks`]
//! ticks and every message delay is between 1 tick and
//! [`AsyncConfig::max_delay_ticks`].  With `max_delay_ticks <= slot_ticks`
//! this matches the paper's normalisation ("the message delay and the slot
//! length are of the same order of magnitude").
//!
//! # Slot boundaries
//!
//! The multiaccess medium is a [`ChannelSet`]: each slot boundary resolves
//! one message slot and one lane sub-slot per channel into two pooled
//! slices and hands every dispatched node **one** borrowed callback,
//! [`AsyncProtocol::on_boundary`] — one slot's feedback is one broadcast
//! every station hears, not a private copy per station.  Its default body
//! fans out to the per-channel [`AsyncProtocol::on_lanes_on`] /
//! [`AsyncProtocol::on_slot_on`] callbacks (the order is pinned in its
//! docs).  A `Success` slot **moves** the winning message into its outcome —
//! never cloned — and parks it in the graveyard after the boundary.
//!
//! # Pooled staging: stage the pass, fold once
//!
//! The hot path is allocation-free in steady state, for `Copy` **and**
//! heap-carrying payloads: in-flight payloads live in a reference-counted
//! slab with a free list, a broadcast interns its payload **once** (each
//! in-flight copy is a slab handle, each delivery a reference-count
//! decrement), deliveries hand the protocol a `&Msg`, and retired heap
//! payloads are parked in a graveyard that [`AsyncCtx::recycle_payload`]
//! hands back to senders.
//!
//! Callbacks run in **passes** — the start callbacks, one tick's due
//! deliveries, one boundary's `on_boundary` calls — and every callback of a
//! pass stages its sends, channel and lane writes and wakeups into the
//! engine's one sender-tagged [`OutboxBuffer`], the round shape of the flat
//! engine and the wire host.  The buffer is folded into the in-flight heap,
//! the slot's write queue and the wake set **once per pass**, at exactly
//! three points: after the start pass, after a tick's deliveries (before
//! that tick's boundary counts its writers — a send staged at tick `t` is
//! due at `t + 1` at the earliest, so nothing staged by a delivery could
//! have been due in the same loop), and after a boundary's callbacks.  The
//! fold walks the sends in **staging order** — callbacks in dispatch order,
//! calls in issue order — drawing one delay per surviving copy, so that
//! order is part of the determinism tuple: it fixes the delay RNG stream
//! and the event sequence numbers that break same-tick delivery ties.
//! Adapters replaying a synchronous [`Protocol`](crate::Protocol)
//! ([`Lockstep`](crate::Lockstep)) build their [`RoundIo`](crate::RoundIo)
//! over the same buffer, so a replayed step is staged exactly once.
//! Quiescence is O(1) via the shared [`Tally`].

use crate::channel::{ChannelId, ChannelSet, LaneOutcome, SlotOutcome};
use crate::fault::{FaultPlan, FaultSession};
use crate::frontier::{Active, Frontier};
use crate::metrics::CostAccount;
use crate::node::OutboxBuffer;
use crate::round::{self, boot_wakes, ChannelFold, Gate, Tally};
use netsim_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Delay configuration of the asynchronous engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AsyncConfig {
    /// Ticks per channel slot (≥ 1).
    pub slot_ticks: u64,
    /// Maximum point-to-point delay in ticks (≥ 1); actual delays are chosen
    /// uniformly in `1..=max_delay_ticks` by a seeded RNG.
    pub max_delay_ticks: u64,
    /// Seed of the delay adversary.
    pub seed: u64,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            slot_ticks: 4,
            max_delay_ticks: 4,
            seed: 0,
        }
    }
}

/// Per-node handler interface of the asynchronous engine.
///
/// A slot boundary reaches a node as **one** [`on_boundary`](Self::on_boundary)
/// call over the engine's pooled outcome slices.  Protocols that think per
/// channel implement [`on_slot`](Self::on_slot) / [`on_slot_on`](Self::on_slot_on)
/// / [`on_lanes_on`](Self::on_lanes_on) and inherit the fan-out; adapters that
/// consume a whole boundary at once (the [`Lockstep`](crate::Lockstep) replay)
/// override `on_boundary` and never see a per-channel copy.
///
/// Callbacks run in **passes** — the start callbacks, one tick's due
/// deliveries, one boundary — and what they send, write or request is
/// staged for the pass and folded into the engine once, after it: after the
/// start pass, after a tick's deliveries (before that tick's boundary
/// resolves, so a write from `on_message` at a boundary tick still counts
/// in the closing slot), and after a boundary's callbacks.  A callback
/// therefore never observes another callback's outputs of the same pass,
/// and the order in which it issues its own `send` / `send_all` calls is
/// part of the determinism tuple: the fold draws delays and numbers events
/// in staging order.
pub trait AsyncProtocol {
    /// Message type used on both media.
    type Msg: Clone;

    /// Called once at time 0.
    fn on_start(&mut self, ctx: &mut AsyncCtx<'_, Self::Msg>);

    /// Called when a point-to-point message arrives.
    ///
    /// The payload is borrowed from the engine's slab: a broadcast payload is
    /// stored once and every receiver observes the same `&Msg`.  Handlers
    /// that need ownership clone it (ideally into a buffer obtained from
    /// [`AsyncCtx::recycle_payload`]).
    fn on_message(&mut self, from: NodeId, msg: &Self::Msg, ctx: &mut AsyncCtx<'_, Self::Msg>);

    /// Called once per slot boundary with **every** channel's outcome:
    /// `slots[c]` / `lanes[c]` are channel `c`'s message slot and lane
    /// sub-slot, borrowed from the engine's pooled slices for the duration
    /// of the call (winners are never cloned) and **not** gated by this
    /// node's attachment — an override gates with [`AsyncCtx::is_attached`].
    ///
    /// The default body owns the per-channel callback-order contract: all
    /// [`on_lanes_on`](Self::on_lanes_on) calls in ascending channel order,
    /// then all [`on_slot_on`](Self::on_slot_on) calls in ascending channel
    /// order (so a protocol acting on its last slot callback has seen the
    /// boundary's lanes), a channel the node is not attached to being heard
    /// as `Idle` on both.
    fn on_boundary(
        &mut self,
        slots: &[SlotOutcome<Self::Msg>],
        lanes: &[LaneOutcome],
        ctx: &mut AsyncCtx<'_, Self::Msg>,
    ) {
        let (idle, lane_idle) = (SlotOutcome::Idle, LaneOutcome::Idle);
        for (c, word) in lanes.iter().enumerate() {
            let chan = ChannelId(c as u16);
            let on = ctx.is_attached(chan);
            self.on_lanes_on(chan, if on { word } else { &lane_idle }, ctx);
        }
        for (c, outcome) in slots.iter().enumerate() {
            let chan = ChannelId(c as u16);
            let on = ctx.is_attached(chan);
            self.on_slot_on(chan, if on { outcome } else { &idle }, ctx);
        }
    }

    /// The default channel's slot outcome, via the default
    /// [`on_slot_on`](Self::on_slot_on).  Defaults to ignoring it, so
    /// protocols that listen per channel (or not at all) need no dead stub.
    fn on_slot(&mut self, outcome: &SlotOutcome<Self::Msg>, ctx: &mut AsyncCtx<'_, Self::Msg>) {
        let _ = (outcome, ctx);
    }

    /// Channel `chan`'s message-slot outcome, via the default
    /// [`on_boundary`](Self::on_boundary).  The default routes the default
    /// channel to [`on_slot`](Self::on_slot) and ignores the rest, so
    /// single-channel protocols run unchanged on any channel set;
    /// multi-channel protocols override this method instead.
    fn on_slot_on(
        &mut self,
        chan: ChannelId,
        outcome: &SlotOutcome<Self::Msg>,
        ctx: &mut AsyncCtx<'_, Self::Msg>,
    ) {
        if chan == ChannelId::DEFAULT {
            self.on_slot(outcome, ctx);
        }
    }

    /// Channel `chan`'s lane sub-slot outcome (the word-wide OR-merge
    /// surface; see [`RoundIo::prev_lanes_on`](crate::RoundIo::prev_lanes_on)),
    /// via the default [`on_boundary`](Self::on_boundary).  Defaults to
    /// ignoring the outcome.
    fn on_lanes_on(
        &mut self,
        chan: ChannelId,
        lanes: &LaneOutcome,
        ctx: &mut AsyncCtx<'_, Self::Msg>,
    ) {
        let _ = (chan, lanes, ctx);
    }

    /// Local termination flag.
    ///
    /// As for the synchronous engine's O(1) quiescence tracking, the value
    /// must only change as a result of one of the callbacks above (or of
    /// [`AsyncProtocol::on_recover`]).
    fn is_done(&self) -> bool;

    /// Called when this node transitions `Crashed → Booting` under an
    /// installed [`FaultPlan`] — the hook re-initialises whatever state the
    /// crash invalidated.  The node receives callbacks again from the next
    /// tick on.  Defaults to doing nothing (crash-oblivious protocols keep
    /// their state).
    fn on_recover(&mut self) {}
}

/// Output collector handed to the [`AsyncProtocol`] callbacks.
///
/// Everything a callback sends, writes or requests is **staged** into the
/// engine's one pooled, sender-tagged [`OutboxBuffer`] and folded into the
/// engine once the whole pass of callbacks has run (see
/// [`AsyncProtocol`]), so callbacks do not allocate in steady state.  The
/// `pub(crate)` fields are the [`Lockstep`](crate::Lockstep) adapter's
/// staging surface.
#[derive(Debug)]
pub struct AsyncCtx<'a, M> {
    node: NodeId,
    tick: u64,
    neighbors: netsim_graph::Neighbors<'a>,
    pub(crate) graveyard: &'a mut Vec<M>,
    /// The engine's one staging buffer, shared by every callback of the
    /// pass; this node's entries are its tail.
    pub(crate) outbox: &'a mut OutboxBuffer<M>,
    /// The engine's pooled per-channel outcome slices: the boundary's
    /// outcomes during [`AsyncProtocol::on_boundary`], all idle otherwise.
    pub(crate) slots: &'a [SlotOutcome<M>],
    pub(crate) lanes: &'a [LaneOutcome],
    /// Channel count of the engine's [`ChannelSet`].
    k: u16,
    /// Attachment bitmask of this node.
    pub(crate) attached: u64,
}

impl<'a, M: Clone> AsyncCtx<'a, M> {
    /// The executing node.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current time in ticks.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Incident links, as a CSR [`netsim_graph::Neighbors`] view.
    pub fn neighbors(&self) -> netsim_graph::Neighbors<'a> {
        self.neighbors
    }

    /// Takes a retired payload (heap capacity intact) from the engine's
    /// graveyard for reuse, if one is available.
    ///
    /// The asynchronous counterpart of
    /// [`RoundIo::recycle_payload`](crate::RoundIo::recycle_payload): a
    /// protocol that overwrites recycled buffers instead of constructing
    /// fresh ones sends heap-carrying messages without allocating.
    pub fn recycle_payload(&mut self) -> Option<M> {
        self.graveyard.pop()
    }

    /// Sends a message to a neighbour; it will arrive after an adversarial delay.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbour.
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

    /// Sends a message to every neighbour.
    ///
    /// Intern-on-broadcast: the payload is stored in the slab **once**, with
    /// one reference per neighbour; no clones are made however large the
    /// degree.
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

    /// Requests a write on the **default** channel in the current slot (the
    /// one whose boundary has not yet passed); sugar for
    /// [`AsyncCtx::write_channel_on`].
    pub fn write_channel(&mut self, msg: M) {
        self.write_channel_on(ChannelId::DEFAULT, msg);
    }

    /// Requests a write on channel `chan` in the current slot.  Only the
    /// last request per channel per slot counts.
    ///
    /// # Panics
    ///
    /// Panics if `chan` is not a channel of the engine's
    /// [`ChannelSet`] or this node is not attached to it.
    pub fn write_channel_on(&mut self, chan: ChannelId, msg: M) {
        assert!(
            chan.0 < self.k,
            "{:?} wrote to {chan:?} of a {}-channel set",
            self.node,
            self.k
        );
        assert!(
            self.attached & (1 << chan.0) != 0,
            "{:?} attempted to write to unattached {chan:?}",
            self.node
        );
        let h = self.outbox.arena.intern(msg);
        self.outbox.chan_writes.push((chan, self.node, h));
    }

    /// Stages a lane write on channel `chan` for the current slot: the
    /// bitwise OR of every attached writer's word resolves at the next slot
    /// boundary ([`AsyncProtocol::on_lanes_on`]).  Repeated writes by the
    /// same node OR-merge — the asynchronous counterpart of
    /// [`RoundIo::write_lanes_on`](crate::RoundIo::write_lanes_on).
    ///
    /// # Panics
    ///
    /// Panics if `chan` is not a channel of the engine's [`ChannelSet`] or
    /// this node is not attached to it.
    pub fn write_lanes_on(&mut self, chan: ChannelId, word: u64) {
        assert!(
            chan.0 < self.k,
            "{:?} wrote lanes on {chan:?} of a {}-channel set",
            self.node,
            self.k
        );
        assert!(
            self.attached & (1 << chan.0) != 0,
            "{:?} attempted to write lanes on unattached {chan:?}",
            self.node
        );
        self.outbox.lane_writes.push((chan, self.node, word));
    }

    /// Schedules this node for dispatch at the **next slot boundary**.
    ///
    /// The asynchronous counterpart of
    /// [`RoundIo::wake_me`](crate::RoundIo::wake_me): under sparse boundary
    /// dispatch ([`AsyncEngine::enable_sparse_boundaries`]) a node receives
    /// the boundary's `on_slot_on` callbacks only if it heard a non-idle
    /// outcome on an attached channel, received a message since the last
    /// boundary, had a lifecycle transition, or called `wake_me`.  A
    /// protocol that advances timers on all-idle boundaries must therefore
    /// re-arm itself with `wake_me` while unfinished.  Wakeup requests are
    /// part of the determinism tuple, and `wake_me` does not prevent
    /// quiescence — exactly as for the synchronous engines.  No-op under
    /// dense dispatch.
    pub fn wake_me(&mut self) {
        self.outbox.wakes.push(self.node.index() as u32);
    }

    /// Number of channels `K` of the engine's [`ChannelSet`].
    pub fn channels(&self) -> u16 {
        self.k
    }

    /// Returns `true` when this node is attached to channel `chan`.
    pub fn is_attached(&self, chan: ChannelId) -> bool {
        chan.0 < self.k && self.attached & (1 << chan.0) != 0
    }
}

/// One queued delivery: `(delivery tick, sequence, to, from, payload slot)`,
/// wrapped in `Reverse` so the `BinaryHeap` pops the earliest `(tick,
/// sequence)` first; the sequence keeps delivery order deterministic.
type FlightEvent = Reverse<(u64, u64, usize, usize, usize)>;

/// Reference-counted payload slab with a free list and a recycling
/// graveyard — the asynchronous sibling of
/// [`PayloadArena`](crate::PayloadArena).  Epochs make no sense here (each
/// in-flight payload dies at its own delivery tick), so slots are freed
/// individually when their reference count reaches zero.
#[derive(Debug)]
struct PayloadSlab<M> {
    /// Payload slots; `None` while the slot is free (or its payload is
    /// temporarily checked out for a delivery callback).
    slots: Vec<Option<M>>,
    /// Outstanding deliveries per slot, parallel to `slots`.
    refs: Vec<u32>,
    /// Free slots available for reuse.
    free: Vec<usize>,
    /// Retired heap payloads available to [`AsyncCtx::recycle_payload`];
    /// capped at the slab size, always empty for types without drop glue.
    graveyard: Vec<M>,
}

impl<M> PayloadSlab<M> {
    fn new() -> Self {
        PayloadSlab {
            slots: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
            graveyard: Vec::new(),
        }
    }

    /// Stores `payload` with `refs` outstanding deliveries; returns its slot.
    fn intern(&mut self, payload: M, refs: u32) -> usize {
        debug_assert!(refs > 0);
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(payload);
                self.refs[slot] = refs;
                slot
            }
            None => {
                self.slots.push(Some(payload));
                self.refs.push(refs);
                self.slots.len() - 1
            }
        }
    }

    /// Checks the payload out for one delivery (decrementing its reference
    /// count); [`PayloadSlab::check_in`] must follow.
    fn check_out(&mut self, slot: usize) -> M {
        self.refs[slot] -= 1;
        self.slots[slot].take().expect("payload stored")
    }

    /// Returns a checked-out payload: back into its slot while deliveries
    /// remain, to the free list + graveyard once the last one is done.
    fn check_in(&mut self, slot: usize, payload: M) {
        if self.refs[slot] > 0 {
            self.slots[slot] = Some(payload);
        } else {
            self.free.push(slot);
            self.park(payload, 0);
        }
    }

    /// Parks a retired payload in the graveyard for
    /// [`AsyncCtx::recycle_payload`], capped at `max(slab size, min_cap)`
    /// entries — channel-only workloads (empty slab) pass the channel count
    /// as `min_cap` so retired slot winners stay recyclable.
    fn park(&mut self, payload: M, min_cap: usize) {
        if std::mem::needs_drop::<M>() && self.graveyard.len() < self.slots.len().max(min_cap) {
            self.graveyard.push(payload);
        }
    }
}

/// The in-flight point-to-point queue and the delay adversary feeding it,
/// grouped so the send fold schedules deliveries while the engine's other
/// fields (fault session, slab, staging buffer) are borrowed side by side.
struct Flight {
    rng: StdRng,
    /// Min-heap of in-flight messages, ordered by `(tick, sequence)`.
    heap: BinaryHeap<FlightEvent>,
    seq: u64,
}

impl Flight {
    /// Queues one delivery of the payload in `slot` from `from` to `to`, a
    /// freshly drawn adversarial delay of `1..=max_delay` ticks after `now`.
    fn schedule(&mut self, now: u64, max_delay: u64, from: NodeId, to: NodeId, slot: usize) {
        let when = now + self.rng.gen_range(1..=max_delay);
        self.seq += 1;
        self.heap
            .push(Reverse((when, self.seq, to.index(), from.index(), slot)));
    }
}

/// The asynchronous executor.
pub struct AsyncEngine<'g, P: AsyncProtocol> {
    graph: &'g Graph,
    nodes: Vec<P>,
    config: AsyncConfig,
    /// The multiaccess channel substrate: `K` channels + per-node attachment.
    channels: ChannelSet,
    flight: Flight,
    /// Slab of in-flight payloads, indexed by the events' payload slots.
    slab: PayloadSlab<P::Msg>,
    /// Channel writes queued for the current slot: at most one per node and
    /// channel, at `slot_writes[v * K + c]`.
    slot_writes: Vec<Option<P::Msg>>,
    /// `(node, channel)` pairs with a queued write this slot, in request order.
    writers: Vec<(NodeId, ChannelId)>,
    /// Lane words queued for the current slot: at most one (OR-merged) word
    /// per node and channel, at `lane_slot_writes[v * K + c]`.
    lane_slot_writes: Vec<Option<u64>>,
    /// `(node, channel)` pairs with a queued lane write this slot, in
    /// request order.
    lane_writers: Vec<(NodeId, ChannelId)>,
    /// The one sender-tagged staging buffer every callback of a pass — and
    /// every replay adapter's `RoundIo` — writes into; empty between passes
    /// (see [`AsyncEngine::fold_staged`]).
    outbox: OutboxBuffer<P::Msg>,
    /// Pooled per-boundary outcomes, one slot and one lane sub-slot per
    /// channel, all idle outside a boundary.  The winners are **moved** in
    /// from `slot_writes` (never cloned) and parked in the slab graveyard
    /// after the boundary's callbacks, so heap payloads written to a channel
    /// are recycled like any delivered message.  Its per-channel accounts
    /// match the synchronous engines' under the lockstep configuration after
    /// the [`EngineControl`](crate::EngineControl) impl's reconciliation
    /// (see the [`lockstep`](crate::lockstep) docs).
    fold: ChannelFold<P::Msg>,
    tick: u64,
    cost: CostAccount,
    started: bool,
    /// Done and undone-exempt node counts; keeps quiescence O(1).
    tally: Tally,
    /// Injected-fault session, when [`AsyncEngine::set_fault_plan`]
    /// installed one.  Fault *rounds* advance once per tick.
    faults: Option<FaultSession>,
    /// Non-operational node count captured at the top of the current tick
    /// (before that tick's lifecycle transitions); the next slot boundary
    /// charges it as that slot's churn, mirroring the synchronous engine's
    /// per-round accounting under the lockstep mapping.
    pending_crashed: u64,
    /// Wake set of the opt-in sparse boundary dispatch; `None` dispatches
    /// every node at every slot boundary.
    frontier: Option<Frontier>,
}

/// The disjoint borrows of one **pass** of callbacks (start, a tick's
/// deliveries, a boundary), split from the engine once per pass so the
/// per-callback body touches no engine field twice; see
/// [`AsyncEngine::pass_parts`].
struct Pass<'a, P: AsyncProtocol> {
    graph: &'a Graph,
    nodes: &'a mut [P],
    channels: &'a ChannelSet,
    gate: Gate<'a>,
    slab: &'a mut PayloadSlab<P::Msg>,
    outbox: &'a mut OutboxBuffer<P::Msg>,
    slots: &'a [SlotOutcome<P::Msg>],
    lanes: &'a [LaneOutcome],
    tick: u64,
    /// Sparse dispatch reads the staged wakeups at the fold; dense dispatch
    /// never does, so it drops them per callback instead of letting the
    /// list grow to `n`.
    keep_wakes: bool,
}

impl<P: AsyncProtocol> Pass<'_, P> {
    /// Runs one callback on node `vi` inside the pass's [`Gate`]; returns
    /// whether it ran.  Forced inline so each pass loop compiles to a
    /// straight-line body around the protocol's callback (left to the
    /// inliner, the dense boundary loop ran ≈ 17 % slower).
    #[inline(always)]
    fn call(&mut self, vi: usize, f: impl FnOnce(&mut P, &mut AsyncCtx<'_, P::Msg>)) -> bool {
        if !self.gate.admits(vi) {
            return false;
        }
        let (v, node) = (NodeId(vi), &mut self.nodes[vi]);
        let was_done = node.is_done();
        let mut ctx = AsyncCtx {
            node: v,
            tick: self.tick,
            neighbors: self.graph.neighbors(v),
            graveyard: &mut self.slab.graveyard,
            outbox: &mut *self.outbox,
            slots: self.slots,
            lanes: self.lanes,
            k: self.channels.channels(),
            attached: self.channels.mask(v),
        };
        f(node, &mut ctx);
        self.gate.book(was_done, node.is_done());
        if !self.keep_wakes {
            self.outbox.wakes.clear();
        }
        true
    }
}

impl<'g, P: AsyncProtocol> AsyncEngine<'g, P> {
    /// Creates an engine over `graph` with the paper's single-channel model
    /// and per-node protocol states from `init`.
    pub fn new<F: FnMut(NodeId) -> P>(graph: &'g Graph, config: AsyncConfig, init: F) -> Self {
        AsyncEngine::with_channels(graph, config, ChannelSet::single(), init)
    }

    /// Creates an engine over `graph` and an explicit multiaccess
    /// [`ChannelSet`] (whose constructors already hold `K` and every mask
    /// in range, so the per-callback windows never re-check them).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate or the channel set's
    /// per-node attachment table does not cover exactly the graph's node
    /// count.
    pub fn with_channels<F: FnMut(NodeId) -> P>(
        graph: &'g Graph,
        config: AsyncConfig,
        channels: ChannelSet,
        mut init: F,
    ) -> Self {
        assert!(config.slot_ticks >= 1, "slot_ticks must be at least 1");
        assert!(
            config.max_delay_ticks >= 1,
            "max_delay_ticks must be at least 1"
        );
        if let Some(len) = channels.table_len() {
            assert_eq!(
                len,
                graph.node_count(),
                "channel attachment table covers {len} nodes, graph has {}",
                graph.node_count()
            );
        }
        let nodes: Vec<P> = graph.nodes().map(&mut init).collect();
        let tally = Tally::recount(None, nodes.iter().enumerate(), P::is_done);
        let k = channels.channels() as usize;
        AsyncEngine {
            graph,
            nodes,
            config,
            flight: Flight {
                rng: StdRng::seed_from_u64(config.seed),
                heap: BinaryHeap::new(),
                seq: 0,
            },
            slab: PayloadSlab::new(),
            slot_writes: std::iter::repeat_with(|| None)
                .take(graph.node_count() * k)
                .collect(),
            writers: Vec::new(),
            lane_slot_writes: vec![None; graph.node_count() * k],
            lane_writers: Vec::new(),
            outbox: OutboxBuffer::new(),
            fold: ChannelFold::new(channels.channels()),
            channels,
            tick: 0,
            cost: CostAccount::new(),
            started: false,
            tally,
            faults: None,
            pending_crashed: 0,
            frontier: None,
        }
    }

    /// Switches the engine to **sparse boundary dispatch**: a slot boundary
    /// dispatches `on_slot_on` callbacks only to nodes that heard a
    /// non-idle outcome on an attached channel, received a message since
    /// the previous boundary, were promoted to `Operational`, or requested
    /// a wakeup via [`AsyncCtx::wake_me`] — instead of to all `n` nodes.
    ///
    /// The asynchronous counterpart of
    /// [`EngineBuilder::sparse`](crate::EngineBuilder::sparse) stepping,
    /// with the matching contract: an all-idle boundary callback must be a
    /// pure no-op unless the node re-armed itself with `wake_me`.  For such
    /// protocols sparse dispatch is bit-identical to dense dispatch —
    /// including the RNG stream, because skipped callbacks stage no sends
    /// and therefore draw no delays.  Start callbacks still reach every
    /// operational node.
    ///
    /// # Panics
    ///
    /// Panics if the engine has already started.
    pub fn enable_sparse_boundaries(&mut self) {
        assert!(
            !self.started && self.tick == 0,
            "sparse boundaries must be enabled before the engine starts"
        );
        // A frontier is born all-active for the flat engine's round 0; here
        // the start callbacks play that role, so consume it.
        let mut frontier = Frontier::new(self.graph.node_count(), &self.channels);
        frontier.advance();
        self.frontier = Some(frontier);
    }

    /// Installs a deterministic [`FaultPlan`]; must be called before the
    /// engine starts.  Fault rounds advance **once per tick** (under the
    /// lockstep configuration a tick is a round, which is what the
    /// `engine_conformance` fault dimension pins); message drops are keyed
    /// by the sending tick and slot erasures by the slot's sending round
    /// (boundary index − 1).
    ///
    /// # Panics
    ///
    /// Panics if the engine has already started.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !self.started && self.tick == 0,
            "fault plan must be installed before the engine starts"
        );
        let session = FaultSession::new(plan, self.graph.node_count());
        let nodes = self.nodes.iter().enumerate();
        self.tally = Tally::recount(Some(&session), nodes, P::is_done);
        self.faults = Some(session);
    }

    /// The installed fault session, if any.
    pub fn fault_session(&self) -> Option<&FaultSession> {
        self.faults.as_ref()
    }

    /// Applies fault round `round`'s lifecycle transitions (a rejoining
    /// node hears the next boundary), capturing the churn the next boundary
    /// charges first; no-op without a fault plan.
    fn apply_fault_round(&mut self, round: u64) {
        if let Some(session) = &mut self.faults {
            self.pending_crashed = session.non_operational_count();
            let (nodes, visit) = (&mut self.nodes, boot_wakes(&mut self.frontier));
            let (is_done, on_recover) = (P::is_done, P::on_recover);
            self.tally
                .apply_faults(session, round, nodes, visit, is_done, on_recover);
        }
    }

    /// The multiaccess channel substrate.
    pub fn channels(&self) -> &ChannelSet {
        &self.channels
    }

    /// Applies a dynamic attachment snapshot ([`ChannelSet::reattach`])
    /// between slot boundaries.
    ///
    /// The next boundary's outcome delivery is gated by the **new** masks —
    /// a newly attached node hears the boundary's outcome (including writes
    /// queued under the old attachment, which still resolve), a detached
    /// node observes idle — matching the synchronous engines' between-rounds
    /// semantics ([`EngineControl::reattach`](crate::EngineControl::reattach));
    /// the lockstep equivalence is pinned by the `engine_conformance`
    /// re-attachment scenario.
    ///
    /// # Panics
    ///
    /// Panics if `masks` does not cover exactly the graph's node count or a
    /// mask addresses a channel beyond the set's `K`.
    pub fn reattach(&mut self, masks: &[u64]) {
        let n = self.graph.node_count();
        round::reattach(n, &mut self.channels, &mut self.frontier, masks);
    }

    /// Mutably visits every node's protocol state (call between slot
    /// boundaries, e.g. at quiescence between phases of a multi-phase
    /// pipeline), then recounts the [`Tally`] so the O(1) quiescence
    /// tracking stays sound, and dispatches every node at the next boundary.
    pub fn update_nodes<F: FnMut(NodeId, &mut P)>(&mut self, f: F) {
        let faults = self.faults.as_ref();
        self.tally =
            round::update_nodes(&mut self.nodes, f, P::is_done, faults, &mut self.frontier);
    }

    /// Cost account (rounds = slots elapsed).
    pub fn cost(&self) -> &CostAccount {
        &self.cost
    }

    /// Per-channel breakdown of the channel-scoped counters of
    /// [`cost`](Self::cost); see
    /// [`EngineControl::channel_costs`](crate::EngineControl::channel_costs).
    /// Raw (unreconciled) boundary accounting — under the lockstep
    /// configuration the [`EngineControl`](crate::EngineControl) impl's
    /// `channel_costs` is the one to compare with a synchronous run.
    pub fn channel_costs(&self) -> &[CostAccount] {
        self.fold.costs()
    }

    /// Current time in ticks.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Elapsed time in slot units (the paper's time unit).
    pub fn slots_elapsed(&self) -> u64 {
        self.tick / self.config.slot_ticks
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, v: NodeId) -> &P {
        &self.nodes[v.index()]
    }

    /// Immutable access to all node states.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Total payload slots ever grown by the in-flight slab (its high-water
    /// mark); exposed so slab-reuse tests can assert boundedness.
    pub fn payload_slab_capacity(&self) -> usize {
        self.slab.slots.len()
    }

    /// Consumes the engine, returning the node states and the cost account.
    pub fn into_parts(self) -> (Vec<P>, CostAccount) {
        (self.nodes, self.cost)
    }

    /// Splits the engine into the disjoint borrows of one pass of callbacks
    /// (as the flat engine's `step_active` does for a round): the
    /// per-callback state, the in-flight queue and the sparse wake set.
    fn pass_parts(&mut self) -> (Pass<'_, P>, &mut Flight, &mut Option<Frontier>) {
        let pass = Pass {
            graph: self.graph,
            nodes: &mut self.nodes,
            channels: &self.channels,
            gate: Gate::new(self.faults.as_ref(), &mut self.tally),
            slab: &mut self.slab,
            outbox: &mut self.outbox,
            slots: self.fold.slots(),
            lanes: self.fold.lanes(),
            tick: self.tick,
            keep_wakes: self.frontier.is_some(),
        };
        (pass, &mut self.flight, &mut self.frontier)
    }

    /// Folds everything a finished pass staged into the engine, in staging
    /// order, and retires the staging epoch (the pass's done transitions
    /// went to the [`Tally`] at [`Gate::finish`]).
    /// Runs at exactly three points: after the start pass, after a tick's
    /// deliveries, after a boundary's callbacks (see the module docs).
    fn fold_staged(&mut self) {
        let k = self.channels.channels() as usize;
        let staged = &mut self.outbox;
        if let Some(f) = &mut self.frontier {
            f.wake_run(staged.wakes.drain(..).map(|v| v as usize));
        }

        // Only the last request per node, channel and slot counts — whether
        // the earlier one came from this pass or from an earlier callback
        // of the slot; a replaced payload retires to the graveyard.
        for (chan, v, h) in staged.chan_writes.drain(..) {
            let msg = staged.arena.take(h);
            match self.slot_writes[v.index() * k + chan.index()].replace(msg) {
                Some(old) => self.slab.park(old, k),
                None => self.writers.push((v, chan)),
            }
        }
        // Lane words OR-merge per (node, channel) instead of replacing.
        for (chan, v, word) in staged.lane_writes.drain(..) {
            match &mut self.lane_slot_writes[v.index() * k + chan.index()] {
                Some(w) => *w |= word,
                queued => {
                    *queued = Some(word);
                    self.lane_writers.push((v, chan));
                }
            }
        }

        // A run of entries sharing a handle is one `send` / `send_all` call:
        // its payload is interned once, with the *surviving* reference
        // count.  Drops apply before a copy ever enters the in-flight heap —
        // charged as sent (plus the drop counter), never scheduled — and
        // the coin is keyed by the sending tick and the directed edge: under
        // the lockstep configuration the tick is the round, giving
        // bit-identical drops to the round engines.
        let (tick, max_delay) = (self.tick, self.config.max_delay_ticks);
        for copies in staged.entries.chunk_by_mut(|a, b| a.2 == b.2) {
            let (_, from, h) = copies[0];
            let from = NodeId(from as usize);
            let mut surviving = copies.len();
            if let Some(faults) = &self.faults {
                surviving = 0;
                for i in 0..copies.len() {
                    if !faults.drops_message(tick, from, NodeId(copies[i].0 as usize)) {
                        copies[surviving] = copies[i];
                        surviving += 1;
                    }
                }
            }
            self.cost.add_messages(copies.len() as u64);
            self.cost
                .add_dropped_messages((copies.len() - surviving) as u64);
            let msg = staged.arena.take(h);
            if surviving == 0 {
                self.slab.park(msg, k);
                continue;
            }
            let slot = self.slab.intern(msg, surviving as u32);
            for &(to, ..) in &copies[..surviving] {
                let to = NodeId(to as usize);
                self.flight.schedule(tick, max_delay, from, to, slot);
            }
        }
        staged.entries.clear();
        staged.arena.expire();
    }

    /// Returns `true` when every node is done, nothing is in flight, and no
    /// channel write is pending.  O(1).  Under an installed fault plan,
    /// nodes whose lifecycle is `Off` or `Crashed` count as settled — they
    /// can never take another callback.
    pub fn is_quiescent(&self) -> bool {
        self.tally.settled() == self.nodes.len()
            && self.flight.heap.is_empty()
            && self.writers.is_empty()
            && self.lane_writers.is_empty()
    }

    fn deliver_due(&mut self) {
        let (mut pass, flight, frontier) = self.pass_parts();
        while let Some(&Reverse((when, _, to, from, slot))) = flight.heap.peek() {
            if when > pass.tick {
                break;
            }
            flight.heap.pop();
            // Check the payload out of the slab for the duration of the
            // callback, then check it back in: it stays in its slot while
            // other deliveries of the same broadcast are outstanding and
            // retires to the free list + graveyard after the last one.
            let msg = pass.slab.check_out(slot);
            // A message arriving at a non-operational node is silently lost
            // (not a counted drop — it *was* delivered, there is just nobody
            // there to read it); the slab reference is still released.  A
            // delivery is boundary work: the receiver may have state to
            // surface at the next `on_boundary` (the lockstep adapter steps
            // on buffered inboxes, for one).
            if pass.call(to, |node, ctx| node.on_message(NodeId(from), &msg, ctx)) {
                if let Some(f) = frontier {
                    f.wake(to);
                }
            }
            pass.slab.check_in(slot, msg);
        }
        pass.gate.finish();
        self.fold_staged();
    }

    fn resolve_slot_boundary(&mut self) {
        // Resolve every channel's slot from the queued writes.  The winner
        // of a `Success` slot is **moved** into the outcome (the flat-engine
        // counterpart delivers a handle); colliding payloads retire straight
        // to the graveyard.  Everything here is pooled.
        let k = self.channels.channels() as usize;
        debug_assert!(self.fold.slots().iter().all(SlotOutcome::is_idle));
        let slab = &mut self.slab;
        for (v, chan) in self.writers.drain(..) {
            let msg = self.slot_writes[v.index() * k + chan.index()].take();
            self.fold
                .write(chan, v, msg.expect("queued write"), |m| slab.park(m, k));
        }
        for (v, chan) in self.lane_writers.drain(..) {
            let word = self.lane_slot_writes[v.index() * k + chan.index()].take();
            self.fold
                .write_lanes(chan, word.expect("queued lane write"));
        }
        // Churn accounting: this boundary accounts the slot whose writes
        // were staged up to the previous tick, so it is charged the
        // non-operational count captured before this tick's transitions.
        if self.pending_crashed > 0 {
            self.cost.add_crashed_rounds(self.pending_crashed);
        }
        // The slot being resolved carries the writes of the *previous* round
        // under the lockstep mapping, so the erasure coin is keyed by
        // boundary index − 1 — bit-identical to the round engines'
        // `(round, channel)` draw when `slot_ticks == 1`.  An erased winner's
        // payload is recycled like any retired message.
        let erase_round = (self.tick / self.config.slot_ticks).saturating_sub(1);
        let park = |lost| slab.park(lost, k);
        self.fold
            .settle(self.faults.as_ref(), erase_round, &mut self.cost, park);
        if let Some(frontier) = &mut self.frontier {
            frontier.wake_channels(self.fold.busy());
        }

        // Dispatch the boundary: one `on_boundary` call per node over the
        // pooled outcome slices, so the per-callback bookkeeping is not
        // multiplied by K.  Dense (or an all-active wake set): every
        // operational node.  Sparse: only the woken nodes, in ascending node
        // index — identical to dense for boundary-safe protocols, because a
        // skipped callback would have observed only idle outcomes and staged
        // nothing (in particular, no RNG draws are skipped).  Wakeups raised
        // by these callbacks are staged like everything else and reach the
        // *next* boundary's set at the fold.
        let n = self.nodes.len();
        let (mut pass, _, frontier) = self.pass_parts();
        let boundary = |node: &mut P, ctx: &mut AsyncCtx<'_, P::Msg>| {
            node.on_boundary(ctx.slots, ctx.lanes, ctx)
        };
        match frontier.as_mut().map(Frontier::advance) {
            Some(Active::Members(woken)) => {
                for vi in woken.ones() {
                    pass.call(vi, boundary);
                }
            }
            _ => {
                for vi in 0..n {
                    pass.call(vi, boundary);
                }
            }
        }
        pass.gate.finish();
        self.fold_staged();

        // Retire the boundary's winning payloads for recycling.
        self.fold.clear(|msg| self.slab.park(msg, k));
    }

    /// Runs until quiescence or until `max_ticks` ticks have elapsed.
    /// Returns `true` when the run completed.
    ///
    /// With a fault plan installed, fault round `t` is applied at the top of
    /// tick `t` (round 0 before the start callbacks): crashes take effect
    /// before any of the tick's deliveries or boundary callbacks, exactly as
    /// the round engines apply them before the round's steps.
    pub fn run(&mut self, max_ticks: u64) -> bool {
        if !self.started {
            self.advance();
        }
        while self.tick < max_ticks {
            if self.is_quiescent() {
                return true;
            }
            self.advance();
        }
        self.is_quiescent()
    }

    /// `true` once the start callbacks have run.
    pub(crate) fn started(&self) -> bool {
        self.started
    }

    /// One unconditional unit of progress: the start callbacks on a fresh
    /// engine, one tick afterwards.  [`AsyncEngine::run`] is this in a loop;
    /// the lockstep [`EngineControl`](crate::EngineControl) impl calls it
    /// once per round.
    pub(crate) fn advance(&mut self) {
        if !self.started {
            self.started = true;
            self.apply_fault_round(0);
            let n = self.nodes.len();
            let (mut pass, ..) = self.pass_parts();
            for vi in 0..n {
                pass.call(vi, |node, ctx| node.on_start(ctx));
            }
            pass.gate.finish();
            self.fold_staged();
            return;
        }
        self.tick += 1;
        self.apply_fault_round(self.tick);
        self.deliver_due();
        if self.tick.is_multiple_of(self.config.slot_ticks) {
            self.resolve_slot_boundary();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NodeLifecycle;
    use netsim_graph::generators;

    /// Node 0 sends a token to all neighbours; every receiver acknowledges on
    /// the channel (colliding is fine, we only check delivery).
    struct PingAll {
        id: NodeId,
        got: bool,
        started: bool,
    }

    impl AsyncProtocol for PingAll {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut AsyncCtx<'_, u32>) {
            if self.id == NodeId(0) {
                ctx.send_all(7);
                self.started = true;
                self.got = true;
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: &u32, _ctx: &mut AsyncCtx<'_, u32>) {
            assert_eq!(*msg, 7);
            self.got = true;
        }
        fn on_slot(&mut self, _o: &SlotOutcome<u32>, _ctx: &mut AsyncCtx<'_, u32>) {}
        fn is_done(&self) -> bool {
            self.got
        }
    }

    #[test]
    fn messages_arrive_despite_delays() {
        let g = generators::star(6);
        let cfg = AsyncConfig {
            slot_ticks: 3,
            max_delay_ticks: 3,
            seed: 42,
        };
        let mut eng = AsyncEngine::new(&g, cfg, |id| PingAll {
            id,
            got: false,
            started: false,
        });
        assert!(eng.run(1000));
        for v in g.nodes() {
            assert!(eng.node(v).got, "node {v} did not receive the token");
        }
        assert_eq!(eng.cost().p2p_messages, 5);
        assert!(eng.tick() <= 3, "delays are bounded by max_delay_ticks");
        // The broadcast was interned once, not five times.
        assert_eq!(eng.payload_slab_capacity(), 1);
    }

    /// All nodes write once; the slot must resolve as a collision for n >= 2.
    struct WriteOnce {
        wrote: bool,
        saw: Option<bool>,
    }
    impl AsyncProtocol for WriteOnce {
        type Msg = u8;
        fn on_start(&mut self, ctx: &mut AsyncCtx<'_, u8>) {
            ctx.write_channel(1);
            self.wrote = true;
        }
        fn on_message(&mut self, _f: NodeId, _m: &u8, _c: &mut AsyncCtx<'_, u8>) {}
        fn on_slot(&mut self, o: &SlotOutcome<u8>, _c: &mut AsyncCtx<'_, u8>) {
            if self.saw.is_none() {
                self.saw = Some(o.is_collision());
            }
        }
        fn is_done(&self) -> bool {
            self.saw.is_some()
        }
    }

    /// Every node contributes one bit of a lane word at start; all must hear
    /// the OR of the fleet's bits at the next boundary.
    struct LaneOnce {
        id: NodeId,
        heard: Option<LaneOutcome>,
    }
    impl AsyncProtocol for LaneOnce {
        type Msg = u8;
        fn on_start(&mut self, ctx: &mut AsyncCtx<'_, u8>) {
            ctx.write_lanes_on(ChannelId::DEFAULT, 1u64 << self.id.index());
        }
        fn on_message(&mut self, _f: NodeId, _m: &u8, _c: &mut AsyncCtx<'_, u8>) {}
        fn on_lanes_on(&mut self, chan: ChannelId, lanes: &LaneOutcome, _c: &mut AsyncCtx<'_, u8>) {
            if chan == ChannelId::DEFAULT && self.heard.is_none() && !lanes.is_idle() {
                self.heard = Some(*lanes);
            }
        }
        fn is_done(&self) -> bool {
            self.heard.is_some()
        }
    }

    #[test]
    fn lane_boundaries_or_merge_words() {
        let g = generators::ring(5);
        let mut eng = AsyncEngine::new(&g, AsyncConfig::default(), |id| LaneOnce {
            id,
            heard: None,
        });
        assert!(eng.run(100));
        for v in g.nodes() {
            assert_eq!(eng.node(v).heard, Some(LaneOutcome::Word(0b11111)));
        }
        assert_eq!(eng.cost().lane_writes, 5);
        assert_eq!(eng.cost().lanes_busy, 1);
        assert_eq!(eng.cost().slots_collision, 0);
        assert!(eng.is_quiescent());
    }

    #[test]
    fn slot_boundaries_resolve_collisions() {
        let g = generators::ring(5);
        let mut eng = AsyncEngine::new(&g, AsyncConfig::default(), |_| WriteOnce {
            wrote: false,
            saw: None,
        });
        assert!(eng.run(100));
        for v in g.nodes() {
            assert_eq!(eng.node(v).saw, Some(true));
        }
        assert_eq!(eng.cost().slots_collision, 1);
        assert!(eng.slots_elapsed() >= 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::random_connected(20, 0.2, 3);
        let cfg = AsyncConfig {
            slot_ticks: 4,
            max_delay_ticks: 4,
            seed: 11,
        };
        let run = |cfg: AsyncConfig| {
            let mut eng = AsyncEngine::new(&g, cfg, |id| PingAll {
                id,
                got: false,
                started: false,
            });
            eng.run(10_000);
            (eng.tick(), eng.cost().p2p_messages)
        };
        assert_eq!(run(cfg), run(cfg));
    }

    /// A write in every slot and steady message churn: exercises the payload
    /// slab free list and the writers list over many slots.
    struct Chatter {
        id: NodeId,
        slots_seen: u32,
        target: u32,
    }
    impl AsyncProtocol for Chatter {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut AsyncCtx<'_, u64>) {
            ctx.send_all(0);
            if self.id == NodeId(0) {
                ctx.write_channel(0);
            }
        }
        fn on_message(&mut self, _f: NodeId, hops: &u64, ctx: &mut AsyncCtx<'_, u64>) {
            if *hops < 50 {
                ctx.send(ctx.neighbors().target(0), *hops + 1);
            }
        }
        fn on_slot(&mut self, _o: &SlotOutcome<u64>, ctx: &mut AsyncCtx<'_, u64>) {
            self.slots_seen += 1;
            if self.id == NodeId(0) && self.slots_seen < self.target {
                ctx.write_channel(u64::from(self.slots_seen));
            }
        }
        fn is_done(&self) -> bool {
            self.slots_seen >= self.target
        }
    }

    #[test]
    fn slab_and_writers_recycle_across_slots() {
        let g = generators::ring(6);
        let mut eng = AsyncEngine::new(&g, AsyncConfig::default(), |id| Chatter {
            id,
            slots_seen: 0,
            target: 20,
        });
        assert!(eng.run(1_000_000));
        assert!(eng.cost().slots_success >= 19);
        assert!(eng.is_quiescent());
        // Every payload slot must have been recycled back to the free list.
        assert_eq!(eng.slab.free.len(), eng.slab.slots.len());
        assert!(eng.slab.slots.iter().all(Option::is_none));
        assert!(eng.slab.refs.iter().all(|&r| r == 0));
    }

    /// Broadcast payloads are shared: every receiver must observe the same
    /// value, the slab must hold one slot per *broadcast* (not per
    /// delivery), and the slot must be freed only after the last delivery.
    struct ShareCheck {
        id: NodeId,
        rounds: u64,
        heard: u64,
    }
    impl AsyncProtocol for ShareCheck {
        type Msg = Vec<u64>;
        fn on_start(&mut self, ctx: &mut AsyncCtx<'_, Vec<u64>>) {
            if self.id == NodeId(0) {
                ctx.send_all(vec![0, 42]);
                self.rounds = 1;
            }
        }
        fn on_message(&mut self, _f: NodeId, msg: &Vec<u64>, _c: &mut AsyncCtx<'_, Vec<u64>>) {
            assert_eq!(msg[1], 42, "shared broadcast payload corrupted");
            self.heard += 1;
        }
        fn on_slot(&mut self, _o: &SlotOutcome<Vec<u64>>, ctx: &mut AsyncCtx<'_, Vec<u64>>) {
            if self.id == NodeId(0) && self.rounds < 9 {
                let mut frame = ctx.recycle_payload().unwrap_or_default();
                frame.clear();
                frame.extend_from_slice(&[self.rounds, 42]);
                ctx.send_all(frame);
                self.rounds += 1;
            }
        }
        fn is_done(&self) -> bool {
            self.id != NodeId(0) || self.rounds >= 9
        }
    }

    #[test]
    fn broadcast_interns_once_and_recycles() {
        let g = generators::complete(8);
        let mut eng = AsyncEngine::new(&g, AsyncConfig::default(), |id| ShareCheck {
            id,
            rounds: 0,
            heard: 0,
        });
        assert!(eng.run(100_000));
        // 9 broadcasts of degree 7 = 63 deliveries, but the slab holds one
        // slot per *broadcast*, and delays (≤ 1 slot) keep at most a couple
        // of broadcasts in flight at once — far fewer slots than deliveries.
        assert_eq!(eng.cost().p2p_messages, 9 * 7);
        assert!(
            eng.payload_slab_capacity() <= 4,
            "slab grew one slot per delivery: {}",
            eng.payload_slab_capacity()
        );
        let heard: u64 = g.nodes().map(|v| eng.node(v).heard).sum();
        assert_eq!(heard, 9 * 7);
    }

    #[test]
    fn initially_off_node_is_silent_and_exempt() {
        let g = generators::star(4);
        let mut eng = AsyncEngine::new(&g, AsyncConfig::default(), |id| PingAll {
            id,
            got: false,
            started: false,
        });
        eng.set_fault_plan(FaultPlan::none().with_initial_off(vec![NodeId(2)]));
        assert!(eng.run(1000), "off node must be exempt from quiescence");
        assert!(!eng.node(NodeId(2)).got, "off node took a callback");
        let session = eng.fault_session().expect("plan installed");
        assert_eq!(session.lifecycle(NodeId(2)), NodeLifecycle::Off);
        for v in [NodeId(0), NodeId(1), NodeId(3)] {
            assert!(eng.node(v).got);
        }
        // The hub still sent to all 3 leaves; the copy to the off node was
        // delivered into the void, not dropped.
        assert_eq!(eng.cost().p2p_messages, 3);
        assert_eq!(eng.cost().dropped_messages, 0);
    }

    #[test]
    fn certain_drops_never_deliver() {
        let g = generators::star(4);
        let mut eng = AsyncEngine::new(&g, AsyncConfig::default(), |id| PingAll {
            id,
            got: false,
            started: false,
        });
        eng.set_fault_plan(FaultPlan::from_rates(3, 0.0, 1.0, 0.0, 0.0));
        assert!(!eng.run(50), "leaves can never hear the token");
        for v in [NodeId(1), NodeId(2), NodeId(3)] {
            assert!(!eng.node(v).got);
        }
        assert_eq!(eng.cost().p2p_messages, 3);
        assert_eq!(eng.cost().dropped_messages, 3);
        assert!(!eng.is_quiescent());
        // Nothing lingers in the slab: dropped broadcasts are parked whole.
        assert_eq!(eng.slab.refs.iter().sum::<u32>(), 0);
    }

    #[test]
    fn erased_boundary_reaches_listeners() {
        let g = generators::ring(5);
        let mut eng = AsyncEngine::new(&g, AsyncConfig::default(), |_| WriteOnce {
            wrote: false,
            saw: None,
        });
        eng.set_fault_plan(FaultPlan::from_rates(8, 1.0, 0.0, 0.0, 0.0));
        assert!(eng.run(100));
        // Five simultaneous writers would collide, but the slot is erased:
        // `saw` records `is_collision()`, which is false for `Erased`.
        for v in g.nodes() {
            assert_eq!(eng.node(v).saw, Some(false));
        }
        assert_eq!(eng.cost().slots_collision, 0);
        assert_eq!(eng.cost().erased_slots, 1);
        assert_eq!(eng.cost().channel_writes, 5);
    }

    /// One per-channel observation of a boundary, as a node heard it.
    #[derive(Clone, Debug, PartialEq)]
    enum Heard {
        Lanes(ChannelId, LaneOutcome),
        Slot(ChannelId, SlotOutcome<u8>),
    }

    /// State shared by the two recording twins: node `id` keys its own
    /// channel on a fixed schedule for `left` more boundaries, re-arming
    /// itself so sparse dispatch keeps calling it.
    struct Tape {
        id: NodeId,
        left: u32,
        heard: Vec<Heard>,
    }
    impl Tape {
        fn act(&mut self, ctx: &mut AsyncCtx<'_, u8>) {
            if self.left == 0 {
                return;
            }
            let own = ChannelId((self.id.index() % usize::from(ctx.channels())) as u16);
            assert!(ctx.is_attached(own));
            // One member of the channel's shard keys it per boundary (a
            // success) except when the whole shard does (a collision).
            let turn = self.id.index() as u32 / u32::from(ctx.channels()) + self.left;
            if turn.is_multiple_of(4) || self.left.is_multiple_of(5) {
                ctx.write_channel_on(own, self.id.index() as u8);
            }
            if turn.is_multiple_of(2) {
                ctx.write_lanes_on(own, 1 << self.id.index());
            }
            self.left -= 1;
            ctx.wake_me();
        }
    }

    /// Implements only the per-channel callbacks: everything it hears comes
    /// through `on_boundary`'s default fan-out.
    struct PerChannel(Tape);
    impl AsyncProtocol for PerChannel {
        type Msg = u8;
        fn on_start(&mut self, ctx: &mut AsyncCtx<'_, u8>) {
            self.0.act(ctx);
        }
        fn on_message(&mut self, _f: NodeId, _m: &u8, _c: &mut AsyncCtx<'_, u8>) {}
        fn on_lanes_on(&mut self, chan: ChannelId, lanes: &LaneOutcome, _c: &mut AsyncCtx<'_, u8>) {
            self.0.heard.push(Heard::Lanes(chan, *lanes));
        }
        fn on_slot_on(&mut self, chan: ChannelId, o: &SlotOutcome<u8>, ctx: &mut AsyncCtx<'_, u8>) {
            self.0.heard.push(Heard::Slot(chan, o.clone()));
            if chan.0 + 1 == ctx.channels() {
                self.0.act(ctx);
            }
        }
        fn is_done(&self) -> bool {
            self.0.left == 0
        }
    }

    /// The twin that overrides `on_boundary` and gates by attachment itself.
    struct Batched(Tape);
    impl AsyncProtocol for Batched {
        type Msg = u8;
        fn on_start(&mut self, ctx: &mut AsyncCtx<'_, u8>) {
            self.0.act(ctx);
        }
        fn on_message(&mut self, _f: NodeId, _m: &u8, _c: &mut AsyncCtx<'_, u8>) {}
        fn on_boundary(
            &mut self,
            slots: &[SlotOutcome<u8>],
            lanes: &[LaneOutcome],
            ctx: &mut AsyncCtx<'_, u8>,
        ) {
            assert_eq!((slots.len(), lanes.len()), (3, 3), "one entry per channel");
            for c in 0..ctx.channels() {
                let word = lanes[usize::from(c)];
                let on = ctx.is_attached(ChannelId(c));
                let heard = if on { word } else { LaneOutcome::Idle };
                self.0.heard.push(Heard::Lanes(ChannelId(c), heard));
            }
            for c in 0..ctx.channels() {
                let outcome = slots[usize::from(c)].clone();
                let on = ctx.is_attached(ChannelId(c));
                let heard = if on { outcome } else { SlotOutcome::Idle };
                self.0.heard.push(Heard::Slot(ChannelId(c), heard));
            }
            self.0.act(ctx);
        }
        fn is_done(&self) -> bool {
            self.0.left == 0
        }
    }

    /// Runs a twin on a 12-node ring sharded over 3 channels and returns
    /// every node's tape.
    fn record<P: AsyncProtocol<Msg = u8>>(
        wrap: fn(Tape) -> P,
        tape: fn(&P) -> &Tape,
        sparse: bool,
        plan: Option<FaultPlan>,
    ) -> Vec<Vec<Heard>> {
        let g = generators::ring(12);
        let channels = ChannelSet::sharded(3, 12, |v| ChannelId((v.index() % 3) as u16));
        let mut eng = AsyncEngine::with_channels(&g, AsyncConfig::default(), channels, |id| {
            wrap(Tape {
                id,
                left: 10,
                heard: Vec::new(),
            })
        });
        if sparse {
            eng.enable_sparse_boundaries();
        }
        if let Some(plan) = plan {
            eng.set_fault_plan(plan);
        }
        assert!(eng.run(1_000));
        eng.nodes().iter().map(|p| tape(p).heard.clone()).collect()
    }

    #[test]
    fn default_boundary_fan_out_contract() {
        let erasures = || Some(FaultPlan::from_rates(5, 0.4, 0.0, 0.0, 0.0));
        for plan in [None, erasures()] {
            let faulted = plan.is_some();
            let dense = record(PerChannel, |p| &p.0, false, plan.clone());
            // Per boundary: K lane callbacks ascending, then K slot callbacks
            // ascending; a channel the node is not attached to reads idle.
            for (v, heard) in dense.iter().enumerate() {
                assert_eq!(heard.len(), 10 * 6, "node {v} heard every boundary");
                for boundary in heard.chunks(6) {
                    for (c, h) in boundary.iter().enumerate() {
                        let chan = ChannelId((c % 3) as u16);
                        let idle = match h {
                            Heard::Lanes(at, o) => {
                                assert!(c < 3 && *at == chan, "lanes first, ascending");
                                o.is_idle()
                            }
                            Heard::Slot(at, o) => {
                                assert!(c >= 3 && *at == chan, "then slots, ascending");
                                o.is_idle()
                            }
                        };
                        assert!(idle || c % 3 == v % 3, "unattached channel heard busy");
                    }
                }
            }
            let all = dense.concat();
            assert!(all
                .iter()
                .any(|h| matches!(h, Heard::Slot(_, o) if o.is_success())));
            assert!(all
                .iter()
                .any(|h| matches!(h, Heard::Slot(_, o) if o.is_collision())));
            assert!(all
                .iter()
                .any(|h| matches!(h, Heard::Lanes(_, LaneOutcome::Word(_)))));
            assert_eq!(
                faulted,
                all.iter()
                    .any(|h| matches!(h, Heard::Slot(_, o) if o.is_erased())),
                "the erasure plan (and only it) erases slots"
            );
            // Sparse dispatch and the `on_boundary`-overriding twin observe
            // exactly the same tapes.
            assert_eq!(dense, record(PerChannel, |p| &p.0, true, plan.clone()));
            assert_eq!(dense, record(Batched, |p| &p.0, false, plan.clone()));
            assert_eq!(dense, record(Batched, |p| &p.0, true, plan));
        }
    }

    #[test]
    #[should_panic]
    fn zero_slot_ticks_rejected() {
        let g = generators::path(2);
        let cfg = AsyncConfig {
            slot_ticks: 0,
            max_delay_ticks: 1,
            seed: 0,
        };
        let _ = AsyncEngine::new(&g, cfg, |id| PingAll {
            id,
            got: false,
            started: false,
        });
    }
}
