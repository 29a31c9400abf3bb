//! The synchronous round engine.
//!
//! The engine owns one [`Protocol`] instance per node and advances the whole
//! multimedia network one round at a time: in each round every node takes a
//! step (observing last round's deliveries and the previous slot outcome of
//! every channel it is attached to), then all point-to-point messages are put
//! in flight for delivery at the next round and one slot is resolved **per
//! channel** of the engine's [`ChannelSet`] (the paper's single channel is
//! the default).  Costs are tallied in a [`CostAccount`](crate::CostAccount).
//!
//! # Zero-allocation message plumbing
//!
//! The per-round hot path is allocation-free in steady state.  Message
//! delivery is double-buffered through two flat buffers that swap roles each
//! round:
//!
//! * the **inbox arena** — a CSR-style layout: one flat
//!   `Vec<(from, handle)>` of 8-byte entries plus an `offsets` index such
//!   that node `v`'s inbox for the current round is
//!   `arena[offsets[v]..offsets[v + 1]]`;
//! * the **staging buffer** — sends of the current round, appended in
//!   sender order as 12-byte `(to, from, handle)` triples through the pooled
//!   [`OutboxBuffer`] (a broadcast copies its `u32` CSR row straight in).
//!
//! Both buffers store node ids as 32-bit indices — the graph's CSR index
//! space — and [`Inbox`] hands senders back out as [`NodeId`]s.  Payloads
//! themselves never enter either buffer: a send interns its payload once
//! into a [`PayloadArena`](crate::PayloadArena) and both buffers move
//! 4-byte [`PayloadHandle`](crate::PayloadHandle)s — a broadcast over `d`
//! links stores one payload, not `d` clones, so non-`Copy` message types
//! (`Vec<u8>` frames, wrapper enums) ride the same zero-copy path as `u64`s.
//! The engine keeps two payload arenas and swaps their roles each round
//! (stage into one, deliver from the other), expiring the delivered epoch
//! wholesale; see the [`payload`](crate::payload) module docs.
//!
//! **Channel writes ride the same plumbing**: a write is interned into the
//! staging arena and staged as a `(channel, writer, handle)` triple; slot
//! resolution produces handle-based outcomes resolved against the delivery
//! arena ([`RoundIo::prev_slot_on`] borrows the winner in place), so
//! resolving a slot never clones a message and the winner's buffer is
//! recycled like any delivered payload.
//!
//! After all nodes have stepped, the staging buffer is bucketed by receiver
//! into the (cleared, capacity-retaining) arena using per-receiver chains —
//! an O(n + k) stable counting bucket, no sorting, no per-node `Vec`s.  All
//! auxiliary buffers (chain heads, links, channel writes, payload slabs) are
//! pooled across rounds, so once capacities have grown to the workload's
//! high-water mark, `step_round` performs **zero heap allocations** (verified
//! by the `alloc_steady_state` integration test — for `Copy` *and* for
//! heap-carrying payloads, the latter via payload recycling).
//!
//! # Cache-aware receiver bucketing
//!
//! On large graphs the single-pass chain bucket walks the whole staging
//! buffer in receiver order, which on index-random topologies (random,
//! geometric, expander) means a cache miss per message: the chain heads span
//! the full `n`-entry array and the chain links jump all over the staging
//! buffer.  Above [`RADIX_MIN_NODES`] the scatter therefore runs in two
//! passes, radix-partitioned on the high bits of the receiver's CSR node
//! index: pass one streams the staging buffer once and scatters each message
//! into its receiver *block* (contiguous ranges of `2^BLOCK_SHIFT` node
//! indices — a handful of sequential write streams); pass two runs the
//! stable chain bucket *within* each block, where the chain heads, links and
//! messages all fit in cache.  Both passes are stable, so the delivery order
//! is bit-for-bit identical to the single-pass path, and both use pooled
//! buffers only.
//!
//! Because the partition pass costs one extra move per message, a streaming
//! *locality probe* gates it: when the staged receiver sequence is already
//! (almost) block-monotonic — ring, grid, and clustered topologies, whose
//! single-pass bucket is cache-friendly by construction — the engine keeps
//! the one-pass path and pays only the probe's sequential scan.
//!
//! # Sparse (active-set) stepping
//!
//! Built with [`EngineBuilder::sparse`], the engine steps only the nodes on
//! the activity frontier (see there for the frontier-safety contract on the
//! protocol).  The frontier is a pair of two-level bitsets (next / active:
//! one bit per node plus one summary bit per 64-node word), swapped at the
//! start of every round.  Stepping walks the active set through its summary,
//! which visits members in **ascending node index by construction** — the
//! order that keeps every receiver's inbox sorted by sender — with no member
//! list and no sort.  A non-idle outcome on channel `c` wakes its listeners
//! by OR-ing a per-channel member bitset (rebuilt only by
//! [`reattach`](EngineControl::reattach)) into the next set; under uniform
//! attachment it wakes everyone.  The bitsets cost `(2 + K) · n / 8` bytes.
//!
//! Idle nodes are skipped *lazily*: the sparse inbox index is a per-node
//! `(start, len)` range, and a rebuild touches only two sets of entries —
//! last round's receivers are emptied, then this round's receivers get
//! their fresh ranges.  A range is therefore non-empty only while it points
//! into the current arena; no per-node clearing pass ever runs, which is
//! what makes a fully idle round O(1) in `n`.  Sparse stepping reads only
//! these ranges: the dense `offsets` index is not allocated.
//!
//! # Determinism contract
//!
//! Each node's inbox is ordered by the **sender's node index** (and, per
//! sender, by send order within the round).  One sequential pass steps the
//! active nodes in ascending index into one staging buffer, so sends,
//! channel writes and lane words are all staged in node-index order and a
//! run is a pure function of the graph, the protocol states and the fault
//! plan.  Quiescence is tracked in O(1) with the shared [`Tally`] and the
//! in-flight arena length.

use crate::channel::{ChannelId, ChannelSet, LaneOutcome, SlotOutcome, SlotState};
use crate::control::{EngineBuilder, EngineControl};
use crate::fault::{FaultPlan, FaultSession};
use crate::frontier::{Active, Frontier};
use crate::metrics::CostAccount;
use crate::node::{Delivery, Inbox, OutboxBuffer, Protocol, RoundIo, Slots, Staged};
use crate::payload::{PayloadArena, PayloadHandle};
use crate::round::{self, boot_wakes, ChannelFold, Gate, Tally};
use netsim_graph::{Graph, NodeId};

/// Chain terminator for the receiver-bucketing pass.
const NIL: u32 = u32::MAX;

/// Fallback log₂ of the receiver-block width of the radix scatter when the
/// cache probe fails: each block covers `2^11 = 2048` consecutive node
/// indices, sized so one block's chain heads, links, and staged messages
/// stay cache-resident on a typical 512 KiB–1 MiB L2.
const DEFAULT_BLOCK_SHIFT: u32 = 11;

/// Bounds on the tuned block shift: 512-node blocks are the smallest worth
/// the partition pass, 8192-node blocks the largest that plausibly fit any
/// per-core cache.
const BLOCK_SHIFT_RANGE: (u32, u32) = (9, 13);

/// Node count below which the radix pass is skipped: the whole chain-head
/// array already fits in cache, so one pass beats two.
const RADIX_MIN_NODES: usize = 1 << 14;

/// The radix block shift used by every engine constructed in this process:
/// probed once from the CPU's reported L2 cache size and cached.
///
/// A block's working set during the chain-bucket pass is roughly 128 bytes
/// per node index (chain head + link + a handful of staged `(to, from,
/// handle)` triples at typical degree), so the block is sized to half the
/// L2: `2^shift ≈ L2 / 2 / 128`, clamped to `[9, 13]`.  When the probe
/// fails (non-Linux, masked sysfs), the hard-coded default of 11 (2048-node
/// blocks) is kept.
pub(crate) fn tuned_block_shift() -> u32 {
    static SHIFT: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *SHIFT.get_or_init(|| probe_block_shift().unwrap_or(DEFAULT_BLOCK_SHIFT))
}

/// Reads the L2 data-cache size from sysfs and derives the block shift; see
/// [`tuned_block_shift`].  Returns `None` when the probe cannot run — the
/// file is absent (non-Linux, masked sysfs) or its contents are malformed.
fn probe_block_shift() -> Option<u32> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size").ok()?;
    Some(block_shift_for_l2(parse_l2_size(&text)?))
}

/// Parses a sysfs cache-size string (`"512K\n"`, `"4M"`, `"262144"`) into
/// bytes.  Returns `None` for anything malformed — empty input, stray
/// characters, overflow, or a zero size (a zero-byte cache is a garbled
/// report, not a tuning signal).
fn parse_l2_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, multiplier) = if let Some(d) = text.strip_suffix(['K', 'k']) {
        (d, 1024u64)
    } else if let Some(d) = text.strip_suffix(['M', 'm']) {
        (d, 1024 * 1024)
    } else {
        (text, 1)
    };
    let bytes = digits.parse::<u64>().ok()?.checked_mul(multiplier)?;
    if bytes == 0 {
        return None;
    }
    Some(bytes)
}

/// Derives the radix block shift from an L2 size in bytes; total for every
/// input and always within [`BLOCK_SHIFT_RANGE`].
fn block_shift_for_l2(l2_bytes: u64) -> u32 {
    let nodes_per_block = (l2_bytes / 2 / 128).max(1);
    nodes_per_block
        .ilog2()
        .clamp(BLOCK_SHIFT_RANGE.0, BLOCK_SHIFT_RANGE.1)
}

/// Why a run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every node reported [`Protocol::is_done`] and no messages were in flight.
    Completed {
        /// Rounds executed.
        rounds: u64,
    },
    /// The round limit was reached before completion.
    RoundLimit {
        /// Rounds executed (equals the limit).
        rounds: u64,
    },
}

impl RunOutcome {
    /// Rounds executed in either case.
    pub fn rounds(&self) -> u64 {
        match *self {
            RunOutcome::Completed { rounds } | RunOutcome::RoundLimit { rounds } => rounds,
        }
    }

    /// `true` when the run completed (rather than hitting the limit).
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed { .. })
    }
}

/// One round's stepping pass, dense or sparse: what every step reads (the
/// delivery side of the round), the engine's one staging [`OutboxBuffer`]
/// every step writes into, and the pass's [`Gate`] and step count.
struct Pass<'a, M> {
    graph: &'a Graph,
    arena: &'a [Delivery],
    payloads: &'a PayloadArena<M>,
    /// Dense inbox index: node `v` reads `arena[offsets[v]..offsets[v + 1]]`.
    offsets: &'a [usize],
    /// Sparse inbox index: node `v` reads `arena[inbox_ranges[v]]`, which is
    /// empty unless `v` received mail last round.
    inbox_ranges: &'a [(u32, u32)],
    channels: &'a ChannelSet,
    /// The last resolved round's outcomes (slot winners as handles into
    /// `payloads`), as slices: read through the [`ChannelFold`] on every
    /// step, they cost the step loop ≈ 5 %.
    slots: &'a [SlotOutcome<PayloadHandle>],
    lanes: &'a [LaneOutcome],
    round: u64,
    gate: Gate<'a>,
    outbox: &'a mut OutboxBuffer<M>,
    /// Node indices stepped, ascending; recorded only under sparse stepping.
    stepped_list: &'a mut Vec<u32>,
    stepped: u64,
}

impl<M> Pass<'_, M> {
    /// Steps node `vi` once inside the pass's [`Gate`], staging its outputs
    /// into the outbox; `SPARSE` selects the inbox index and records the
    /// node in the stepped list.  The one step body of the engine: forced
    /// inline so each loop of [`SyncEngine::step_active`] compiles to a
    /// straight-line body around `P::step`.  A node that crashed while on
    /// the frontier is gated exactly like the dense path gates it, and its
    /// frontier slot simply expires with this round.
    #[inline(always)]
    fn step<P: Protocol<Msg = M>, const SPARSE: bool>(&mut self, vi: usize, node: &mut P) {
        if !self.gate.admits(vi) {
            return;
        }
        let entries = if SPARSE {
            let (start, len) = self.inbox_ranges[vi];
            &self.arena[start as usize..(start + len) as usize]
        } else {
            &self.arena[self.offsets[vi]..self.offsets[vi + 1]]
        };
        let v = NodeId(vi);
        let was_done = node.is_done();
        node.step(&mut RoundIo {
            node: v,
            round: self.round,
            neighbors: self.graph.neighbors(v),
            inbox: Inbox::arena(entries, self.payloads),
            slots: Slots::Arena {
                outcomes: self.slots,
                payloads: self.payloads,
            },
            lanes: self.lanes,
            attached: self.channels.mask(v),
            outbox: &mut *self.outbox,
        });
        self.gate.book(was_done, node.is_done());
        self.stepped += 1;
        if SPARSE {
            self.stepped_list.push(vi as u32);
        }
    }
}

/// Synchronous executor of a [`Protocol`] over a multimedia network.
///
/// # Examples
///
/// ```
/// use netsim_graph::{generators, NodeId};
/// use netsim_sim::{EngineControl, Protocol, RoundIo, SyncEngine};
///
/// /// Every node broadcasts "hello" to its neighbours in round 0 and stops.
/// struct Hello { heard: usize, done: bool }
/// impl Protocol for Hello {
///     type Msg = ();
///     fn step(&mut self, io: &mut RoundIo<'_, ()>) {
///         if io.round() == 0 { io.send_all(()); }
///         self.heard += io.inbox().len();
///         if io.round() >= 1 { self.done = true; }
///     }
///     fn is_done(&self) -> bool { self.done }
/// }
///
/// let g = generators::ring(5);
/// let mut engine = SyncEngine::new(&g, |_| Hello { heard: 0, done: false });
/// let outcome = engine.run(10);
/// assert!(outcome.is_completed());
/// assert_eq!(engine.node(NodeId(0)).heard, 2);
/// ```
#[derive(Debug)]
pub struct SyncEngine<'g, P: Protocol> {
    graph: &'g Graph,
    nodes: Vec<P>,
    /// The multiaccess channel substrate: `K` channels + per-node attachment.
    channels: ChannelSet,
    /// Flat inbox arena for the current round: node `v` receives
    /// `arena[offsets[v]..offsets[v + 1]]`, ordered by sender index.  Each
    /// entry is `(from index, payload handle)`; the payload lives in
    /// `payloads`.
    arena: Vec<Delivery>,
    /// Delivery-side payload arena: resolves the handles in `arena` **and**
    /// the slot winners in `fold`.  Swaps roles with the staging
    /// arena inside `outbox` every round.
    payloads: PayloadArena<P::Msg>,
    /// CSR index into `arena` of dense stepping; length `n + 1` when dense,
    /// empty under sparse stepping (which reads `inbox_ranges`).
    offsets: Vec<usize>,
    /// Pooled staging buffer of the current round: every stepped node's
    /// sends, channel writes, lane words and wakeups, in node-index order.
    outbox: OutboxBuffer<P::Msg>,
    /// Every channel's outcome of the last resolved round — slot winners
    /// as handles into `payloads`, lane words bare — and busy mask (cached,
    /// so quiescence stays O(1)), plus the per-channel accounts: the
    /// contention signal [`reshard::ContentionMonitor`](crate::reshard)
    /// consumes as deltas.
    fold: ChannelFold<PayloadHandle>,
    /// Pooled per-receiver chain heads for the bucketing pass; length `n`.
    heads: Vec<u32>,
    /// Pooled chain links, parallel to the staging buffer.
    links: Vec<u32>,
    /// Pooled radix-partitioned copy of the staging buffer (large graphs
    /// only; empty below [`RADIX_MIN_NODES`]).
    scratch: Vec<Staged>,
    /// Pooled per-block write cursors of the radix pass; length `blocks + 1`.
    block_cursors: Vec<u32>,
    cost: CostAccount,
    round: u64,
    /// Done and undone-exempt node counts, maintained incrementally so
    /// quiescence is O(1).
    tally: Tally,
    /// Injected-fault session, when [`EngineBuilder::fault_plan`] installed
    /// one; `None` keeps every fault check off the hot path.
    faults: Option<FaultSession>,
    /// Activity frontier of the opt-in sparse stepping mode; `None` runs
    /// dense (every node steps every round).
    frontier: Option<Frontier>,
    /// Per-node `(start, len)` inbox ranges into `arena` (see the module
    /// docs): non-empty exactly for the receivers in `touched`; length `n`
    /// under sparse stepping, empty when dense.
    inbox_ranges: Vec<(u32, u32)>,
    /// Pooled list of the receivers of the last sparse rebuild: the only
    /// nodes whose `inbox_ranges` entry is non-empty.
    touched: Vec<u32>,
    /// Node indices stepped in the last executed round, ascending; recorded
    /// only under sparse stepping (pooled).
    last_stepped: Vec<u32>,
    /// Nodes stepped in the last executed round (dense: the operational
    /// count; sparse: the frontier members actually stepped).
    stepped_last_round: u64,
    /// Cumulative nodes stepped across all rounds.
    total_stepped: u64,
    /// Radix block shift used by the dense receiver bucketing; probed once
    /// per process from the cache hierarchy ([`tuned_block_shift`]).
    block_shift: u32,
}

impl<'g, P: Protocol> SyncEngine<'g, P> {
    /// Creates an engine over `graph` with the paper's single-channel model
    /// ([`ChannelSet::single`]), instantiating each node's protocol with
    /// `init(node_id)`: shorthand for
    /// [`EngineBuilder::new(graph).build_flat(init)`](EngineBuilder) — every
    /// other configuration goes through the builder.
    pub fn new<F: FnMut(NodeId) -> P>(graph: &'g Graph, init: F) -> Self {
        EngineBuilder::new(graph).build_flat(init)
    }

    /// The constructor behind [`EngineBuilder::build_flat`]: the builder's
    /// four settings (it has already checked that `channels` covers the
    /// graph) plus the per-node initialiser.
    pub(crate) fn build<F: FnMut(NodeId) -> P>(
        graph: &'g Graph,
        channels: ChannelSet,
        plan: Option<FaultPlan>,
        sparse: bool,
        mut init: F,
    ) -> Self {
        let nodes: Vec<P> = graph.nodes().map(&mut init).collect();
        let n = graph.node_count();
        let faults = plan.map(|plan| FaultSession::new(plan, n));
        let tally = Tally::recount(faults.as_ref(), nodes.iter().enumerate(), P::is_done);
        SyncEngine {
            graph,
            arena: Vec::new(),
            payloads: PayloadArena::new(),
            offsets: if sparse { Vec::new() } else { vec![0; n + 1] },
            outbox: OutboxBuffer::new(),
            fold: ChannelFold::new(channels.channels()),
            heads: vec![NIL; n],
            links: Vec::new(),
            scratch: Vec::new(),
            block_cursors: Vec::new(),
            cost: CostAccount::new(),
            round: 0,
            tally,
            faults,
            frontier: sparse.then(|| Frontier::new(n, &channels)),
            inbox_ranges: if sparse { vec![(0, 0); n] } else { Vec::new() },
            touched: Vec::new(),
            last_stepped: Vec::new(),
            stepped_last_round: 0,
            total_stepped: 0,
            block_shift: tuned_block_shift(),
            nodes,
            channels,
        }
    }

    /// `true` when sparse (active-set) stepping is enabled.
    pub fn sparse_stepping(&self) -> bool {
        self.frontier.is_some()
    }

    /// Nodes stepped in the last executed round: under sparse stepping the
    /// frontier members actually stepped, under dense stepping the
    /// operational node count.
    pub fn stepped_last_round(&self) -> u64 {
        self.stepped_last_round
    }

    /// Cumulative nodes stepped across all executed rounds; divided by
    /// `rounds * n` this is the run's *activity fraction*.
    pub fn total_stepped(&self) -> u64 {
        self.total_stepped
    }

    /// Node indices stepped in the last executed round, ascending; `None`
    /// under dense stepping (where it would always be the operational set).
    /// The `frontier_properties` proptests compare this against the
    /// reference engine's brute-force active set.
    pub fn last_stepped(&self) -> Option<&[u32]> {
        self.frontier.as_ref().map(|_| self.last_stepped.as_slice())
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The multiaccess channel substrate.
    pub fn channels(&self) -> &ChannelSet {
        &self.channels
    }

    /// Immutable access to all protocol states, indexed by node id.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// State (idle / success / collision) of channel `chan`'s most recently
    /// resolved slot.  The winning *message* is only observable from inside
    /// a step ([`RoundIo::prev_slot_on`]) — it lives in the round's delivery
    /// arena, which is what makes slot resolution clone-free.
    ///
    /// # Panics
    ///
    /// Panics if `chan` is not a channel of the engine's [`ChannelSet`].
    pub fn last_slot_state(&self, chan: ChannelId) -> SlotState {
        SlotState::from(&self.fold.slots()[chan.index()])
    }

    /// Outcome of channel `chan`'s most recently resolved lane sub-slot
    /// (the word-wide OR-merge surface; see [`RoundIo::prev_lanes_on`]).
    ///
    /// # Panics
    ///
    /// Panics if `chan` is not a channel of the engine's [`ChannelSet`].
    pub fn last_lanes(&self, chan: ChannelId) -> LaneOutcome {
        self.fold.lanes()[chan.index()]
    }

    /// Number of point-to-point messages currently in flight (sent last
    /// round, delivered at the next step).
    pub fn in_flight(&self) -> usize {
        self.arena.len()
    }

    /// The delivery-side [`PayloadArena`]: the payloads that will be (or
    /// were just) handed to the nodes' inboxes this round.  Exposed for
    /// introspection — slab-reuse tests assert that its capacity and
    /// high-water mark stay bounded over long runs.
    pub fn payload_arena(&self) -> &PayloadArena<P::Msg> {
        &self.payloads
    }

    /// Total payload slots across the delivery and the staging arena — the
    /// engine's whole payload-slab footprint, which must stop growing once
    /// per-round traffic reaches its high-water mark.
    pub fn payload_slab_capacity(&self) -> usize {
        self.payloads.capacity() + self.outbox.arena.capacity()
    }

    /// Steps this round's active nodes in ascending index into the staging
    /// outbox: every node under dense stepping, the frontier under sparse
    /// stepping — rotated here, after the round's lifecycle transitions have
    /// added their wakeups.  Nodes off the frontier are never touched: no
    /// per-node state of theirs is read, cloned, or iterated.  Returns the
    /// pass's step count.
    fn step_active(&mut self) -> u64 {
        let SyncEngine {
            graph,
            nodes,
            arena,
            payloads,
            offsets,
            outbox,
            channels,
            fold,
            round,
            faults,
            tally,
            frontier,
            inbox_ranges,
            last_stepped,
            ..
        } = self;
        last_stepped.clear();
        let mut pass = Pass {
            graph,
            arena,
            payloads,
            offsets,
            inbox_ranges,
            channels,
            slots: fold.slots(),
            lanes: fold.lanes(),
            round: *round,
            gate: Gate::new(faults.as_ref(), tally),
            outbox,
            stepped_list: last_stepped,
            stepped: 0,
        };
        match frontier.as_mut().map_or(Active::Dense, Frontier::advance) {
            Active::Dense => {
                for (vi, node) in nodes.iter_mut().enumerate() {
                    pass.step::<P, false>(vi, node);
                }
            }
            Active::All => {
                for (vi, node) in nodes.iter_mut().enumerate() {
                    pass.step::<P, true>(vi, node);
                }
            }
            Active::Members(set) => {
                for vi in set.ones() {
                    pass.step::<P, true>(vi, &mut nodes[vi]);
                }
            }
        }
        pass.gate.finish();
        pass.stepped
    }

    /// Post-step bookkeeping: fold the pass's step count and `wake_me`
    /// requests, rebuild the inbox arena for the next round, resolve every
    /// channel's slot, and advance the clock.
    fn finish_round(&mut self, stepped: u64) {
        self.stepped_last_round = stepped;
        self.total_stepped += stepped;
        match &mut self.frontier {
            Some(f) => f.wake_run(self.outbox.wakes.drain(..).map(|v| v as usize)),
            None => self.outbox.wakes.clear(),
        }

        let messages = if self.frontier.is_some() {
            self.rebuild_arena_sparse()
        } else {
            self.rebuild_arena()
        };
        self.cost.add_messages(messages);
        // The channel writes, read in place from the outbox: their handles
        // resolve in the delivery arena `rotate_epoch` has just rotated in,
        // so a `Success` carries the winner's handle and no message is
        // cloned; an erased winner expires with its epoch like any send.
        for (chan, from, handle) in self.outbox.chan_writes.drain(..) {
            self.fold.write(chan, from, handle, drop);
        }
        for (chan, _, word) in self.outbox.lane_writes.drain(..) {
            self.fold.write_lanes(chan, word);
        }
        let faults = self.faults.as_ref();
        self.fold.settle(faults, self.round, &mut self.cost, drop);
        if let Some(frontier) = &mut self.frontier {
            frontier.wake_channels(self.fold.busy());
        }
        self.round += 1;
    }

    /// Shared prologue of the dense and sparse arena rebuilds: rotates the
    /// payload epoch, then applies message drops at the delivery boundary.
    /// Returns the pre-drop staged count.
    fn rotate_epoch(&mut self) -> u64 {
        // The payloads delivered this round expire (heap payloads move to
        // the graveyard for recycling); the staging arena, with this round's
        // payloads, becomes the delivery arena, so the staged sends' and
        // channel writes' handles resolve there next round; the expired
        // delivery arena becomes the staging arena of the next round.
        self.payloads.expire();
        std::mem::swap(&mut self.payloads, &mut self.outbox.arena);

        // Message drops apply at the delivery boundary: a dropped message
        // was *sent* (it is counted in `p2p_messages` via the pre-drop
        // total) but never reaches the receiver's inbox arena.  The retained
        // order is unchanged (`retain` is stable), and the dropped payloads
        // expire with the staging epoch like any undelivered handle.
        let stage = &mut self.outbox.entries;
        let staged = stage.len();
        if let Some(session) = &self.faults {
            let round = self.round;
            stage.retain(|&(to, from, _)| {
                let (from, to) = (NodeId(from as usize), NodeId(to as usize));
                !session.drops_message(round, from, to)
            });
            let dropped = staged - stage.len();
            if dropped > 0 {
                self.cost.add_dropped_messages(dropped as u64);
            }
        }
        staged as u64
    }

    /// Buckets the staged sends by receiver into the inbox arena (CSR form)
    /// and returns how many messages were staged.
    ///
    /// Stable counting bucket via per-receiver chains: iterating a staging
    /// slice in reverse while prepending to each receiver's chain leaves
    /// every chain in forward (sender-index) order; walking receivers in
    /// ascending order then yields the arena already grouped and ordered,
    /// using only pooled buffers.  Large graphs first radix-partition the
    /// staging buffer into contiguous receiver blocks so the chain pass
    /// works on cache-resident slices (see the module docs).
    fn rebuild_arena(&mut self) -> u64 {
        let staged = self.rotate_epoch();
        let stage = &mut self.outbox.entries;
        let k = stage.len();
        let n = self.heads.len();
        assert!(k < NIL as usize, "more than 2^32 - 1 messages in one round");
        let shift = self.block_shift;

        self.arena.clear();
        self.arena.reserve(k);
        self.links.clear();
        self.links.resize(k, NIL);

        // Locality probe: one streaming pass counting block-level backward
        // jumps in the receiver sequence.  Local topologies (ring, grid,
        // clustered) stage receivers almost block-monotonically — the
        // single-pass chain bucket is then already cache-friendly and the
        // radix partition would be pure overhead — while index-random
        // topologies jump backward on ~half the consecutive pairs.
        let disordered = n >= RADIX_MIN_NODES && k > 0 && {
            let mut jumps = 0usize;
            let mut prev_block = 0usize;
            for entry in stage.iter() {
                let b = entry.0 as usize >> shift;
                jumps += usize::from(b < prev_block);
                prev_block = b;
            }
            jumps * 8 >= k
        };

        if disordered {
            // ---- Pass 1: stable scatter into receiver blocks. -------------
            let blocks = n.div_ceil(1 << shift);
            self.block_cursors.clear();
            self.block_cursors.resize(blocks + 1, 0);
            for entry in stage.iter() {
                self.block_cursors[(entry.0 as usize >> shift) + 1] += 1;
            }
            for b in 1..=blocks {
                self.block_cursors[b] += self.block_cursors[b - 1];
            }
            if self.scratch.len() < k {
                self.scratch.resize(k, (0, 0, PayloadHandle::DANGLING));
            }
            for entry in stage.iter() {
                let b = entry.0 as usize >> shift;
                let pos = self.block_cursors[b] as usize;
                self.block_cursors[b] += 1;
                self.scratch[pos] = *entry;
            }
            // After the scatter, `block_cursors[b]` is the end of block `b`
            // (and hence the start of block `b + 1`).

            // ---- Pass 2: chain-bucket each block (cache-resident). --------
            for b in 0..blocks {
                let start = if b == 0 {
                    0
                } else {
                    self.block_cursors[b - 1] as usize
                };
                let end = self.block_cursors[b] as usize;
                let lo = b << shift;
                let hi = (lo + (1 << shift)).min(n);
                self.heads[lo..hi].fill(NIL);
                for i in (start..end).rev() {
                    let to = self.scratch[i].0 as usize;
                    self.links[i] = self.heads[to];
                    self.heads[to] = i as u32;
                }
                for v in lo..hi {
                    self.offsets[v] = self.arena.len();
                    let mut i = self.heads[v];
                    while i != NIL {
                        let (_, from, handle) = self.scratch[i as usize];
                        self.arena.push((from, handle));
                        i = self.links[i as usize];
                    }
                }
            }
        } else {
            // ---- Small graphs / block-local traffic: single-pass bucket. --
            self.heads.fill(NIL);
            for i in (0..k).rev() {
                let to = stage[i].0 as usize;
                self.links[i] = self.heads[to];
                self.heads[to] = i as u32;
            }
            for v in 0..n {
                self.offsets[v] = self.arena.len();
                let mut i = self.heads[v];
                while i != NIL {
                    let (_, from, handle) = stage[i as usize];
                    self.arena.push((from, handle));
                    i = self.links[i as usize];
                }
            }
        }
        self.offsets[n] = self.arena.len();
        stage.clear();
        staged
    }

    /// Sparse counterpart of [`SyncEngine::rebuild_arena`]: O(messages), not
    /// O(n).  Instead of rewriting a full `offsets` index, it empties the
    /// ranges of last round's receivers (the only non-empty ones) and gives
    /// this round's receivers a fresh `(start, len)` range, so idle nodes are
    /// never iterated.  Each receiver is also woken onto the next frontier.
    ///
    /// Relies on (and restores) the all-`NIL` chain-head invariant: the
    /// dense paths re-fill `heads` wholesale, which a sparse round cannot
    /// afford.
    fn rebuild_arena_sparse(&mut self) -> u64 {
        let staged = self.rotate_epoch();
        let SyncEngine {
            outbox,
            arena,
            links,
            heads,
            touched,
            inbox_ranges,
            frontier,
            ..
        } = self;
        let stage = &mut outbox.entries;
        let k = stage.len();
        assert!(k < NIL as usize, "more than 2^32 - 1 messages in one round");

        arena.clear();
        arena.reserve(k);
        links.clear();
        links.resize(k, NIL);
        // Last round's receivers hold the only non-empty ranges, and the
        // arena they point into is about to be refilled.
        for &t in touched.iter() {
            inbox_ranges[t as usize] = (0, 0);
        }
        touched.clear();

        // Reverse chain build, as in the dense bucket; the first prepend to
        // an empty chain is what discovers a touched receiver, so the pass
        // is O(messages) with no per-node scan.
        for i in (0..k).rev() {
            let to = stage[i].0 as usize;
            if heads[to] == NIL {
                touched.push(to as u32);
            }
            links[i] = heads[to];
            heads[to] = i as u32;
        }

        // Walk each touched receiver's chain (forward = sender-index order,
        // because sparse stepping visits senders ascending).  Receiver walk
        // order is irrelevant: the ranges are independent and the frontier
        // dedups through its bitset.
        let frontier = frontier.as_mut().expect("sparse mode");
        for &t in touched.iter() {
            let to = t as usize;
            let start = arena.len() as u32;
            let mut i = heads[to];
            while i != NIL {
                let (_, from, handle) = stage[i as usize];
                arena.push((from, handle));
                i = links[i as usize];
            }
            inbox_ranges[to] = (start, arena.len() as u32 - start);
            heads[to] = NIL;
            frontier.wake(to);
        }
        stage.clear();
        staged
    }

    /// Consumes the engine, returning the node states and the cost account.
    pub fn into_parts(self) -> (Vec<P>, CostAccount) {
        (self.nodes, self.cost)
    }
}

impl<'g, P: Protocol> EngineControl<P> for SyncEngine<'g, P> {
    /// Lifecycle transitions (recover hooks, boot wakeups) and the round's
    /// churn charge first, then the stepping pass and its fold.
    fn step_round(&mut self) {
        if let Some(session) = &mut self.faults {
            let (nodes, visit) = (&mut self.nodes, boot_wakes(&mut self.frontier));
            let (is_done, on_recover) = (P::is_done, P::on_recover);
            self.tally
                .apply_faults(session, self.round, nodes, visit, is_done, on_recover);
            session.charge_round(&mut self.cost);
        }
        let stepped = self.step_active();
        self.finish_round(stepped);
    }

    fn round(&self) -> u64 {
        self.round
    }

    /// O(1): the [`Tally`] tracks done and exempt nodes, the in-flight count
    /// is the arena length, and the busy channels are cached at resolution.
    fn is_quiescent(&self) -> bool {
        self.tally.settled() == self.nodes.len() && self.arena.is_empty() && self.fold.busy() == 0
    }

    fn cost(&self) -> CostAccount {
        self.cost
    }

    fn channel_costs(&self) -> Vec<CostAccount> {
        self.fold.costs().to_vec()
    }

    fn channel_count(&self) -> u16 {
        self.channels.channels()
    }

    fn reattach(&mut self, masks: &[u64]) {
        let n = self.graph.node_count();
        round::reattach(n, &mut self.channels, &mut self.frontier, masks);
    }

    /// Recounts the [`Tally`] afterwards so the O(1) quiescence tracking
    /// stays sound, and steps every node next round.
    fn update_nodes(&mut self, f: &mut dyn FnMut(NodeId, &mut P)) {
        let faults = self.faults.as_ref();
        self.tally =
            round::update_nodes(&mut self.nodes, f, P::is_done, faults, &mut self.frontier);
    }

    fn node(&self, v: NodeId) -> &P {
        &self.nodes[v.index()]
    }

    fn fault_session(&self) -> Option<&FaultSession> {
        self.faults.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::SlotOutcome;
    use crate::fault::NodeLifecycle;
    use netsim_graph::generators;

    #[test]
    fn l2_probe_parses_wellformed_sysfs_sizes() {
        assert_eq!(parse_l2_size("512K\n"), Some(512 * 1024));
        assert_eq!(parse_l2_size("4096K"), Some(4096 * 1024));
        assert_eq!(parse_l2_size("1M"), Some(1024 * 1024));
        assert_eq!(parse_l2_size("2m"), Some(2 * 1024 * 1024));
        assert_eq!(parse_l2_size("  262144  "), Some(262_144));
    }

    #[test]
    fn l2_probe_rejects_garbled_sysfs_without_panicking() {
        // Missing/masked sysfs surfaces as a read error upstream; a present
        // but garbled file must parse to None, never panic.
        for garbage in ["", "\n", "abc", "K", "12Q", "-512K", "1.5M", "0", "0K"] {
            assert_eq!(parse_l2_size(garbage), None, "input {garbage:?}");
        }
        // Overflow: u64::MAX kibibytes does not fit in u64 bytes.
        assert_eq!(parse_l2_size("18446744073709551615K"), None);
    }

    #[test]
    fn block_shift_is_always_clamped() {
        // Tiny, huge, and boundary L2 sizes all land inside the range, so a
        // failed or absurd probe can never produce a degenerate radix pass.
        for bytes in [1, 256, 1 << 17, 1 << 21, 1 << 30, u64::MAX] {
            let shift = block_shift_for_l2(bytes);
            assert!(
                (BLOCK_SHIFT_RANGE.0..=BLOCK_SHIFT_RANGE.1).contains(&shift),
                "l2={bytes} gave shift {shift}"
            );
        }
        // 512 KiB L2 -> 2048-node blocks, the hard-coded default.
        assert_eq!(block_shift_for_l2(512 * 1024), DEFAULT_BLOCK_SHIFT);
        let tuned = tuned_block_shift();
        assert!((BLOCK_SHIFT_RANGE.0..=BLOCK_SHIFT_RANGE.1).contains(&tuned));
    }

    /// Node 0 writes to the channel every round; all others listen and record
    /// the first message heard.
    struct Beacon {
        id: NodeId,
        heard: Option<u64>,
        done: bool,
    }

    impl Protocol for Beacon {
        type Msg = u64;
        fn step(&mut self, io: &mut RoundIo<'_, u64>) {
            if let SlotOutcome::Success { msg, .. } = io.prev_slot() {
                if self.heard.is_none() {
                    self.heard = Some(*msg);
                }
                self.done = true;
            }
            if self.id == NodeId(0) && !self.done {
                io.write_channel(99);
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn single_writer_broadcast_reaches_all() {
        let g = generators::ring(6);
        let mut eng = SyncEngine::new(&g, |id| Beacon {
            id,
            heard: None,
            done: false,
        });
        let out = eng.run(10);
        assert!(out.is_completed());
        for v in g.nodes() {
            assert_eq!(eng.node(v).heard, Some(99));
        }
        assert!(eng.cost().slots_success >= 1);
        assert_eq!(eng.cost().p2p_messages, 0);
    }

    /// All nodes write in round 0: a collision must be observed.
    struct Collider {
        saw_collision: bool,
    }
    impl Protocol for Collider {
        type Msg = u8;
        fn step(&mut self, io: &mut RoundIo<'_, u8>) {
            if io.round() == 0 {
                io.write_channel(1);
            }
            if io.prev_slot().is_collision() {
                self.saw_collision = true;
            }
        }
        fn is_done(&self) -> bool {
            self.saw_collision
        }
    }

    #[test]
    fn simultaneous_writes_collide() {
        let g = generators::complete(4);
        let mut eng = SyncEngine::new(&g, |_| Collider {
            saw_collision: false,
        });
        let out = eng.run(5);
        assert!(out.is_completed());
        assert_eq!(eng.cost().slots_collision, 1);
        assert_eq!(eng.cost().channel_writes, 4);
        for v in g.nodes() {
            assert!(eng.node(v).saw_collision);
        }
    }

    /// Writes its tag on its assigned channel in round 0 and records what it
    /// hears on every channel it can see.
    struct ShardBeacon {
        chan: ChannelId,
        heard: Vec<(u16, u64)>,
        rounds: u32,
    }
    impl Protocol for ShardBeacon {
        type Msg = u64;
        fn step(&mut self, io: &mut RoundIo<'_, u64>) {
            for c in 0..io.channels() {
                if let SlotOutcome::Success { msg, .. } = io.prev_slot_on(ChannelId(c)) {
                    self.heard.push((c, *msg));
                }
            }
            if io.round() == 0 {
                io.write_channel_on(self.chan, 100 + u64::from(self.chan.0));
            }
            self.rounds += 1;
        }
        fn is_done(&self) -> bool {
            self.rounds >= 2
        }
    }

    #[test]
    fn channels_resolve_independently() {
        // Four nodes, two channels, uniform attachment: two disjoint writer
        // pairs would collide on one channel but succeed on two.
        let g = generators::complete(4);
        let mut eng = EngineBuilder::new(&g)
            .channels(ChannelSet::uniform(2))
            .build_flat(|id| ShardBeacon {
                chan: ChannelId((id.index() % 2) as u16),
                heard: Vec::new(),
                rounds: 0,
            });
        let out = eng.run(10);
        assert!(out.is_completed());
        // Two writers per channel -> both channels collide; nobody hears a
        // success.
        assert_eq!(eng.cost().slots_collision, 2);
        assert_eq!(eng.cost().channel_writes, 4);
        for v in g.nodes() {
            assert!(eng.node(v).heard.is_empty());
        }
        assert_eq!(eng.last_slot_state(ChannelId(0)), SlotState::Idle);

        // Sharded attachment: each node only writes/hears its own channel,
        // so each channel has exactly two writers again — but with four
        // channels every write succeeds.
        let sharded = ChannelSet::sharded(4, 4, |v| ChannelId(v.index() as u16));
        let mut eng = EngineBuilder::new(&g)
            .channels(sharded)
            .build_flat(|id| ShardBeacon {
                chan: ChannelId(id.index() as u16),
                heard: Vec::new(),
                rounds: 0,
            });
        let out = eng.run(10);
        assert!(out.is_completed());
        assert_eq!(eng.cost().slots_success, 4);
        for v in g.nodes() {
            // Attached to its own channel only: hears exactly its own beacon.
            let c = v.index() as u16;
            assert_eq!(eng.node(v).heard, vec![(c, 100 + u64::from(c))]);
        }
    }

    /// Every node writes its id bit on the lane sub-slot of round 0 and
    /// records the OR-merged word it hears back.
    struct LaneMarker {
        id: NodeId,
        heard: Option<LaneOutcome>,
    }
    impl Protocol for LaneMarker {
        type Msg = ();
        fn step(&mut self, io: &mut RoundIo<'_, ()>) {
            if io.round() == 0 {
                io.write_lanes_on(ChannelId(0), 1 << self.id.index());
            }
            if !io.prev_lanes_on(ChannelId(0)).is_idle() && self.heard.is_none() {
                self.heard = Some(io.prev_lanes_on(ChannelId(0)));
            }
        }
        fn is_done(&self) -> bool {
            self.heard.is_some()
        }
    }

    #[test]
    fn lane_writes_or_merge_and_block_quiescence() {
        let g = generators::complete(5);
        let mut eng = SyncEngine::new(&g, |id| LaneMarker { id, heard: None });
        let out = eng.run(10);
        assert!(out.is_completed());
        // Five simultaneous lane writers OR-merge instead of colliding, and
        // the busy lane keeps the engine alive one more round so everyone
        // hears the merged word.
        for v in g.nodes() {
            assert_eq!(eng.node(v).heard, Some(LaneOutcome::Word(0b11111)));
        }
        assert_eq!(eng.cost().lane_writes, 5);
        assert_eq!(eng.cost().lanes_busy, 1);
        assert_eq!(eng.cost().lanes_erased, 0);
        assert_eq!(eng.cost().slots_collision, 0);
        assert_eq!(eng.cost().channel_writes, 0);
        assert_eq!(eng.last_lanes(ChannelId(0)), LaneOutcome::Idle);
    }

    #[test]
    fn lane_corruption_flips_one_seeded_bit() {
        let g = generators::complete(3);
        let plan = FaultPlan::none().with_corruption(1.0);
        let expected_bit = plan
            .corrupts_lane(0, ChannelId(0))
            .expect("rate 1.0 must fire");
        let mut eng = EngineBuilder::new(&g)
            .fault_plan(plan)
            .build_flat(|id| LaneMarker { id, heard: None });
        let out = eng.run(10);
        assert!(out.is_completed());
        let expected = 0b111u64 ^ (1 << expected_bit);
        for v in g.nodes() {
            assert_eq!(eng.node(v).heard, Some(LaneOutcome::Word(expected)));
        }
        assert!(eng.cost().corrupted_payloads >= 1);
    }

    #[test]
    fn per_round_slot_accounting_covers_every_channel() {
        let g = generators::ring(4);
        let mut eng = EngineBuilder::new(&g)
            .channels(ChannelSet::uniform(3))
            .build_flat(|_| Collider {
                saw_collision: false,
            });
        let out = eng.run(5);
        assert!(out.is_completed());
        // Every round resolves three slots; only channel 0 ever collides.
        assert_eq!(
            eng.cost().slots_idle + eng.cost().slots_success + eng.cost().slots_collision,
            3 * eng.cost().rounds
        );
        assert_eq!(eng.cost().slots_collision, 1);
    }

    /// Flood a token from node 0 over the point-to-point network only.
    struct Flood {
        have: bool,
        sent: bool,
    }
    impl Protocol for Flood {
        type Msg = ();
        fn step(&mut self, io: &mut RoundIo<'_, ()>) {
            if !io.inbox().is_empty() {
                self.have = true;
            }
            if self.have && !self.sent {
                io.send_all(());
                self.sent = true;
            }
        }
        fn is_done(&self) -> bool {
            self.have
        }
    }

    #[test]
    fn flooding_takes_diameter_rounds() {
        let g = generators::path(8);
        let mut eng = SyncEngine::new(&g, |id| Flood {
            have: id == NodeId(0),
            sent: false,
        });
        let out = eng.run(100);
        assert!(out.is_completed());
        // Token must travel 7 hops; each hop takes one round, plus the final
        // quiescence check round.
        assert!(out.rounds() >= 7);
        assert!(out.rounds() <= 9);
        // Each node forwards once to all neighbours: total messages = sum of degrees = 2m.
        assert_eq!(eng.cost().p2p_messages, 2 * g.edge_count() as u64);
    }

    #[test]
    fn round_limit_is_reported() {
        struct Never;
        impl Protocol for Never {
            type Msg = ();
            fn step(&mut self, _io: &mut RoundIo<'_, ()>) {}
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = generators::path(3);
        let mut eng = SyncEngine::new(&g, |_| Never);
        let out = eng.run(4);
        assert!(!out.is_completed());
        assert_eq!(out.rounds(), 4);
        assert_eq!(eng.round(), 4);
    }

    /// Every node sends a distinct tag to every neighbour each round; the
    /// inbox must arrive ordered by sender index.  The sortedness check
    /// copies the senders into a **pooled** scratch vector (reused across
    /// rounds), so the checker itself is allocation-free in steady state and
    /// can run inside the alloc-counting tests.
    struct OrderCheck {
        rounds_left: u32,
        ok: bool,
        scratch: Vec<usize>,
    }
    impl OrderCheck {
        fn new(rounds_left: u32) -> Self {
            OrderCheck {
                rounds_left,
                ok: true,
                scratch: Vec::new(),
            }
        }
    }
    impl Protocol for OrderCheck {
        type Msg = u64;
        fn step(&mut self, io: &mut RoundIo<'_, u64>) {
            self.scratch.clear();
            self.scratch
                .extend(io.inbox().iter().map(|(from, _)| from.index()));
            self.scratch.sort_unstable();
            let in_order = io
                .inbox()
                .iter()
                .zip(self.scratch.iter())
                .all(|((from, _), &sorted)| from.index() == sorted);
            if !in_order {
                self.ok = false;
            }
            for (msg_from, &tag) in io.inbox() {
                if tag != msg_from.index() as u64 {
                    self.ok = false;
                }
            }
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                let me = io.id().index() as u64;
                io.send_all(me);
            }
        }
        fn is_done(&self) -> bool {
            self.rounds_left == 0
        }
    }

    #[test]
    fn inbox_ordered_by_sender_index() {
        let g = generators::complete(7);
        let mut eng = SyncEngine::new(&g, |_| OrderCheck::new(5));
        let out = eng.run(50);
        assert!(out.is_completed());
        for v in g.nodes() {
            assert!(eng.node(v).ok, "inbox of {v:?} out of sender order");
        }
    }

    /// Forces the radix-partitioned scatter (n ≥ [`RADIX_MIN_NODES`] with
    /// index-random adjacency, so the locality probe reports disorder) and
    /// checks both halves of its contract: the inbox ordering is unchanged
    /// and the run is bit-for-bit equivalent to the reference engine.  Every
    /// other engine test stays far below the threshold, so without this the
    /// radix branch would never execute under CI.
    #[test]
    fn radix_scatter_keeps_order_and_matches_reference() {
        let n = RADIX_MIN_NODES; // boundary value: radix path active
        let g = netsim_graph::topologies::degree_bounded_expander(n, 4, 9);

        let mut eng = SyncEngine::new(&g, |_| OrderCheck::new(3));
        let out = eng.run(20);
        assert!(out.is_completed());
        for v in g.nodes() {
            assert!(eng.node(v).ok, "radix inbox of {v:?} out of sender order");
        }

        let init = |id: NodeId| Flood {
            have: id == NodeId(0),
            sent: false,
        };
        let mut fast = SyncEngine::new(&g, init);
        let mut slow = crate::ReferenceEngine::new(&g, init);
        let fast_out = fast.run(100);
        let slow_out = slow.run(100);
        assert_eq!(fast_out, slow_out);
        assert!(fast_out.is_completed());
        assert_eq!(fast.cost(), slow.cost());
        for v in g.nodes() {
            assert_eq!(fast.node(v).have, slow.node(v).have);
            assert_eq!(fast.node(v).sent, slow.node(v).sent);
        }
    }

    #[test]
    fn in_flight_and_quiescence_tracking() {
        let g = generators::path(4);
        let mut eng = SyncEngine::new(&g, |id| Flood {
            have: id == NodeId(0),
            sent: false,
        });
        assert!(!eng.is_quiescent());
        assert_eq!(eng.in_flight(), 0);
        eng.step_round(); // node 0 floods to node 1
        assert_eq!(eng.in_flight(), 1);
        let out = eng.run(100);
        assert!(out.is_completed());
        assert!(eng.is_quiescent());
        assert_eq!(eng.in_flight(), 0);
    }

    /// Node 0 writes once in round 0; everyone records the feedback they
    /// observe in round 1 and finishes.
    struct ErasedProbe {
        id: NodeId,
        observed: Option<SlotState>,
        done: bool,
    }
    impl Protocol for ErasedProbe {
        type Msg = u64;
        fn step(&mut self, io: &mut RoundIo<'_, u64>) {
            if io.round() == 0 && self.id == NodeId(0) {
                io.write_channel(7);
            }
            if io.round() == 1 {
                self.observed = Some(SlotState::from(io.prev_slot()));
                self.done = true;
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn certain_erasure_turns_success_into_erased_feedback() {
        let g = generators::complete(4);
        let mut eng = EngineBuilder::new(&g)
            .fault_plan(FaultPlan::from_rates(11, 1.0, 0.0, 0.0, 0.0))
            .build_flat(|id| ErasedProbe {
                id,
                observed: None,
                done: false,
            });
        let out = eng.run(10);
        assert!(out.is_completed());
        for v in g.nodes() {
            assert_eq!(eng.node(v).observed, Some(SlotState::Erased));
        }
        // The write happened (and is charged), but the slot was erased —
        // never a success — and idle slots are never erased.
        assert_eq!(eng.cost().erased_slots, 1);
        assert_eq!(eng.cost().channel_writes, 1);
        assert_eq!(eng.cost().slots_success, 0);
        assert_eq!(eng.cost().slots_idle, eng.cost().rounds - 1);
        assert_eq!(eng.last_slot_state(ChannelId::DEFAULT), SlotState::Idle);
    }

    #[test]
    fn certain_drops_sever_the_point_to_point_medium() {
        let g = generators::path(4);
        let mut eng = EngineBuilder::new(&g)
            .fault_plan(FaultPlan::from_rates(5, 0.0, 1.0, 0.0, 0.0))
            .build_flat(|id| Flood {
                have: id == NodeId(0),
                sent: false,
            });
        let out = eng.run(6);
        // The token can never propagate: every copy is dropped at the
        // delivery boundary.
        assert!(!out.is_completed());
        for v in g.nodes().skip(1) {
            assert!(!eng.node(v).have);
        }
        // Sends are charged at the send point; drops are charged on top
        // (node 0 has one neighbour on a path, so it sends one copy).
        assert_eq!(eng.cost().p2p_messages, 1);
        assert_eq!(eng.cost().dropped_messages, 1);
        assert_eq!(eng.in_flight(), 0);
    }

    /// Counts its own steps; `on_recover` records that the hook fired.
    struct Ticker {
        steps: u64,
        recovered: bool,
        goal: u64,
    }
    impl Protocol for Ticker {
        type Msg = ();
        fn step(&mut self, _io: &mut RoundIo<'_, ()>) {
            self.steps += 1;
        }
        fn is_done(&self) -> bool {
            self.steps >= self.goal
        }
        fn on_recover(&mut self) {
            self.recovered = true;
        }
    }

    #[test]
    fn scheduled_crash_skips_steps_and_recover_rejoins() {
        use crate::fault::FaultEvent;
        let g = generators::ring(3);
        let mut eng = EngineBuilder::new(&g)
            .fault_plan(FaultPlan::none().with_events(vec![
                FaultEvent::Crash {
                    round: 2,
                    node: NodeId(1),
                },
                FaultEvent::Recover {
                    round: 5,
                    node: NodeId(1),
                },
            ]))
            .build_flat(|_| Ticker {
                steps: 0,
                recovered: false,
                goal: 8,
            });
        let out = eng.run(30);
        assert!(out.is_completed());
        // Node 1 misses rounds 2..=5 (crashed 2-4, booting 5), so it reaches
        // its 8-step goal four rounds after the others: steps at 0,1,6..=11.
        assert_eq!(out.rounds(), 12);
        assert_eq!(eng.node(NodeId(1)).steps, 8);
        assert!(eng.node(NodeId(1)).recovered);
        assert!(!eng.node(NodeId(0)).recovered);
        assert_eq!(eng.lifecycle(NodeId(1)), NodeLifecycle::Operational);
        // Churn accounting: one non-operational node for rounds 2..=5.
        assert_eq!(eng.cost().crashed_rounds, 4);
    }

    #[test]
    fn permanent_crash_is_exempt_from_quiescence() {
        use crate::fault::FaultEvent;
        let g = generators::ring(3);
        let mut eng = EngineBuilder::new(&g)
            .fault_plan(FaultPlan::none().with_events(vec![FaultEvent::Crash {
                round: 1,
                node: NodeId(2),
            }]))
            .build_flat(|_| Ticker {
                steps: 0,
                recovered: false,
                goal: 3,
            });
        let out = eng.run(20);
        // Node 2 can never report done, but a crashed node is exempt: the
        // run completes once the survivors finish.
        assert!(out.is_completed());
        assert_eq!(eng.node(NodeId(2)).steps, 1);
        assert!(!eng.node(NodeId(2)).is_done());
        assert_eq!(eng.lifecycle(NodeId(2)), NodeLifecycle::Crashed);
    }

    /// A `wake_me`-adopting [`Ticker`]: arms itself every round until done,
    /// so it is frontier-safe under active-set stepping.
    struct ArmedTicker {
        steps: u64,
        recovered: bool,
        goal: u64,
    }
    impl Protocol for ArmedTicker {
        type Msg = ();
        fn step(&mut self, io: &mut RoundIo<'_, ()>) {
            self.steps += 1;
            if !self.is_done() {
                io.wake_me();
            }
        }
        fn is_done(&self) -> bool {
            self.steps >= self.goal
        }
        fn on_recover(&mut self) {
            self.recovered = true;
        }
    }

    #[test]
    fn sparse_crash_on_frontier_leaks_no_done_count() {
        use crate::fault::FaultEvent;
        // Node 1 arms itself every round, so it is *on the frontier* when the
        // crash lands: the sparse step must skip it with no done-count delta
        // (its frontier slot simply expires), quiescence accounting must stay
        // sound, and the recovery boot promotion must re-add it — replaying
        // the dense `scheduled_crash_skips_steps_and_recover_rejoins` run
        // round for round.
        let g = generators::ring(3);
        let mut eng = EngineBuilder::new(&g)
            .sparse(true)
            .fault_plan(FaultPlan::none().with_events(vec![
                FaultEvent::Crash {
                    round: 2,
                    node: NodeId(1),
                },
                FaultEvent::Recover {
                    round: 5,
                    node: NodeId(1),
                },
            ]))
            .build_flat(|_| ArmedTicker {
                steps: 0,
                recovered: false,
                goal: 8,
            });
        let out = eng.run(30);
        assert!(out.is_completed());
        assert_eq!(out.rounds(), 12);
        assert_eq!(eng.node(NodeId(1)).steps, 8);
        assert!(eng.node(NodeId(1)).recovered);
        assert!(!eng.node(NodeId(0)).recovered);
        assert_eq!(eng.lifecycle(NodeId(1)), NodeLifecycle::Operational);
        assert_eq!(eng.cost().crashed_rounds, 4);
        // The crashed rounds stepped two nodes, not three.
        assert_eq!(eng.total_stepped(), 3 * 8);
    }

    #[test]
    fn sparse_permanent_crash_stays_exempt_and_completes() {
        use crate::fault::FaultEvent;
        let g = generators::ring(3);
        let mut eng = EngineBuilder::new(&g)
            .sparse(true)
            .fault_plan(FaultPlan::none().with_events(vec![FaultEvent::Crash {
                round: 1,
                node: NodeId(2),
            }]))
            .build_flat(|_| ArmedTicker {
                steps: 0,
                recovered: false,
                goal: 3,
            });
        let out = eng.run(20);
        // Node 2 crashes while armed and can never report done; the
        // exemption must still let the sparse run quiesce.
        assert!(out.is_completed());
        assert_eq!(eng.node(NodeId(2)).steps, 1);
        assert!(!eng.node(NodeId(2)).is_done());
        assert_eq!(eng.lifecycle(NodeId(2)), NodeLifecycle::Crashed);
    }

    #[test]
    fn sparse_stepping_actually_skips_idle_nodes() {
        use crate::protocols::BfsBuild;
        // BFS wave on a 64-ring: dense stepping pays n steps per round for
        // ~34 rounds; active-set stepping pays for the all-active round 0
        // plus O(wave frontier) per round.  The bound below fails by an
        // order of magnitude if the frontier ever degenerates to wake-all.
        let g = generators::ring(64);
        let mut dense = SyncEngine::new(&g, |v| BfsBuild::new(v, NodeId(0)));
        assert!(dense.run(100).is_completed());
        // Dense stepping visits every node every round.
        assert_eq!(dense.total_stepped(), 64 * dense.round());
        let mut eng = EngineBuilder::new(&g)
            .sparse(true)
            .build_flat(|v| BfsBuild::new(v, NodeId(0)));
        assert!(eng.sparse_stepping());
        let out = eng.run(100);
        assert!(out.is_completed());
        assert_eq!(out.rounds(), dense.round());
        for v in g.nodes() {
            assert_eq!(eng.node(v).depth(), dense.node(v).depth());
        }
        assert!(
            eng.total_stepped() < dense.total_stepped() / 4,
            "sparse run stepped {} nodes vs dense {}",
            eng.total_stepped(),
            dense.total_stepped()
        );
        // The final round steps only the last deliveries' receivers (the
        // two nodes where the wave fronts met), not the whole ring.
        assert!(eng.stepped_last_round() <= 4);
        assert_eq!(
            eng.last_stepped().map(<[u32]>::len),
            Some(eng.stepped_last_round() as usize)
        );
    }

    #[test]
    fn null_and_zero_rate_plans_change_nothing() {
        let g = generators::Family::RandomConnected.generate(40, 3);
        let run = |plan: Option<FaultPlan>| {
            let mut builder = EngineBuilder::new(&g);
            if let Some(plan) = plan {
                builder = builder.fault_plan(plan);
            }
            let mut eng = builder.build_flat(|id| Flood {
                have: id == NodeId(0),
                sent: false,
            });
            let out = eng.run(200);
            assert!(out.is_completed());
            let states: Vec<(bool, bool)> = eng.nodes().iter().map(|n| (n.have, n.sent)).collect();
            (out, eng.cost(), states)
        };
        let bare = run(None);
        assert_eq!(run(Some(FaultPlan::none())), bare);
        assert_eq!(
            run(Some(FaultPlan::from_rates(9, 0.0, 0.0, 0.0, 0.0))),
            bare
        );
    }
}
