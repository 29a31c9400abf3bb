//! Straightforward reference implementation of the synchronous round engine.
//!
//! [`ReferenceEngine`] is the pre-optimisation engine kept verbatim in
//! spirit: per round it allocates a fresh outbox per stepping node and a
//! fresh channel-writes buffer, and its quiescence check re-scans every node
//! and every pending queue.  (One concession to practicality: the per-node
//! pending queues are double-buffered and reused across rounds instead of
//! being reallocated with `vec![Vec::new(); n]` every round — the engine
//! bench and the at-scale equivalence tests drive this engine at 10k–100k
//! nodes, where that one allocation pattern dominated wall-clock without
//! being the behaviour under comparison.)  It exists for two reasons:
//!
//! * **equivalence testing** — the property tests and the
//!   `engine_conformance` suite assert that the zero-allocation, arena-backed
//!   [`SyncEngine`](crate::SyncEngine) produces identical per-node final
//!   states, delivery traces, [`RunOutcome`](crate::RunOutcome), and [`CostAccount`] on random
//!   protocols and topologies.  This engine deliberately stays on the seed's
//!   **clone path**: every staged payload is cloned out of the outbox
//!   ([`OutboxBuffer::drain_sends`]) into per-node pending queues, one owned
//!   message per delivery — the semantics the arena path must reproduce
//!   bit-for-bit;
//! * **oracle** — the drivers written against
//!   [`EngineControl`] (sharded MST, sharded global
//!   function, re-sharding) run on it unchanged, so their four-substrate
//!   pinning tests have a deliberately naive instantiation to agree with.
//!
//! Do not use it for experiments; it is deliberately allocator-bound.

use crate::channel::{
    resolve_lanes, resolve_slots, ChannelId, ChannelSet, LaneOutcome, SlotOutcome, SlotState,
};
use crate::control::{EngineBuilder, EngineControl};
use crate::fault::{FaultPlan, FaultSession, NodeLifecycle};
use crate::metrics::CostAccount;
use crate::node::{Inbox, OutboxBuffer, Protocol, RoundIo, Slots};
use netsim_graph::{Graph, NodeId};

/// Allocation-per-round reference executor; see the module docs.
#[derive(Debug)]
pub struct ReferenceEngine<'g, P: Protocol> {
    graph: &'g Graph,
    nodes: Vec<P>,
    /// The multiaccess channel substrate: `K` channels + per-node attachment.
    channels: ChannelSet,
    /// Messages to deliver at the start of the next round: `pending[v] = (from, msg)*`.
    pending: Vec<Vec<(NodeId, P::Msg)>>,
    /// Pooled next-round queues, swapped with `pending` after every round
    /// (cleared but capacity-retaining).
    next_pending: Vec<Vec<(NodeId, P::Msg)>>,
    /// Per-channel outcome of the last resolved round, winners **cloned**
    /// into place by [`resolve_slots`] — the seed's clone-path semantics.
    prev_slots: Vec<SlotOutcome<P::Msg>>,
    /// Per-channel lane sub-slot outcome of the last resolved round
    /// ([`resolve_lanes`]); length `K`.
    prev_lanes: Vec<LaneOutcome>,
    cost: CostAccount,
    /// Per-channel breakdown of the channel-scoped counters in `cost`;
    /// length `K`.  Mirrors the flat engine's bit-for-bit.
    chan_cost: Vec<CostAccount>,
    round: u64,
    /// Injected-fault session, when the builder installed a plan.
    faults: Option<FaultSession>,
    /// Opt-in sparse stepping: recompute the active set from full state
    /// every round (brute force, O(n)) and step only its members.  This is
    /// the executable specification of the flat engine's frontier.
    sparse: bool,
    /// Nodes woken for the current round (`wake_me` last round, or a boot
    /// promotion this round); sparse mode only.
    woken: Vec<bool>,
    /// `wake_me` requests raised during the current round; swapped into
    /// `woken` at the next round's start.
    next_woken: Vec<bool>,
    /// The next round must step every node (round 0, re-attachment,
    /// `update_nodes`); sparse mode only.
    step_all: bool,
    /// Node indices stepped in the last executed round, ascending; sparse
    /// mode only.
    last_stepped: Vec<u32>,
}

impl<'g, P: Protocol> ReferenceEngine<'g, P> {
    /// Creates an engine over `graph` with the paper's single-channel model,
    /// instantiating each node's protocol with `init(node_id)`: shorthand for
    /// [`EngineBuilder::new(graph).build_reference(init)`](EngineBuilder).
    pub fn new<F: FnMut(NodeId) -> P>(graph: &'g Graph, init: F) -> Self {
        EngineBuilder::new(graph).build_reference(init)
    }

    /// The constructor behind [`EngineBuilder::build_reference`]: the
    /// builder's four settings plus the per-node initialiser.  Sparse
    /// stepping here is brute force: instead of maintaining a frontier
    /// incrementally, every round recomputes the active set from full
    /// state — a node steps iff it is operational and has a non-empty
    /// pending queue, hears a non-idle outcome on an attached channel, was
    /// promoted to `Operational` this round, asked for a wakeup via
    /// [`RoundIo::wake_me`] last round, or a step-all event (round 0,
    /// re-attachment, `update_nodes`) is pending.
    pub(crate) fn build<F: FnMut(NodeId) -> P>(
        graph: &'g Graph,
        channels: ChannelSet,
        plan: Option<FaultPlan>,
        sparse: bool,
        mut init: F,
    ) -> Self {
        let n = graph.node_count();
        let nodes = graph.nodes().map(&mut init).collect();
        let k = channels.channels();
        ReferenceEngine {
            graph,
            nodes,
            channels,
            pending: vec![Vec::new(); n],
            next_pending: vec![Vec::new(); n],
            prev_slots: (0..k).map(|_| SlotOutcome::Idle).collect(),
            prev_lanes: vec![LaneOutcome::Idle; k as usize],
            cost: CostAccount::new(),
            chan_cost: vec![CostAccount::new(); k as usize],
            round: 0,
            faults: plan.map(|plan| FaultSession::new(plan, n)),
            sparse,
            woken: if sparse { vec![false; n] } else { Vec::new() },
            next_woken: if sparse { vec![false; n] } else { Vec::new() },
            step_all: sparse,
            last_stepped: Vec::new(),
        }
    }

    /// `true` when sparse (active-set) stepping is enabled.
    pub fn sparse_stepping(&self) -> bool {
        self.sparse
    }

    /// Node indices stepped in the last executed round, ascending; `None`
    /// under dense stepping.  The `frontier_properties` proptests compare
    /// this brute-force set against the flat engine's incremental frontier.
    pub fn last_stepped(&self) -> Option<&[u32]> {
        self.sparse.then_some(self.last_stepped.as_slice())
    }

    /// Applies the current round's lifecycle transitions and charges the
    /// round's churn; no-op without a fault plan.
    fn apply_fault_round(&mut self) {
        let Some(session) = &mut self.faults else {
            return;
        };
        let nodes = &mut self.nodes;
        let sparse = self.sparse;
        let woken = &mut self.woken;
        session.apply_round(self.round, |v, _, to| {
            if to == NodeLifecycle::Booting {
                nodes[v.index()].on_recover();
            }
            // A boot promotion is a lifecycle wakeup: the node steps this
            // very round (mirrors the flat engine's frontier wake).
            if sparse && to == NodeLifecycle::Operational {
                woken[v.index()] = true;
            }
        });
        session.charge_round(&mut self.cost);
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
    /// resolved slot.
    pub fn last_slot_state(&self, chan: ChannelId) -> SlotState {
        SlotState::from(&self.prev_slots[chan.index()])
    }

    /// Outcome of channel `chan`'s most recently resolved lane sub-slot.
    pub fn last_lanes(&self, chan: ChannelId) -> LaneOutcome {
        self.prev_lanes[chan.index()]
    }

    /// Consumes the engine, returning the node states and the cost account.
    pub fn into_parts(self) -> (Vec<P>, CostAccount) {
        (self.nodes, self.cost)
    }
}

impl<'g, P: Protocol> EngineControl<P> for ReferenceEngine<'g, P> {
    /// With a fault plan installed: lifecycle transitions apply first, only
    /// `Operational` nodes step (a skipped node's pending queue is discarded
    /// unread by the swap — inbound messages to a crashed node are lost
    /// without being counted as drops), dropped sends never enter the
    /// next-round queues, and erased slots overwrite the resolved outcome.
    fn step_round(&mut self) {
        if self.sparse {
            // Rotate the wakeup buffers: last round's `wake_me` requests
            // become this round's wakes, and boot promotions applied below
            // join them.
            std::mem::swap(&mut self.woken, &mut self.next_woken);
            self.next_woken.fill(false);
            self.last_stepped.clear();
        }
        self.apply_fault_round();
        for queue in &mut self.next_pending {
            queue.clear(); // keep capacity: the pooled half of the buffer pair
        }
        let mut writes: Vec<(ChannelId, NodeId, P::Msg)> = Vec::new();
        let mut lane_writes: Vec<(ChannelId, NodeId, u64)> = Vec::new();
        let mut messages_sent: u64 = 0;
        let mut dropped: u64 = 0;

        let ReferenceEngine {
            graph,
            nodes,
            channels,
            pending,
            next_pending,
            prev_slots,
            prev_lanes,
            round,
            faults,
            sparse,
            woken,
            next_woken,
            step_all,
            last_stepped,
            ..
        } = self;
        let step_all = std::mem::take(step_all);
        for v in graph.nodes() {
            if faults.as_ref().is_some_and(|s| !s.is_operational(v)) {
                continue;
            }
            if *sparse {
                // Brute-force active-set membership, recomputed from full
                // state: this is the specification the flat engine's
                // incremental frontier must match.
                let mask = channels.mask(v);
                let hears_slot = prev_slots
                    .iter()
                    .enumerate()
                    .any(|(c, o)| mask & (1 << c) != 0 && !o.is_idle())
                    || prev_lanes
                        .iter()
                        .enumerate()
                        .any(|(c, l)| mask & (1 << c) != 0 && !l.is_idle());
                let active =
                    step_all || !pending[v.index()].is_empty() || woken[v.index()] || hears_slot;
                if !active {
                    continue;
                }
                last_stepped.push(v.index() as u32);
            }
            let mut outbox = OutboxBuffer::new();
            let mut io = RoundIo {
                node: v,
                round: *round,
                neighbors: graph.neighbors(v),
                inbox: Inbox::direct(&pending[v.index()]),
                slots: Slots::Direct(prev_slots),
                lanes: prev_lanes.as_slice(),
                attached: channels.mask(v),
                outbox: &mut outbox,
            };
            nodes[v.index()].step(&mut io);
            messages_sent += outbox.len() as u64;
            if *sparse {
                outbox.take_wakes(|w| next_woken[w.index()] = true);
            }
            // Channel writes move out of the staging arena first (owned, as
            // when the seed staged them in an `Option<M>`), because draining
            // the sends retires the payload epoch.
            outbox.take_channel_writes(|chan, from, msg| writes.push((chan, from, msg)));
            outbox.take_lane_writes(|chan, from, word| lane_writes.push((chan, from, word)));
            for (to, msg) in outbox.drain_sends() {
                // Drop at the delivery boundary: sent (counted above), never
                // queued for the receiver.
                if faults
                    .as_ref()
                    .is_some_and(|s| s.drops_message(*round, v, to))
                {
                    dropped += 1;
                    continue;
                }
                next_pending[to.index()].push((v, msg));
            }
        }

        // Clone-path slot resolution: each winner is cloned into its outcome,
        // exactly as the seed's single-channel `resolve_slot`.
        self.prev_slots = resolve_slots(self.channels.channels(), &writes);
        self.cost.add_messages(messages_sent);
        if dropped > 0 {
            self.cost.add_dropped_messages(dropped);
        }
        self.cost.add_round();
        let k = self.channels.channels() as usize;
        let mut counts = vec![0u64; k];
        for (chan, _, _) in &writes {
            counts[chan.index()] += 1;
        }
        for (c, count) in counts.into_iter().enumerate() {
            self.chan_cost[c].add_round();
            // Erasure at the resolve boundary, busy slots only: the cloned
            // winner (if any) is discarded and replaced by the distinguished
            // `Erased` feedback.
            if count > 0
                && self
                    .faults
                    .as_ref()
                    .is_some_and(|s| s.erases_slot(self.round, ChannelId(c as u16)))
            {
                self.prev_slots[c] = SlotOutcome::Erased;
                self.cost.add_erased_slot(count);
                self.chan_cost[c].add_erased_slot(count);
            } else {
                self.cost.add_channel_slot(count);
                self.chan_cost[c].add_channel_slot(count);
            }
        }
        // Lane sub-slots: the OR-merged words, with the erasure sharing the
        // channel's slot draw and corruption flipping one seeded bit of the
        // resolved word — bit-identical semantics to the flat engine.
        self.prev_lanes = resolve_lanes(self.channels.channels(), &lane_writes);
        let mut lane_counts = vec![0u64; k];
        for (chan, _, _) in &lane_writes {
            lane_counts[chan.index()] += 1;
        }
        for (c, count) in lane_counts.into_iter().enumerate() {
            if count == 0 {
                continue;
            }
            let chan = ChannelId(c as u16);
            if self
                .faults
                .as_ref()
                .is_some_and(|s| s.erases_slot(self.round, chan))
            {
                self.prev_lanes[c] = LaneOutcome::Erased;
                self.cost.add_erased_lanes(count);
                self.chan_cost[c].add_erased_lanes(count);
            } else {
                if let Some(bit) = self
                    .faults
                    .as_ref()
                    .and_then(|s| s.plan().corrupts_lane(self.round, chan))
                {
                    if let LaneOutcome::Word(w) = &mut self.prev_lanes[c] {
                        *w ^= 1u64 << bit;
                    }
                    self.cost.add_corrupted_payloads(1);
                    self.chan_cost[c].add_corrupted_payloads(1);
                }
                self.cost.add_lane_slot(count);
                self.chan_cost[c].add_lane_slot(count);
            }
        }
        std::mem::swap(&mut self.pending, &mut self.next_pending);
        self.round += 1;
    }

    fn round(&self) -> u64 {
        self.round
    }

    /// O(n + K): full rescan, as in the original implementation.
    fn is_quiescent(&self) -> bool {
        self.nodes.iter().enumerate().all(|(i, p)| {
            p.is_done()
                || self
                    .faults
                    .as_ref()
                    .is_some_and(|s| s.lifecycle(NodeId(i)).is_exempt())
        }) && self.pending.iter().all(Vec::is_empty)
            && self.prev_slots.iter().all(SlotOutcome::is_idle)
            && self.prev_lanes.iter().all(LaneOutcome::is_idle)
    }

    fn cost(&self) -> CostAccount {
        self.cost
    }

    fn channel_costs(&self) -> Vec<CostAccount> {
        self.chan_cost.clone()
    }

    fn channel_count(&self) -> u16 {
        self.channels.channels()
    }

    fn reattach(&mut self, masks: &[u64]) {
        assert_eq!(
            masks.len(),
            self.graph.node_count(),
            "re-attachment covers {} nodes, graph has {}",
            masks.len(),
            self.graph.node_count()
        );
        self.channels.reattach(masks);
        // Attachment changes what every node hears next round.
        if self.sparse {
            self.step_all = true;
        }
    }

    /// This engine rescans for quiescence, so no counter maintenance is
    /// needed.
    fn update_nodes(&mut self, f: &mut dyn FnMut(NodeId, &mut P)) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            f(NodeId(i), node);
        }
        // Arbitrary state edits invalidate any sparsity assumption.
        if self.sparse {
            self.step_all = true;
        }
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
    use crate::SyncEngine;
    use netsim_graph::generators;

    /// Gossip-max: every node floods the largest id it has seen until nothing
    /// new arrives; exercises inboxes, outboxes, and quiescence together.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct GossipMax {
        best: u64,
        started: bool,
    }

    impl Protocol for GossipMax {
        type Msg = u64;
        fn step(&mut self, io: &mut RoundIo<'_, u64>) {
            let mut learned = !self.started;
            self.started = true;
            for (_, &v) in io.inbox() {
                if v > self.best {
                    self.best = v;
                    learned = true;
                }
            }
            if learned {
                io.send_all(self.best);
            }
        }
        fn is_done(&self) -> bool {
            self.started
        }
    }

    #[test]
    fn reference_and_flat_engines_agree() {
        for (g, limit) in [
            (generators::ring(17), 64),
            (generators::Family::Grid.generate(36, 1), 64),
            (generators::random_connected(40, 0.1, 9), 64),
        ] {
            let init = |id: NodeId| GossipMax {
                best: (id.index() as u64).wrapping_mul(2654435761) % 1000,
                started: false,
            };
            let mut fast = SyncEngine::new(&g, init);
            let mut slow = ReferenceEngine::new(&g, init);
            let fast_out = fast.run(limit);
            let slow_out = slow.run(limit);
            assert_eq!(fast_out, slow_out);
            assert!(fast_out.is_completed());
            let (fast_nodes, fast_cost) = fast.into_parts();
            let (slow_nodes, slow_cost) = slow.into_parts();
            assert_eq!(fast_nodes, slow_nodes);
            assert_eq!(fast_cost, slow_cost);
        }
    }

    #[test]
    fn engines_agree_under_faults() {
        use crate::FaultPlan;
        let plans = [
            FaultPlan::from_rates(101, 0.3, 0.0, 0.0, 0.0),
            FaultPlan::from_rates(102, 0.0, 0.3, 0.0, 0.0),
            FaultPlan::from_rates(103, 0.1, 0.1, 0.05, 0.25),
        ];
        for (g, limit) in [
            (generators::ring(17), 64),
            (generators::random_connected(40, 0.1, 9), 64),
        ] {
            for plan in &plans {
                let init = |id: NodeId| GossipMax {
                    best: (id.index() as u64).wrapping_mul(2654435761) % 1000,
                    started: false,
                };
                let faulted = EngineBuilder::new(&g).fault_plan(plan.clone());
                let mut fast = faulted.build_flat(init);
                let mut slow = faulted.build_reference(init);
                let fast_out = fast.run(limit);
                let slow_out = slow.run(limit);
                assert_eq!(fast_out, slow_out);
                for v in g.nodes() {
                    assert_eq!(fast.lifecycle(v), slow.lifecycle(v));
                }
                let (fast_nodes, fast_cost) = fast.into_parts();
                let (slow_nodes, slow_cost) = slow.into_parts();
                assert_eq!(fast_nodes, slow_nodes);
                assert_eq!(fast_cost, slow_cost);
            }
        }
    }
}
