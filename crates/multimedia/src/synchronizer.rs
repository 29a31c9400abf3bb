//! The multiaccess channel as a synchronizer (Section 7.1 of the paper).
//!
//! The paper's base point-to-point network is asynchronous.  Section 7.1
//! observes that the channel yields a synchronizer with constant overhead:
//! every node acknowledges each algorithm message it receives, transmits a
//! *busy tone* on the channel as long as any of its own messages is still
//! unacknowledged, and treats an **idle slot** as the clock pulse that starts
//! the next round.  The message complexity at most doubles (one ack per
//! message) and each round costs a constant number of slots beyond the
//! longest message delay (Corollary 4: the multimedia network is at least as
//! powerful as the corresponding synchronous point-to-point network).
//!
//! [`ChannelSynchronizer`] wraps any synchronous [`Protocol`] and runs it on
//! the asynchronous engine using exactly this mechanism.
//!
//! The synchronizer is the *realistic* bridge (arbitrary delays, busy-tone
//! clocking, channel 0 occupied by the tones); for conformance testing and
//! for multi-phase channel pipelines such as the channel-sharded MST, the
//! idealised sibling is [`netsim_sim::Lockstep`], which replays rounds on
//! the async engine with unit delays and leaves every channel free for the
//! wrapped protocol.

use crate::model::MultimediaNetwork;
use netsim_graph::NodeId;
use netsim_sim::{
    AsyncConfig, AsyncCtx, AsyncEngine, AsyncProtocol, CostAccount, Inbox, OutboxBuffer, Protocol,
    RoundIo, SlotOutcome,
};

/// Message wrapper used by the synchronizer on both media.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncMsg<M> {
    /// An algorithm message, tagged with the simulated round it was sent in.
    Payload {
        /// Simulated round of the wrapped message.
        round: u64,
        /// The wrapped algorithm message.
        msg: M,
    },
    /// Acknowledgement of one payload message.
    Ack,
    /// Busy tone on the channel ("my messages are not all acknowledged yet").
    Busy,
}

/// Runs a synchronous [`Protocol`] over an asynchronous point-to-point
/// network, using the channel-based synchronizer of Section 7.1.
#[derive(Debug)]
pub struct ChannelSynchronizer<P: Protocol> {
    inner: P,
    round: u64,
    pending_acks: usize,
    /// Messages buffered for the pulse that ends the current simulated round
    /// (payloads tagged `round`).  A pooled `Vec` — the idle pulse is global,
    /// so in practice only the current round's tag is live (see
    /// `on_message`); the old per-round `HashMap` allocated a fresh bucket
    /// every round.
    pending: Vec<(NodeId, P::Msg)>,
    /// Messages tagged with a future round, promoted into `pending` as the
    /// round counter catches up.  Under the busy-tone invariant this stays
    /// empty, but buffering (rather than asserting) keeps the synchronizer
    /// graceful if that invariant is ever loosened.
    pending_future: Vec<(u64, NodeId, P::Msg)>,
    /// Pooled storage for the inbox handed to the inner protocol at each
    /// pulse (swapped with `pending`, returned after the step).
    inbox_scratch: Vec<(NodeId, P::Msg)>,
    /// Delivered payloads kept for capacity reuse: `on_message` clones
    /// incoming payloads into these buffers (`clone_from`, so `Vec`-like
    /// messages keep their backing storage) instead of allocating fresh.
    spare: Vec<P::Msg>,
    /// Payload bodies reclaimed from the async engine's retired-wrapper
    /// graveyard, reused when re-wrapping the inner protocol's sends.
    /// Reclaiming eagerly (every step) also keeps the engine graveyard from
    /// filling up with valueless `Ack`/`Busy` wrappers.
    send_spare: Vec<P::Msg>,
    /// Pooled staging buffer for the wrapped protocol's sends, reused across
    /// simulated rounds; its payload arena hands the inner protocol's frame
    /// buffers back through `RoundIo::recycle_payload`.
    outbox: OutboxBuffer<P::Msg>,
    /// Count of algorithm (payload) messages sent by this node.
    payload_messages: u64,
    started: bool,
}

impl<P: Protocol> ChannelSynchronizer<P> {
    /// Wraps a per-node protocol instance.
    pub fn new(inner: P) -> Self {
        ChannelSynchronizer {
            inner,
            round: 0,
            pending_acks: 0,
            pending: Vec::new(),
            pending_future: Vec::new(),
            inbox_scratch: Vec::new(),
            spare: Vec::new(),
            send_spare: Vec::new(),
            outbox: OutboxBuffer::new(),
            payload_messages: 0,
            started: false,
        }
    }

    /// The wrapped protocol state.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Simulated synchronous rounds completed so far by this node.
    pub fn rounds_completed(&self) -> u64 {
        self.round
    }

    /// Algorithm messages (excluding acknowledgements) sent by this node.
    pub fn payload_messages(&self) -> u64 {
        self.payload_messages
    }

    fn step_inner(&mut self, inbox: &[(NodeId, P::Msg)], ctx: &mut AsyncCtx<'_, SyncMsg<P::Msg>>) {
        let prev_slot: SlotOutcome<P::Msg> = SlotOutcome::Idle;
        let mut io = RoundIo::detached(
            ctx.id(),
            self.round,
            ctx.neighbors(),
            Inbox::direct(inbox),
            &prev_slot,
            &mut self.outbox,
        );
        self.inner.step(&mut io);
        let channel_write = io.finish();
        debug_assert!(
            channel_write.is_none(),
            "the channel synchronizer is for point-to-point algorithms; the \
             channel is occupied by busy tones"
        );
        // Reclaim retired wrappers from the engine graveyard: keep payload
        // bodies for capacity reuse, drop valueless acks and busy tones
        // (draining every step stops them from crowding out payloads).
        while let Some(wrapper) = ctx.recycle_payload() {
            if let SyncMsg::Payload { msg, .. } = wrapper {
                self.send_spare.push(msg);
            }
        }
        let round = self.round;
        let send_spare = &mut self.send_spare;
        let mut sent: u64 = 0;
        self.outbox.drain_sends_by_ref(|to, msg| {
            // Clone the staged payload into reclaimed storage when we have
            // any (`clone_from` keeps a `Vec`'s backing buffer).
            let body = match send_spare.pop() {
                Some(mut buf) => {
                    buf.clone_from(msg);
                    buf
                }
                None => msg.clone(),
            };
            ctx.send(to, SyncMsg::Payload { round, msg: body });
            sent += 1;
        });
        self.pending_acks += sent as usize;
        self.payload_messages += sent;
        if self.pending_acks > 0 {
            ctx.write_channel(SyncMsg::Busy);
        }
    }
}

impl<P: Protocol> AsyncProtocol for ChannelSynchronizer<P> {
    type Msg = SyncMsg<P::Msg>;

    fn on_start(&mut self, ctx: &mut AsyncCtx<'_, Self::Msg>) {
        self.started = true;
        self.step_inner(&[], ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &Self::Msg, ctx: &mut AsyncCtx<'_, Self::Msg>) {
        match msg {
            SyncMsg::Payload { round, msg } => {
                // Clone into a spare delivered-payload buffer when one is
                // available (`clone_from` keeps e.g. a `Vec`'s capacity), so
                // steady-state buffering allocates nothing.
                let owned = match self.spare.pop() {
                    Some(mut buf) => {
                        buf.clone_from(msg);
                        buf
                    }
                    None => msg.clone(),
                };
                // The busy-tone invariant says a payload is tagged with the
                // receiver's current round (the idle pulse cannot fire while
                // the payload is unacknowledged); tags outside that window
                // are buffered gracefully rather than dropped (late tags —
                // impossible under the invariant — deliver at the next
                // pulse; early tags wait for their round).
                if *round <= self.round {
                    debug_assert_eq!(
                        *round, self.round,
                        "payload tagged {round} behind local round {}",
                        self.round
                    );
                    self.pending.push((from, owned));
                } else {
                    debug_assert_eq!(
                        *round,
                        self.round + 1,
                        "payload tagged {round} ahead of local round {}",
                        self.round
                    );
                    self.pending_future.push((*round, from, owned));
                }
                ctx.send(from, SyncMsg::Ack);
            }
            SyncMsg::Ack => {
                self.pending_acks = self.pending_acks.saturating_sub(1);
            }
            SyncMsg::Busy => {}
        }
        if self.pending_acks > 0 {
            ctx.write_channel(SyncMsg::Busy);
        }
    }

    fn on_slot(&mut self, outcome: &SlotOutcome<Self::Msg>, ctx: &mut AsyncCtx<'_, Self::Msg>) {
        if outcome.is_idle() {
            // Clock pulse: every message of the current round has been
            // delivered and acknowledged network-wide.  Swap the round's
            // inbox into the pooled scratch, promote any future-tagged
            // messages that have come due, step, and recycle the delivered
            // payload buffers.
            std::mem::swap(&mut self.pending, &mut self.inbox_scratch);
            self.round += 1;
            let mut i = 0;
            while i < self.pending_future.len() {
                if self.pending_future[i].0 <= self.round {
                    let (_, from, m) = self.pending_future.swap_remove(i);
                    self.pending.push((from, m));
                } else {
                    i += 1;
                }
            }
            let inbox = std::mem::take(&mut self.inbox_scratch);
            if !self.inner.is_done() || !inbox.is_empty() {
                self.step_inner(&inbox, ctx);
            }
            let mut inbox = inbox;
            for (_, m) in inbox.drain(..) {
                self.spare.push(m);
            }
            self.inbox_scratch = inbox;
        } else if self.pending_acks > 0 {
            ctx.write_channel(SyncMsg::Busy);
        }
    }

    fn is_done(&self) -> bool {
        // Buffered payloads count as "not done": a node that has already
        // terminated locally can still hold messages awaiting the next
        // pulse, and quiescing before that pulse would drop them — the
        // synchronous engine never stops with messages in flight, and the
        // `synchronizer_oracle` property test recounts every delivery.
        self.started
            && self.inner.is_done()
            && self.pending_acks == 0
            && self.pending.is_empty()
            && self.pending_future.is_empty()
    }
}

/// Outcome of a synchronized run.
#[derive(Debug)]
pub struct SynchronizedRun<P> {
    /// Final per-node protocol states.
    pub nodes: Vec<P>,
    /// Cost measured on the asynchronous engine (includes acknowledgements
    /// and busy-tone slots).
    pub cost: CostAccount,
    /// Total algorithm (payload) messages, i.e. what the same protocol would
    /// have sent on a synchronous network.
    pub payload_messages: u64,
    /// Simulated synchronous rounds completed (maximum over nodes).
    pub rounds: u64,
    /// Channel slots elapsed.
    pub slots: u64,
}

/// Runs `init`-constructed protocol instances over the asynchronous network
/// of `net` using the channel synchronizer.
///
/// Returns `None` if the run did not finish within `max_ticks` ticks.
pub fn run_synchronized<P, F>(
    net: &MultimediaNetwork,
    config: AsyncConfig,
    max_ticks: u64,
    mut init: F,
) -> Option<SynchronizedRun<P>>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
{
    let graph = net.graph();
    let mut engine = AsyncEngine::new(graph, config, |id| ChannelSynchronizer::new(init(id)));
    if !engine.run(max_ticks) {
        return None;
    }
    let slots = engine.slots_elapsed();
    let payload_messages: u64 = engine.nodes().iter().map(|n| n.payload_messages()).sum();
    let rounds = engine
        .nodes()
        .iter()
        .map(|n| n.rounds_completed())
        .max()
        .unwrap_or(0);
    let (wrappers, cost) = engine.into_parts();
    let nodes: Vec<P> = wrappers.into_iter().map(|w| w.inner).collect();
    Some(SynchronizedRun {
        nodes,
        cost,
        payload_messages,
        rounds,
        slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::generators;
    use netsim_sim::{protocols::BfsBuild, EngineControl, SyncEngine};

    fn run_bfs_synchronized(
        net: &MultimediaNetwork,
        root: NodeId,
        seed: u64,
    ) -> (Vec<Option<u32>>, CostAccount, u64) {
        let config = AsyncConfig {
            slot_ticks: 4,
            max_delay_ticks: 4,
            seed,
        };
        let mut engine = AsyncEngine::new(net.graph(), config, |id| {
            ChannelSynchronizer::new(BfsBuild::new(id, root))
        });
        assert!(engine.run(2_000_000), "synchronized BFS must terminate");
        let depths: Vec<Option<u32>> = net
            .graph()
            .nodes()
            .map(|v| engine.node(v).inner().depth())
            .collect();
        let payload: u64 = engine.nodes().iter().map(|n| n.payload_messages()).sum();
        (depths, *engine.cost(), payload)
    }

    #[test]
    fn synchronized_bfs_matches_synchronous_bfs() {
        let g = generators::Family::Grid.generate(49, 3);
        let net = MultimediaNetwork::new(g);
        let root = NodeId(0);

        // Reference: the same protocol on the synchronous engine.
        let mut sync_engine = SyncEngine::new(net.graph(), |id| BfsBuild::new(id, root));
        sync_engine.run(10_000);
        let reference: Vec<Option<u32>> = net
            .graph()
            .nodes()
            .map(|v| sync_engine.node(v).depth())
            .collect();
        let sync_messages = sync_engine.cost().p2p_messages;

        // Synchronized run over the asynchronous network.
        let (depths, async_cost, payload) = run_bfs_synchronized(&net, root, 11);
        assert_eq!(depths, reference, "synchronizer must preserve the outcome");

        // Corollary 4: the payload traffic equals the synchronous algorithm's
        // and the total (with acks) is at most twice that plus busy tones.
        assert_eq!(payload, sync_messages);
        assert!(
            async_cost.p2p_messages <= 2 * sync_messages,
            "total messages {} exceed 2x the synchronous count {}",
            async_cost.p2p_messages,
            sync_messages
        );
    }

    #[test]
    fn synchronizer_overhead_constant_per_round() {
        let g = generators::Family::Ring.generate(32, 1);
        let net = MultimediaNetwork::new(g);
        let root = NodeId(0);
        let config = AsyncConfig {
            slot_ticks: 4,
            max_delay_ticks: 4,
            seed: 5,
        };
        let mut engine = AsyncEngine::new(net.graph(), config, |id| {
            ChannelSynchronizer::new(BfsBuild::new(id, root))
        });
        assert!(engine.run(2_000_000));
        let rounds = engine
            .nodes()
            .iter()
            .map(|n| n.rounds_completed())
            .max()
            .unwrap();
        let slots = engine.slots_elapsed();
        // Each simulated round costs O(1) slots (here: a busy slot while acks
        // are outstanding plus the idle pulse).
        assert!(
            slots <= 6 * rounds + 6,
            "slots {slots} not within a constant factor of rounds {rounds}"
        );
        // BFS on a 32-ring needs ~16 rounds; the synchronizer must simulate
        // at least that many.
        assert!(rounds >= 16);
    }

    #[test]
    fn synchronized_run_deterministic_per_seed() {
        let g = generators::random_connected(25, 0.15, 2);
        let net = MultimediaNetwork::new(g);
        let a = run_bfs_synchronized(&net, NodeId(3), 7);
        let b = run_bfs_synchronized(&net, NodeId(3), 7);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
}
