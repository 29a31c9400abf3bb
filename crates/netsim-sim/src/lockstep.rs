//! Round-for-round replay of a synchronous [`Protocol`] on the
//! [`AsyncEngine`].
//!
//! With `slot_ticks = 1` and `max_delay_ticks = 1` every message sent while
//! round `r` executes arrives before the slot boundary that starts round
//! `r + 1`, so the event-driven run is round-for-round equivalent to the
//! synchronous engines — the third substrate of the `engine_conformance`
//! suite, and the adapter the channel-sharded MST uses to pin its phase
//! round counts on the asynchronous engine.
//!
//! One structural accounting difference is inherent to the replay: the
//! `on_start` round observes the axiomatic all-idle slots *preceding* time
//! 0 without the engine counting them, while a synchronous run's final round
//! resolves all-idle slots no step ever observes.  Both runs execute the
//! same number of steps, so a lockstep [`CostAccount`] matches the
//! synchronous one after adding exactly one all-idle round — the adjustment
//! the [`EngineControl`] impl below folds into
//! [`cost`](EngineControl::cost) and
//! [`channel_costs`](EngineControl::channel_costs).
//!
//! The real-socket backend (`netsim-io`) solves the same round-framing
//! problem across *processes* instead of inside one event queue: each host
//! closes its round with a counted `Barrier` frame (see
//! [`wire::Frame`](crate::wire::Frame)), so round boundaries and quiescence
//! are detected from frame counts rather than tick scheduling — the
//! wire-format sibling of this adapter's slot-boundary discipline, and the
//! fourth substrate of the conformance matrix.

use crate::async_engine::{AsyncConfig, AsyncCtx, AsyncEngine, AsyncProtocol};
use crate::channel::{LaneOutcome, SlotOutcome};
use crate::control::EngineControl;
use crate::fault::FaultSession;
use crate::metrics::CostAccount;
use crate::node::{Inbox, Protocol, RoundIo, Slots};
use netsim_graph::NodeId;

/// The [`AsyncConfig`] under which [`Lockstep`] replays the synchronous
/// round structure: one tick per slot, every delay one tick, seed 0 (the
/// delay draw is degenerate, so the seed is irrelevant).
pub fn lockstep_config() -> AsyncConfig {
    AsyncConfig {
        slot_ticks: 1,
        max_delay_ticks: 1,
        seed: 0,
    }
}

/// Adds the one axiomatic all-idle round (and its idle slot on each of `k`
/// channels) the `on_start` round observed without the engine counting it —
/// see the module docs.
fn add_axiom_round(cost: &mut CostAccount, k: u16) {
    cost.add_round();
    for _ in 0..k {
        cost.add_channel_slot(0);
    }
}

/// Adapter that replays a synchronous [`Protocol`] on the
/// [`AsyncEngine`] in lockstep (see the module docs).
///
/// The adapter owns **no buffers** besides the round's inbox: it overrides
/// [`AsyncProtocol::on_boundary`] and builds the inner protocol's
/// [`RoundIo`] directly over the engine's pooled per-channel outcome slices
/// (one borrowed broadcast per boundary — a slot winner is never cloned per
/// node) and over the one sender-tagged [`OutboxBuffer`](crate::OutboxBuffer)
/// every [`AsyncCtx`] of the pass stages into.  The step's outputs are
/// already where the engine folds them from — a `send_all` is one interned
/// payload however large the degree — so nothing is forwarded.
#[derive(Debug)]
pub struct Lockstep<P: Protocol> {
    inner: P,
    /// Deliveries buffered for the current round, in arrival order; sorted
    /// by sender index (stably — preserving per-sender send order) before
    /// each step to reproduce the synchronous inbox contract.
    inbox: Vec<(NodeId, P::Msg)>,
}

impl<P: Protocol> Lockstep<P> {
    /// Wraps a protocol instance.
    pub fn new(inner: P) -> Self {
        Lockstep {
            inner,
            inbox: Vec::new(),
        }
    }

    /// The wrapped protocol state.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Consumes the adapter, returning the wrapped protocol.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Steps the inner protocol once over the given per-channel outcomes.
    fn step_sync(
        &mut self,
        slots: &[SlotOutcome<P::Msg>],
        lanes: &[LaneOutcome],
        ctx: &mut AsyncCtx<'_, P::Msg>,
    ) {
        self.inbox.sort_by_key(|&(from, _)| from.index());
        // The inner protocol recycles from the staging arena, the engine
        // retires payloads to its own graveyard: bridge one across.
        if ctx.outbox.arena.recyclable() == 0 {
            if let Some(dead) = ctx.graveyard.pop() {
                ctx.outbox.arena.donate(dead);
            }
        }
        // The window replays the node's real attachment (sharded channel
        // sets included) and trusts the K range and mask fit `ChannelSet`
        // guarantees by construction (its fields are private; every
        // constructor and `reattach` check both) and the engine's K-long
        // lane slice.  The round index is the engine's
        // tick, not a local counter: under the lockstep configuration
        // boundary `t` steps round `t`, and a node that missed steps while
        // crashed must resume at the *current* round.
        let mut io = RoundIo {
            node: ctx.id(),
            round: ctx.tick(),
            neighbors: ctx.neighbors(),
            inbox: Inbox::direct(&self.inbox),
            slots: Slots::Direct(slots),
            lanes,
            attached: ctx.attached,
            outbox: &mut *ctx.outbox,
        };
        self.inner.step(&mut io);
        // Sends, writes and wakeups stay staged in the engine's buffer (the
        // window applied the neighbour / attachment / K checks); the engine
        // folds them with the rest of the pass.
        self.inbox.clear();
    }
}

impl<P: Protocol> AsyncProtocol for Lockstep<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut AsyncCtx<'_, Self::Msg>) {
        // Round 0 observes the axiomatic all-idle slots preceding time 0:
        // outside a boundary the pooled outcome slices are exactly that.
        self.step_sync(ctx.slots, ctx.lanes, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &Self::Msg, _ctx: &mut AsyncCtx<'_, Self::Msg>) {
        self.inbox.push((from, msg.clone()));
    }

    fn on_boundary(
        &mut self,
        slots: &[SlotOutcome<Self::Msg>],
        lanes: &[LaneOutcome],
        ctx: &mut AsyncCtx<'_, Self::Msg>,
    ) {
        self.step_sync(slots, lanes, ctx);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done() && self.inbox.is_empty()
    }

    fn on_recover(&mut self) {
        // Forward the lifecycle hook to the wrapped synchronous protocol.
        // The inbox needs no reset: it is always empty outside a tick
        // (deliveries to a crashed node are gated by the engine).
        self.inner.on_recover();
    }
}

/// The async substrate on the engine surface, through the [`Lockstep`]
/// adapter under [`lockstep_config`]: `on_start` is round 0 and tick `t`'s
/// boundary is round `t`, so `round()` is `tick + started`.  Node access
/// unwraps the adapter, so generic drivers see the wrapped protocol
/// directly, and the accounts carry the one axiomatic all-idle round of the
/// module docs from the first round on.
impl<'g, P: Protocol> EngineControl<P> for AsyncEngine<'g, Lockstep<P>> {
    fn step_round(&mut self) {
        self.advance();
    }

    fn round(&self) -> u64 {
        self.tick() + u64::from(self.started())
    }

    fn is_quiescent(&self) -> bool {
        AsyncEngine::is_quiescent(self)
    }

    /// With a fault plan the synchronous run's final all-idle round also
    /// charges that round's churn, which the lockstep run's last boundary
    /// never accounts: both engines apply the same fault rounds, so the
    /// current non-operational census is that charge (no other fault can
    /// fire in an all-idle round — no writers to erase, no sends to drop).
    fn cost(&self) -> CostAccount {
        let mut cost = *AsyncEngine::cost(self);
        if self.started() {
            add_axiom_round(&mut cost, self.channels().channels());
            let crashed =
                AsyncEngine::fault_session(self).map_or(0, FaultSession::non_operational_count);
            cost.add_crashed_rounds(crashed);
        }
        cost
    }

    /// The channel-scoped counters carry no churn, so the axiom round is the
    /// whole adjustment.
    fn channel_costs(&self) -> Vec<CostAccount> {
        let mut costs = AsyncEngine::channel_costs(self).to_vec();
        if self.started() {
            costs.iter_mut().for_each(|c| add_axiom_round(c, 1));
        }
        costs
    }

    fn channel_count(&self) -> u16 {
        self.channels().channels()
    }

    fn reattach(&mut self, masks: &[u64]) {
        AsyncEngine::reattach(self, masks);
    }

    fn update_nodes(&mut self, f: &mut dyn FnMut(NodeId, &mut P)) {
        AsyncEngine::update_nodes(self, |v, adapter| f(v, &mut adapter.inner));
    }

    fn node(&self, v: NodeId) -> &P {
        &AsyncEngine::node(self, v).inner
    }

    fn fault_session(&self) -> Option<&FaultSession> {
        AsyncEngine::fault_session(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelSet, EngineBuilder};
    use netsim_graph::generators;

    /// Each node broadcasts its id once and folds what it hears.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct OneShot {
        id: u64,
        heard: u64,
        sent: bool,
    }
    impl Protocol for OneShot {
        type Msg = u64;
        fn step(&mut self, io: &mut RoundIo<'_, u64>) {
            for (_, &m) in io.inbox() {
                self.heard = self.heard.wrapping_mul(31).wrapping_add(m);
            }
            if !self.sent {
                io.send_all(self.id);
                if self.id.is_multiple_of(3) {
                    io.write_channel(self.id);
                }
                self.sent = true;
            }
        }
        fn is_done(&self) -> bool {
            self.sent
        }
    }

    #[test]
    fn lockstep_matches_sync_engine() {
        let g = generators::ring(9);
        let init = |v: NodeId| OneShot {
            id: v.index() as u64,
            heard: 0,
            sent: false,
        };
        let mut sync = EngineBuilder::new(&g).build_flat(init);
        assert!(sync.run(100).is_completed());
        let mut lock =
            AsyncEngine::with_channels(&g, lockstep_config(), ChannelSet::single(), |v| {
                Lockstep::new(init(v))
            });
        assert!(lock.run(100));
        for v in g.nodes() {
            assert_eq!(sync.node(v), lock.node(v).inner());
        }
    }
}
