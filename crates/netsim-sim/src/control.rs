//! The engine surface: one trait to drive a substrate, one builder to
//! construct it.
//!
//! Every execution substrate in this workspace — the flat [`SyncEngine`],
//! the clone-path [`ReferenceEngine`], the [`AsyncEngine`] under the
//! [`Lockstep`] adapter, and (in the `netsim-io` crate) the loopback-UDP
//! `WireNet` — runs the paper's one model of a round: every processor steps,
//! sends on its links and may write its channels, each slot resolves to
//! idle / success / collision, everyone attached hears it.  [`EngineControl`]
//! **is** that API — stepping, running, re-attaching, editing and reading an
//! engine exist nowhere else — and [`EngineBuilder`] is the only
//! constructor: graph, [`ChannelSet`], optional [`FaultPlan`], sparse
//! stepping.  Drivers (sharded MST, sharded global function, re-sharding,
//! the conformance harnesses) are written once, generic over the substrate.
//!
//! # Determinism contract
//!
//! For a **frontier-safe, delay-insensitive** protocol (the
//! [`RoundIo::wake_me`](crate::RoundIo::wake_me) contract; every protocol in
//! `multimedia` qualifies), any two substrates built from the same
//! [`EngineBuilder`] and driven by the same call sequence — the same
//! interleaving of [`step_round`](EngineControl::step_round) /
//! [`run`](EngineControl::run) / [`reattach`](EngineControl::reattach) /
//! [`update_nodes`](EngineControl::update_nodes) calls — report the same
//! [`round`](EngineControl::round), the same [`RunOutcome`], bit-identical
//! node states and lifecycles after every call, and at quiescence
//! bit-identical [`cost`](EngineControl::cost) and
//! [`channel_costs`](EngineControl::channel_costs).  This is the contract the
//! `engine_conformance` suite and the `multimedia` four-substrate pinning
//! tests enforce, and it is what makes a driver written against this trait
//! a *specification*: run it on the reference engine to define the answer,
//! on the flat engine to get it fast, on the wire backend to get it over
//! real sockets.
//!
//! # Between rounds
//!
//! [`reattach`](EngineControl::reattach) and
//! [`update_nodes`](EngineControl::update_nodes) are called between rounds
//! and take effect for the next executed round: its steps observe the
//! previous round's slot outcomes gated by the **new** attachment
//! ([`RoundIo::prev_slot_on`](crate::RoundIo::prev_slot_on) reads `Idle` on
//! a channel the node just detached from, a newly attached node hears the
//! channel's pending outcome), channel writes are gated by the new masks,
//! writes already staged under the old attachment still resolve, and under
//! sparse stepping every node steps.  Pinned by the `engine_conformance`
//! re-attachment scenario.
//!
//! # Example
//!
//! ```
//! use netsim_graph::{generators, NodeId};
//! use netsim_sim::{protocols::BfsBuild, EngineBuilder, EngineControl};
//!
//! let g = generators::ring(8);
//! let builder = EngineBuilder::new(&g);
//! // Same driver, two substrates.
//! fn drive<P, E: EngineControl<P>>(mut eng: E) -> u64
//! where
//!     P: netsim_sim::Protocol,
//! {
//!     assert!(eng.run(100).is_completed());
//!     eng.round()
//! }
//! let init = |id: NodeId| BfsBuild::new(id, NodeId(0));
//! let flat = drive(builder.build_flat(init));
//! let reference = drive(builder.build_reference(init));
//! assert_eq!(flat, reference);
//! ```

use crate::async_engine::AsyncEngine;
use crate::channel::ChannelSet;
use crate::engine::{RunOutcome, SyncEngine};
use crate::fault::{FaultPlan, FaultSession, NodeLifecycle};
use crate::lockstep::{lockstep_config, Lockstep};
use crate::metrics::CostAccount;
use crate::node::Protocol;
use crate::reference::ReferenceEngine;
use netsim_graph::{Graph, NodeId};

/// The one way to drive an execution substrate; see the
/// [module docs](self) for the determinism and between-rounds contracts.
pub trait EngineControl<P: Protocol> {
    /// Executes exactly one round: lifecycle transitions of the fault plan
    /// first (crashes at round start), then every operational node (under
    /// sparse stepping: every frontier member) steps, then messages go in
    /// flight and one slot per channel resolves.
    fn step_round(&mut self);

    /// Runs until quiescence or until `max_rounds` **total** rounds have
    /// executed (an absolute limit, not a relative budget: continue a run
    /// with `run(eng.round() + budget)`); quiescence is re-checked after
    /// the last permitted round.
    fn run(&mut self, max_rounds: u64) -> RunOutcome {
        while self.round() < max_rounds && !self.is_quiescent() {
            self.step_round();
        }
        let rounds = self.round();
        if self.is_quiescent() {
            RunOutcome::Completed { rounds }
        } else {
            RunOutcome::RoundLimit { rounds }
        }
    }

    /// Rounds executed so far — always equal to
    /// [`cost()`](Self::cost)`.rounds`.
    fn round(&self) -> u64;

    /// Whether every node is done (or exempt: `Off` / `Crashed` under a
    /// fault plan), no message is in flight, and every channel's last slot
    /// and lane sub-slot were idle.  The slot condition makes a write
    /// resolved in the final round cost one more round, in which every
    /// attached node hears its feedback (the paper's channel model).
    fn is_quiescent(&self) -> bool;

    /// The cost account.  Bit-identical across substrates **at quiescence**;
    /// mid-run the lockstep substrate's channel counters lag one boundary
    /// (it resolves round `r`'s slots at the start of round `r + 1`), which
    /// its impl squares at quiescence with the final all-idle round.
    fn cost(&self) -> CostAccount;

    /// Per-channel breakdown of the channel-scoped counters of
    /// [`cost`](Self::cost), with the same quiescence caveat.  Entry `c` is
    /// channel `c`'s rounds, slot classification, write attempts, and lane
    /// counters; point-to-point counters stay zero, and summing the
    /// channel-scoped counters over all `K` entries reproduces the global
    /// account's.  Deltas of this vector are the contention signal
    /// [`ContentionMonitor`](crate::reshard::ContentionMonitor) consumes.
    fn channel_costs(&self) -> Vec<CostAccount>;

    /// Number of channels `K` in the engine's [`ChannelSet`].
    fn channel_count(&self) -> u16;

    /// Replaces the per-node attachment table between rounds
    /// (`masks[v]` = bitmask of channels node `v` is attached to).
    ///
    /// # Panics
    ///
    /// Panics if `masks` does not cover exactly the graph's node count or a
    /// mask addresses a channel beyond the set's `K`.
    fn reattach(&mut self, masks: &[u64]);

    /// Runs `f` over every node's protocol state between rounds — the hook
    /// multi-phase pipelines use to seed the next phase.
    fn update_nodes(&mut self, f: &mut dyn FnMut(NodeId, &mut P));

    /// Read access to node `v`'s protocol state.
    fn node(&self, v: NodeId) -> &P;

    /// The live fault session, when the builder installed a plan.
    fn fault_session(&self) -> Option<&FaultSession>;

    /// Node `v`'s lifecycle ([`NodeLifecycle::Operational`] when no plan is
    /// installed).
    fn lifecycle(&self, v: NodeId) -> NodeLifecycle {
        self.fault_session()
            .map_or(NodeLifecycle::Operational, |s| s.lifecycle(v))
    }
}

/// The only constructor of an [`EngineControl`] substrate: collect the
/// run's four settings (graph, [`ChannelSet`], optional [`FaultPlan`],
/// sparse stepping) once, then build any substrate from them.  The builder
/// is reusable — each `build_*` call clones the settings — so conformance
/// harnesses construct every substrate from one literal description of the
/// run.
///
/// The `netsim-io` crate adds the fourth substrate with
/// `WireNet::from_builder(&builder, hosts, init)`.
///
/// ```
/// use netsim_graph::generators;
/// use netsim_sim::{ChannelSet, EngineBuilder, EngineControl, protocols::ChannelShardedSum};
///
/// let g = generators::ring(32);
/// let builder = EngineBuilder::new(&g)
///     .channels(ChannelShardedSum::channel_set(32, 4))
///     .sparse(true);
/// let mut eng = builder.build_flat(|v| ChannelShardedSum::new(v, 32, 4, 1));
/// assert!(eng.run(100).is_completed());
/// ```
#[derive(Clone, Debug)]
pub struct EngineBuilder<'g> {
    graph: &'g Graph,
    channels: ChannelSet,
    plan: Option<FaultPlan>,
    sparse: bool,
}

impl<'g> EngineBuilder<'g> {
    /// Starts a builder over `graph` with the paper's single-channel model,
    /// dense stepping, and no fault plan.
    pub fn new(graph: &'g Graph) -> Self {
        EngineBuilder {
            graph,
            channels: ChannelSet::single(),
            plan: None,
            sparse: false,
        }
    }

    /// Replaces the channel substrate.
    ///
    /// # Panics
    ///
    /// Panics if the set's per-node attachment table does not cover exactly
    /// the graph's node count.
    pub fn channels(mut self, channels: ChannelSet) -> Self {
        if let Some(len) = channels.table_len() {
            assert_eq!(
                len,
                self.graph.node_count(),
                "channel attachment table covers {len} nodes, graph has {}",
                self.graph.node_count()
            );
        }
        self.channels = channels;
        self
    }

    /// Installs a deterministic [`FaultPlan`] on every engine built.  See
    /// the [`fault`](crate::fault) module docs for the pinned
    /// application-point contract (drops at the delivery boundary, erasures
    /// at the resolve boundary, crashes at round start).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Enables **sparse (active-set) stepping** on every engine built: each
    /// round steps only the nodes on the activity frontier — a non-empty
    /// inbox, a non-idle outcome on an attached channel, a lifecycle
    /// transition this round, or a pending
    /// [`RoundIo::wake_me`](crate::RoundIo::wake_me) request — so per-round
    /// cost is O(active), not O(n).
    ///
    /// The protocol must be **frontier-safe**: a step observing an empty
    /// inbox, only `Idle` outcomes on its attached channels, and no
    /// lifecycle transition must be a pure no-op (no sends, no channel
    /// writes, no state or done-flag change) — *unless* the node re-armed
    /// itself with `wake_me`, which keeps it on the frontier.  For such a
    /// protocol sparse runs are bit-for-bit identical to dense runs —
    /// states, traces, costs, lifecycles, quiescence (pinned by the
    /// `engine_conformance` suite and the `frontier_properties` proptests).
    /// The flat engine keeps the frontier incrementally (see the
    /// [`engine`](SyncEngine) module docs), the reference engine recomputes
    /// it by brute force every round (the executable specification), the
    /// lockstep substrate dispatches boundaries sparsely
    /// ([`AsyncEngine::enable_sparse_boundaries`]), and the wire backend
    /// always steps dense.
    pub fn sparse(mut self, sparse: bool) -> Self {
        self.sparse = sparse;
        self
    }

    /// The graph every engine is built over.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The configured channel substrate.
    pub fn channel_set(&self) -> &ChannelSet {
        &self.channels
    }

    /// The configured fault plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Whether sparse stepping is configured.
    pub fn is_sparse(&self) -> bool {
        self.sparse
    }

    /// Builds the flat arena-backed [`SyncEngine`].
    pub fn build_flat<P: Protocol, F: FnMut(NodeId) -> P>(&self, init: F) -> SyncEngine<'g, P> {
        SyncEngine::build(
            self.graph,
            self.channels.clone(),
            self.plan.clone(),
            self.sparse,
            init,
        )
    }

    /// Builds the clone-path [`ReferenceEngine`] (the executable
    /// specification).
    pub fn build_reference<P: Protocol, F: FnMut(NodeId) -> P>(
        &self,
        init: F,
    ) -> ReferenceEngine<'g, P> {
        ReferenceEngine::build(
            self.graph,
            self.channels.clone(),
            self.plan.clone(),
            self.sparse,
            init,
        )
    }

    /// Builds the [`AsyncEngine`] under the [`Lockstep`] replay adapter
    /// (ticks advance round-for-round; the [`EngineControl`] impl reconciles
    /// the accounting offset).
    pub fn build_lockstep<P: Protocol, F: FnMut(NodeId) -> P>(
        &self,
        mut init: F,
    ) -> AsyncEngine<'g, Lockstep<P>> {
        let mut eng =
            AsyncEngine::with_channels(self.graph, lockstep_config(), self.channels.clone(), |v| {
                Lockstep::new(init(v))
            });
        if self.sparse {
            eng.enable_sparse_boundaries();
        }
        if let Some(plan) = &self.plan {
            eng.set_fault_plan(plan.clone());
        }
        eng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::ChannelShardedSum;
    use netsim_graph::generators;

    fn drive<P: Protocol, E: EngineControl<P>>(mut eng: E) -> (u64, CostAccount, Vec<CostAccount>) {
        assert!(eng.run(200).is_completed());
        (eng.round(), eng.cost(), eng.channel_costs())
    }

    #[test]
    fn three_substrates_agree_through_the_trait() {
        let g = generators::ring(24);
        let (n, k) = (24, 4);
        let builder = EngineBuilder::new(&g).channels(ChannelShardedSum::channel_set(n, k));
        let init = |v: netsim_graph::NodeId| ChannelShardedSum::new(v, n, k, v.index() as u64);
        let flat = drive(builder.build_flat(init));
        let reference = drive(builder.build_reference(init));
        let lockstep = drive(builder.build_lockstep(init));
        assert_eq!(flat, reference);
        assert_eq!(flat, lockstep);
        // The per-channel accounts decompose the global channel-scoped
        // counters exactly.
        let (_, cost, chans) = flat;
        assert_eq!(chans.len(), k as usize);
        assert_eq!(
            chans.iter().map(|c| c.channel_writes).sum::<u64>(),
            cost.channel_writes
        );
        assert_eq!(
            chans
                .iter()
                .map(|c| c.slots_idle + c.slots_success + c.slots_collision)
                .sum::<u64>(),
            cost.slots_idle + cost.slots_success + cost.slots_collision
        );
        assert!(chans.iter().all(|c| c.rounds == cost.rounds));
        assert!(chans.iter().all(|c| c.p2p_messages == 0));
    }

    #[test]
    fn builder_applies_sparse_and_plan() {
        let g = generators::ring(16);
        let (n, k) = (16, 2);
        let plan = FaultPlan::from_rates(7, 0.2, 0.0, 0.0, 0.0);
        let builder = EngineBuilder::new(&g)
            .channels(ChannelShardedSum::channel_set(n, k))
            .fault_plan(plan)
            .sparse(true);
        let init = |v: netsim_graph::NodeId| ChannelShardedSum::new(v, n, k, v.index() as u64);
        let flat = drive(builder.build_flat(init));
        let reference = drive(builder.build_reference(init));
        let lockstep = drive(builder.build_lockstep(init));
        assert_eq!(flat, reference);
        assert_eq!(flat, lockstep);
        assert!(flat.1.erased_slots > 0, "the erasure plan must have fired");
        // Dense runs of the same configuration are bit-identical.
        let dense = drive(builder.clone().sparse(false).build_flat(init));
        assert_eq!(flat, dense);
    }

    #[test]
    #[should_panic(expected = "channel attachment table covers 7 nodes, graph has 8")]
    fn builder_rejects_a_channel_table_not_covering_the_graph() {
        let g = generators::ring(8);
        let _ = EngineBuilder::new(&g).channels(ChannelSet::from_masks(1, vec![1; 7]));
    }
}
