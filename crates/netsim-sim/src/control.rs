//! The unified engine control surface: one trait, one builder, four
//! substrates.
//!
//! Every execution substrate in this workspace — the flat [`SyncEngine`],
//! the clone-path [`ReferenceEngine`], the [`AsyncEngine`] under the
//! [`Lockstep`] adapter, and (in the `netsim-io` crate) the loopback-UDP
//! `WireNet` — exposes the same conceptual surface: construct over a graph
//! and a [`ChannelSet`], step rounds, re-attach channels between rounds,
//! edit node states between rounds, install a [`FaultPlan`], read the
//! [`CostAccount`].  Before this module each driver (the sharded-MST merge
//! driver, the sharded global-function pipeline, the conformance harness)
//! re-dispatched over that surface by hand with a per-substrate `enum` and
//! four copies of every call.  [`EngineControl`] collapses the four copies
//! into one trait so drivers are written once, generic over substrate, and
//! [`EngineBuilder`] is the matching constructor surface.
//!
//! # Determinism contract
//!
//! For a **frontier-safe, delay-insensitive** protocol (the
//! [`RoundIo::wake_me`](crate::RoundIo::wake_me) contract; every protocol in
//! `multimedia` qualifies), any two [`EngineControl`] substrates driven by
//! the same call sequence — the same constructor inputs, the same
//! interleaving of [`run`](EngineControl::run) /
//! [`reattach`](EngineControl::reattach) /
//! [`update_nodes`](EngineControl::update_nodes) calls, the same
//! [`FaultPlan`] — produce **bit-identical observables**: node states, round
//! counts, lifecycles, the reconciled [`cost`](EngineControl::cost), and the
//! reconciled per-channel [`channel_costs`](EngineControl::channel_costs).
//! The trait impls fold each substrate's structural accounting offsets into
//! `cost`/`channel_costs` (the lockstep adapter's one axiomatic all-idle
//! round — see [`reconciled_cost_faulted`])
//! so generic drivers never reconcile by hand.  This is the contract the
//! `engine_conformance` suite and the `multimedia` four-substrate pinning
//! tests enforce, and it is what makes a driver written against this trait
//! a *specification*: run it on the reference engine to define the answer,
//! on the flat engine to get it fast, on the wire backend to get it over
//! real sockets.
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
use crate::lockstep::{
    lockstep_config, reconciled_channel_costs, reconciled_cost_faulted, Lockstep,
};
use crate::metrics::CostAccount;
use crate::node::Protocol;
use crate::reference::ReferenceEngine;
use netsim_graph::{Graph, NodeId};

/// The surface shared by every execution substrate, written once so drivers
/// (re-sharding, sharded MST, the global-function pipeline, conformance
/// harnesses) are generic over it.  See the [module docs](self) for the
/// determinism contract.
///
/// All between-rounds operations ([`reattach`](Self::reattach),
/// [`update_nodes`](Self::update_nodes)) keep each substrate's documented
/// snapshot semantics: the next round observes the previous round's
/// outcomes, gated by the new attachment.  [`set_fault_plan`](Self::set_fault_plan)
/// is before-round-0 only, like the inherent methods it forwards to.
pub trait EngineControl<P: Protocol> {
    /// Executes exactly one round.
    fn step_round(&mut self);

    /// Runs until quiescence or until `max_rounds` **total** rounds have
    /// elapsed (an absolute limit, not a relative budget: continue a run
    /// with `run(eng.round() + budget)`).
    fn run(&mut self, max_rounds: u64) -> RunOutcome;

    /// Rounds accounted so far — always equal to
    /// [`cost()`](Self::cost)`.rounds`.  On the lockstep substrate this
    /// includes the adapter's axiomatic all-idle round (the reconciliation
    /// offset of [`reconciled_cost`](crate::reconciled_cost)), so a freshly
    /// built lockstep engine reports round 1 where the synchronous engines
    /// report 0; after any completed run the values agree bit-for-bit.
    fn round(&self) -> u64;

    /// Whether the substrate's quiescence condition holds.
    fn is_quiescent(&self) -> bool;

    /// The cost account, **substrate-reconciled**: structural accounting
    /// offsets (the lockstep adapter's axiomatic all-idle round and its
    /// final-round churn) are already folded in, so equal call sequences
    /// give bit-identical accounts on every substrate.
    fn cost(&self) -> CostAccount;

    /// Per-channel breakdown of the channel-scoped counters of
    /// [`cost`](Self::cost), substrate-reconciled like it.  Entry `c` is
    /// channel `c`'s rounds, slot classification, write attempts, and lane
    /// counters; point-to-point counters stay zero.  Deltas of this vector
    /// are the contention signal
    /// [`ContentionMonitor`](crate::reshard::ContentionMonitor) consumes.
    fn channel_costs(&self) -> Vec<CostAccount>;

    /// Number of channels `K` in the engine's [`ChannelSet`].
    fn channel_count(&self) -> u16;

    /// Replaces the per-node attachment table between rounds
    /// (`masks[v]` = bitmask of channels node `v` is attached to).
    fn reattach(&mut self, masks: &[u64]);

    /// Runs `f` over every node's protocol state between rounds.
    fn update_nodes(&mut self, f: &mut dyn FnMut(NodeId, &mut P));

    /// Read access to node `v`'s protocol state.
    fn node(&self, v: NodeId) -> &P;

    /// Installs a fault plan; before round 0 only.
    fn set_fault_plan(&mut self, plan: FaultPlan);

    /// The live fault session, when a plan is installed.
    fn fault_session(&self) -> Option<&FaultSession>;

    /// Switches to sparse (active-set) stepping; before round 0 only.
    /// Sparse runs are pinned bit-identical to dense runs for
    /// frontier-safe protocols, so substrates without a dense/sparse
    /// distinction (the wire backend steps dense by construction) accept
    /// this as a no-op.
    fn enable_sparse(&mut self);

    /// Node `v`'s lifecycle ([`NodeLifecycle::Operational`] when no plan is
    /// installed).
    fn lifecycle(&self, v: NodeId) -> NodeLifecycle {
        self.fault_session()
            .map_or(NodeLifecycle::Operational, |s| s.lifecycle(v))
    }
}

impl<'g, P: Protocol> EngineControl<P> for SyncEngine<'g, P> {
    fn step_round(&mut self) {
        SyncEngine::step_round(self);
    }
    fn run(&mut self, max_rounds: u64) -> RunOutcome {
        SyncEngine::run(self, max_rounds)
    }
    fn round(&self) -> u64 {
        SyncEngine::round(self)
    }
    fn is_quiescent(&self) -> bool {
        SyncEngine::is_quiescent(self)
    }
    fn cost(&self) -> CostAccount {
        *SyncEngine::cost(self)
    }
    fn channel_costs(&self) -> Vec<CostAccount> {
        SyncEngine::channel_costs(self).to_vec()
    }
    fn channel_count(&self) -> u16 {
        self.channels().channels()
    }
    fn reattach(&mut self, masks: &[u64]) {
        SyncEngine::reattach(self, masks);
    }
    fn update_nodes(&mut self, f: &mut dyn FnMut(NodeId, &mut P)) {
        SyncEngine::update_nodes(self, f);
    }
    fn node(&self, v: NodeId) -> &P {
        SyncEngine::node(self, v)
    }
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        SyncEngine::set_fault_plan(self, plan);
    }
    fn fault_session(&self) -> Option<&FaultSession> {
        SyncEngine::fault_session(self)
    }
    fn enable_sparse(&mut self) {
        self.enable_sparse_stepping();
    }
}

impl<'g, P: Protocol> EngineControl<P> for ReferenceEngine<'g, P> {
    fn step_round(&mut self) {
        ReferenceEngine::step_round(self);
    }
    fn run(&mut self, max_rounds: u64) -> RunOutcome {
        ReferenceEngine::run(self, max_rounds)
    }
    fn round(&self) -> u64 {
        ReferenceEngine::round(self)
    }
    fn is_quiescent(&self) -> bool {
        ReferenceEngine::is_quiescent(self)
    }
    fn cost(&self) -> CostAccount {
        *ReferenceEngine::cost(self)
    }
    fn channel_costs(&self) -> Vec<CostAccount> {
        ReferenceEngine::channel_costs(self).to_vec()
    }
    fn channel_count(&self) -> u16 {
        self.channels().channels()
    }
    fn reattach(&mut self, masks: &[u64]) {
        ReferenceEngine::reattach(self, masks);
    }
    fn update_nodes(&mut self, f: &mut dyn FnMut(NodeId, &mut P)) {
        ReferenceEngine::update_nodes(self, f);
    }
    fn node(&self, v: NodeId) -> &P {
        ReferenceEngine::node(self, v)
    }
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        ReferenceEngine::set_fault_plan(self, plan);
    }
    fn fault_session(&self) -> Option<&FaultSession> {
        ReferenceEngine::fault_session(self)
    }
    fn enable_sparse(&mut self) {
        self.enable_sparse_stepping();
    }
}

/// The async substrate participates through the [`Lockstep`] adapter (the
/// round-for-round replay configuration, [`lockstep_config`]); the impl
/// folds the adapter's structural accounting offset into
/// [`cost`](EngineControl::cost) / [`channel_costs`](EngineControl::channel_costs)
/// and unwraps the adapter for node access, so generic drivers see the
/// wrapped protocol directly.
impl<'g, P: Protocol> EngineControl<P> for AsyncEngine<'g, Lockstep<P>> {
    fn step_round(&mut self) {
        let next = self.tick() + 1;
        AsyncEngine::run(self, next);
    }
    fn run(&mut self, max_rounds: u64) -> RunOutcome {
        // `round()` counts the adapter's axiomatic round on top of the
        // engine's tick, so the absolute round budget maps to one fewer
        // tick; the reported round count carries the same offset.
        let completed = AsyncEngine::run(self, max_rounds.saturating_sub(1));
        let rounds = self.tick() + 1;
        if completed {
            RunOutcome::Completed { rounds }
        } else {
            RunOutcome::RoundLimit { rounds }
        }
    }
    fn round(&self) -> u64 {
        self.tick() + 1
    }
    fn is_quiescent(&self) -> bool {
        AsyncEngine::is_quiescent(self)
    }
    fn cost(&self) -> CostAccount {
        let crashed =
            AsyncEngine::fault_session(self).map_or(0, FaultSession::non_operational_count);
        reconciled_cost_faulted(
            *AsyncEngine::cost(self),
            self.channels().channels(),
            crashed,
        )
    }
    fn channel_costs(&self) -> Vec<CostAccount> {
        reconciled_channel_costs(AsyncEngine::channel_costs(self))
    }
    fn channel_count(&self) -> u16 {
        self.channels().channels()
    }
    fn reattach(&mut self, masks: &[u64]) {
        AsyncEngine::reattach(self, masks);
    }
    fn update_nodes(&mut self, f: &mut dyn FnMut(NodeId, &mut P)) {
        AsyncEngine::update_nodes(self, |v, adapter| f(v, adapter.inner_mut()));
    }
    fn node(&self, v: NodeId) -> &P {
        AsyncEngine::node(self, v).inner()
    }
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        AsyncEngine::set_fault_plan(self, plan);
    }
    fn fault_session(&self) -> Option<&FaultSession> {
        AsyncEngine::fault_session(self)
    }
    fn enable_sparse(&mut self) {
        self.enable_sparse_boundaries();
    }
}

/// Constructor surface matching [`EngineControl`]: collect the run's
/// configuration (graph, [`ChannelSet`], optional [`FaultPlan`], sparse
/// stepping) once, then build any substrate from it.  The builder is
/// reusable — each `build_*` call clones the configuration — so conformance
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
    pub fn channels(mut self, channels: ChannelSet) -> Self {
        self.channels = channels;
        self
    }

    /// Installs a fault plan on every engine built.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Enables sparse (active-set) stepping on every engine built; the
    /// protocol must be frontier-safe.  No-op on substrates that always
    /// step dense (the wire backend).
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
        let mut eng = SyncEngine::with_channels(self.graph, self.channels.clone(), init);
        if self.sparse {
            eng.enable_sparse_stepping();
        }
        if let Some(plan) = &self.plan {
            eng.set_fault_plan(plan.clone());
        }
        eng
    }

    /// Builds the clone-path [`ReferenceEngine`] (the executable
    /// specification).
    pub fn build_reference<P: Protocol, F: FnMut(NodeId) -> P>(
        &self,
        init: F,
    ) -> ReferenceEngine<'g, P> {
        let mut eng = ReferenceEngine::with_channels(self.graph, self.channels.clone(), init);
        if self.sparse {
            eng.enable_sparse_stepping();
        }
        if let Some(plan) = &self.plan {
            eng.set_fault_plan(plan.clone());
        }
        eng
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
}
