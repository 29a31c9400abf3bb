//! Shared cross-engine protocol-conformance harness.
//!
//! The simulator has three execution substrates for the same [`Protocol`]
//! semantics:
//!
//! 1. [`SyncEngine`] — the flat, arena-backed synchronous engine (payloads
//!    travel as [`PayloadArena`](netsim_sim::PayloadArena) handles, and slot
//!    winners are delivered by handle too);
//! 2. [`ReferenceEngine`] — the pre-arena **clone path**: every staged
//!    payload is cloned into per-node pending queues, one owned message per
//!    delivery, and every slot winner is cloned into its outcome, exactly as
//!    in the seed implementation;
//! 3. [`AsyncEngine`] driven in **lockstep** (slot = 1 tick, every delay =
//!    1 tick) through the [`Lockstep`] adapter, which replays the
//!    synchronous round structure on the event-driven substrate — payloads
//!    travel through the async engine's refcounted slab.
//!
//! The harness runs one protocol on all three — over any
//! [`ChannelSet`](netsim_sim::ChannelSet), so multi-channel protocols are
//! covered — and asserts **bit-for-bit identical delivery traces, final
//! states, and cost accounts**: every protocol instance is wrapped in
//! [`Traced`], which records `(round, sender, payload digest)` for each
//! delivery and `(round, channel, outcome digest)` for each non-idle channel
//! slot it observes, and additionally asserts the engine's inbox-ordering
//! contract (senders ascending) with a pooled scratch vector.
//!
//! # Cost parity
//!
//! [`assert_conformant_on`] also pins the [`CostAccount`]s: `rounds`,
//! `p2p_messages`, `channel_writes`, and the per-outcome slot counters must
//! be bit-identical across all three engines.  One structural difference is
//! reconciled in the harness: the synchronous engines count one slot per
//! channel per executed round, so a completed run's **final** round resolves
//! all-idle slots that no step ever observes, while the async engine's
//! `on_start` round observes the axiomatic all-idle slots *preceding* time 0
//! without counting them.  Both runs execute the same number of steps, so the
//! lockstep cost is adjusted by exactly one all-idle round
//! (`CostAccount::add_round` + `K` idle slots) — everything else must match
//! without adjustment.
//!
//! Used by the `engine_conformance` integration test over the full topology
//! matrix (grid, random, ring-of-cliques, geometric, preferential
//! attachment, expander).

use netsim_graph::{generators, topologies, Graph, NodeId};
use netsim_sim::{
    lockstep_config, AsyncEngine, ChannelId, ChannelSet, CostAccount, FaultPlan, Lockstep,
    NodeLifecycle, Protocol, ReferenceEngine, RoundIo, SlotOutcome, SyncEngine,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Stable 64-bit digest of any hashable value (used to compare payloads and
/// slot outcomes across engines without requiring `PartialEq` on messages).
pub fn digest<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// One observable event of a protocol execution, as seen by a single node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A point-to-point delivery: `(round, sender, payload digest)`.
    Delivery {
        /// Round in which the message was observed.
        round: u64,
        /// Sending node.
        from: NodeId,
        /// Digest of the payload bits.
        digest: u64,
    },
    /// A non-idle slot heard on one channel in `round`.
    Slot {
        /// Round in which the outcome was observed.
        round: u64,
        /// Channel the outcome was heard on.
        chan: ChannelId,
        /// Digest of the outcome (collision, or success with writer + payload).
        digest: u64,
    },
}

/// Protocol wrapper that records the node's observable events and asserts
/// the inbox-ordering contract every step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Traced<P: Protocol> {
    inner: P,
    trace: Vec<TraceEvent>,
    /// Pooled scratch for the sortedness assertion — reused across rounds so
    /// the wrapper itself adds no per-step allocation.
    scratch: Vec<usize>,
}

impl<P: Protocol> Traced<P> {
    /// Wraps a protocol instance.
    pub fn new(inner: P) -> Self {
        Traced {
            inner,
            trace: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Splits the wrapper into the inner protocol and its recorded trace.
    pub fn into_parts(self) -> (P, Vec<TraceEvent>) {
        (self.inner, self.trace)
    }
}

impl<P: Protocol> Protocol for Traced<P>
where
    P::Msg: Hash,
{
    type Msg = P::Msg;

    fn step(&mut self, io: &mut RoundIo<'_, Self::Msg>) {
        // Ordering-stability assertion: the engine contract says inboxes
        // arrive ordered by sender node index.  Copy the senders into the
        // pooled scratch, sort, and require the original sequence to match.
        self.scratch.clear();
        self.scratch
            .extend(io.inbox().iter().map(|(from, _)| from.index()));
        self.scratch.sort_unstable();
        assert!(
            io.inbox()
                .iter()
                .zip(self.scratch.iter())
                .all(|((from, _), &sorted)| from.index() == sorted),
            "node {:?} round {}: inbox not in sender order",
            io.id(),
            io.round()
        );

        let round = io.round();
        for (from, msg) in io.inbox() {
            self.trace.push(TraceEvent::Delivery {
                round,
                from,
                digest: digest(msg),
            });
        }
        for c in 0..io.channels() {
            let chan = ChannelId(c);
            match io.prev_slot_on(chan) {
                SlotOutcome::Idle => {}
                SlotOutcome::Success { from, msg } => self.trace.push(TraceEvent::Slot {
                    round,
                    chan,
                    digest: digest(&(1u8, from.index(), digest(msg))),
                }),
                SlotOutcome::Collision => self.trace.push(TraceEvent::Slot {
                    round,
                    chan,
                    digest: digest(&2u8),
                }),
                SlotOutcome::Erased => self.trace.push(TraceEvent::Slot {
                    round,
                    chan,
                    digest: digest(&3u8),
                }),
            }
        }
        self.inner.step(io);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn on_recover(&mut self) {
        self.inner.on_recover();
    }
}

/// Result of one engine execution: final inner states, per-node traces, the
/// full cost account, and the final fault lifecycles.
pub struct EngineRun<P> {
    /// Final per-node protocol states (inner, unwrapped).
    pub nodes: Vec<P>,
    /// Per-node recorded event traces, indexed by node.
    pub traces: Vec<Vec<TraceEvent>>,
    /// The engine's cost account (for the lockstep run: adjusted by the one
    /// axiom idle round — see the module docs).
    pub cost: CostAccount,
    /// Final per-node lifecycles (all `Operational` when no fault plan was
    /// installed).
    pub lifecycles: Vec<NodeLifecycle>,
}

fn unzip_traced<P: Protocol>(wrappers: Vec<Traced<P>>) -> (Vec<P>, Vec<Vec<TraceEvent>>) {
    wrappers.into_iter().map(Traced::into_parts).unzip()
}

fn run_sync_impl<P, F>(
    g: &Graph,
    channels: &ChannelSet,
    plan: Option<&FaultPlan>,
    sparse: bool,
    mut init: F,
    max_rounds: u64,
) -> EngineRun<P>
where
    P: Protocol,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    let mut eng = SyncEngine::with_channels(g, channels.clone(), |v| Traced::new(init(v)));
    if sparse {
        eng.enable_sparse_stepping();
    }
    if let Some(p) = plan {
        eng.set_fault_plan(p.clone());
    }
    let out = eng.run(max_rounds);
    assert!(out.is_completed(), "sync engine must quiesce");
    let cost = *eng.cost();
    let lifecycles = eng.fault_session().map_or_else(
        || vec![NodeLifecycle::Operational; g.node_count()],
        |s| s.lifecycles().to_vec(),
    );
    let (wrappers, _) = eng.into_parts();
    let (nodes, traces) = unzip_traced(wrappers);
    EngineRun {
        nodes,
        traces,
        cost,
        lifecycles,
    }
}

/// Runs `init`-constructed protocols on the flat arena-backed [`SyncEngine`].
pub fn run_sync<P, F>(g: &Graph, channels: &ChannelSet, init: F, max_rounds: u64) -> EngineRun<P>
where
    P: Protocol,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    run_sync_impl(g, channels, None, false, init, max_rounds)
}

/// [`run_sync`] under an installed [`FaultPlan`].
pub fn run_sync_faulted<P, F>(
    g: &Graph,
    channels: &ChannelSet,
    plan: &FaultPlan,
    init: F,
    max_rounds: u64,
) -> EngineRun<P>
where
    P: Protocol,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    run_sync_impl(g, channels, Some(plan), false, init, max_rounds)
}

fn run_reference_impl<P, F>(
    g: &Graph,
    channels: &ChannelSet,
    plan: Option<&FaultPlan>,
    sparse: bool,
    mut init: F,
    max_rounds: u64,
) -> EngineRun<P>
where
    P: Protocol,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    let mut eng = ReferenceEngine::with_channels(g, channels.clone(), |v| Traced::new(init(v)));
    if sparse {
        eng.enable_sparse_stepping();
    }
    if let Some(p) = plan {
        eng.set_fault_plan(p.clone());
    }
    let out = eng.run(max_rounds);
    assert!(out.is_completed(), "reference engine must quiesce");
    let cost = *eng.cost();
    let lifecycles = eng.fault_session().map_or_else(
        || vec![NodeLifecycle::Operational; g.node_count()],
        |s| s.lifecycles().to_vec(),
    );
    let (wrappers, _) = eng.into_parts();
    let (nodes, traces) = unzip_traced(wrappers);
    EngineRun {
        nodes,
        traces,
        cost,
        lifecycles,
    }
}

/// Runs the same workload on the pre-arena clone-path [`ReferenceEngine`].
pub fn run_reference<P, F>(
    g: &Graph,
    channels: &ChannelSet,
    init: F,
    max_rounds: u64,
) -> EngineRun<P>
where
    P: Protocol,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    run_reference_impl(g, channels, None, false, init, max_rounds)
}

/// [`run_reference`] under an installed [`FaultPlan`].
pub fn run_reference_faulted<P, F>(
    g: &Graph,
    channels: &ChannelSet,
    plan: &FaultPlan,
    init: F,
    max_rounds: u64,
) -> EngineRun<P>
where
    P: Protocol,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    run_reference_impl(g, channels, Some(plan), false, init, max_rounds)
}

fn run_async_lockstep_impl<P, F>(
    g: &Graph,
    channels: &ChannelSet,
    plan: Option<&FaultPlan>,
    sparse: bool,
    mut init: F,
    max_rounds: u64,
) -> EngineRun<P>
where
    P: Protocol,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    let cfg = lockstep_config();
    let k = channels.channels();
    let mut eng = AsyncEngine::with_channels(g, cfg, channels.clone(), |v| {
        Lockstep::new(Traced::new(init(v)))
    });
    if sparse {
        eng.enable_sparse_boundaries();
    }
    if let Some(p) = plan {
        eng.set_fault_plan(p.clone());
    }
    assert!(
        eng.run(max_rounds.saturating_mul(2).max(16)),
        "async lockstep run must quiesce"
    );
    // Reconcile the structural accounting differences: the `on_start` round
    // observed the axiom all-idle slots the synchronous engines account for
    // as the final round's unobserved all-idle slots, and under a fault plan
    // the synchronous engines also charge that final round's churn (see
    // `reconciled_cost_faulted`).
    let crashed_final = eng.fault_session().map_or(0, |s| s.non_operational_count());
    let cost = netsim_sim::reconciled_cost_faulted(*eng.cost(), k, crashed_final);
    let lifecycles = eng.fault_session().map_or_else(
        || vec![NodeLifecycle::Operational; g.node_count()],
        |s| s.lifecycles().to_vec(),
    );
    let (adapters, _) = eng.into_parts();
    let (nodes, traces) = unzip_traced(adapters.into_iter().map(Lockstep::into_inner).collect());
    EngineRun {
        nodes,
        traces,
        cost,
        lifecycles,
    }
}

/// Runs the same workload on the [`AsyncEngine`] in lockstep configuration.
pub fn run_async_lockstep<P, F>(
    g: &Graph,
    channels: &ChannelSet,
    init: F,
    max_rounds: u64,
) -> EngineRun<P>
where
    P: Protocol,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    run_async_lockstep_impl(g, channels, None, false, init, max_rounds)
}

/// [`run_async_lockstep`] under an installed [`FaultPlan`].
pub fn run_async_lockstep_faulted<P, F>(
    g: &Graph,
    channels: &ChannelSet,
    plan: &FaultPlan,
    init: F,
    max_rounds: u64,
) -> EngineRun<P>
where
    P: Protocol,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    run_async_lockstep_impl(g, channels, Some(plan), false, init, max_rounds)
}

/// The conformance topology matrix: every family named by the issue, at
/// sizes small enough for the O(n)-dispatch-per-tick lockstep runs.
pub fn topology_matrix(seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        ("grid", generators::Family::Grid.generate(64, seed)),
        ("random", generators::random_connected(48, 0.12, seed)),
        ("ring_of_cliques", topologies::ring_of_cliques(8, 6)),
        (
            "geometric",
            topologies::random_geometric(
                60,
                topologies::geometric_threshold_radius(60) * 1.4,
                seed,
            ),
        ),
        (
            "preferential_attachment",
            topologies::preferential_attachment(60, 3, seed),
        ),
        ("expander", topologies::degree_bounded_expander(64, 4, seed)),
    ]
}

/// Runs `init` over all three engines on `g` with the paper's single
/// channel and asserts bit-for-bit identical delivery traces, final states,
/// and cost accounts.
pub fn assert_conformant<P, F>(label: &str, g: &Graph, init: F, max_rounds: u64)
where
    P: Protocol + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    assert_conformant_on(label, g, &ChannelSet::single(), init, max_rounds);
}

/// A scripted re-attachment schedule: `(round, masks)` entries, ascending by
/// round with every round `>= 1`, each applied **before** the named round is
/// stepped (so round `r` observes round `r - 1`'s slot outcomes under the
/// new masks — the engines' documented between-rounds semantics).  A
/// round-0 snapshot is just the initial [`ChannelSet`]; pass it as the
/// `channels` argument instead.
pub type ReattachSchedule = Vec<(u64, Vec<u64>)>;

/// Runs `init` over all three engines, replaying `schedule` through each
/// engine's `reattach` between rounds, and asserts bit-for-bit identical
/// delivery traces, final states, and cost accounts — the dynamic-attachment
/// dimension of the conformance matrix.
///
/// The protocol must stay non-quiescent until the last schedule entry has
/// been applied (the harness asserts the schedule was exhausted).
pub fn assert_conformant_reattach<P, F>(
    label: &str,
    g: &Graph,
    channels: &ChannelSet,
    schedule: &ReattachSchedule,
    mut init: F,
    max_rounds: u64,
) where
    P: Protocol + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    assert!(
        schedule.windows(2).all(|w| w[0].0 < w[1].0),
        "[{label}] schedule rounds must be strictly ascending"
    );
    // The lockstep substrate replays round 0 inside `on_start`, before any
    // snapshot can be applied, so a round-0 entry cannot be honoured there.
    assert!(
        schedule.first().is_none_or(|(r, _)| *r >= 1),
        "[{label}] schedule entries start at round 1; fold a round-0 \
         snapshot into the initial ChannelSet"
    );

    // ---- Flat sync engine, stepped round by round. ------------------------
    let sync = {
        let mut eng = SyncEngine::with_channels(g, channels.clone(), |v| Traced::new(init(v)));
        let mut next = 0;
        while !eng.is_quiescent() {
            assert!(eng.round() < max_rounds, "[{label}] sync engine ran away");
            if next < schedule.len() && schedule[next].0 == eng.round() {
                eng.reattach(&schedule[next].1);
                next += 1;
            }
            eng.step_round();
        }
        assert_eq!(next, schedule.len(), "[{label}] sync schedule unexhausted");
        let cost = *eng.cost();
        let (wrappers, _) = eng.into_parts();
        let (nodes, traces) = unzip_traced(wrappers);
        EngineRun {
            nodes,
            traces,
            cost,
            lifecycles: vec![NodeLifecycle::Operational; g.node_count()],
        }
    };

    // ---- Clone-path reference engine, same driving loop. ------------------
    let reference = {
        let mut eng = ReferenceEngine::with_channels(g, channels.clone(), |v| Traced::new(init(v)));
        let mut next = 0;
        while !eng.is_quiescent() {
            assert!(
                eng.round() < max_rounds,
                "[{label}] reference engine ran away"
            );
            if next < schedule.len() && schedule[next].0 == eng.round() {
                eng.reattach(&schedule[next].1);
                next += 1;
            }
            eng.step_round();
        }
        assert_eq!(
            next,
            schedule.len(),
            "[{label}] reference schedule unexhausted"
        );
        let cost = *eng.cost();
        let (wrappers, _) = eng.into_parts();
        let (nodes, traces) = unzip_traced(wrappers);
        EngineRun {
            nodes,
            traces,
            cost,
            lifecycles: vec![NodeLifecycle::Operational; g.node_count()],
        }
    };

    // ---- Async engine in lockstep, advanced one slot boundary at a time. --
    // With one tick per slot, step round r runs at the boundary of tick r
    // (round 0 in `on_start` before tick 1), so a snapshot scheduled before
    // round r is applied after tick r - 1 completes.
    let lockstep = {
        let k = channels.channels();
        let mut eng = AsyncEngine::with_channels(g, lockstep_config(), channels.clone(), |v| {
            Lockstep::new(Traced::new(init(v)))
        });
        let mut next = 0;
        let mut tick = 0u64;
        let mut quiescent = eng.run(0); // executes round 0 via on_start
        loop {
            if next < schedule.len() && schedule[next].0 == tick + 1 {
                eng.reattach(&schedule[next].1);
                next += 1;
            } else if quiescent {
                break;
            }
            assert!(tick < max_rounds, "[{label}] lockstep engine ran away");
            tick += 1;
            quiescent = eng.run(tick);
        }
        assert_eq!(
            next,
            schedule.len(),
            "[{label}] lockstep schedule unexhausted"
        );
        // The axiom idle round, as in `run_async_lockstep`.
        let cost = netsim_sim::reconciled_cost(*eng.cost(), k);
        let (adapters, _) = eng.into_parts();
        let (nodes, traces) =
            unzip_traced(adapters.into_iter().map(Lockstep::into_inner).collect());
        EngineRun {
            nodes,
            traces,
            cost,
            lifecycles: vec![NodeLifecycle::Operational; g.node_count()],
        }
    };

    assert_eq!(
        sync.cost, reference.cost,
        "[{label}] reattach: arena vs clone path cost accounts diverged"
    );
    assert_eq!(
        sync.cost, lockstep.cost,
        "[{label}] reattach: sync vs async lockstep cost accounts diverged"
    );
    for v in 0..g.node_count() {
        assert_eq!(
            sync.traces[v], reference.traces[v],
            "[{label}] node {v}: reattach trace diverged (sync vs reference)"
        );
        assert_eq!(
            sync.traces[v], lockstep.traces[v],
            "[{label}] node {v}: reattach trace diverged (sync vs lockstep)"
        );
        assert_eq!(
            sync.nodes[v], reference.nodes[v],
            "[{label}] node {v}: final states diverged (sync vs reference)"
        );
        assert_eq!(
            sync.nodes[v], lockstep.nodes[v],
            "[{label}] node {v}: final states diverged (sync vs async)"
        );
    }
}

/// [`assert_conformant`] over an explicit [`ChannelSet`] — the channel
/// dimension of the conformance matrix.
pub fn assert_conformant_on<P, F>(
    label: &str,
    g: &Graph,
    channels: &ChannelSet,
    mut init: F,
    max_rounds: u64,
) where
    P: Protocol + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    let sync = run_sync(g, channels, &mut init, max_rounds);
    let reference = run_reference(g, channels, &mut init, max_rounds);
    let lockstep = run_async_lockstep(g, channels, &mut init, max_rounds);

    // Cost parity: rounds, messages, slot-writer counts, and per-outcome
    // slot counters, bit-identical across the three substrates.
    assert_eq!(
        sync.cost, reference.cost,
        "[{label}] arena vs clone path: cost accounts diverged"
    );
    assert_eq!(
        sync.cost, lockstep.cost,
        "[{label}] sync vs async lockstep: cost accounts diverged"
    );
    for v in 0..g.node_count() {
        assert_eq!(
            sync.traces[v], reference.traces[v],
            "[{label}] node {v}: arena-path trace diverged from the clone path"
        );
        assert_eq!(
            sync.traces[v], lockstep.traces[v],
            "[{label}] node {v}: async lockstep trace diverged"
        );
        assert_eq!(
            sync.nodes[v], reference.nodes[v],
            "[{label}] node {v}: final states diverged (sync vs reference)"
        );
        assert_eq!(
            sync.nodes[v], lockstep.nodes[v],
            "[{label}] node {v}: final states diverged (sync vs async)"
        );
    }
}

/// Runs `init` over all three engines under the same seeded [`FaultPlan`]
/// and asserts bit-for-bit identical delivery traces, final states, final
/// lifecycles, and full cost accounts (messages sent **and dropped**, slots
/// erased, crashed node-rounds) — the fault dimension of the conformance
/// matrix.
///
/// The protocol must quiesce under the plan within `max_rounds` (crash-only
/// or bounded-horizon protocols; an open-ended retry loop under a positive
/// erasure rate may never drain).
pub fn assert_conformant_faulted<P, F>(
    label: &str,
    g: &Graph,
    channels: &ChannelSet,
    plan: &FaultPlan,
    mut init: F,
    max_rounds: u64,
) where
    P: Protocol + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    let sync = run_sync_faulted(g, channels, plan, &mut init, max_rounds);
    let reference = run_reference_faulted(g, channels, plan, &mut init, max_rounds);
    let lockstep = run_async_lockstep_faulted(g, channels, plan, &mut init, max_rounds);

    assert_eq!(
        sync.cost, reference.cost,
        "[{label}] faulted: arena vs clone path cost accounts diverged"
    );
    assert_eq!(
        sync.cost, lockstep.cost,
        "[{label}] faulted: sync vs async lockstep cost accounts diverged"
    );
    assert_eq!(
        sync.lifecycles, reference.lifecycles,
        "[{label}] faulted: final lifecycles diverged (sync vs reference)"
    );
    assert_eq!(
        sync.lifecycles, lockstep.lifecycles,
        "[{label}] faulted: final lifecycles diverged (sync vs lockstep)"
    );
    for v in 0..g.node_count() {
        assert_eq!(
            sync.traces[v], reference.traces[v],
            "[{label}] node {v}: faulted trace diverged (sync vs reference)"
        );
        assert_eq!(
            sync.traces[v], lockstep.traces[v],
            "[{label}] node {v}: faulted trace diverged (sync vs lockstep)"
        );
        assert_eq!(
            sync.nodes[v], reference.nodes[v],
            "[{label}] node {v}: faulted final states diverged (sync vs reference)"
        );
        assert_eq!(
            sync.nodes[v], lockstep.nodes[v],
            "[{label}] node {v}: faulted final states diverged (sync vs async)"
        );
    }
}

// ---------------------------------------------------------------------------
// Active-set (sparse) stepping dimension
// ---------------------------------------------------------------------------

/// Asserts two [`EngineRun`]s are bit-identical in every observable
/// dimension: final states, per-node traces, cost account, and final
/// lifecycles.
pub fn assert_runs_identical<P>(label: &str, what: &str, a: &EngineRun<P>, b: &EngineRun<P>)
where
    P: PartialEq + std::fmt::Debug,
{
    assert_eq!(a.cost, b.cost, "[{label}] {what}: cost accounts diverged");
    assert_eq!(
        a.lifecycles, b.lifecycles,
        "[{label}] {what}: final lifecycles diverged"
    );
    assert_eq!(a.nodes.len(), b.nodes.len());
    for v in 0..a.nodes.len() {
        assert_eq!(
            a.traces[v], b.traces[v],
            "[{label}] node {v}: {what}: traces diverged"
        );
        assert_eq!(
            a.nodes[v], b.nodes[v],
            "[{label}] node {v}: {what}: final states diverged"
        );
    }
}

fn assert_sparse_conformant_impl<P, F>(
    label: &str,
    g: &Graph,
    channels: &ChannelSet,
    plan: Option<&FaultPlan>,
    mut init: F,
    max_rounds: u64,
) where
    P: Protocol + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    let dense_sync = run_sync_impl(g, channels, plan, false, &mut init, max_rounds);
    let sparse_sync = run_sync_impl(g, channels, plan, true, &mut init, max_rounds);
    assert_runs_identical(
        label,
        "sparse vs dense SyncEngine",
        &dense_sync,
        &sparse_sync,
    );

    let dense_ref = run_reference_impl(g, channels, plan, false, &mut init, max_rounds);
    let sparse_ref = run_reference_impl(g, channels, plan, true, &mut init, max_rounds);
    assert_runs_identical(
        label,
        "sparse vs dense ReferenceEngine",
        &dense_ref,
        &sparse_ref,
    );

    let dense_lock = run_async_lockstep_impl(g, channels, plan, false, &mut init, max_rounds);
    let sparse_lock = run_async_lockstep_impl(g, channels, plan, true, &mut init, max_rounds);
    assert_runs_identical(
        label,
        "sparse vs dense AsyncEngine lockstep",
        &dense_lock,
        &sparse_lock,
    );

    // Cross-substrate closure: one sparse run against the dense run of a
    // *different* engine, so the sparse dimension is pinned to the same
    // shared semantics the dense conformance matrix pins.
    assert_runs_identical(
        label,
        "sparse SyncEngine vs dense ReferenceEngine",
        &sparse_sync,
        &dense_ref,
    );
    assert_runs_identical(
        label,
        "sparse AsyncEngine lockstep vs dense SyncEngine",
        &dense_sync,
        &sparse_lock,
    );
}

/// Runs `init` on all three engines **dense and sparse** (active-set
/// stepping) and asserts every sparse run bit-identical — final states,
/// delivery traces, cost accounts, lifecycles — to its dense counterpart,
/// plus cross-substrate closure (sparse sync vs dense reference, sparse
/// lockstep vs dense sync).
///
/// The protocol must be *frontier-safe* (see the `RoundIo::wake_me`
/// contract): a step with no observable input and no pending self-wakeup
/// must be a pure no-op.
pub fn assert_sparse_conformant_on<P, F>(
    label: &str,
    g: &Graph,
    channels: &ChannelSet,
    init: F,
    max_rounds: u64,
) where
    P: Protocol + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    assert_sparse_conformant_impl(label, g, channels, None, init, max_rounds);
}

/// [`assert_sparse_conformant_on`] with the paper's single channel.
pub fn assert_sparse_conformant<P, F>(label: &str, g: &Graph, init: F, max_rounds: u64)
where
    P: Protocol + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    assert_sparse_conformant_impl(label, g, &ChannelSet::single(), None, init, max_rounds);
}

/// [`assert_sparse_conformant_on`] under an installed [`FaultPlan`] — the
/// sparse × fault corner of the conformance matrix (crashes remove frontier
/// members, boots re-add them, erasures perturb the channel wake source).
pub fn assert_sparse_conformant_faulted<P, F>(
    label: &str,
    g: &Graph,
    channels: &ChannelSet,
    plan: &FaultPlan,
    init: F,
    max_rounds: u64,
) where
    P: Protocol + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    assert_sparse_conformant_impl(label, g, channels, Some(plan), init, max_rounds);
}
