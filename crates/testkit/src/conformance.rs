//! The cross-substrate protocol-conformance harness.
//!
//! The simulator has four execution substrates for the same [`Protocol`]
//! semantics, all built by [`EngineBuilder`] and driven through
//! [`EngineControl`]:
//!
//! 1. `build_flat` — the flat, arena-backed synchronous engine (payloads
//!    travel as [`PayloadArena`](netsim_sim::PayloadArena) handles, and slot
//!    winners are delivered by handle too);
//! 2. `build_reference` — the pre-arena **clone path**: every staged
//!    payload is cloned into per-node pending queues, one owned message per
//!    delivery, and every slot winner is cloned into its outcome, exactly as
//!    in the seed implementation;
//! 3. `build_lockstep` — the async engine driven in **lockstep** (slot =
//!    1 tick, every delay = 1 tick) through the `Lockstep` adapter, which
//!    replays the synchronous round structure on the event-driven substrate
//!    — payloads travel through the async engine's refcounted slab;
//! 4. `netsim-io`'s `WireNet` — hosts exchanging real loopback UDP
//!    datagrams.  It lives downstream of this crate, so its
//!    `wire_conformance` suite builds it and hands it to [`run_on`].
//!
//! The `assert_conformant*` family runs one protocol on the first three —
//! over any [`ChannelSet`], so multi-channel protocols are covered — with
//! **one** generic runner ([`run_on`]) and asserts **bit-for-bit identical
//! delivery traces, final states, lifecycles, cost accounts and run
//! outcomes** ([`assert_runs_identical`]): every protocol instance is
//! wrapped in [`Traced`], which records `(round, sender, payload digest)`
//! for each delivery, `(round, channel, outcome digest)` for each non-idle
//! channel slot it observes and each `on_recover` it receives, and
//! additionally asserts the engine's inbox-ordering contract (senders
//! ascending) with a pooled scratch vector.
//!
//! # Cost parity
//!
//! The [`CostAccount`]s — `rounds`, `p2p_messages`, `channel_writes`, the
//! per-outcome slot counters, and under a plan the dropped / erased /
//! crashed counters — must be bit-identical across the substrates at
//! quiescence.  The one structural difference (the lockstep run's `on_start`
//! round observes the axiomatic all-idle slots *preceding* time 0 without
//! counting them, the synchronous engines count a final all-idle round no
//! step observes) is reconciled by the lockstep `EngineControl` impl, not
//! here: the harness compares `cost()` as the trait reports it.
//!
//! [`topology_matrix`] is the family matrix of `netsim-sim`'s
//! `engine_conformance` suite (grid, random, ring-of-cliques, geometric,
//! preferential attachment, expander).

use netsim_graph::{generators, topologies, Graph, NodeId};
use netsim_sim::{
    ChannelId, ChannelSet, CostAccount, EngineBuilder, EngineControl, FaultPlan, NodeLifecycle,
    Protocol, RoundIo, SlotOutcome,
};
use std::hash::Hash;

use crate::digest;

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
    /// The node's [`Protocol::on_recover`] hook ran: a fault plan's
    /// crash-recover event, in order between the node's steps.
    Recover,
}

/// Protocol wrapper that records the node's observable events and asserts
/// the inbox-ordering contract every step.  Reads are side-effect-free on
/// every substrate, so wrapping cannot perturb the run.
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
        self.trace.push(TraceEvent::Recover);
        self.inner.on_recover();
    }
}

/// Result of one engine execution: final inner states, per-node traces, the
/// cost account, the final fault lifecycles (all `Operational` when no
/// fault plan was installed), and the run's outcome.
pub struct EngineRun<P> {
    /// Final per-node protocol states (inner, unwrapped).
    pub nodes: Vec<P>,
    /// Per-node recorded event traces, indexed by node.
    pub traces: Vec<Vec<TraceEvent>>,
    /// The engine's cost account.
    pub cost: CostAccount,
    /// Final per-node lifecycles.
    pub lifecycles: Vec<NodeLifecycle>,
    /// The engine's round counter at the end of the run.
    pub rounds: u64,
    /// Whether the run quiesced within its round limit.
    pub completed: bool,
}

/// A scripted re-attachment schedule: `(round, masks)` entries, ascending by
/// round with every round `>= 1`, each applied **before** the named round is
/// stepped (so round `r` observes round `r - 1`'s slot outcomes under the
/// new masks — the engines' documented between-rounds semantics).  A
/// round-0 snapshot is just the initial [`ChannelSet`]; pass it as the
/// `channels` argument instead.
pub type ReattachSchedule = Vec<(u64, Vec<u64>)>;

/// The one runner: drives `eng` for at most `max_rounds`, replaying
/// `schedule` through `reattach` between rounds, and reads the whole run —
/// states, traces, cost, lifecycles, outcome — back through the trait.
/// Whether the run had to quiesce is [`assert_runs_identical`]'s call.
///
/// The protocol must stay non-quiescent until the last schedule entry has
/// been applied.
pub fn run_on<P, E>(
    label: &str,
    eng: &mut E,
    n: usize,
    schedule: &[(u64, Vec<u64>)],
    max_rounds: u64,
) -> EngineRun<P>
where
    P: Protocol + Clone,
    P::Msg: Hash,
    E: EngineControl<Traced<P>>,
{
    for (round, masks) in schedule {
        assert!(
            !eng.run(*round).is_completed(),
            "[{label}] quiesced before the round-{round} re-attachment"
        );
        eng.reattach(masks);
    }
    let completed = eng.run(max_rounds).is_completed();
    let (nodes, traces) = (0..n)
        .map(|v| eng.node(NodeId(v)))
        .map(|t| (t.inner.clone(), t.trace.clone()))
        .unzip();
    EngineRun {
        nodes,
        traces,
        cost: eng.cost(),
        lifecycles: (0..n).map(|v| eng.lifecycle(NodeId(v))).collect(),
        rounds: eng.round(),
        completed,
    }
}

/// [`run_on`] over the three substrates of one builder: flat, reference,
/// lockstep, in that order.
fn run_substrates<P, F>(
    label: &str,
    builder: &EngineBuilder<'_>,
    schedule: &[(u64, Vec<u64>)],
    mut init: F,
    max_rounds: u64,
) -> [EngineRun<P>; 3]
where
    P: Protocol + Clone,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    let n = builder.graph().node_count();
    let mut traced = |v| Traced::new(init(v));
    let mut flat = builder.build_flat(&mut traced);
    let flat = run_on(label, &mut flat, n, schedule, max_rounds);
    let mut reference = builder.build_reference(&mut traced);
    let reference = run_on(label, &mut reference, n, schedule, max_rounds);
    let mut lockstep = builder.build_lockstep(&mut traced);
    let lockstep = run_on(label, &mut lockstep, n, schedule, max_rounds);
    [flat, reference, lockstep]
}

/// Asserts that the pivot run `a` quiesced and that `b` is bit-identical to
/// it in every observable dimension: run outcome and round count, cost
/// account, final lifecycles, per-node traces and final states.
pub fn assert_runs_identical<P>(label: &str, what: &str, a: &EngineRun<P>, b: &EngineRun<P>)
where
    P: PartialEq + std::fmt::Debug,
{
    assert!(
        a.completed,
        "[{label}] engine must quiesce within its round limit"
    );
    assert_eq!(
        a.completed, b.completed,
        "[{label}] {what}: run outcomes diverged"
    );
    assert_eq!(
        a.rounds, b.rounds,
        "[{label}] {what}: round counts diverged"
    );
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

/// Runs `builder`'s three substrates under `schedule` and asserts them
/// bit-identical (flat is the pivot).
fn assert_substrates_identical<P, F>(
    label: &str,
    builder: &EngineBuilder<'_>,
    schedule: &[(u64, Vec<u64>)],
    init: F,
    max_rounds: u64,
) where
    P: Protocol + Clone + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    let [flat, reference, lockstep] = run_substrates(label, builder, schedule, init, max_rounds);
    assert_runs_identical(label, "arena vs clone path", &flat, &reference);
    assert_runs_identical(label, "sync vs async lockstep", &flat, &lockstep);
}

/// Runs `init` on the flat engine under an installed [`FaultPlan`].
pub fn run_sync_faulted<P, F>(
    g: &Graph,
    channels: &ChannelSet,
    plan: &FaultPlan,
    mut init: F,
    max_rounds: u64,
) -> EngineRun<P>
where
    P: Protocol + Clone,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    let builder = EngineBuilder::new(g)
        .channels(channels.clone())
        .fault_plan(plan.clone());
    let mut eng = builder.build_flat(|v| Traced::new(init(v)));
    let run = run_on("flat", &mut eng, g.node_count(), &[], max_rounds);
    assert!(
        run.completed,
        "[flat] engine must quiesce within {max_rounds} rounds"
    );
    run
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
    P: Protocol + Clone + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    assert_conformant_on(label, g, &ChannelSet::single(), init, max_rounds);
}

/// [`assert_conformant`] over an explicit [`ChannelSet`] — the channel
/// dimension of the conformance matrix.
pub fn assert_conformant_on<P, F>(
    label: &str,
    g: &Graph,
    channels: &ChannelSet,
    init: F,
    max_rounds: u64,
) where
    P: Protocol + Clone + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    let builder = EngineBuilder::new(g).channels(channels.clone());
    assert_substrates_identical(label, &builder, &[], init, max_rounds);
}

/// Runs `init` over all three engines, replaying `schedule` through each
/// engine's `reattach` between rounds, and asserts bit-for-bit identical
/// delivery traces, final states, and cost accounts — the dynamic-attachment
/// dimension of the conformance matrix.
///
/// The protocol must stay non-quiescent until the last schedule entry has
/// been applied (the runner asserts it).
pub fn assert_conformant_reattach<P, F>(
    label: &str,
    g: &Graph,
    channels: &ChannelSet,
    schedule: &ReattachSchedule,
    init: F,
    max_rounds: u64,
) where
    P: Protocol + Clone + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    assert!(
        schedule.windows(2).all(|w| w[0].0 < w[1].0),
        "[{label}] schedule rounds must be strictly ascending"
    );
    assert!(
        schedule.first().is_none_or(|(r, _)| *r >= 1),
        "[{label}] schedule entries start at round 1; fold a round-0 \
         snapshot into the initial ChannelSet"
    );
    let builder = EngineBuilder::new(g).channels(channels.clone());
    assert_substrates_identical(label, &builder, schedule, init, max_rounds);
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
    init: F,
    max_rounds: u64,
) where
    P: Protocol + Clone + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    let builder = EngineBuilder::new(g)
        .channels(channels.clone())
        .fault_plan(plan.clone());
    assert_substrates_identical(label, &builder, &[], init, max_rounds);
}

// ---------------------------------------------------------------------------
// Active-set (sparse) stepping dimension
// ---------------------------------------------------------------------------

fn assert_sparse_conformant_impl<P, F>(
    label: &str,
    g: &Graph,
    channels: &ChannelSet,
    plan: Option<&FaultPlan>,
    mut init: F,
    max_rounds: u64,
) where
    P: Protocol + Clone + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    let mut builder = EngineBuilder::new(g).channels(channels.clone());
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan.clone());
    }
    let [dense_sync, dense_ref, dense_lock] =
        run_substrates(label, &builder, &[], &mut init, max_rounds);
    let [sparse_sync, sparse_ref, sparse_lock] =
        run_substrates(label, &builder.sparse(true), &[], &mut init, max_rounds);
    for (what, dense, sparse) in [
        ("sparse vs dense SyncEngine", &dense_sync, &sparse_sync),
        ("sparse vs dense ReferenceEngine", &dense_ref, &sparse_ref),
        (
            "sparse vs dense AsyncEngine lockstep",
            &dense_lock,
            &sparse_lock,
        ),
        // Cross-substrate closure: one sparse run against the dense run of
        // a *different* engine, so the sparse dimension is pinned to the
        // same shared semantics the dense conformance matrix pins.
        (
            "sparse SyncEngine vs dense ReferenceEngine",
            &dense_ref,
            &sparse_sync,
        ),
        (
            "sparse AsyncEngine lockstep vs dense SyncEngine",
            &dense_sync,
            &sparse_lock,
        ),
    ] {
        assert_runs_identical(label, what, dense, sparse);
    }
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
    P: Protocol + Clone + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    assert_sparse_conformant_impl(label, g, channels, None, init, max_rounds);
}

/// [`assert_sparse_conformant_on`] with the paper's single channel.
pub fn assert_sparse_conformant<P, F>(label: &str, g: &Graph, init: F, max_rounds: u64)
where
    P: Protocol + Clone + PartialEq + std::fmt::Debug,
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
    P: Protocol + Clone + PartialEq + std::fmt::Debug,
    P::Msg: Hash,
    F: FnMut(NodeId) -> P,
{
    assert_sparse_conformant_impl(label, g, channels, Some(plan), init, max_rounds);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-node run with one event, one write, everything operational.
    fn sample() -> EngineRun<u32> {
        let delivery = TraceEvent::Delivery {
            round: 1,
            from: NodeId(0),
            digest: 7,
        };
        let mut cost = CostAccount::new();
        cost.add_slot(1);
        EngineRun {
            nodes: vec![10, 20],
            traces: vec![vec![], vec![delivery]],
            cost,
            lifecycles: vec![NodeLifecycle::Operational; 2],
            rounds: 3,
            completed: true,
        }
    }

    /// "Fewer lines" must not mean "compares less": each observable
    /// dimension, perturbed alone, is caught — and nothing else is.
    #[test]
    fn every_observable_dimension_is_compared() {
        assert_runs_identical("pin", "self", &sample(), &sample());
        type Perturb = fn(&mut EngineRun<u32>);
        let perturbations: [(&str, Perturb); 7] = [
            ("run outcomes diverged", |r| r.completed = false),
            ("round counts diverged", |r| r.rounds += 1),
            ("traces diverged", |r| r.traces[1].extend_from_within(..1)),
            ("traces diverged", |r| r.traces[0].push(TraceEvent::Recover)),
            ("cost accounts diverged", |r| r.cost.add_messages(1)),
            ("final lifecycles diverged", |r| {
                r.lifecycles[1] = NodeLifecycle::Crashed
            }),
            ("final states diverged", |r| r.nodes[0] = 11),
        ];
        for (expected, perturb) in perturbations {
            let mut other = sample();
            perturb(&mut other);
            let caught = std::panic::catch_unwind(|| {
                assert_runs_identical("pin", "one perturbation", &sample(), &other)
            });
            let payload = caught.expect_err(expected);
            let message = payload.downcast_ref::<String>().expect("formatted panic");
            assert!(message.contains(expected), "{expected}: got {message}");
        }
        let mut stuck = sample();
        stuck.completed = false;
        let caught = std::panic::catch_unwind(|| {
            assert_runs_identical("pin", "stuck pivot", &stuck, &stuck)
        });
        assert!(caught.is_err(), "a pivot that never quiesced must fail");
    }
}
