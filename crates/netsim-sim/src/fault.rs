//! Deterministic fault, loss, and churn injection.
//!
//! A [`FaultPlan`] is a *seeded, fully deterministic* description of the
//! adversary: per-round channel-slot erasures, per-edge point-to-point
//! message drops, and node crash/recover events — the latter either from an
//! explicit schedule or from seeded per-round rates.  All three engines
//! ([`SyncEngine`](crate::SyncEngine), [`ReferenceEngine`](crate::ReferenceEngine),
//! and [`AsyncEngine`](crate::AsyncEngine) under the
//! [`Lockstep`](crate::Lockstep) adapter) consume the same plan and must
//! produce bit-identical executions, which is possible because every fault
//! decision is a pure function of the plan's seed and the decision's
//! coordinates (round, channel, edge, node) — never of engine-internal
//! iteration order (see [`rand::FaultRng`]).
//!
//! # The fault-application-point contract
//!
//! This contract is pinned by the `engine_conformance` fault dimension and
//! the `fault_properties` proptests; engines may not deviate:
//!
//! * **Message drops** apply at the *delivery boundary*, keyed by the
//!   sending round and the directed edge `(from, to)`: a dropped message is
//!   counted as sent ([`CostAccount::p2p_messages`](crate::CostAccount)) and
//!   as dropped ([`CostAccount::dropped_messages`]), but never reaches the
//!   recipient's inbox.  All same-round copies on the same directed edge
//!   share one coin flip.
//! * **Slot erasures** apply at the *resolve boundary*, keyed by the round
//!   and the channel: a slot scheduled for erasure resolves to the
//!   distinguished [`SlotOutcome::Erased`](crate::SlotOutcome) **iff at
//!   least one attached node wrote** — an idle slot stays idle, so
//!   [`CostAccount::erased_slots`] counts actual erasures only.  The
//!   would-be winner's payload is discarded at that boundary, and every
//!   attached node hears the erasure as (non-idle) feedback.
//! * **Crash events** take effect at the *start* of their round, before any
//!   node steps: from that round on the node neither steps nor stages, so
//!   any message or channel write it would have produced is never made,
//!   while messages and writes it issued in earlier rounds are already in
//!   flight and deliver/resolve normally.  Messages *addressed to* a
//!   non-operational node are silently discarded at the delivery boundary
//!   (they are implicit losses of the crash, not counted as
//!   `dropped_messages`).
//! * **Node lifecycle** is `Off → Booting → Operational → Crashed →
//!   Booting → …` ([`NodeLifecycle`]): a recover event moves a crashed (or
//!   off) node to `Booting` and fires
//!   [`Protocol::on_recover`](crate::Protocol::on_recover) at that
//!   transition; the node is promoted to `Operational` — and steps again —
//!   at the start of the *next* round.  Only `Operational` nodes step.
//!   `Off` and `Crashed` nodes are exempt from the quiescence condition
//!   (the run can end while they are down); a `Booting` node that is not
//!   done keeps the engine running until it has stepped.
//! * **Accounting**: [`CostAccount::crashed_rounds`] increases by the
//!   number of non-operational nodes in every executed round, identically
//!   in all engines.
//!
//! Lifecycle transitions are applied once per round, in a deterministic
//! order: boot promotions (ascending node id), then the explicit schedule
//! (in schedule order), then seeded crash draws and seeded recover draws
//! (each in ascending node id).

use crate::channel::ChannelId;
use crate::metrics::CostAccount;
use netsim_graph::NodeId;
use rand::FaultRng;

/// Sub-stream domains of the plan's [`FaultRng`]; fixed so a plan's draws
/// are stable across releases.
const DOMAIN_ERASE: u64 = 1;
const DOMAIN_DROP: u64 = 2;
const DOMAIN_CRASH: u64 = 3;
const DOMAIN_RECOVER: u64 = 4;
const DOMAIN_CORRUPT: u64 = 5;

/// Where a node is in its crash/recover lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeLifecycle {
    /// Never booted; steps nothing, exempt from quiescence.
    Off,
    /// Recovering: [`Protocol::on_recover`](crate::Protocol::on_recover)
    /// has fired, the node steps again from the next round on.
    Booting,
    /// Healthy: steps every round.
    Operational,
    /// Crashed: steps nothing, pending output discarded, inbound messages
    /// lost; exempt from quiescence.
    Crashed,
}

impl NodeLifecycle {
    /// `true` for the one state in which a node executes protocol steps.
    pub fn is_operational(self) -> bool {
        matches!(self, NodeLifecycle::Operational)
    }

    /// `true` for the states exempt from the engines' quiescence condition
    /// (`Off` and `Crashed`: the run may end while such nodes are down).
    pub fn is_exempt(self) -> bool {
        matches!(self, NodeLifecycle::Off | NodeLifecycle::Crashed)
    }
}

/// One explicitly scheduled churn event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Node `node` crashes at the start of round `round`.
    Crash {
        /// First round the node misses.
        round: u64,
        /// The crashing node.
        node: NodeId,
    },
    /// Node `node` begins recovering (`Crashed`/`Off` → `Booting`) at the
    /// start of round `round`; it steps again from round `round + 1`.
    Recover {
        /// The round in which recovery begins.
        round: u64,
        /// The recovering node.
        node: NodeId,
    },
}

impl FaultEvent {
    fn round(&self) -> u64 {
        match *self {
            FaultEvent::Crash { round, .. } | FaultEvent::Recover { round, .. } => round,
        }
    }
}

/// A seeded, fully deterministic fault schedule; see the module docs for
/// the pinned application-point contract.
///
/// Construct with [`FaultPlan::none`] (no faults) or
/// [`FaultPlan::from_rates`], then optionally layer an explicit churn
/// schedule with [`FaultPlan::with_events`] and initially-off nodes with
/// [`FaultPlan::with_initial_off`].
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    erase_p: f64,
    drop_p: f64,
    crash_p: f64,
    recover_p: f64,
    corrupt_p: f64,
    /// Explicit churn schedule, sorted by round (stable).
    events: Vec<FaultEvent>,
    /// Nodes that start `Off` instead of `Operational`.
    initial_off: Vec<NodeId>,
    /// A link partition: `(first_round, end_round, side)` — every message
    /// crossing the cut between `side` (sorted) and its complement is
    /// dropped in rounds `first_round..end_round`.
    partition: Option<(u64, u64, Vec<NodeId>)>,
}

impl FaultPlan {
    /// The null plan: no erasures, no drops, no churn.  Executions under
    /// this plan are bit-identical to executions with no plan at all
    /// (pinned by the `fault_properties` proptests).
    pub fn none() -> Self {
        FaultPlan::from_rates(0, 0.0, 0.0, 0.0, 0.0)
    }

    /// A rate-based plan: each round, every channel slot is erased with
    /// probability `erase_p`, every same-round `(from, to)` message bundle
    /// is dropped with probability `drop_p`, every operational node crashes
    /// with probability `crash_p`, and every crashed node starts recovering
    /// with probability `recover_p` — all decided by stateless draws from
    /// `seed`, so the plan is reproducible and independent of engine call
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `0.0..=1.0`.
    pub fn from_rates(seed: u64, erase_p: f64, drop_p: f64, crash_p: f64, recover_p: f64) -> Self {
        for (name, p) in [
            ("erase_p", erase_p),
            ("drop_p", drop_p),
            ("crash_p", crash_p),
            ("recover_p", recover_p),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} = {p} outside 0..=1");
        }
        FaultPlan {
            seed,
            erase_p,
            drop_p,
            crash_p,
            recover_p,
            corrupt_p: 0.0,
            events: Vec::new(),
            initial_off: Vec::new(),
            partition: None,
        }
    }

    /// Adds a payload-corruption rate: each round, every channel's busy
    /// lane word is corrupted — a seeded single-bit flip at the resolve
    /// boundary — with probability `corrupt_p` (see
    /// [`FaultPlan::corrupts_lane`]).  Corruption only touches lane words
    /// (`u64` sub-slot payloads); arena-backed message payloads are opaque
    /// to the fault layer and stay intact.
    ///
    /// # Panics
    ///
    /// Panics if `corrupt_p` is outside `0.0..=1.0`.
    pub fn with_corruption(mut self, corrupt_p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&corrupt_p),
            "corrupt_p = {corrupt_p} outside 0..=1"
        );
        self.corrupt_p = corrupt_p;
        self
    }

    /// Adds an explicit churn schedule on top of the seeded rates.  Events
    /// are applied in round order (ties keep the given order), after boot
    /// promotions and before the round's seeded draws.
    pub fn with_events(mut self, mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(FaultEvent::round);
        self.events = events;
        self
    }

    /// Marks `nodes` as starting [`NodeLifecycle::Off`]; an `Off` node
    /// boots when a [`FaultEvent::Recover`] names it.
    pub fn with_initial_off(mut self, nodes: Vec<NodeId>) -> Self {
        self.initial_off = nodes;
        self
    }

    /// Adds a **link partition**: in rounds `first_round..end_round`, every
    /// point-to-point message crossing the cut between `side` and its
    /// complement is dropped — *correlated* drops on an edge cut, unlike
    /// the independent per-edge coin flips of `drop_p`.  Drops apply at the
    /// same delivery boundary as rate drops (sent and counted as dropped,
    /// never delivered); channel traffic is unaffected, which is exactly
    /// the adversary the re-sharding veto census exists to catch.  The
    /// window heals at `end_round`: messages sent in round `end_round` or
    /// later cross normally.
    ///
    /// # Panics
    ///
    /// Panics if `first_round >= end_round`.
    pub fn with_partition(
        mut self,
        first_round: u64,
        end_round: u64,
        mut side: Vec<NodeId>,
    ) -> Self {
        assert!(
            first_round < end_round,
            "partition window {first_round}..{end_round} is empty"
        );
        side.sort();
        side.dedup();
        self.partition = Some((first_round, end_round, side));
        self
    }

    /// `true` when the plan can never produce a fault.
    pub fn is_null(&self) -> bool {
        self.erase_p <= 0.0
            && self.drop_p <= 0.0
            && self.crash_p <= 0.0
            && self.recover_p <= 0.0
            && self.corrupt_p <= 0.0
            && self.events.is_empty()
            && self.initial_off.is_empty()
            && self.partition.is_none()
    }

    fn rng(&self) -> FaultRng {
        FaultRng::new(self.seed)
    }

    /// Stateless draw: is channel `chan`'s slot of round `round` scheduled
    /// for erasure?  (The erasure *applies* only if the slot carries at
    /// least one write — see the module docs.)
    pub fn erases_slot(&self, round: u64, chan: ChannelId) -> bool {
        self.erase_p > 0.0
            && self
                .rng()
                .split(DOMAIN_ERASE)
                .chance(round, chan.index() as u64, self.erase_p)
    }

    /// Stateless draw: is channel `chan`'s lane word of round `round`
    /// scheduled for corruption?  Returns the bit index (`0..64`) to flip.
    /// The corruption *applies* only if the lane sub-slot is busy and not
    /// erased — the flip lands on the resolved (OR-merged) word at the
    /// resolve boundary, so every hearer observes the same corrupted word.
    pub fn corrupts_lane(&self, round: u64, chan: ChannelId) -> Option<u32> {
        if self.corrupt_p <= 0.0 {
            return None;
        }
        let rng = self.rng().split(DOMAIN_CORRUPT);
        if !rng.chance(round, chan.index() as u64, self.corrupt_p) {
            return None;
        }
        // A distinct key (high bit set) decorrelates the bit index from the
        // fire decision while staying a pure function of (round, chan).
        Some((rng.draw(round, chan.index() as u64 | (1 << 32)) & 63) as u32)
    }

    /// Stateless draw: are the messages sent in round `round` over the
    /// directed edge `from → to` dropped?  One draw covers every same-round
    /// copy on that edge.  A [`with_partition`](Self::with_partition) cut
    /// drops deterministically (no draw) while its window is open.
    pub fn drops_message(&self, round: u64, from: NodeId, to: NodeId) -> bool {
        if let Some((first, end, side)) = &self.partition {
            if (*first..*end).contains(&round)
                && side.binary_search(&from).is_ok() != side.binary_search(&to).is_ok()
            {
                return true;
            }
        }
        self.drop_p > 0.0
            && self.rng().split(DOMAIN_DROP).chance(
                round,
                ((from.index() as u64) << 32) | to.index() as u64,
                self.drop_p,
            )
    }

    fn rate_crashes(&self, round: u64, node: NodeId) -> bool {
        self.crash_p > 0.0
            && self
                .rng()
                .split(DOMAIN_CRASH)
                .chance(round, node.index() as u64, self.crash_p)
    }

    fn rate_recovers(&self, round: u64, node: NodeId) -> bool {
        self.recover_p > 0.0
            && self
                .rng()
                .split(DOMAIN_RECOVER)
                .chance(round, node.index() as u64, self.recover_p)
    }
}

/// A [`FaultPlan`] instantiated against a concrete node count: tracks the
/// per-node [`NodeLifecycle`] as rounds are applied in order.
///
/// Engines hold one session per run and call
/// [`FaultSession::apply_round`]`(r)` exactly once at the start of round
/// `r`, for `r = 0, 1, 2, …` with no gaps; the `on_transition` callback
/// fires for every lifecycle change (engines use the `Crashed → Booting`
/// edge to invoke [`Protocol::on_recover`](crate::Protocol::on_recover)
/// and to maintain their quiescence counters).
#[derive(Clone, Debug)]
pub struct FaultSession {
    plan: FaultPlan,
    lifecycle: Vec<NodeLifecycle>,
    /// Index of the first unapplied event in `plan.events`.
    next_event: usize,
    /// The next round `apply_round` expects.
    next_round: u64,
    /// Count of nodes not currently `Operational`.
    non_operational: u64,
}

impl FaultSession {
    /// Instantiates `plan` for `n` nodes (all `Operational` except the
    /// plan's initially-off set).
    pub fn new(plan: FaultPlan, n: usize) -> Self {
        let mut lifecycle = vec![NodeLifecycle::Operational; n];
        for &v in &plan.initial_off {
            assert!(v.index() < n, "initially-off node {v:?} out of range");
            lifecycle[v.index()] = NodeLifecycle::Off;
        }
        let non_operational = lifecycle.iter().filter(|l| !l.is_operational()).count() as u64;
        FaultSession {
            plan,
            lifecycle,
            next_event: 0,
            next_round: 0,
            non_operational,
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Current lifecycle state of node `v`.
    pub fn lifecycle(&self, v: NodeId) -> NodeLifecycle {
        self.lifecycle[v.index()]
    }

    /// All per-node lifecycle states, indexed by node id.
    pub fn lifecycles(&self) -> &[NodeLifecycle] {
        &self.lifecycle
    }

    /// `true` iff node `v` currently steps.
    pub fn is_operational(&self, v: NodeId) -> bool {
        self.lifecycle[v.index()].is_operational()
    }

    /// Number of nodes not currently `Operational` — the per-round
    /// increment of [`CostAccount::crashed_rounds`](crate::CostAccount).
    pub fn non_operational_count(&self) -> u64 {
        self.non_operational
    }

    /// Delegates to [`FaultPlan::drops_message`].
    pub fn drops_message(&self, round: u64, from: NodeId, to: NodeId) -> bool {
        self.plan.drops_message(round, from, to)
    }

    /// Delegates to [`FaultPlan::erases_slot`].
    pub(crate) fn erases_slot(&self, round: u64, chan: ChannelId) -> bool {
        self.plan.erases_slot(round, chan)
    }

    /// Delegates to [`FaultPlan::corrupts_lane`].
    pub(crate) fn corrupts_lane(&self, round: u64, chan: ChannelId) -> Option<u32> {
        self.plan.corrupts_lane(round, chan)
    }

    fn transition<F: FnMut(NodeId, NodeLifecycle, NodeLifecycle)>(
        &mut self,
        v: NodeId,
        to: NodeLifecycle,
        on_transition: &mut F,
    ) {
        let from = self.lifecycle[v.index()];
        if from == to {
            return;
        }
        self.non_operational = self.non_operational + u64::from(!to.is_operational())
            - u64::from(!from.is_operational());
        self.lifecycle[v.index()] = to;
        on_transition(v, from, to);
    }

    /// Applies round `round`'s lifecycle transitions: boot promotions,
    /// then the explicit schedule, then seeded crash and recover draws.
    /// Must be called with consecutive rounds starting at 0.
    ///
    /// # Panics
    ///
    /// Panics when rounds are applied out of order or twice.
    pub fn apply_round<F: FnMut(NodeId, NodeLifecycle, NodeLifecycle)>(
        &mut self,
        round: u64,
        mut on_transition: F,
    ) {
        assert_eq!(
            round, self.next_round,
            "fault rounds must be applied consecutively"
        );
        self.next_round += 1;

        // 1. Nodes that began recovering last round step from this round on.
        for i in 0..self.lifecycle.len() {
            if self.lifecycle[i] == NodeLifecycle::Booting {
                self.transition(NodeId(i), NodeLifecycle::Operational, &mut on_transition);
            }
        }

        // 2. Explicit schedule.
        while self.next_event < self.plan.events.len()
            && self.plan.events[self.next_event].round() == round
        {
            let ev = self.plan.events[self.next_event];
            self.next_event += 1;
            match ev {
                FaultEvent::Crash { node, .. } => {
                    if matches!(
                        self.lifecycle[node.index()],
                        NodeLifecycle::Operational | NodeLifecycle::Booting
                    ) {
                        self.transition(node, NodeLifecycle::Crashed, &mut on_transition);
                    }
                }
                FaultEvent::Recover { node, .. } => {
                    if self.lifecycle[node.index()].is_exempt() {
                        self.transition(node, NodeLifecycle::Booting, &mut on_transition);
                    }
                }
            }
        }

        // 3. Seeded churn rates (skipped entirely at zero rates).
        if self.plan.crash_p > 0.0 {
            for i in 0..self.lifecycle.len() {
                if self.lifecycle[i].is_operational() && self.plan.rate_crashes(round, NodeId(i)) {
                    self.transition(NodeId(i), NodeLifecycle::Crashed, &mut on_transition);
                }
            }
        }
        if self.plan.recover_p > 0.0 {
            for i in 0..self.lifecycle.len() {
                if self.lifecycle[i] == NodeLifecycle::Crashed
                    && self.plan.rate_recovers(round, NodeId(i))
                {
                    self.transition(NodeId(i), NodeLifecycle::Booting, &mut on_transition);
                }
            }
        }
    }

    /// Charges this round's churn to `cost`
    /// ([`CostAccount::crashed_rounds`]); engines call it once per executed
    /// round, right after [`FaultSession::apply_round`].
    pub fn charge_round(&self, cost: &mut CostAccount) {
        cost.add_crashed_rounds(self.non_operational);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_order_independent_and_seeded() {
        let a = FaultPlan::from_rates(11, 0.3, 0.3, 0.1, 0.1);
        let b = FaultPlan::from_rates(11, 0.3, 0.3, 0.1, 0.1);
        // Interrogate the plans in different orders: same answers.
        let fwd: Vec<bool> = (0..40)
            .flat_map(|r| (0..4).map(move |c| (r, c)))
            .map(|(r, c)| a.erases_slot(r, ChannelId(c)))
            .collect();
        let bwd: Vec<bool> = {
            let mut v: Vec<(u64, u16)> =
                (0..40).flat_map(|r| (0..4).map(move |c| (r, c))).collect();
            v.reverse();
            let mut out: Vec<bool> = v
                .into_iter()
                .map(|(r, c)| b.erases_slot(r, ChannelId(c)))
                .collect();
            out.reverse();
            out
        };
        assert_eq!(fwd, bwd);
        assert!(
            fwd.iter().any(|&e| e),
            "0.3 erasure rate must fire in 160 slots"
        );
        // Edge drops are directed and keyed by the full (round, from, to).
        let drops: Vec<bool> = (0..200)
            .map(|r| a.drops_message(r, NodeId(1), NodeId(2)))
            .collect();
        assert_eq!(
            drops,
            (0..200)
                .map(|r| b.drops_message(r, NodeId(1), NodeId(2)))
                .collect::<Vec<_>>()
        );
        assert!(drops.iter().any(|&d| d));
        assert!(drops.iter().any(|&d| !d));
        // A different seed disagrees somewhere.
        let c = FaultPlan::from_rates(12, 0.3, 0.3, 0.1, 0.1);
        assert!((0..200).any(|r| {
            a.drops_message(r, NodeId(1), NodeId(2)) != c.drops_message(r, NodeId(1), NodeId(2))
        }));
    }

    #[test]
    fn corruption_draws_are_seeded_and_bounded() {
        let a = FaultPlan::none().with_corruption(0.4);
        let b = FaultPlan::none().with_corruption(0.4);
        assert!(!a.is_null());
        let fwd: Vec<Option<u32>> = (0..200).map(|r| a.corrupts_lane(r, ChannelId(1))).collect();
        let bwd: Vec<Option<u32>> = (0..200)
            .rev()
            .map(|r| b.corrupts_lane(r, ChannelId(1)))
            .rev()
            .collect();
        assert_eq!(fwd, bwd);
        assert!(fwd.iter().any(|c| c.is_some()), "0.4 rate must fire");
        assert!(fwd.iter().any(|c| c.is_none()), "0.4 rate must also miss");
        for bit in fwd.iter().flatten() {
            assert!(*bit < 64, "flip index {bit} out of word range");
        }
        // Bit indices are decorrelated from the fire decision: over 200
        // rounds the fired flips must not all land on the same bit.
        let bits: Vec<u32> = fwd.iter().flatten().copied().collect();
        assert!(bits.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn partition_drops_exactly_the_cut_in_its_window() {
        let plan = FaultPlan::none().with_partition(3, 6, vec![NodeId(0), NodeId(2)]);
        assert!(!plan.is_null());
        for r in 0..10 {
            let open = (3..6).contains(&r);
            // Cross-cut pairs drop iff the window is open, both directions.
            assert_eq!(plan.drops_message(r, NodeId(0), NodeId(1)), open);
            assert_eq!(plan.drops_message(r, NodeId(1), NodeId(2)), open);
            // Same-side pairs never drop.
            assert!(!plan.drops_message(r, NodeId(0), NodeId(2)));
            assert!(!plan.drops_message(r, NodeId(1), NodeId(3)));
        }
        // Rate drops still layer on top of the cut.
        let layered =
            FaultPlan::from_rates(9, 0.0, 0.5, 0.0, 0.0).with_partition(0, 1, vec![NodeId(0)]);
        assert!(layered.drops_message(0, NodeId(0), NodeId(1)));
        assert!((0..200).any(|r| layered.drops_message(r, NodeId(1), NodeId(3))));
    }

    #[test]
    fn null_plan_never_fires() {
        let p = FaultPlan::none();
        assert!(p.is_null());
        for r in 0..100 {
            assert!(!p.erases_slot(r, ChannelId(0)));
            assert!(!p.drops_message(r, NodeId(0), NodeId(1)));
            assert!(p.corrupts_lane(r, ChannelId(0)).is_none());
        }
        let mut s = FaultSession::new(p, 8);
        for r in 0..100 {
            s.apply_round(r, |_, _, _| panic!("null plan must not transition"));
        }
        assert_eq!(s.non_operational_count(), 0);
    }

    #[test]
    fn scheduled_crash_and_recover_lifecycle() {
        let plan = FaultPlan::none().with_events(vec![
            FaultEvent::Crash {
                round: 2,
                node: NodeId(1),
            },
            FaultEvent::Recover {
                round: 5,
                node: NodeId(1),
            },
            FaultEvent::Recover {
                round: 3,
                node: NodeId(0),
            },
        ]);
        let plan = plan.with_initial_off(vec![NodeId(0)]);
        let mut s = FaultSession::new(plan, 3);
        assert_eq!(s.lifecycle(NodeId(0)), NodeLifecycle::Off);
        assert_eq!(s.non_operational_count(), 1);

        let mut log: Vec<(u64, usize, NodeLifecycle, NodeLifecycle)> = Vec::new();
        for r in 0..8 {
            s.apply_round(r, |v, from, to| log.push((r, v.index(), from, to)));
        }
        assert_eq!(
            log,
            vec![
                (2, 1, NodeLifecycle::Operational, NodeLifecycle::Crashed),
                (3, 0, NodeLifecycle::Off, NodeLifecycle::Booting),
                (4, 0, NodeLifecycle::Booting, NodeLifecycle::Operational),
                (5, 1, NodeLifecycle::Crashed, NodeLifecycle::Booting),
                (6, 1, NodeLifecycle::Booting, NodeLifecycle::Operational),
            ]
        );
        assert_eq!(s.non_operational_count(), 0);
        let mut cost = CostAccount::new();
        s.charge_round(&mut cost);
        assert_eq!(cost.crashed_rounds, 0);
    }

    #[test]
    #[should_panic(expected = "consecutively")]
    fn out_of_order_rounds_rejected() {
        let mut s = FaultSession::new(FaultPlan::none(), 2);
        s.apply_round(1, |_, _, _| {});
    }

    #[test]
    fn rate_churn_respects_state_machine() {
        let plan = FaultPlan::from_rates(77, 0.0, 0.0, 0.2, 0.5);
        let mut s = FaultSession::new(plan, 16);
        let mut crashes = 0u32;
        let mut recovers = 0u32;
        for r in 0..64 {
            s.apply_round(r, |_, from, to| match (from, to) {
                (NodeLifecycle::Operational, NodeLifecycle::Crashed) => crashes += 1,
                (NodeLifecycle::Crashed, NodeLifecycle::Booting) => recovers += 1,
                (NodeLifecycle::Booting, NodeLifecycle::Operational) => {}
                other => panic!("illegal transition {other:?}"),
            });
        }
        assert!(
            crashes > 0,
            "20% crash rate must fire over 64 rounds x 16 nodes"
        );
        assert!(recovers > 0, "50% recovery rate must fire");
    }
}
