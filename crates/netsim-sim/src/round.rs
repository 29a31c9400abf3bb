//! The round bookkeeping the flat engine, the async-lockstep engine and the
//! `netsim-io` wire host share.  Each steps every active node into one
//! staging [`OutboxBuffer`](crate::OutboxBuffer) and folds it once; only the
//! fold is its own (bucket into the inbox arena, intern and schedule on the
//! event heap, encode datagrams).  Stated once here: the settled [`Tally`]
//! and its lifecycle pass, the per-node [`Gate`], and the [`ChannelFold`]
//! around the resolve boundary ([`settle_slot`] / [`settle_lanes`]).
//!
//! There is deliberately no fold trait: the three folds share nothing
//! beyond "consume the outbox", so a trait would only wrap code its callers
//! must still know.  The [`ReferenceEngine`](crate::ReferenceEngine) spells
//! all of this out on its own, as the oracle the others are held to.

use crate::channel::{ChannelId, ChannelSet, LaneOutcome, SlotOutcome, SlotState};
use crate::fault::{FaultSession, NodeLifecycle};
use crate::frontier::Frontier;
use crate::metrics::CostAccount;
use netsim_graph::NodeId;

/// The counts behind O(1) quiescence: nodes reporting done, plus nodes in a
/// quiescence-exempt lifecycle (`Off` / `Crashed`) that are not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    done: usize,
    undone_exempt: usize,
}

impl Tally {
    /// Counts from scratch; `nodes` yields each node with its index into
    /// `faults`' lifecycles (`None`: no fault plan).
    pub fn recount<'a, N: 'a>(
        faults: Option<&FaultSession>,
        nodes: impl IntoIterator<Item = (usize, &'a N)>,
        is_done: impl Fn(&N) -> bool,
    ) -> Tally {
        let mut tally = Tally::default();
        for (v, node) in nodes {
            if is_done(node) {
                tally.done += 1;
            } else if faults.is_some_and(|s| s.lifecycles()[v].is_exempt()) {
                tally.undone_exempt += 1;
            }
        }
        tally
    }

    /// Nodes the run need not wait for: done or down.
    pub fn settled(&self) -> usize {
        self.done + self.undone_exempt
    }

    /// Folds a done-transition balance (a [`Gate`]'s, at its
    /// [`finish`](Gate::finish)).
    pub fn fold(&mut self, done_delta: isize) {
        self.done = self
            .done
            .checked_add_signed(done_delta)
            .expect("done count balances");
    }

    /// Applies fault round `round`'s lifecycle transitions, firing the
    /// recover hook on the way to `Booting`.  `visit` maps a transitioning
    /// node and its new state to its index in `nodes`, `None` for a node
    /// this tally does not cover.  Charging the churn is the caller's.
    pub fn apply_faults<N>(
        &mut self,
        session: &mut FaultSession,
        round: u64,
        nodes: &mut [N],
        mut visit: impl FnMut(NodeId, NodeLifecycle) -> Option<usize>,
        is_done: impl Fn(&N) -> bool,
        on_recover: impl Fn(&mut N),
    ) {
        session.apply_round(round, |v, was, now| {
            let Some(node) = visit(v, now).map(|i| &mut nodes[i]) else {
                return;
            };
            let was_done = is_done(node);
            if now == NodeLifecycle::Booting {
                on_recover(node);
            }
            let now_done = is_done(node);
            self.fold(isize::from(now_done) - isize::from(was_done));
            self.undone_exempt = self.undone_exempt + usize::from(now.is_exempt() && !now_done)
                - usize::from(was.is_exempt() && !was_done);
        });
    }
}

/// The in-process engines' [`Tally::apply_faults`] visitor: every node is
/// theirs, and a boot promotion wakes the node, which steps this very round.
pub(crate) fn boot_wakes(
    frontier: &mut Option<Frontier>,
) -> impl FnMut(NodeId, NodeLifecycle) -> Option<usize> + '_ {
    move |v, to| {
        if let (NodeLifecycle::Operational, Some(f)) = (to, frontier.as_mut()) {
            f.wake(v.index());
        }
        Some(v.index())
    }
}

/// The lifecycle gate of one pass of per-node callbacks, and the pass's
/// done-transition balance, folded into the substrate's [`Tally`] once, when
/// the pass [`finish`](Gate::finish)es.
#[derive(Debug)]
pub struct Gate<'a> {
    lifecycles: Option<&'a [NodeLifecycle]>,
    tally: &'a mut Tally,
    done_delta: isize,
}

impl<'a> Gate<'a> {
    /// A gate over `faults`' lifecycles (`None`: everyone operational)
    /// whose pass folds into `tally`.
    pub fn new(faults: Option<&'a FaultSession>, tally: &'a mut Tally) -> Self {
        let lifecycles = faults.map(FaultSession::lifecycles);
        Gate {
            lifecycles,
            tally,
            done_delta: 0,
        }
    }

    /// Whether node `v` takes its callback: only an operational node does
    /// (a gated node neither steps nor stages).
    ///
    /// The gate brackets the callback — [`admits`](Gate::admits), the
    /// callback, [`book`](Gate::book) — instead of taking it as a closure:
    /// a pass loop must be one straight-line body around the callback, and
    /// a closure inlined into several loops is emitted out of line (it cost
    /// the lockstep boundary loop ≈ 50 %, the flat step loop ≈ 6 %).
    #[inline(always)]
    pub fn admits(&self, v: usize) -> bool {
        self.lifecycles.is_none_or(|l| l[v].is_operational())
    }

    /// Books an admitted callback's done transition: the node's done state
    /// just before and just after it.
    #[inline(always)]
    pub fn book(&mut self, was_done: bool, now_done: bool) {
        self.done_delta += isize::from(now_done) - isize::from(was_done);
    }

    /// Ends the pass: folds its done transitions into the tally.
    pub fn finish(self) {
        self.tally.fold(self.done_delta);
    }
}

/// An in-process engine's `reattach`: the snapshot, checked to cover `n`
/// nodes, re-indexed into the sparse listener sets (scheduling everyone).
pub(crate) fn reattach(
    n: usize,
    channels: &mut ChannelSet,
    frontier: &mut Option<Frontier>,
    masks: &[u64],
) {
    let len = masks.len();
    assert_eq!(len, n, "re-attachment covers {len} nodes, graph has {n}");
    channels.reattach(masks);
    if let Some(f) = frontier {
        f.reattach(channels.channels(), masks);
    }
}

/// An in-process engine's `update_nodes`: `f` over every node, which voids
/// any sparsity assumption (everyone is scheduled); returns the recount.
pub(crate) fn update_nodes<N>(
    nodes: &mut [N],
    mut f: impl FnMut(NodeId, &mut N),
    is_done: impl Fn(&N) -> bool,
    faults: Option<&FaultSession>,
    frontier: &mut Option<Frontier>,
) -> Tally {
    for (i, node) in nodes.iter_mut().enumerate() {
        f(NodeId(i), node);
    }
    if let Some(f) = frontier {
        f.wake_all();
    }
    Tally::recount(faults, nodes.iter().enumerate(), is_done)
}

/// The channel half of a substrate's round, pooled: per channel, the
/// writes of the round being folded (the slot's writer count, the lane
/// sub-slot's writer count and OR word), the outcomes of the last settled
/// round, and the channel's account.  `W` is what a `Success` winner
/// carries: a payload handle (flat), a moved payload (async), a decoded
/// message (wire).
#[derive(Clone, Debug)]
pub struct ChannelFold<W> {
    writes: Vec<(u64, u64, u64)>,
    slots: Vec<SlotOutcome<W>>,
    lanes: Vec<LaneOutcome>,
    costs: Vec<CostAccount>,
    busy: u64,
}

impl<W> ChannelFold<W> {
    /// A fold over `k` channels, every outcome idle.
    pub fn new(k: u16) -> Self {
        let k = usize::from(k);
        ChannelFold {
            writes: vec![(0, 0, 0); k],
            slots: (0..k).map(|_| SlotOutcome::Idle).collect(),
            lanes: vec![LaneOutcome::Idle; k],
            costs: vec![CostAccount::new(); k],
            busy: 0,
        }
    }

    /// Every channel's slot outcome of the last settled round; while a
    /// round is being folded, the winners so far.
    pub fn slots(&self) -> &[SlotOutcome<W>] {
        &self.slots
    }

    /// Every channel's lane sub-slot outcome of the last settled round.
    pub fn lanes(&self) -> &[LaneOutcome] {
        &self.lanes
    }

    /// Per-channel breakdown of the channel-scoped counters (rounds, slot
    /// and lane classification, corruption) every settle has charged;
    /// point-to-point counters stay global-only.
    pub fn costs(&self) -> &[CostAccount] {
        &self.costs
    }

    /// The channels that carried a write in the last settled round, as a
    /// bitmask: their listeners hear a non-idle outcome.
    pub fn busy(&self) -> u64 {
        self.busy
    }

    /// Counts `from`'s slot write of `msg` on `chan`: the first writer is
    /// the `Success` winner, a second makes a collision whoever wrote
    /// first.  Every payload a collision discards goes to `lost`.
    #[inline]
    pub fn write(&mut self, chan: ChannelId, from: NodeId, msg: W, mut lost: impl FnMut(W)) {
        let (writers, slot) = (
            &mut self.writes[chan.index()].0,
            &mut self.slots[chan.index()],
        );
        *writers += 1;
        match std::mem::replace(slot, SlotOutcome::Collision) {
            _ if *writers == 1 => *slot = SlotOutcome::Success { from, msg },
            SlotOutcome::Success { msg: first, .. } => [first, msg].into_iter().for_each(lost),
            _ => lost(msg),
        }
    }

    /// ORs a lane word into `chan`'s sub-slot (lane writers merge).
    #[inline]
    pub fn write_lanes(&mut self, chan: ChannelId, word: u64) {
        let (_, writers, lanes) = &mut self.writes[chan.index()];
        *writers += 1;
        *lanes |= word;
    }

    /// Settles round `round` on every channel and resets the writes:
    /// charges `cost` the round and both accounts every slot and lane
    /// sub-slot, idles the slots nobody wrote, erases the erased ones
    /// (their winner goes to `lost`), and resolves the lanes and the busy
    /// mask.
    pub fn settle(
        &mut self,
        faults: Option<&FaultSession>,
        round: u64,
        cost: &mut CostAccount,
        mut lost: impl FnMut(W),
    ) {
        cost.add_round();
        self.busy = 0;
        for (c, chan_cost) in self.costs.iter_mut().enumerate() {
            let (chan, (writers, lane_writers, word)) =
                (ChannelId(c as u16), std::mem::take(&mut self.writes[c]));
            let slot = &mut self.slots[c];
            match settle_slot(faults, round, chan, writers, cost, chan_cost) {
                SlotState::Idle => *slot = SlotOutcome::Idle,
                SlotState::Erased => {
                    if let SlotOutcome::Success { msg, .. } =
                        std::mem::replace(slot, SlotOutcome::Erased)
                    {
                        lost(msg);
                    }
                }
                SlotState::Success | SlotState::Collision => {}
            }
            self.lanes[c] = settle_lanes(faults, round, chan, lane_writers, word, cost, chan_cost);
            self.busy |= u64::from(writers + lane_writers > 0) << c;
        }
    }

    /// Idles every outcome once they have been heard, handing the winners
    /// to `lost` — for a substrate whose outcomes live only for their
    /// boundary.
    pub fn clear(&mut self, mut lost: impl FnMut(W)) {
        for slot in &mut self.slots {
            if let SlotOutcome::Success { msg, .. } = std::mem::replace(slot, SlotOutcome::Idle) {
                lost(msg);
            }
        }
        self.lanes.fill(LaneOutcome::Idle);
        self.busy = 0;
    }
}

/// The **resolve boundary** of one channel's message slot: classifies the
/// slot of `chan` in `round` from its writer count, applies the fault plan's
/// erasure draw, and charges both accounts — `chan_cost` one round, and
/// `cost` / `chan_cost` the slot.  An idle slot is never erased: erasure
/// models the loss of a transmission, and nothing was transmitted.
#[inline]
pub fn settle_slot(
    faults: Option<&FaultSession>,
    round: u64,
    chan: ChannelId,
    writers: u64,
    cost: &mut CostAccount,
    chan_cost: &mut CostAccount,
) -> SlotState {
    chan_cost.add_round();
    if writers > 0 && faults.is_some_and(|s| s.erases_slot(round, chan)) {
        cost.add_erased_slot(writers);
        chan_cost.add_erased_slot(writers);
        return SlotState::Erased;
    }
    cost.add_channel_slot(writers);
    chan_cost.add_channel_slot(writers);
    match writers {
        0 => SlotState::Idle,
        1 => SlotState::Success,
        _ => SlotState::Collision,
    }
}

/// The resolve boundary of one channel's **lane sub-slot**, the sibling of
/// [`settle_slot`]: `word` is the OR fold of the `writers` staged words
/// (ignored when `writers == 0`).  Idle lanes cost nothing; an erasure
/// shares the channel's slot draw — the round's transmission on that
/// channel is lost as a whole; corruption flips one seeded bit of the
/// folded word here, so every hearer observes the same word.
#[inline]
pub fn settle_lanes(
    faults: Option<&FaultSession>,
    round: u64,
    chan: ChannelId,
    writers: u64,
    mut word: u64,
    cost: &mut CostAccount,
    chan_cost: &mut CostAccount,
) -> LaneOutcome {
    if writers == 0 {
        return LaneOutcome::Idle;
    }
    if faults.is_some_and(|s| s.erases_slot(round, chan)) {
        cost.add_erased_lanes(writers);
        chan_cost.add_erased_lanes(writers);
        return LaneOutcome::Erased;
    }
    if let Some(bit) = faults.and_then(|s| s.corrupts_lane(round, chan)) {
        word ^= 1u64 << bit;
        cost.add_corrupted_payloads(1);
        chan_cost.add_corrupted_payloads(1);
    }
    cost.add_lane_slot(writers);
    chan_cost.add_lane_slot(writers);
    LaneOutcome::Word(word)
}
