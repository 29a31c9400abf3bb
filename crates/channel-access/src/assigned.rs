//! Contention resolution **executed on the engine**, over an assigned
//! channel of a [`ChannelSet`](netsim_sim::ChannelSet).
//!
//! The sibling modules ([`capetanakis`](crate::capetanakis),
//! [`backoff`](crate::backoff), [`election`](crate::election)) simulate the
//! channel abstractly: one function call resolves the whole conflict and
//! reports a [`CostAccount`](netsim_sim::CostAccount).  This module provides
//! the same schemes as per-node [`Protocol`] state machines, driven round by
//! round by any of the engines, with the contention confined to an
//! **assigned** [`ChannelId`] — the building block for multi-channel
//! deployments where each traffic class (or partition fragment) resolves its
//! conflicts on its own carrier while the rest of the `ChannelSet` carries
//! unrelated traffic.
//!
//! Every state machine is *uniform*: contenders and mere listeners run the
//! same code, tracking the public feedback of the assigned channel.  The
//! single-conflict schemes ([`AssignedSplit`], [`AssignedElection`],
//! [`AssignedBackoff`]) leave the schedule or the leader on every attached
//! node — the property the paper's algorithms rely on when they schedule
//! partition cores on the channel.  The election *series*
//! ([`LaneElectionSeries`]) runs many elections per channel, and there
//! every member of an election learns its outcome; no node mirrors its
//! neighbours' elections — a fragment only ever acts on its own.
//!
//! The engine-executed runs are validated against the abstract resolvers:
//! same schedule order, same per-outcome slot counts (on the assigned
//! channel), one probe per round.

use netsim_sim::{ChannelId, LaneOutcome, Protocol, RoundIo, SlotOutcome};

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Capetanakis tree splitting over an assigned channel
// ---------------------------------------------------------------------------

/// Engine-executed Capetanakis tree splitting (cf.
/// [`capetanakis::resolve`](crate::capetanakis::resolve)) on an assigned
/// channel: one interval probe per round, every attached node mirrors the
/// shared interval stack from the public feedback alone.
///
/// Contender nodes pass `Some(station id)`; listeners pass `None`.  After
/// the run, [`AssignedSplit::order`] on **any** node holds the schedule, in
/// the same order as the abstract resolver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssignedSplit {
    chan: ChannelId,
    station: Option<u64>,
    /// Interval stack still to probe, mirrored identically on every node.
    stack: Vec<(u64, u64)>,
    /// Interval probed in the previous round, whose feedback arrives this
    /// round.
    probing: Option<(u64, u64)>,
    order: Vec<u64>,
    done: bool,
}

impl AssignedSplit {
    /// Per-node state: `station` is this node's contender id (`None` for a
    /// pure listener), `id_space` the known id space, `chan` the assigned
    /// channel.
    pub fn new(station: Option<u64>, id_space: u64, chan: ChannelId) -> Self {
        assert!(id_space > 0, "id space must be non-empty");
        if let Some(id) = station {
            assert!(id < id_space, "station id {id} outside id space {id_space}");
        }
        AssignedSplit {
            chan,
            station,
            stack: vec![(0, id_space)],
            probing: None,
            order: Vec::new(),
            done: false,
        }
    }

    /// Station ids in the order their transmissions succeeded.
    pub fn order(&self) -> &[u64] {
        &self.order
    }
}

impl Protocol for AssignedSplit {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        // Feedback of the previous probe drives the shared stack.
        if let Some((lo, hi)) = self.probing.take() {
            match io.prev_slot_on(self.chan) {
                SlotOutcome::Idle => {}
                SlotOutcome::Success { msg, .. } => self.order.push(*msg),
                SlotOutcome::Collision => {
                    let mid = lo + (hi - lo) / 2;
                    // Probe the lower half first (push upper first).
                    self.stack.push((mid, hi));
                    self.stack.push((lo, mid));
                }
                // The probe's outcome was destroyed but its writer set is
                // unchanged: re-probe the same interval next round.
                SlotOutcome::Erased => self.stack.push((lo, hi)),
            }
        }
        // Next probe.
        match self.stack.pop() {
            Some((lo, hi)) => {
                self.probing = Some((lo, hi));
                if let Some(id) = self.station {
                    if lo <= id && id < hi {
                        io.write_channel_on(self.chan, id);
                    }
                }
            }
            None => self.done = true,
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

// ---------------------------------------------------------------------------
// Bitwise election over an assigned channel
// ---------------------------------------------------------------------------

/// Engine-executed deterministic bitwise election (cf.
/// [`election::bitwise_election`](crate::election::bitwise_election)) on an
/// assigned channel: `bits` probe rounds from the most significant bit down
/// (a busy slot knocks out the stations whose bit is 0), then the unique
/// survivor announces its id in one final success slot — so every attached
/// listener, contender or not, learns the leader.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssignedElection {
    chan: ChannelId,
    station: Option<u64>,
    bits: u32,
    /// Still in the running (always `false` for listeners).
    active: bool,
    leader: Option<u64>,
    done: bool,
}

impl AssignedElection {
    /// Per-node state: `station` is this node's id (`None` for listeners),
    /// ids fit in `bits` bits, the election runs on `chan`.
    pub fn new(station: Option<u64>, bits: u32, chan: ChannelId) -> Self {
        assert!(bits > 0 && bits <= 63, "bits must be in 1..=63");
        if let Some(id) = station {
            assert!(id < (1u64 << bits), "id {id} does not fit in {bits} bits");
        }
        AssignedElection {
            chan,
            station,
            bits,
            active: station.is_some(),
            leader: None,
            done: false,
        }
    }

    /// The elected leader, once announced.
    pub fn leader(&self) -> Option<u64> {
        self.leader
    }
}

impl Protocol for AssignedElection {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        let round = io.round();
        let bits = u64::from(self.bits);
        // Feedback of probe round r - 1 (probing bit `bits - r`).
        if round >= 1 && round <= bits {
            let probed_bit = self.bits - round as u32;
            let busy = !io.prev_slot_on(self.chan).is_idle();
            if busy && self.active {
                if let Some(id) = self.station {
                    if (id >> probed_bit) & 1 == 0 {
                        self.active = false;
                    }
                }
            }
        }
        if round < bits {
            // Probe round: active stations with the current bit set transmit.
            if let Some(id) = self.station {
                if self.active && (id >> (self.bits - 1 - round as u32)) & 1 == 1 {
                    io.write_channel_on(self.chan, id);
                }
            }
        } else if round == bits {
            // Announce slot: the unique survivor transmits its id.
            if self.active {
                if let Some(id) = self.station {
                    io.write_channel_on(self.chan, id);
                }
            }
        } else if let SlotOutcome::Success { msg, .. } = io.prev_slot_on(self.chan) {
            self.leader = Some(*msg);
            self.done = true;
        } else {
            // No contender ever announced (empty election): give up.
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

// ---------------------------------------------------------------------------
// Bit-parallel lanes of bitwise elections over an assigned channel
// ---------------------------------------------------------------------------

/// A node's place in a [`LaneElectionSeries`]: the one election slot of its
/// channel it belongs to (its fragment's, its group's), and the station id
/// it contends with there — `None` for a member that only listens for the
/// outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seat {
    /// Election slot on the channel, `0..elections`.
    pub slot: u32,
    /// This node's station id in that election (`None` for a listener).
    pub station: Option<u64>,
}

/// A series of bitwise elections on one assigned channel, up to 64 of them
/// **concurrently** per batch, packed one per lane of the channel's
/// bit-parallel lane sub-slot ([`RoundIo::write_lanes_on`]) — the primitive
/// that collapses a phase of `F` fragment elections from `F·(bits+2)`
/// rounds to `⌈F/w⌉·(bits+2)`.  At width 1 every election rides lane 0 of
/// its own batch: the scalar one-election-at-a-time schedule.
///
/// Election slot `e` occupies lane `e % width` of batch `e / width`; a batch
/// runs all of its lanes *simultaneously* in `L = bits + 2` local rounds:
///
/// * **round 0 — presence**: the contenders of lane `ℓ` write `1 << ℓ`.
///   The resolved presence word tells the lane's members whether their
///   election is non-empty (and disambiguates "no contender" from "winner
///   with id 0");
/// * **rounds 1..=bits — probes**: round `t` probes bit `bits − t`, most
///   significant first.  An active contender whose id has the probed bit
///   set writes its lane bit; each round also observes the previous probe's
///   resolved word and a contender goes inactive iff its *own lane's* bit
///   was busy while its id bit was 0 — the per-lane knockout of the scalar
///   election, 64 lanes at once;
/// * **round bits + 1 — observation**: the last probe's word arrives.  No
///   announce slot is needed: in a max-id knockout, bit `b` of lane `ℓ`'s
///   winner *equals* the busy bit `ℓ` of the probe-`b` word, so a member
///   accumulates its election's winner one bit per round.
///
/// # Own-seat state
///
/// A node is **seated** in at most one slot ([`Seat`]) and remembers only
/// that election: its presence bit and one `u64` of winner bits, read back
/// through [`winner`](Self::winner).  Every member of an election learns
/// its outcome; no node mirrors its neighbours' elections, which is all the
/// paper's drivers need — a fragment's stations care for the fragment's own
/// minimum link, a group's cores for their own representative.  The state is
/// `O(1)`, inline and heap-free, the batch position is two counters (no
/// division per step), and outside its own batch a node only counts rounds.
/// A seatless node (`None`) just sits out the channel's horizon.
///
/// # Determinism contract
///
/// A lane election is deterministic end to end, on every substrate:
///
/// * lane resolution is a commutative OR-fold
///   ([`resolve_lanes`](netsim_sim::resolve_lanes)), so the resolved word —
///   and hence every knockout, every accumulated winner — is independent
///   of node iteration order, engine internals (flat arena, reference
///   clone, lockstep tick, wire datagram arrival order), and parallel
///   stepping;
/// * the schedule is a pure function of the **local** round counters seeded
///   at (re)arm, with [`RoundIo::wake_me`] arming idle probe rounds, so
///   sparse/dense runs and re-armed multi-phase pipelines (`update_nodes` +
///   `reattach`) are bit-identical;
/// * fault draws ([`FaultPlan`](netsim_sim::FaultPlan) erasure and
///   corruption coins) are pure functions of `(seed, round, channel)`,
///   replicated on every host.
///
/// Consequently every seated node's [`winner`](Self::winner) is
/// bit-identical across
/// `SyncEngine`/`ReferenceEngine`/`Lockstep`/`WireNet` for the same seeds,
/// and all members of one slot agree; the proptest suite pins each slot
/// against the arithmetic maximum of its contenders and width `w` against
/// width 1.
///
/// # Station ids must be distinct per lane
///
/// Two contenders of one lane sharing the maximal id would survive every
/// probe together; the members then hear *that shared id*.  Drivers must
/// guarantee per-lane distinctness — the sharded MST does so structurally
/// (a fragment's stations are distinct packed edge keys).
///
/// # Fault semantics
///
/// The series keeps its fixed horizon — faults degrade *results*, never
/// *termination*:
///
/// * an **`Erased` lane word poisons its whole batch**: the knockout and
///   the winner bits of *every* lane of the batch depend on each resolved
///   word, so all contenders of the batch deactivate and every member of
///   every one of its slots reports `None` — observed identically by all of
///   them (erasure is a channel-level event), and handled like an empty
///   election by drivers (retry in the next phase);
/// * a **corrupted** lane word ([`FaultPlan::with_corruption`](netsim_sim::FaultPlan::with_corruption))
///   flips one seeded bit for *all* hearers alike, so a slot's members
///   still agree — on a possibly wrong winner; drivers re-validate winners
///   against ground truth exactly as for crashed contenders;
/// * a **crashed contender** stops transmitting, so a lane may elect a
///   different (still unique) survivor, or nobody; a recovered node's own
///   series retires inert ([`crashed_out`](Self::crashed_out)).
///
/// For any erasure-only schedule each reported winner is either `None` or
/// the exact fault-free leader of its slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneElectionSeries {
    /// Winner bits heard on the seat's lane: bit `b` is the busy bit of the
    /// probe-`b` word.
    heard: u64,
    /// This node's station id in its seat's election (`None` for listeners
    /// and seatless nodes).
    station: Option<u64>,
    /// The seat's lane bit, `1 << (slot % width)`; 0 when seatless.
    lane: u64,
    /// The batch hosting the seat, `slot / width`; `u32::MAX` (never
    /// reached by `batch`) when seatless.
    seat_batch: u32,
    /// Batches the channel runs, `⌈elections / width⌉`.
    batches: u32,
    /// Current batch and local round within it.
    batch: u32,
    t: u32,
    bits: u32,
    /// Lanes per batch, `1..=64`.
    width: u32,
    chan: ChannelId,
    /// Still in the running in the seat's election.
    active: bool,
    /// The seat's lane was claimed in the presence round and no word of its
    /// batch has been erased since.
    present: bool,
    /// Set on recovery from a crash: the local round counters are stale (the
    /// node missed steps), so the series goes inert instead of desyncing
    /// the shared batch schedule.
    crashed_out: bool,
    done: bool,
}

impl LaneElectionSeries {
    /// Per-node state: `elections` slots run on channel `chan` packed
    /// `width` lanes per batch, this node sits in `seat` (`None` for a node
    /// that only waits out the channel's horizon), ids fit in `bits` bits.
    /// Station ids must be distinct per lane (see the type docs) — a
    /// cross-node invariant the constructor cannot check locally.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 63`, `1 <= width <= 64`, the seat's slot
    /// is within the series, and its station id fits in `bits` bits.
    pub fn new(seat: Option<Seat>, bits: u32, elections: u32, width: u32, chan: ChannelId) -> Self {
        assert!(bits > 0 && bits <= 63, "bits must be in 1..=63");
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        let mut series = LaneElectionSeries {
            heard: 0,
            station: None,
            lane: 0,
            seat_batch: u32::MAX,
            batches: 0,
            batch: 0,
            t: 0,
            bits,
            width,
            chan,
            active: false,
            present: false,
            crashed_out: false,
            done: true,
        };
        series.rearm(seat, elections, chan);
        series
    }

    /// Re-arms the series **in place** for another run of `elections` slots
    /// on channel `chan` (same `bits` and `width`): afterwards the state
    /// equals a fresh [`LaneElectionSeries::new`] — local round counters,
    /// [`winner`](Self::winner), [`crashed_out`](Self::crashed_out) and
    /// all.  This is the only place the seat's batch and lane are derived,
    /// so no step divides.
    ///
    /// # Panics
    ///
    /// Panics unless the seat's slot is within the series and its station
    /// id fits in `bits` bits.
    pub fn rearm(&mut self, seat: Option<Seat>, elections: u32, chan: ChannelId) {
        (self.seat_batch, self.lane, self.station) = match seat {
            Some(Seat { slot, station }) => {
                assert!(
                    slot < elections,
                    "slot {slot} outside {elections} elections"
                );
                if let Some(id) = station {
                    assert!(
                        id < (1u64 << self.bits),
                        "id {id} does not fit in {} bits",
                        self.bits
                    );
                }
                (slot / self.width, 1u64 << (slot % self.width), station)
            }
            None => (u32::MAX, 0, None),
        };
        self.chan = chan;
        self.batches = elections.div_ceil(self.width);
        self.batch = 0;
        self.t = 0;
        self.heard = 0;
        self.active = false;
        self.present = false;
        self.crashed_out = false;
        self.done = elections == 0;
    }

    /// `true` once the node has crashed and recovered mid-series: its local
    /// round counters are stale, so [`Protocol::on_recover`] retired it to
    /// an inert (done, never-writing, winner-less) state — drivers must
    /// read the slot's outcome through another member.
    pub fn crashed_out(&self) -> bool {
        self.crashed_out
    }

    /// Rounds one batch occupies: the presence round, `bits` probes, and
    /// the observation round — whatever the width, so lane packing divides
    /// phase rounds by the batch width without changing the per-batch shape.
    pub fn slot_rounds(bits: u32) -> u64 {
        u64::from(bits) + 2
    }

    /// `true` iff this node contended and its own station won its slot.
    pub fn won(&self) -> bool {
        self.station.is_some() && self.winner() == self.station
    }

    /// The winner of this node's own election slot, once its batch has run:
    /// `None` before that, for a seatless node, for an election without
    /// contenders, and for one whose batch was erasure-poisoned.  Identical
    /// on every member of the slot.
    pub fn winner(&self) -> Option<u64> {
        (self.present && self.batch > self.seat_batch).then_some(self.heard)
    }

    /// One round of the seat's own batch: `t` is the local round within it.
    fn own_batch_round(&mut self, io: &mut RoundIo<'_, u64>, t: u32) {
        let bits = self.bits;
        if t == 0 {
            // Presence round: a contender claims its lane.
            if self.station.is_some() {
                self.active = true;
                io.write_lanes_on(self.chan, self.lane);
            }
            return;
        }
        // Observe the word resolved from round t - 1's writes.
        match io.prev_lanes_on(self.chan) {
            LaneOutcome::Erased => {
                // Every lane of the batch depended on this word: poison
                // the seat, stop transmitting, report no winner.
                self.present = false;
                self.active = false;
            }
            outcome => {
                let busy = outcome.word().unwrap_or(0) & self.lane != 0;
                if t == 1 {
                    self.present = busy;
                } else {
                    // Word of the probe of bit `bits - (t - 1)`: it *is*
                    // that bit of the winner, and knocks out a contender
                    // that stayed silent in it.
                    let probed = bits + 1 - t;
                    self.heard |= u64::from(busy) << probed;
                    if busy && self.station.is_some_and(|id| (id >> probed) & 1 == 0) {
                        self.active = false;
                    }
                }
            }
        }
        // Probe round t transmits bit `bits - t`, MSB first.
        let sends = |id: u64| (id >> (bits - t)) & 1 == 1;
        if t <= bits && self.active && self.station.is_some_and(sends) {
            io.write_lanes_on(self.chan, self.lane);
        }
    }
}

impl Protocol for LaneElectionSeries {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        if self.done {
            return; // the engine's busiest channel is still electing
        }
        let t = self.t;
        if self.batch == self.seat_batch {
            self.own_batch_round(io, t);
        }
        if t == self.bits + 1 {
            // Observation round: the batch is settled.
            self.t = 0;
            self.batch += 1;
            self.done = self.batch == self.batches;
        } else {
            self.t = t + 1;
        }
        // Phase arming: the probe schedule runs off the local round
        // counters, and idle probe rounds never wake a node under sparse
        // stepping — an unfinished series schedules its own next round.
        if !self.done {
            io.wake_me();
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn on_recover(&mut self) {
        // The node missed steps while crashed, so its local round counters
        // no longer track the shared batch schedule: writing again would
        // corrupt other lanes' elections, and what it heard is partial.
        // Retire to an inert, done, winner-less state.
        self.crashed_out = true;
        self.present = false;
        self.done = true;
    }
}

// ---------------------------------------------------------------------------
// Randomized backoff over an assigned channel
// ---------------------------------------------------------------------------

/// Engine-executed Metcalfe–Boggs scheduling (cf.
/// [`backoff::resolve_known_count`](crate::backoff::resolve_known_count)) on
/// an assigned channel: with `remaining` unscheduled contenders known from
/// the public success count, each remaining station transmits per slot with
/// probability `1/remaining` — drawn from a deterministic per-`(seed, id,
/// round)` coin so runs are reproducible and engine-independent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssignedBackoff {
    chan: ChannelId,
    station: Option<u64>,
    seed: u64,
    scheduled: bool,
    remaining: u64,
    order: Vec<u64>,
    done: bool,
}

impl AssignedBackoff {
    /// Per-node state: `station` is this node's contender id (`None` for
    /// listeners), `count` the known number of contenders, `seed` the shared
    /// randomness seed, `chan` the assigned channel.
    pub fn new(station: Option<u64>, count: u64, seed: u64, chan: ChannelId) -> Self {
        AssignedBackoff {
            chan,
            station,
            seed,
            scheduled: false,
            remaining: count,
            order: Vec::new(),
            done: false,
        }
    }

    /// Contender ids in the order their transmissions succeeded.
    pub fn order(&self) -> &[u64] {
        &self.order
    }
}

impl Protocol for AssignedBackoff {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        if let SlotOutcome::Success { msg, .. } = io.prev_slot_on(self.chan) {
            self.order.push(*msg);
            self.remaining = self.remaining.saturating_sub(1);
            if self.station == Some(*msg) {
                self.scheduled = true;
            }
        }
        if self.remaining == 0 {
            self.done = true;
            return;
        }
        if let Some(id) = self.station {
            if !self.scheduled && mix(self.seed, mix(id, io.round())).is_multiple_of(self.remaining)
            {
                io.write_channel_on(self.chan, id);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::{is_valid_schedule, Contender, ScheduleResult};
    use crate::{capetanakis, election};
    use netsim_graph::generators;
    use netsim_sim::{ChannelSet, CostAccount, EngineBuilder, EngineControl};

    const CHAN: ChannelId = ChannelId(1);

    fn contender_ids(n: usize) -> Vec<Option<u64>> {
        // Every third node contends; ids sparse in a 2^10 space.
        (0..n)
            .map(|v| (v % 3 == 0).then(|| (v as u64) * 29 + 3))
            .collect()
    }

    #[test]
    fn assigned_split_matches_abstract_capetanakis() {
        let g = generators::ring(24);
        let n = g.node_count();
        let stations = contender_ids(n);
        let id_space = 1u64 << 10;
        let mut eng = EngineBuilder::new(&g)
            .channels(ChannelSet::uniform(2))
            .build_flat(|v| AssignedSplit::new(stations[v.index()], id_space, CHAN));
        let out = eng.run(10_000);
        assert!(out.is_completed());

        let contenders: Vec<Contender> = stations
            .iter()
            .flatten()
            .map(|&id| Contender::new(id))
            .collect();
        let abstract_run = capetanakis::resolve(&contenders, id_space);
        // Every node — contender or listener — learned the same schedule,
        // in the abstract resolver's order.
        for v in g.nodes() {
            assert_eq!(eng.node(v).order(), &abstract_run.order[..]);
        }
        // One probe per round on the assigned channel: the busy-slot counts
        // match the abstract run exactly (idle differs only by the final
        // quiescence round and the unprobed default channel).
        assert_eq!(eng.cost().slots_success, abstract_run.cost.slots_success);
        assert_eq!(
            eng.cost().slots_collision,
            abstract_run.cost.slots_collision
        );
        assert_eq!(eng.cost().rounds, abstract_run.cost.rounds + 1);
        assert_eq!(eng.cost().channel_writes, abstract_run.cost.channel_writes);
    }

    #[test]
    fn assigned_split_conforms_on_reference_engine() {
        let g = generators::ring(18);
        let n = g.node_count();
        let stations = contender_ids(n);
        let id_space = 1u64 << 9;
        let init =
            |v: netsim_graph::NodeId| AssignedSplit::new(stations[v.index()], id_space, CHAN);
        let mut flat = EngineBuilder::new(&g)
            .channels(ChannelSet::uniform(2))
            .build_flat(init);
        let mut reference = EngineBuilder::new(&g)
            .channels(ChannelSet::uniform(2))
            .build_reference(init);
        assert!(flat.run(10_000).is_completed());
        assert!(reference.run(10_000).is_completed());
        assert_eq!(flat.cost(), reference.cost());
        for v in g.nodes() {
            assert_eq!(flat.node(v), reference.node(v));
        }
    }

    #[test]
    fn assigned_election_elects_max_id() {
        let g = generators::ring(20);
        let n = g.node_count();
        let stations = contender_ids(n);
        let bits = 10;
        let mut eng = EngineBuilder::new(&g)
            .channels(ChannelSet::uniform(2))
            .build_flat(|v| AssignedElection::new(stations[v.index()], bits, CHAN));
        let out = eng.run(10_000);
        assert!(out.is_completed());
        let ids: Vec<u64> = stations.iter().flatten().copied().collect();
        let abstract_run = election::bitwise_election(&ids, bits);
        assert_eq!(abstract_run.leader, ids.iter().copied().max().unwrap());
        for v in g.nodes() {
            assert_eq!(eng.node(v).leader(), Some(abstract_run.leader));
        }
        // `bits` probe slots plus the announce slot, all on the assigned
        // channel, plus the final observation round.
        assert_eq!(eng.cost().rounds, u64::from(bits) + 2);
    }

    fn seat(slot: u32, station: Option<u64>) -> Seat {
        Seat { slot, station }
    }

    /// Width 1: one election at a time on lane 0 — the scalar schedule.
    fn scalar(seat: Seat, bits: u32, elections: u32, chan: ChannelId) -> LaneElectionSeries {
        LaneElectionSeries::new(Some(seat), bits, elections, 1, chan)
    }

    /// Three election slots: nodes with `v mod 4 < 2` contend in slot
    /// `v mod 4`, the rest listen — group 2 in the contender-less slot 2,
    /// group 3 spread over all three slots.
    fn three_slot_seat(v: usize) -> Seat {
        let group = v % 4;
        let slot = if group < 3 { group } else { v / 4 % 3 };
        seat(slot as u32, (group < 2).then(|| (v as u64) * 23 + 1))
    }

    /// Abstract leader of `slot` under `seat_of`, `None` for an empty slot.
    fn slot_leader(n: usize, seat_of: impl Fn(usize) -> Seat, slot: u32, bits: u32) -> Option<u64> {
        let ids: Vec<u64> = (0..n)
            .map(seat_of)
            .filter(|s| s.slot == slot)
            .filter_map(|s| s.station)
            .collect();
        (!ids.is_empty()).then(|| election::bitwise_election(&ids, bits).leader)
    }

    #[test]
    fn election_series_matches_abstract_election_per_slot() {
        // Three election slots on channel 1 of a 2-channel set; every
        // member of a slot, contender or listener, hears exactly the
        // abstract election's leader, and the empty slot reports `None`.
        let g = generators::ring(21);
        let n = g.node_count();
        let bits = 9;
        let mut eng = EngineBuilder::new(&g)
            .channels(ChannelSet::uniform(2))
            .build_flat(|v| scalar(three_slot_seat(v.index()), bits, 3, CHAN));
        let out = eng.run(10_000);
        assert!(out.is_completed());
        // The busiest channel runs 3 slots of bits + 2 rounds each; the last
        // slot's observation round is the final step.
        assert_eq!(out.rounds(), 3 * LaneElectionSeries::slot_rounds(bits));
        assert_eq!(slot_leader(n, three_slot_seat, 2, bits), None);
        for v in g.nodes() {
            let slot = three_slot_seat(v.index()).slot;
            assert_eq!(
                eng.node(v).winner(),
                slot_leader(n, three_slot_seat, slot, bits),
                "slot {slot} winner wrong on {v:?}"
            );
        }
    }

    #[test]
    fn election_series_conforms_on_reference_engine() {
        let g = generators::ring(16);
        let bits = 7;
        let init = |v: netsim_graph::NodeId| {
            let v = v.index();
            let station = (v % 3 != 2).then(|| (v as u64) * 7 + 2);
            scalar(seat((v % 2) as u32, station), bits, 2, CHAN)
        };
        let mut flat = EngineBuilder::new(&g)
            .channels(ChannelSet::uniform(2))
            .build_flat(init);
        let mut reference = EngineBuilder::new(&g)
            .channels(ChannelSet::uniform(2))
            .build_reference(init);
        assert!(flat.run(10_000).is_completed());
        assert!(reference.run(10_000).is_completed());
        assert_eq!(flat.cost(), reference.cost());
        for v in g.nodes() {
            assert_eq!(flat.node(v), reference.node(v));
            assert!(flat.node(v).winner().is_some());
        }
    }

    #[test]
    fn election_series_tolerates_stragglers_and_reseeding() {
        // Two channels with unequal series lengths: channel 1 runs one slot,
        // channel 0 runs three — the early-finished nodes keep being stepped
        // (no-ops) until the busiest channel quiesces.  Then the series is
        // re-armed via `update_nodes` (the multi-phase pipeline hook) and
        // runs again on the same engine.
        let g = generators::ring(12);
        let assign = |v: usize| -> (ChannelId, u32) {
            if v.is_multiple_of(2) {
                (ChannelId(0), 3)
            } else {
                (ChannelId(1), 1)
            }
        };
        let bits = 5;
        let mut eng = EngineBuilder::new(&g)
            .channels(ChannelSet::sharded(2, 12, |v| assign(v.index()).0))
            .build_flat(|v| {
                let (chan, elections) = assign(v.index());
                let slot = (v.index() as u32 / 2) % elections;
                scalar(
                    seat(slot, Some(v.index() as u64 + 1)),
                    bits,
                    elections,
                    chan,
                )
            });
        let out = eng.run(10_000);
        assert!(out.is_completed());
        assert_eq!(out.rounds(), 3 * LaneElectionSeries::slot_rounds(bits));
        // Odd nodes all contend in their only slot: the max id (11 + 1) wins.
        assert_eq!(eng.node(netsim_graph::NodeId(1)).winner(), Some(12));
        // Even nodes 4 and 10 share slot 2 of channel 0.
        assert_eq!(eng.node(netsim_graph::NodeId(4)).winner(), Some(11));

        // Re-arm: everyone now runs a single election on channel 0.
        eng.reattach(&[0b01u64; 12]);
        eng.update_nodes(&mut |v, series| {
            series.rearm(Some(seat(0, Some(v.index() as u64 + 1))), 1, ChannelId(0));
        });
        let rounds_before = eng.round();
        let out = eng.run(100_000);
        assert!(out.is_completed());
        assert_eq!(
            out.rounds() - rounds_before,
            LaneElectionSeries::slot_rounds(bits)
        );
        for v in g.nodes() {
            assert_eq!(eng.node(v).winner(), Some(12));
        }
    }

    #[test]
    fn lane_series_rearm_equals_a_fresh_series() {
        // 150 slots at width 64 (three batches) on channel 1, then an
        // in-place re-arm to 70 slots on channel 0 with new seats (every
        // third node a listener, a few seatless): the re-armed state is
        // indistinguishable from a fresh series, before and after the
        // second run.
        let g = generators::ring(300);
        let bits = 10;
        let first = |v: usize| (Some(seat((v % 150) as u32, Some(v as u64 + 1))), 150, CHAN);
        let second = |v: usize| {
            let station = (!v.is_multiple_of(3)).then(|| 1000 - v as u64);
            let seat = seat((v % 70) as u32, station);
            ((v < 290).then_some(seat), 70, ChannelId(0))
        };
        let fresh =
            |(seat, elections, chan)| LaneElectionSeries::new(seat, bits, elections, 64, chan);
        let mut eng = EngineBuilder::new(&g)
            .channels(ChannelSet::uniform(2))
            .build_flat(|v| fresh(first(v.index())));
        assert!(eng.run(10_000).is_completed());
        assert_eq!(eng.round(), 3 * LaneElectionSeries::slot_rounds(bits));

        eng.update_nodes(&mut |v, series| {
            let (seat, elections, chan) = second(v.index());
            series.rearm(seat, elections, chan);
            assert_eq!(*series, fresh(second(v.index())));
        });
        let mut scratch = EngineBuilder::new(&g)
            .channels(ChannelSet::uniform(2))
            .build_flat(|v| fresh(second(v.index())));
        assert!(eng.run(10_000).is_completed());
        assert!(scratch.run(10_000).is_completed());
        assert_eq!(scratch.round(), 2 * LaneElectionSeries::slot_rounds(bits));
        for v in g.nodes() {
            assert_eq!(eng.node(v), scratch.node(v));
            assert_eq!(eng.node(v).winner().is_some(), v.index() < 290);
        }
    }

    #[test]
    fn election_series_erased_announce_reports_none() {
        // With every busy lane word erased, the presence word is destroyed
        // in flight and the batch is poisoned: the series runs its exact
        // fault-free horizon and every member reports an empty election.
        let g = generators::ring(10);
        let bits = 6;
        let mut eng = EngineBuilder::new(&g)
            .channels(ChannelSet::uniform(2))
            .fault_plan(netsim_sim::FaultPlan::from_rates(11, 1.0, 0.0, 0.0, 0.0))
            .build_flat(|v| scalar(seat(0, Some(v.index() as u64 + 1)), bits, 1, CHAN));
        let out = eng.run(10_000);
        assert!(out.is_completed());
        assert_eq!(out.rounds(), LaneElectionSeries::slot_rounds(bits));
        assert!(eng.cost().lanes_erased > 0);
        for v in g.nodes() {
            assert_eq!(eng.node(v).winner(), None);
        }
    }

    #[test]
    fn election_series_under_erasures_is_none_or_true_leader() {
        // Partial erasures: every slot's reported winner is either None (a
        // word of its batch was erased) or the exact fault-free leader, and
        // all members of the slot agree.
        let g = generators::ring(21);
        let n = g.node_count();
        let bits = 9;
        for seed in [3u64, 17, 92] {
            let mut eng = EngineBuilder::new(&g)
                .channels(ChannelSet::uniform(2))
                .fault_plan(netsim_sim::FaultPlan::from_rates(seed, 0.35, 0.0, 0.0, 0.0))
                .build_flat(|v| scalar(three_slot_seat(v.index()), bits, 3, CHAN));
            let out = eng.run(10_000);
            assert!(out.is_completed(), "seed {seed}");
            assert_eq!(out.rounds(), 3 * LaneElectionSeries::slot_rounds(bits));
            let mut reported: [Option<Option<u64>>; 3] = [None; 3];
            for v in g.nodes() {
                let slot = three_slot_seat(v.index()).slot;
                let won = eng.node(v).winner();
                assert!(
                    won.is_none() || won == slot_leader(n, three_slot_seat, slot, bits),
                    "seed {seed} slot {slot}: {won:?} is not the leader"
                );
                assert_eq!(
                    *reported[slot as usize].get_or_insert(won),
                    won,
                    "seed {seed} slot {slot}: members disagree on {v:?}"
                );
            }
        }
    }

    #[test]
    fn assigned_backoff_schedules_everyone() {
        let g = generators::ring(15);
        let n = g.node_count();
        let stations = contender_ids(n);
        let count = stations.iter().flatten().count() as u64;
        let mut eng = EngineBuilder::new(&g)
            .channels(ChannelSet::uniform(2))
            .build_flat(|v| AssignedBackoff::new(stations[v.index()], count, 7, CHAN));
        let out = eng.run(100_000);
        assert!(out.is_completed());
        let contenders: Vec<Contender> = stations
            .iter()
            .flatten()
            .map(|&id| Contender::new(id))
            .collect();
        for v in g.nodes() {
            let result = ScheduleResult {
                order: eng.node(v).order().to_vec(),
                cost: CostAccount::new(),
            };
            assert!(is_valid_schedule(&contenders, &result));
        }
        assert_eq!(eng.cost().slots_success, count);
    }
}
