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
//! same code, tracking the public ternary feedback of the assigned channel,
//! so at the end **every attached node** knows the outcome (the schedule or
//! the leader) — exactly the property the paper's algorithms rely on when
//! they schedule partition cores on the channel.
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

/// Up to 64 **concurrent** bitwise elections per batch, packed one per lane
/// of the channel's bit-parallel lane sub-slot
/// ([`RoundIo::write_lanes_on`]) — the `w`-wide generalization of
/// [`ElectionSeries`], and the primitive that collapses a phase of `F`
/// fragment elections from `F·(bits+2)` rounds to `⌈F/w⌉·(bits+2)`.
///
/// Election slot `e` occupies lane `e % width` of batch `e / width`; a batch
/// runs all of its lanes *simultaneously* in `L = bits + 2` local rounds:
///
/// * **round 0 — presence**: the contender of lane `ℓ` writes `1 << ℓ`.
///   The resolved presence word tells every listener which lanes host a
///   non-empty election (and disambiguates "no contender" from "winner with
///   id 0");
/// * **rounds 1..=bits — probes**: round `t` probes bit `bits − t`, most
///   significant first.  An active contender whose id has the probed bit
///   set writes its lane bit; each round also observes the previous probe's
///   resolved word and a contender goes inactive iff its *own lane's* bit
///   was busy while its id bit was 0 — the per-lane knockout of the scalar
///   election, 64 lanes at once;
/// * **round bits + 1 — observation**: the last probe's word arrives.  No
///   announce slot is needed: in a max-id knockout, bit `b` of lane `ℓ`'s
///   winner *equals* the busy bit `ℓ` of the probe-`b` word, so every
///   attached node reconstructs every lane's winner from the stored probe
///   words plus the presence word.
///
/// # Determinism contract
///
/// A lane election is deterministic end to end, on every substrate:
///
/// * lane resolution is a commutative OR-fold
///   ([`resolve_lanes`](netsim_sim::resolve_lanes)), so the resolved word —
///   and hence every knockout, every reconstructed winner — is independent
///   of node iteration order, engine internals (flat arena, reference
///   clone, lockstep tick, wire datagram arrival order), and parallel
///   stepping;
/// * the schedule is a pure function of the **local** round counter seeded
///   at construction, with [`RoundIo::wake_me`] arming idle probe rounds,
///   so sparse/dense runs and re-armed multi-phase pipelines
///   (`update_nodes` + `reattach`) are bit-identical;
/// * fault draws ([`FaultPlan`](netsim_sim::FaultPlan) erasure and
///   corruption coins) are pure functions of `(seed, round, channel)`,
///   replicated on every host.
///
/// Consequently the full result vector — [`winners`](Self::winners) on
/// every attached node — is bit-identical across
/// `SyncEngine`/`ReferenceEngine`/`Lockstep`/`WireNet` for the same seeds,
/// which the `engine_conformance` and proptest suites pin lane-by-lane
/// against 64 independent scalar [`ElectionSeries`] runs.
///
/// # Station ids must be distinct per lane
///
/// Two contenders of one lane sharing the maximal id would survive every
/// probe together; the reconstruction then reports *that shared id* (the
/// scalar series' announce collision instead reported `None`).  Drivers
/// must guarantee per-lane distinctness — the sharded MST does so
/// structurally (a fragment's stations are distinct packed edge keys).
///
/// # Fault semantics
///
/// The series keeps its fixed horizon — faults degrade *results*, never
/// *termination*:
///
/// * an **`Erased` lane word poisons its whole batch**: the knockout and
///   reconstruction of *every* lane of the batch depend on each resolved
///   word, so all contenders of the batch deactivate and all of its entries
///   in [`winners`](Self::winners) stay `None` — observed identically by
///   every listener (erasure is a channel-level event), and handled like an
///   empty election by drivers (retry in the next phase);
/// * a **corrupted** lane word ([`FaultPlan::with_corruption`](netsim_sim::FaultPlan::with_corruption))
///   flips one seeded bit for *all* hearers alike, so listeners still
///   agree — on a possibly wrong winner; drivers re-validate winners
///   against ground truth exactly as for crashed contenders;
/// * a **crashed contender** stops transmitting, so a lane may elect a
///   different (still unique) survivor, or nobody; a recovered node's own
///   series retires inert ([`crashed_out`](Self::crashed_out)).
///
/// For any erasure-only schedule each reported winner is either `None` or
/// the exact fault-free leader of its lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneElectionSeries {
    chan: ChannelId,
    bits: u32,
    /// Lanes per batch, `1..=64`.
    width: u32,
    /// `(slot, station id)` this node contends in, `None` for pure listeners.
    entry: Option<(u32, u64)>,
    /// Number of election slots scheduled on this node's channel.
    elections: u32,
    /// Per-slot winner station ids (`None` for an empty election).
    winners: Vec<Option<u64>>,
    /// Still in the running for the current batch.
    active: bool,
    /// The current batch observed an erased lane word: every lane of the
    /// batch reports `None`.
    poisoned: bool,
    /// Presence word of the current batch (resolved round-0 write).
    presence: u64,
    /// Resolved probe words of the current batch, index `i` holding the
    /// probe of bit `bits - 1 - i`.
    busy_words: Vec<u64>,
    /// Local round counter since seeding.
    round: u64,
    /// Set on recovery from a crash: the local round counter is stale (the
    /// node missed steps), so the series goes inert instead of desyncing
    /// the shared slot schedule.
    crashed_out: bool,
    done: bool,
}

impl LaneElectionSeries {
    /// Per-node state: this node contends in election slot `entry.0` with
    /// station id `entry.1` (`None` for a listener), `elections` slots run
    /// on channel `chan` packed `width` lanes per batch, ids fit in `bits`
    /// bits.  Station ids must be distinct per lane (see the type docs) — a
    /// cross-node invariant the constructor cannot check locally.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 63`, `1 <= width <= 64`, the entry's
    /// slot is within the series, and its station id fits in `bits` bits.
    pub fn new(
        entry: Option<(u32, u64)>,
        bits: u32,
        elections: u32,
        width: u32,
        chan: ChannelId,
    ) -> Self {
        assert!(bits > 0 && bits <= 63, "bits must be in 1..=63");
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        let mut series = LaneElectionSeries {
            chan,
            bits,
            width,
            entry: None,
            elections: 0,
            winners: Vec::with_capacity(elections as usize),
            active: false,
            poisoned: false,
            presence: 0,
            busy_words: vec![0; bits as usize],
            round: 0,
            crashed_out: false,
            done: true,
        };
        series.rearm(entry, elections, chan);
        series
    }

    /// Re-arms the series **in place** for another run of `elections` slots
    /// on channel `chan` (same `bits` and `width`): afterwards the state
    /// equals a fresh [`LaneElectionSeries::new`] — local round counter,
    /// [`winners`](Self::winners), [`crashed_out`](Self::crashed_out) and
    /// all — but the winner and probe-word storage is reused, so a
    /// multi-phase pipeline re-seeding every node between phases
    /// (`update_nodes`) allocates nothing once a series has run at least as
    /// many slots before.
    ///
    /// # Panics
    ///
    /// Panics unless the entry's slot is within the series and its station
    /// id fits in `bits` bits.
    pub fn rearm(&mut self, entry: Option<(u32, u64)>, elections: u32, chan: ChannelId) {
        if let Some((slot, id)) = entry {
            assert!(
                slot < elections,
                "slot {slot} outside {elections} elections"
            );
            assert!(
                id < (1u64 << self.bits),
                "id {id} does not fit in {} bits",
                self.bits
            );
        }
        self.chan = chan;
        self.entry = entry;
        self.elections = elections;
        self.winners.clear();
        self.winners.resize(elections as usize, None);
        self.active = false;
        self.poisoned = false;
        self.presence = 0;
        self.busy_words.fill(0);
        self.round = 0;
        self.crashed_out = false;
        self.done = elections == 0;
    }

    /// `true` once the node has crashed and recovered mid-series: its local
    /// round counter is stale, so [`Protocol::on_recover`] retired it to an
    /// inert (done, never-writing) state and its winners are frozen
    /// mid-phase — drivers must not read them.
    pub fn crashed_out(&self) -> bool {
        self.crashed_out
    }

    /// Rounds one batch occupies: the presence round, `bits` probes, and
    /// the observation round — identical to the scalar
    /// [`ElectionSeries::slot_rounds`], so lane packing divides phase
    /// rounds by the batch width without changing the per-batch shape.
    pub fn slot_rounds(bits: u32) -> u64 {
        u64::from(bits) + 2
    }

    /// Batches this series runs: `⌈elections / width⌉`.
    pub fn batches(&self) -> u32 {
        self.elections.div_ceil(self.width)
    }

    /// Per-slot winner station ids, in slot order (`None` for a slot whose
    /// election had no contender or whose batch was erasure-poisoned).
    /// Identical on every node attached to the channel once the series is
    /// done.
    pub fn winners(&self) -> &[Option<u64>] {
        &self.winners
    }
}

impl Protocol for LaneElectionSeries {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        if self.done {
            return; // the engine's busiest channel is still electing
        }
        let l = Self::slot_rounds(self.bits);
        let batch = (self.round / l) as u32;
        let t = self.round % l;
        let bits = self.bits;
        // This node's lane of the current batch, if its slot falls in it.
        let entry = self
            .entry
            .and_then(|(slot, id)| (slot / self.width == batch).then_some((slot % self.width, id)));
        if t == 0 {
            // Presence round: a contender claims its lane.
            self.active = entry.is_some();
            self.poisoned = false;
            self.presence = 0;
            self.busy_words.fill(0);
            if let Some((lane, _)) = entry {
                io.write_lanes_on(self.chan, 1u64 << lane);
            }
        } else {
            // Observe the word resolved from round t - 1's writes.
            match io.prev_lanes_on(self.chan) {
                LaneOutcome::Erased => {
                    // Every lane of the batch depended on this word: poison
                    // the batch, stop transmitting, report all-None.
                    self.poisoned = true;
                    self.active = false;
                }
                outcome => {
                    let word = outcome.word().unwrap_or(0);
                    if t == 1 {
                        self.presence = word;
                    } else {
                        // Word of the probe of bit `bits - (t - 1)`.
                        self.busy_words[(t - 2) as usize] = word;
                        if let Some((lane, id)) = entry {
                            if self.active
                                && word & (1 << lane) != 0
                                && (id >> (bits - (t as u32 - 1))) & 1 == 0
                            {
                                self.active = false;
                            }
                        }
                    }
                }
            }
            if t <= u64::from(bits) {
                // Probe round t transmits bit `bits - t`, MSB first.
                if let Some((lane, id)) = entry {
                    if self.active && (id >> (bits - t as u32)) & 1 == 1 {
                        io.write_lanes_on(self.chan, 1u64 << lane);
                    }
                }
            } else {
                // Observation round: reconstruct every lane's winner from
                // the stored probe words (bit b of the winner == busy bit of
                // the probe-b word) gated by the presence word.
                if !self.poisoned {
                    let base = batch * self.width;
                    for lane in 0..self.width.min(self.elections - base) {
                        if self.presence & (1 << lane) != 0 {
                            let mut id = 0u64;
                            for (i, &w) in self.busy_words.iter().enumerate() {
                                if w & (1 << lane) != 0 {
                                    id |= 1 << (bits - 1 - i as u32);
                                }
                            }
                            self.winners[(base + lane) as usize] = Some(id);
                        }
                    }
                }
                if (batch + 1) * self.width >= self.elections {
                    self.done = true;
                }
            }
        }
        self.round += 1;
        // Phase arming: the probe schedule runs off the local round counter,
        // and idle probe rounds never wake a node under sparse stepping — an
        // unfinished series schedules its own next round.
        if !self.done {
            io.wake_me();
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn on_recover(&mut self) {
        // The node missed steps while crashed, so its local round counter no
        // longer tracks the shared batch schedule: writing again would
        // corrupt other lanes' elections.  Retire to an inert, done state.
        self.crashed_out = true;
        self.done = true;
    }
}

// ---------------------------------------------------------------------------
// Slot-scheduled series of bitwise elections over an assigned channel
// ---------------------------------------------------------------------------

/// A **series** of bitwise elections on one assigned channel, serialized in
/// known slot order (the Section 5.1 group-representative election runs a
/// one-slot series; the channel-sharded MST moved to full-width
/// [`LaneElectionSeries`] batches): each slot's contenders transmit their
/// `bits`-bit station ids (max id wins), and **every** node attached to the
/// channel learns every slot's winner.
///
/// This is the **1-lane special case** of [`LaneElectionSeries`]: each
/// election occupies lane 0 of its own batch, so slots run one after the
/// other in `L = bits + 2` rounds each, exactly the scalar schedule.  All
/// semantics — local round counting for multi-phase re-arming, the
/// distinct-ids-per-slot requirement, crash retirement
/// ([`crashed_out`](Self::crashed_out)), and the fault contract (an erased
/// round reports the slot `None`; for erasure-only schedules each winner is
/// `None` or the exact fault-free leader) — are inherited from the lane
/// series; see its docs for the determinism contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElectionSeries {
    inner: LaneElectionSeries,
}

impl ElectionSeries {
    /// Per-node state: this node contends in election slot `entry.0` with
    /// station id `entry.1` (`None` for a listener), `elections` slots run
    /// on channel `chan`, ids fit in `bits` bits.  Station ids must be
    /// distinct per slot — a cross-node invariant the constructor cannot
    /// check locally.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 63`, the entry's slot is within the
    /// series, and its station id fits in `bits` bits.
    pub fn new(entry: Option<(u32, u64)>, bits: u32, elections: u32, chan: ChannelId) -> Self {
        ElectionSeries {
            inner: LaneElectionSeries::new(entry, bits, elections, 1, chan),
        }
    }

    /// `true` once the node has crashed and recovered mid-series — see
    /// [`LaneElectionSeries::crashed_out`].
    pub fn crashed_out(&self) -> bool {
        self.inner.crashed_out()
    }

    /// Rounds one election slot occupies: the presence round, `bits`
    /// probes, and the observation round.
    pub fn slot_rounds(bits: u32) -> u64 {
        LaneElectionSeries::slot_rounds(bits)
    }

    /// Per-slot winner station ids, in slot order (`None` for a slot whose
    /// election had no contender).  Identical on every node attached to the
    /// channel once the series is done.
    pub fn winners(&self) -> &[Option<u64>] {
        self.inner.winners()
    }
}

impl Protocol for ElectionSeries {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        self.inner.step(io);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn on_recover(&mut self) {
        self.inner.on_recover();
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
    use netsim_sim::{ChannelSet, CostAccount, ReferenceEngine, SyncEngine};

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
        let mut eng = SyncEngine::with_channels(&g, ChannelSet::uniform(2), |v| {
            AssignedSplit::new(stations[v.index()], id_space, CHAN)
        });
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
        let mut flat = SyncEngine::with_channels(&g, ChannelSet::uniform(2), init);
        let mut reference = ReferenceEngine::with_channels(&g, ChannelSet::uniform(2), init);
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
        let mut eng = SyncEngine::with_channels(&g, ChannelSet::uniform(2), |v| {
            AssignedElection::new(stations[v.index()], bits, CHAN)
        });
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

    #[test]
    fn election_series_matches_abstract_election_per_slot() {
        // Three election slots on channel 1 of a 2-channel set: nodes are
        // partitioned into contender groups by `v mod 4` (group 3 and all of
        // slot 2 are listeners — slot 2 must report an empty election).
        let g = generators::ring(21);
        let n = g.node_count();
        let bits = 9;
        let entry = |v: usize| -> Option<(u32, u64)> {
            let group = v % 4;
            (group < 2).then(|| (group as u32, (v as u64) * 23 + 1))
        };
        let mut eng = SyncEngine::with_channels(&g, ChannelSet::uniform(2), |v| {
            ElectionSeries::new(entry(v.index()), bits, 3, CHAN)
        });
        let out = eng.run(10_000);
        assert!(out.is_completed());
        // The busiest channel runs 3 slots of bits + 2 rounds each; the last
        // slot's observation round is the final step.
        assert_eq!(out.rounds(), 3 * ElectionSeries::slot_rounds(bits));
        for slot in 0..2u32 {
            let ids: Vec<u64> = (0..n)
                .filter_map(|v| entry(v).filter(|e| e.0 == slot).map(|e| e.1))
                .collect();
            let abstract_run = election::bitwise_election(&ids, bits);
            for v in g.nodes() {
                assert_eq!(
                    eng.node(v).winners()[slot as usize],
                    Some(abstract_run.leader),
                    "slot {slot} winner wrong on {v:?}"
                );
            }
        }
        for v in g.nodes() {
            assert_eq!(eng.node(v).winners()[2], None, "empty slot must be None");
        }
    }

    #[test]
    fn election_series_conforms_on_reference_engine() {
        let g = generators::ring(16);
        let bits = 7;
        let entry = |v: usize| -> Option<(u32, u64)> {
            (v % 3 != 2).then(|| ((v % 3) as u32, (v as u64) * 7 + 2))
        };
        let init = |v: netsim_graph::NodeId| ElectionSeries::new(entry(v.index()), bits, 2, CHAN);
        let mut flat = SyncEngine::with_channels(&g, ChannelSet::uniform(2), init);
        let mut reference = ReferenceEngine::with_channels(&g, ChannelSet::uniform(2), init);
        assert!(flat.run(10_000).is_completed());
        assert!(reference.run(10_000).is_completed());
        assert_eq!(flat.cost(), reference.cost());
        for v in g.nodes() {
            assert_eq!(flat.node(v), reference.node(v));
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
        let mut eng = SyncEngine::with_channels(
            &g,
            ChannelSet::sharded(2, 12, |v| assign(v.index()).0),
            |v| {
                let (chan, elections) = assign(v.index());
                let slot = (v.index() as u32 / 2) % elections;
                ElectionSeries::new(Some((slot, v.index() as u64 + 1)), bits, elections, chan)
            },
        );
        let out = eng.run(10_000);
        assert!(out.is_completed());
        assert_eq!(out.rounds(), 3 * ElectionSeries::slot_rounds(bits));
        // Odd nodes all contend in their only slot: the max id (11 + 1) wins.
        assert_eq!(eng.node(netsim_graph::NodeId(1)).winners(), &[Some(12)]);

        // Re-arm: everyone now runs a single election on channel 0.
        eng.reattach(&[0b01u64; 12]);
        eng.update_nodes(|v, series| {
            *series = ElectionSeries::new(Some((0, v.index() as u64 + 1)), bits, 1, ChannelId(0));
        });
        let rounds_before = eng.round();
        let out = eng.run(100_000);
        assert!(out.is_completed());
        assert_eq!(
            out.rounds() - rounds_before,
            ElectionSeries::slot_rounds(bits)
        );
        for v in g.nodes() {
            assert_eq!(eng.node(v).winners(), &[Some(12)]);
        }
    }

    #[test]
    fn lane_series_rearm_equals_a_fresh_series() {
        // 150 slots at width 64 (three batches) on channel 1, then an
        // in-place re-arm to 70 slots on channel 0 with new entries: the
        // re-armed state is indistinguishable from a fresh series, before
        // and after the second run.
        let g = generators::ring(300);
        let bits = 10;
        let first = |v: usize| (Some(((v % 150) as u32, v as u64 + 1)), 150, CHAN);
        let second = |v: usize| {
            (
                (!v.is_multiple_of(3)).then(|| ((v % 70) as u32, 1000 - v as u64)),
                70,
                ChannelId(0),
            )
        };
        let fresh =
            |(entry, elections, chan)| LaneElectionSeries::new(entry, bits, elections, 64, chan);
        let mut eng =
            SyncEngine::with_channels(&g, ChannelSet::uniform(2), |v| fresh(first(v.index())));
        assert!(eng.run(10_000).is_completed());
        assert_eq!(eng.round(), 3 * LaneElectionSeries::slot_rounds(bits));

        eng.update_nodes(|v, series| {
            let (entry, elections, chan) = second(v.index());
            series.rearm(entry, elections, chan);
            assert_eq!(*series, fresh(second(v.index())));
        });
        let mut scratch =
            SyncEngine::with_channels(&g, ChannelSet::uniform(2), |v| fresh(second(v.index())));
        assert!(eng.run(10_000).is_completed());
        assert!(scratch.run(10_000).is_completed());
        assert_eq!(scratch.round(), 2 * LaneElectionSeries::slot_rounds(bits));
        for v in g.nodes() {
            assert_eq!(eng.node(v), scratch.node(v));
            assert!(eng.node(v).winners().iter().all(Option::is_some));
        }
    }

    #[test]
    fn election_series_erased_announce_reports_none() {
        // With every busy lane word erased, the presence word is destroyed
        // in flight and the batch is poisoned: the series runs its exact
        // fault-free horizon and every slot reports an empty election.
        let g = generators::ring(10);
        let bits = 6;
        let mut eng = SyncEngine::with_channels(&g, ChannelSet::uniform(2), |v| {
            ElectionSeries::new(Some((0, v.index() as u64 + 1)), bits, 1, CHAN)
        });
        eng.set_fault_plan(netsim_sim::FaultPlan::from_rates(11, 1.0, 0.0, 0.0, 0.0));
        let out = eng.run(10_000);
        assert!(out.is_completed());
        assert_eq!(out.rounds(), ElectionSeries::slot_rounds(bits));
        assert!(eng.cost().lanes_erased > 0);
        for v in g.nodes() {
            assert_eq!(eng.node(v).winners(), &[None]);
        }
    }

    #[test]
    fn election_series_under_erasures_is_none_or_true_leader() {
        // Partial erasures: every slot's reported winner is either None (its
        // announce slot was erased) or the exact fault-free leader, and all
        // listeners agree.
        let g = generators::ring(21);
        let n = g.node_count();
        let bits = 9;
        let entry = |v: usize| -> Option<(u32, u64)> {
            let group = v % 4;
            (group < 3).then(|| (group as u32, (v as u64) * 23 + 1))
        };
        for seed in [3u64, 17, 92] {
            let mut eng = SyncEngine::with_channels(&g, ChannelSet::uniform(2), |v| {
                ElectionSeries::new(entry(v.index()), bits, 3, CHAN)
            });
            eng.set_fault_plan(netsim_sim::FaultPlan::from_rates(seed, 0.35, 0.0, 0.0, 0.0));
            let out = eng.run(10_000);
            assert!(out.is_completed(), "seed {seed}");
            assert_eq!(out.rounds(), 3 * ElectionSeries::slot_rounds(bits));
            for slot in 0..3u32 {
                let ids: Vec<u64> = (0..n)
                    .filter_map(|v| entry(v).filter(|e| e.0 == slot).map(|e| e.1))
                    .collect();
                let leader = election::bitwise_election(&ids, bits).leader;
                let reported = eng.node(netsim_graph::NodeId(0)).winners()[slot as usize];
                assert!(
                    reported.is_none() || reported == Some(leader),
                    "seed {seed} slot {slot}: {reported:?} vs leader {leader}"
                );
                for v in g.nodes() {
                    assert_eq!(
                        eng.node(v).winners()[slot as usize],
                        reported,
                        "seed {seed} slot {slot}: listeners disagree on {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn assigned_backoff_schedules_everyone() {
        let g = generators::ring(15);
        let n = g.node_count();
        let stations = contender_ids(n);
        let count = stations.iter().flatten().count() as u64;
        let mut eng = SyncEngine::with_channels(&g, ChannelSet::uniform(2), |v| {
            AssignedBackoff::new(stations[v.index()], count, 7, CHAN)
        });
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
