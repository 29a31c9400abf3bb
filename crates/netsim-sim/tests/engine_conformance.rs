//! Cross-engine protocol conformance suite.
//!
//! Runs each protocol on the three execution substrates — the arena-backed
//! flat [`SyncEngine`](netsim_sim::SyncEngine), the pre-arena clone-path
//! [`ReferenceEngine`](netsim_sim::ReferenceEngine), and the
//! [`AsyncEngine`](netsim_sim::AsyncEngine) in lockstep configuration — over
//! the full topology matrix (grid, random, ring-of-cliques, geometric,
//! preferential attachment, expander) and asserts bit-for-bit identical
//! delivery traces and final states.  The harness is `testkit`'s
//! conformance module.
//!
//! The protocols are chosen to pin down every delivery feature:
//!
//! * [`MixGossip`] — `Copy` payloads, mixed unicast/broadcast traffic plus
//!   channel writes (collisions and successes), chaos-style state folding so
//!   any ordering or outcome divergence cascades;
//! * [`FrameRelay`] — **non-`Copy`** `Vec<u8>` frames of varying length,
//!   exercising the payload arena (intern-on-broadcast, handle fan-out,
//!   recycling) against the reference clone path;
//! * [`BfsBuild`] — a real algorithmic building block;
//! * [`SlotDance`] — channel-only traffic, pinning slot resolution.

use netsim_graph::NodeId;
use netsim_sim::{
    protocols::{BfsBuild, ChannelShardedSum},
    ChannelId, ChannelSet, FaultEvent, FaultPlan, Protocol, RoundIo, SlotOutcome,
};
use testkit::{
    assert_conformant, assert_conformant_faulted, assert_conformant_on, assert_conformant_reattach,
    mix, run_sync_faulted, topology_matrix, ReattachSchedule,
};

// ---------------------------------------------------------------------------
// MixGossip: Copy payloads, unicast + broadcast + channel writes.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct MixGossip {
    id: u64,
    seed: u64,
    state: u64,
    rounds_active: u32,
}

impl Protocol for MixGossip {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (from, &m) in io.inbox() {
            self.state = mix(self.state, mix(from.index() as u64, m));
        }
        match io.prev_slot() {
            SlotOutcome::Idle => {}
            SlotOutcome::Success { from, msg } => {
                self.state = mix(self.state, mix(from.index() as u64, *msg));
            }
            SlotOutcome::Collision => self.state = mix(self.state, 0xc0111),
            SlotOutcome::Erased => self.state = mix(self.state, 0xe2a5ed),
        }
        if self.rounds_active > 0 {
            self.rounds_active -= 1;
            let r = mix(self.seed, mix(self.id, io.round()));
            if r.is_multiple_of(4) {
                // Broadcast: one interned payload fans out over the degree.
                io.send_all(mix(self.state, 0xa11));
            } else {
                for i in 0..io.degree() {
                    let v = io.neighbors().target(i);
                    if !mix(r, i as u64).is_multiple_of(3) {
                        io.send(v, mix(self.state, i as u64));
                    }
                }
            }
            if mix(r, 0x5107).is_multiple_of(7) {
                io.write_channel(self.state);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }
}

#[test]
fn mix_gossip_conforms_across_engines_and_topologies() {
    for (name, g) in topology_matrix(17) {
        assert_conformant(
            &format!("mix_gossip/{name}"),
            &g,
            |v: NodeId| MixGossip {
                id: v.index() as u64,
                seed: 0xfeed,
                state: mix(0xfeed, v.index() as u64),
                rounds_active: 10 + (v.index() as u32 % 5),
            },
            10_000,
        );
    }
}

// ---------------------------------------------------------------------------
// FrameRelay: variable-length Vec<u8> frames through the payload arena.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct FrameRelay {
    id: u64,
    state: u64,
    rounds_active: u32,
}

impl FrameRelay {
    /// Deterministically (re)fills `frame` from the node state; variable
    /// length in `1..=40` bytes so slab slots see different sizes.
    fn fill_frame(&self, frame: &mut Vec<u8>, tag: u64) {
        frame.clear();
        let r = mix(self.state, tag);
        let len = (r % 40) as usize + 1;
        frame.extend((0..len).map(|i| (r.rotate_left(i as u32 % 63) & 0xff) as u8));
    }
}

impl Protocol for FrameRelay {
    type Msg = Vec<u8>;

    fn step(&mut self, io: &mut RoundIo<'_, Vec<u8>>) {
        for (from, frame) in io.inbox() {
            let folded = frame
                .iter()
                .fold(frame.len() as u64, |acc, &b| mix(acc, u64::from(b)));
            self.state = mix(self.state, mix(from.index() as u64, folded));
        }
        if self.rounds_active > 0 {
            self.rounds_active -= 1;
            // Recycled buffers are fully overwritten, so runs conform whether
            // the substrate hands capacity back (arena) or not (clone path).
            let mut frame = io.recycle_payload().unwrap_or_default();
            self.fill_frame(&mut frame, 0xb0a);
            io.send_all(frame);
            if mix(self.state, io.round()).is_multiple_of(3) && io.degree() > 0 {
                let mut extra = io.recycle_payload().unwrap_or_default();
                self.fill_frame(&mut extra, 0x1e);
                let v = io.neighbors().target(self.state as usize % io.degree());
                io.send(v, extra);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }
}

#[test]
fn frame_relay_conforms_across_engines_and_topologies() {
    for (name, g) in topology_matrix(23) {
        assert_conformant(
            &format!("frame_relay/{name}"),
            &g,
            |v: NodeId| FrameRelay {
                id: v.index() as u64,
                state: mix(0xf00d, v.index() as u64),
                rounds_active: 8 + (v.index() as u32 % 4),
            },
            10_000,
        );
    }
}

// ---------------------------------------------------------------------------
// BfsBuild: a real building block over every topology.
// ---------------------------------------------------------------------------

#[test]
fn bfs_build_conforms_across_engines_and_topologies() {
    for (name, g) in topology_matrix(31) {
        assert_conformant(
            &format!("bfs/{name}"),
            &g,
            |v: NodeId| BfsBuild::new(v, NodeId(0)),
            10_000,
        );
    }
}

// ---------------------------------------------------------------------------
// SlotDance: channel-only traffic (idle / success / collision sequences).
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct SlotDance {
    id: u64,
    state: u64,
    rounds_active: u32,
}

impl Protocol for SlotDance {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        match io.prev_slot() {
            SlotOutcome::Idle => self.state = mix(self.state, 1),
            SlotOutcome::Success { from, msg } => {
                self.state = mix(self.state, mix(from.index() as u64, *msg));
            }
            SlotOutcome::Collision => self.state = mix(self.state, 0xbad),
            SlotOutcome::Erased => self.state = mix(self.state, 0xe2a),
        }
        if self.rounds_active > 0 {
            self.rounds_active -= 1;
            // Round-varying writer sets: some rounds nobody writes (idle),
            // some rounds exactly one node does (success), some rounds many
            // collide.
            let phase = io.round() % 5;
            let writes = match phase {
                0 => self.id == io.round() % 7,
                1 => self.id.is_multiple_of(3),
                2 => false,
                _ => mix(self.id, io.round()).is_multiple_of(5),
            };
            if writes {
                io.write_channel(mix(self.state, self.id));
            }
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }
}

#[test]
fn slot_dance_conforms_across_engines_and_topologies() {
    for (name, g) in topology_matrix(41) {
        assert_conformant(
            &format!("slot_dance/{name}"),
            &g,
            |v: NodeId| SlotDance {
                id: v.index() as u64,
                state: mix(0x510, v.index() as u64),
                rounds_active: 12,
            },
            10_000,
        );
    }
}

// ---------------------------------------------------------------------------
// MultiChannelDance: chaotic traffic over a uniform 4-channel set — dynamic
// channel picks, cross-channel collision/success/idle sequences, plus p2p
// sends keyed off the per-channel outcomes so any divergence cascades.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct MultiChannelDance {
    id: u64,
    state: u64,
    rounds_active: u32,
}

impl Protocol for MultiChannelDance {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (from, &m) in io.inbox() {
            self.state = mix(self.state, mix(from.index() as u64, m));
        }
        for c in 0..io.channels() {
            match io.prev_slot_on(ChannelId(c)) {
                SlotOutcome::Idle => {}
                SlotOutcome::Success { from, msg } => {
                    self.state = mix(
                        self.state,
                        mix(u64::from(c), mix(from.index() as u64, *msg)),
                    );
                }
                SlotOutcome::Collision => self.state = mix(self.state, 0xbad0 + u64::from(c)),
                SlotOutcome::Erased => self.state = mix(self.state, 0xe2a0 + u64::from(c)),
            }
        }
        if self.rounds_active > 0 {
            self.rounds_active -= 1;
            let r = mix(self.id, mix(self.state, io.round()));
            if r.is_multiple_of(3) {
                // Dynamic channel pick; overlapping picks collide.
                io.write_channel_on(ChannelId((r >> 8) as u16 % io.channels()), self.state);
            }
            if r.is_multiple_of(5) && io.degree() > 0 {
                let v = io.neighbors().target(r as usize % io.degree());
                io.send(v, mix(self.state, 0x1e));
            }
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }
}

#[test]
fn multi_channel_dance_conforms_across_engines_and_topologies() {
    for (name, g) in topology_matrix(53) {
        assert_conformant_on(
            &format!("multi_channel_dance/{name}"),
            &g,
            &ChannelSet::uniform(4),
            |v: NodeId| MultiChannelDance {
                id: v.index() as u64,
                state: mix(0xdace, v.index() as u64),
                rounds_active: 12 + (v.index() as u32 % 5),
            },
            10_000,
        );
    }
}

// ---------------------------------------------------------------------------
// AttachmentProbe: branches on `is_attached` under a sharded ChannelSet, so
// any engine that misreports attachment (e.g. a lockstep adapter defaulting
// to full attachment) diverges immediately.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct AttachmentProbe {
    id: u64,
    state: u64,
    rounds_active: u32,
}

impl Protocol for AttachmentProbe {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for c in 0..io.channels() {
            let chan = ChannelId(c);
            if io.is_attached(chan) {
                match io.prev_slot_on(chan) {
                    SlotOutcome::Idle => {}
                    SlotOutcome::Success { from, msg } => {
                        self.state = mix(
                            self.state,
                            mix(u64::from(c), mix(from.index() as u64, *msg)),
                        );
                    }
                    SlotOutcome::Collision => self.state = mix(self.state, 0xcc + u64::from(c)),
                    SlotOutcome::Erased => self.state = mix(self.state, 0xee + u64::from(c)),
                }
                if self.rounds_active > 0
                    && mix(self.id, mix(io.round(), u64::from(c))).is_multiple_of(4)
                {
                    io.write_channel_on(chan, self.state);
                }
            } else {
                // The unattached branch folds too: a substrate reporting
                // full attachment takes a visibly different path.
                self.state = mix(self.state, 0xdead + u64::from(c));
            }
        }
        self.rounds_active = self.rounds_active.saturating_sub(1);
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }
}

#[test]
fn attachment_probe_conforms_across_engines_and_topologies() {
    for (name, g) in topology_matrix(71) {
        let n = g.node_count();
        // Each node attached to two of three channels: {v mod 3, v+1 mod 3}.
        let masks = (0..n)
            .map(|v| (1u64 << (v % 3)) | (1u64 << ((v + 1) % 3)))
            .collect();
        assert_conformant_on(
            &format!("attachment_probe/{name}"),
            &g,
            &ChannelSet::from_masks(3, masks),
            |v: NodeId| AttachmentProbe {
                id: v.index() as u64,
                state: mix(0xa77, v.index() as u64),
                rounds_active: 10 + (v.index() as u32 % 4),
            },
            10_000,
        );
    }
}

// ---------------------------------------------------------------------------
// ReattachProbe: a scripted dynamic-attachment schedule over a sharded
// 4-channel set.  The probe folds `is_attached` and every per-channel
// outcome (both branches), and keeps writing on whatever channel it is
// currently attached to — so an engine that applies a re-attachment snapshot
// one round early or late, or gates a pending slot outcome with the old
// masks, diverges immediately.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct ReattachProbe {
    id: u64,
    state: u64,
    rounds_active: u32,
}

impl Protocol for ReattachProbe {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (from, &m) in io.inbox() {
            self.state = mix(self.state, mix(from.index() as u64, m));
        }
        for c in 0..io.channels() {
            let chan = ChannelId(c);
            if io.is_attached(chan) {
                match io.prev_slot_on(chan) {
                    SlotOutcome::Idle => self.state = mix(self.state, u64::from(c)),
                    SlotOutcome::Success { from, msg } => {
                        self.state = mix(
                            self.state,
                            mix(u64::from(c), mix(from.index() as u64, *msg)),
                        );
                    }
                    SlotOutcome::Collision => self.state = mix(self.state, 0xcc + u64::from(c)),
                    SlotOutcome::Erased => self.state = mix(self.state, 0xef + u64::from(c)),
                }
            } else {
                self.state = mix(self.state, 0xdead + u64::from(c));
            }
        }
        if self.rounds_active > 0 {
            self.rounds_active -= 1;
            let r = mix(self.id, mix(self.state, io.round()));
            for c in 0..io.channels() {
                let chan = ChannelId(c);
                if io.is_attached(chan) && mix(r, u64::from(c)).is_multiple_of(3) {
                    io.write_channel_on(chan, mix(self.state, u64::from(c)));
                }
            }
            if r.is_multiple_of(5) && io.degree() > 0 {
                let v = io.neighbors().target(r as usize % io.degree());
                io.send(v, mix(self.state, 0x5e));
            }
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }
}

/// One attachment mask per node: shard `v` to channel `(v + rotation) % 4`,
/// with every fourth node additionally listening on the next channel so the
/// schedule also exercises multi-channel masks.
fn rotated_masks(n: usize, rotation: usize) -> Vec<u64> {
    (0..n)
        .map(|v| {
            let c = (v + rotation) % 4;
            let mut mask = 1u64 << c;
            if v % 4 == 0 {
                mask |= 1 << ((c + 1) % 4);
            }
            mask
        })
        .collect()
}

#[test]
fn scripted_reattach_conforms_across_engines_and_topologies() {
    for (name, g) in topology_matrix(83) {
        let n = g.node_count();
        // Three snapshots mid-run: rotate the shard assignment while slots
        // are live, then collapse everyone onto two channels.
        let schedule: ReattachSchedule = vec![
            (3, rotated_masks(n, 1)),
            (7, rotated_masks(n, 3)),
            (11, (0..n).map(|v| 1u64 << (v % 2)).collect()),
        ];
        assert_conformant_reattach(
            &format!("reattach_probe/{name}"),
            &g,
            &ChannelSet::from_masks(4, rotated_masks(n, 0)),
            &schedule,
            |v: NodeId| ReattachProbe {
                id: v.index() as u64,
                state: mix(0x2ea7, v.index() as u64),
                rounds_active: 14 + (v.index() as u32 % 3),
            },
            10_000,
        );
    }
}

// ---------------------------------------------------------------------------
// ChannelShardedSum: the benchmark's K-channel scenario family with sharded
// per-node attachment — pinned across all three engines, which is what lets
// the `chansum-*` workloads compare substrates on one instance.
// ---------------------------------------------------------------------------

#[test]
fn channel_sharded_sum_conforms_across_engines_and_topologies() {
    for k in [1u16, 4, 16] {
        for (name, g) in topology_matrix(61) {
            let n = g.node_count();
            assert_conformant_on(
                &format!("sharded_sum_k{k}/{name}"),
                &g,
                &ChannelShardedSum::channel_set(n, k),
                |v: NodeId| ChannelShardedSum::new(v, n, k, mix(0x5ade, v.index() as u64)),
                10_000,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// ChurnProbe: the fault dimension of the conformance matrix.  A
// fixed-horizon chaos probe — each operational round it folds the inbox and
// every per-channel outcome (with a distinct fold constant for `Erased`),
// sends pseudo-random p2p traffic, and writes pseudo-random channel slots;
// `on_recover` folds a marker and counts.  The horizon only ticks on rounds
// the node actually executes, so crashed nodes freeze; permanently-down
// nodes are quiescence-exempt, which keeps every faulted run terminating.
// Any divergence in drop coins, erasure coins, lifecycle transitions, or the
// delivery-vs-resolve fault boundaries cascades into the folded state.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct ChurnProbe {
    id: u64,
    state: u64,
    rounds_active: u32,
    recoveries: u32,
}

impl Protocol for ChurnProbe {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (from, &m) in io.inbox() {
            self.state = mix(self.state, mix(from.index() as u64, m));
        }
        for c in 0..io.channels() {
            match io.prev_slot_on(ChannelId(c)) {
                SlotOutcome::Idle => {}
                SlotOutcome::Success { from, msg } => {
                    self.state = mix(
                        self.state,
                        mix(u64::from(c), mix(from.index() as u64, *msg)),
                    );
                }
                SlotOutcome::Collision => self.state = mix(self.state, 0xc0 + u64::from(c)),
                SlotOutcome::Erased => self.state = mix(self.state, 0xe0 + u64::from(c)),
            }
        }
        if self.rounds_active > 0 {
            self.rounds_active -= 1;
            let r = mix(self.id, mix(self.state, io.round()));
            if r.is_multiple_of(2) {
                io.write_channel_on(ChannelId((r >> 8) as u16 % io.channels()), self.state);
            }
            if r.is_multiple_of(3) && io.degree() > 0 {
                let v = io.neighbors().target(r as usize % io.degree());
                io.send(v, mix(self.state, 0xd0));
            }
            if r.is_multiple_of(7) {
                io.send_all(mix(self.state, 0xb0));
            }
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }

    fn on_recover(&mut self) {
        self.recoveries += 1;
        self.state = mix(self.state, 0x12ec0);
    }
}

fn churn_probe(v: NodeId) -> ChurnProbe {
    ChurnProbe {
        id: v.index() as u64,
        state: mix(0xc4a05, v.index() as u64),
        rounds_active: 14 + (v.index() as u32 % 5),
        recoveries: 0,
    }
}

/// Seeded rate-based plans (erasures + drops; then full churn with crashes
/// and recoveries) over the whole topology matrix.
#[test]
fn churn_probe_conforms_under_seeded_fault_plans() {
    let plans = [
        (
            "erase_drop",
            FaultPlan::from_rates(0xabcd_0001, 0.25, 0.20, 0.0, 0.0),
        ),
        (
            "full_churn",
            FaultPlan::from_rates(0x5eed_0002, 0.15, 0.10, 0.04, 0.30),
        ),
    ];
    for (pname, plan) in &plans {
        for (name, g) in topology_matrix(97) {
            assert_conformant_faulted(
                &format!("churn_probe/{pname}/{name}"),
                &g,
                &ChannelSet::uniform(3),
                plan,
                churn_probe,
                10_000,
            );
        }
    }
}

/// Scripted crash/recover events plus an initially-off node — the
/// deterministic-schedule path of the plan, pinned across engines.
#[test]
fn churn_probe_conforms_under_scripted_churn() {
    for (name, g) in topology_matrix(89) {
        let n = g.node_count();
        let plan = FaultPlan::from_rates(0x0ff_0003, 0.10, 0.0, 0.0, 0.0)
            .with_initial_off(vec![NodeId(0)])
            .with_events(vec![
                FaultEvent::Crash {
                    round: 2,
                    node: NodeId(1),
                },
                FaultEvent::Crash {
                    round: 3,
                    node: NodeId(n / 2),
                },
                FaultEvent::Recover {
                    round: 5,
                    node: NodeId(0),
                },
                FaultEvent::Recover {
                    round: 6,
                    node: NodeId(1),
                },
            ]);
        assert_conformant_faulted(
            &format!("churn_probe/scripted/{name}"),
            &g,
            &ChannelSet::uniform(2),
            &plan,
            churn_probe,
            10_000,
        );
    }
}

/// The fault plans above must actually bite: a single faulted run records
/// nonzero erased slots, dropped messages, and crashed node-rounds, and the
/// recovered nodes observed their `on_recover` hook.
#[test]
fn fault_plans_actually_fire() {
    let (name, g) = topology_matrix(97).into_iter().nth(2).expect("matrix");
    let plan = FaultPlan::from_rates(0x5eed_0002, 0.15, 0.10, 0.04, 0.30);
    let run = run_sync_faulted(&g, &ChannelSet::uniform(3), &plan, churn_probe, 10_000);
    assert!(
        run.cost.erased_slots > 0,
        "[{name}] erasure rate 0.15 never erased a contended slot"
    );
    assert!(
        run.cost.dropped_messages > 0,
        "[{name}] drop rate 0.10 never dropped a message"
    );
    assert!(
        run.cost.crashed_rounds > 0,
        "[{name}] crash rate 0.04 never cost a node-round"
    );
    assert!(
        run.nodes.iter().any(|p| p.recoveries > 0),
        "[{name}] recover rate 0.30 never drove an on_recover"
    );
}

/// Probe for the orphaned-slot regression: nodes 0 and 1 are the *only*
/// listeners of channel 1 and both write it on round 0 (a guaranteed
/// collision, or an erasure under a seeded plan); a scripted plan crashes
/// both at round 1, so the non-idle outcome lands on a channel whose every
/// attached listener is down.  The engines must neither step the downed
/// listeners for it nor count them toward quiescence; channel-0 chatter
/// keeps the survivors busy long enough to surface any leak.
#[derive(Clone, Debug, PartialEq, Eq)]
struct OrphanSlotProbe {
    id: u64,
    state: u64,
    rounds_active: u32,
}

impl Protocol for OrphanSlotProbe {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (from, &m) in io.inbox() {
            self.state = mix(self.state, mix(from.index() as u64, m));
        }
        for c in 0..io.channels() {
            match io.prev_slot_on(ChannelId(c)) {
                SlotOutcome::Idle => {}
                SlotOutcome::Success { from, msg } => {
                    self.state = mix(self.state, mix(from.index() as u64, *msg));
                }
                SlotOutcome::Collision => self.state = mix(self.state, 0xc0 + u64::from(c)),
                SlotOutcome::Erased => self.state = mix(self.state, 0xe0 + u64::from(c)),
            }
        }
        if io.round() == 0 && self.id <= 1 {
            io.write_channel_on(ChannelId(1), 0xdead + self.id);
        }
        if self.rounds_active > 0 {
            self.rounds_active -= 1;
            if mix(self.id, io.round()).is_multiple_of(2) {
                io.write_channel_on(ChannelId(0), self.state);
            }
        }
        if !self.is_done() {
            io.wake_me();
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }

    fn on_recover(&mut self) {
        self.state = mix(self.state, 0x12ec0);
    }
}

/// Channel set for [`OrphanSlotProbe`]: everyone on channel 0, only nodes 0
/// and 1 on channel 1.
fn orphan_masks(n: usize) -> ChannelSet {
    ChannelSet::from_masks(
        2,
        (0..n).map(|v| if v <= 1 { 0b11 } else { 0b01 }).collect(),
    )
}

fn orphan_probe(v: NodeId) -> OrphanSlotProbe {
    OrphanSlotProbe {
        id: v.index() as u64,
        state: mix(0x0e4a, v.index() as u64),
        rounds_active: 8 + (v.index() as u32 % 3),
    }
}

/// Plan for [`OrphanSlotProbe`]: both channel-1 listeners die at round 1,
/// right as the collision (or erasure) from round 0 becomes observable.
fn orphan_plan(erase_p: f64) -> FaultPlan {
    FaultPlan::from_rates(0x0e4a_0001, erase_p, 0.0, 0.0, 0.0).with_events(vec![
        FaultEvent::Crash {
            round: 1,
            node: NodeId(0),
        },
        FaultEvent::Crash {
            round: 1,
            node: NodeId(1),
        },
    ])
}

/// Regression: a `Collision`/`Erased` outcome on a channel whose every
/// attached listener is down must not wake, step, or settle the downed
/// nodes — dense and sparse, on all three substrates, across topologies.
#[test]
fn orphaned_slot_on_downed_listeners_conforms() {
    for erase_p in [0.0, 1.0] {
        for (name, g) in topology_matrix(41).into_iter().take(3) {
            let channels = orphan_masks(g.node_count());
            let plan = orphan_plan(erase_p);
            assert_conformant_faulted(
                &format!("orphan_slot/erase{erase_p}/{name}"),
                &g,
                &channels,
                &plan,
                orphan_probe,
                10_000,
            );
        }
    }
}

/// The orphaned-slot scenario actually produces the outcome it claims to:
/// the round-0 double write on channel 1 collides (or is erased under the
/// full-erasure plan) and both listeners spend the rest of the run crashed.
#[test]
fn orphaned_slot_scenario_fires() {
    let g = netsim_graph::generators::ring(8);
    let run = run_sync_faulted(
        &g,
        &orphan_masks(8),
        &orphan_plan(0.0),
        orphan_probe,
        10_000,
    );
    assert!(
        run.cost.slots_collision > 0,
        "round-0 double write never collided"
    );
    assert!(run.cost.crashed_rounds > 0, "listeners never crashed");
    assert!(
        run.lifecycles[0] == netsim_sim::NodeLifecycle::Crashed
            && run.lifecycles[1] == netsim_sim::NodeLifecycle::Crashed,
        "both channel-1 listeners must end the run crashed"
    );
    let erased = run_sync_faulted(
        &g,
        &orphan_masks(8),
        &orphan_plan(1.0),
        orphan_probe,
        10_000,
    );
    assert!(
        erased.cost.erased_slots > 0,
        "full-erasure plan never erased the orphaned slot"
    );
}

// ---------------------------------------------------------------------------
// Active-set (sparse) stepping dimension: every frontier-safe protocol of
// the matrix, run dense AND sparse on all three substrates, bit-identical.
// ---------------------------------------------------------------------------

use testkit::{
    assert_sparse_conformant, assert_sparse_conformant_faulted, assert_sparse_conformant_on,
};

/// Generic frontier-safety adapter: the canonical `wake_me` adoption pattern
/// (`if !done { io.wake_me() }`) wrapped around any protocol, making a
/// round-driven protocol steppable under active-set stepping.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Armed<P>(P);

impl<P: Protocol> Protocol for Armed<P> {
    type Msg = P::Msg;

    fn step(&mut self, io: &mut RoundIo<'_, Self::Msg>) {
        self.0.step(io);
        if !self.0.is_done() {
            io.wake_me();
        }
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn on_recover(&mut self) {
        self.0.on_recover();
    }
}

/// BfsBuild is frontier-safe with no adapter: a step with an empty inbox is
/// a pure no-op until the wave arrives, and the root acts in round 0 (the
/// engines' initial all-active frontier).
#[test]
fn bfs_build_sparse_conforms_across_engines_and_topologies() {
    for (name, g) in topology_matrix(31) {
        assert_sparse_conformant(
            &format!("sparse/bfs/{name}"),
            &g,
            |v: NodeId| BfsBuild::new(v, NodeId(0)),
            10_000,
        );
    }
}

/// Round-driven chaos traffic under the `Armed` adapter: Copy payloads,
/// unicast + broadcast + single-channel writes (the uniform-attachment
/// wake-all fast path of the channel wake source).
#[test]
fn mix_gossip_sparse_conforms_across_engines_and_topologies() {
    for (name, g) in topology_matrix(17) {
        assert_sparse_conformant(
            &format!("sparse/mix_gossip/{name}"),
            &g,
            |v: NodeId| {
                Armed(MixGossip {
                    id: v.index() as u64,
                    seed: 0xfeed,
                    state: mix(0xfeed, v.index() as u64),
                    rounds_active: 10 + (v.index() as u32 % 5),
                })
            },
            10_000,
        );
    }
}

/// Non-`Copy` `Vec<u8>` frames through the epoch-lazy sparse inbox arena.
#[test]
fn frame_relay_sparse_conforms_across_engines_and_topologies() {
    for (name, g) in topology_matrix(23) {
        assert_sparse_conformant(
            &format!("sparse/frame_relay/{name}"),
            &g,
            |v: NodeId| {
                Armed(FrameRelay {
                    id: v.index() as u64,
                    state: mix(0xf00d, v.index() as u64),
                    rounds_active: 8 + (v.index() as u32 % 4),
                })
            },
            10_000,
        );
    }
}

/// Uniform 4-channel chaos under `Armed`: multi-channel slot outcomes as a
/// wake source, dynamic channel picks.
#[test]
fn multi_channel_dance_sparse_conforms_across_engines_and_topologies() {
    for (name, g) in topology_matrix(53) {
        assert_sparse_conformant_on(
            &format!("sparse/multi_channel_dance/{name}"),
            &g,
            &ChannelSet::uniform(4),
            |v: NodeId| {
                Armed(MultiChannelDance {
                    id: v.index() as u64,
                    state: mix(0xdace, v.index() as u64),
                    rounds_active: 12 + (v.index() as u32 % 5),
                })
            },
            10_000,
        );
    }
}

/// ChannelShardedSum adopts `wake_me` natively (its idle-strike timer runs
/// on idle slots, which never wake a node) — the sharded-attachment wake
/// source: only the members of a channel's shard wake on its non-idle
/// outcomes.
#[test]
fn channel_sharded_sum_sparse_conforms_across_engines_and_topologies() {
    for k in [1u16, 4] {
        for (name, g) in topology_matrix(61) {
            let n = g.node_count();
            assert_sparse_conformant_on(
                &format!("sparse/sharded_sum_k{k}/{name}"),
                &g,
                &ChannelShardedSum::channel_set(n, k),
                |v: NodeId| ChannelShardedSum::new(v, n, k, mix(0x5ade, v.index() as u64)),
                10_000,
            );
        }
    }
}

/// The sparse × fault corner: crashes remove frontier members mid-flight,
/// recoveries re-add them through the boot-promotion wake source, erasures
/// perturb the channel wake source, drops remove message wakes.
#[test]
fn churn_probe_sparse_conforms_under_seeded_fault_plans() {
    let plans = [
        (
            "erase_drop",
            FaultPlan::from_rates(0xabcd_0001, 0.25, 0.20, 0.0, 0.0),
        ),
        (
            "full_churn",
            FaultPlan::from_rates(0x5eed_0002, 0.15, 0.10, 0.04, 0.30),
        ),
    ];
    for (pname, plan) in &plans {
        for (name, g) in topology_matrix(97) {
            assert_sparse_conformant_faulted(
                &format!("sparse/churn_probe/{pname}/{name}"),
                &g,
                &ChannelSet::uniform(3),
                plan,
                |v| Armed(churn_probe(v)),
                10_000,
            );
        }
    }
}

/// Scripted churn (initially-off boot, crashes, recoveries) under sparse
/// stepping — the deterministic-schedule path of the fault × frontier
/// interaction.
#[test]
fn churn_probe_sparse_conforms_under_scripted_churn() {
    for (name, g) in topology_matrix(89) {
        let n = g.node_count();
        let plan = FaultPlan::from_rates(0x0ff_0003, 0.10, 0.0, 0.0, 0.0)
            .with_initial_off(vec![NodeId(0)])
            .with_events(vec![
                FaultEvent::Crash {
                    round: 2,
                    node: NodeId(1),
                },
                FaultEvent::Crash {
                    round: 3,
                    node: NodeId(n / 2),
                },
                FaultEvent::Recover {
                    round: 5,
                    node: NodeId(0),
                },
                FaultEvent::Recover {
                    round: 6,
                    node: NodeId(1),
                },
            ]);
        assert_sparse_conformant_faulted(
            &format!("sparse/churn_probe/scripted/{name}"),
            &g,
            &ChannelSet::uniform(2),
            &plan,
            |v| Armed(churn_probe(v)),
            10_000,
        );
    }
}

/// Sparse variant of the orphaned-slot regression: the non-idle outcome on
/// the all-listeners-down channel is a frontier wake *source*, so sparse
/// stepping must discard it for the downed nodes rather than step them or
/// tick the done count — dense ≡ sparse on all three substrates.
#[test]
fn orphaned_slot_on_downed_listeners_sparse_conforms() {
    for erase_p in [0.0, 1.0] {
        for (name, g) in topology_matrix(41).into_iter().take(3) {
            let channels = orphan_masks(g.node_count());
            let plan = orphan_plan(erase_p);
            assert_sparse_conformant_faulted(
                &format!("sparse/orphan_slot/erase{erase_p}/{name}"),
                &g,
                &channels,
                &plan,
                orphan_probe,
                10_000,
            );
        }
    }
}
