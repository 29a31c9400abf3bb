//! Wire ≡ simulation conformance: the fourth execution substrate.
//!
//! Every test runs the same protocol twice — once on the flat in-process
//! [`SyncEngine`](netsim_sim::SyncEngine), once on [`WireNet`] over real
//! loopback UDP sockets — through `testkit`'s conformance harness
//! ([`run_on`] + [`assert_runs_identical`], the same comparison the three
//! in-process substrates are held to) and asserts **bit-for-bit identical**
//! observable behavior:
//!
//! * per-node event traces: every p2p delivery (round, sender, payload
//!   digest), every non-idle slot outcome heard on every channel and every
//!   `on_recover`, in order, recorded by `testkit::Traced`, which also
//!   asserts that each inbox arrives in sender order;
//! * final protocol states;
//! * the full [`CostAccount`](netsim_sim::CostAccount), including dropped/erased/crashed counters —
//!   the wire backend reconstructs the engine's *global* account from
//!   barrier frames;
//! * final fault lifecycles, the run outcome and the rounds executed.
//!
//! Matrix: `ChannelShardedSum` at K ∈ {1, 4} across three topology
//! families × {2, 3} hosts, a p2p-heavy chaos gossip under a seeded
//! full-churn `FaultPlan` (drops mapped onto never-transmitted frames,
//! erasures onto broadcast-bus outcomes), an erasure-only faulted sum, and
//! a heavy round whose `Vec<u8>` frames push every destination batch
//! through the mid-round flush three times (1–3 hosts, plain and faulted).

use std::hash::Hash;

use netsim_graph::{generators, topologies, Graph, NodeId};
use netsim_io::WireNet;
use netsim_sim::{
    protocols::ChannelShardedSum, wire::WireMsg, ChannelId, ChannelSet, CostAccount, EngineBuilder,
    EngineControl, FaultPlan, LaneOutcome, Protocol, RoundIo, SlotOutcome,
};
use testkit::{assert_runs_identical, mix, run_on, Traced};

fn assert_wire_conformant<P, F>(
    label: &str,
    g: &Graph,
    channels: &ChannelSet,
    plan: Option<&FaultPlan>,
    hosts: u16,
    mut init: F,
    max_rounds: u64,
) where
    P: Protocol + Clone + PartialEq + std::fmt::Debug,
    P::Msg: Hash + WireMsg,
    F: FnMut(NodeId) -> P,
{
    let mut builder = EngineBuilder::new(g).channels(channels.clone());
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan.clone());
    }
    let n = g.node_count();
    let mut traced = |v| Traced::new(init(v));
    let mut flat = builder.build_flat(&mut traced);
    let flat = run_on(label, &mut flat, n, &[], max_rounds);
    let mut net = WireNet::from_builder(&builder, hosts, &mut traced);
    let wire = run_on(label, &mut net, n, &[], max_rounds);
    assert!(
        net.bytes_sent() > 0,
        "a wire run must put bytes on the wire"
    );
    assert_runs_identical(label, "flat vs wire", &flat, &wire);
}

/// Two topology families (plus a third for luck) at conformance-friendly
/// sizes.
fn wire_topologies(seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        ("ring", generators::ring(48)),
        ("grid", generators::grid(6, 8)),
        ("ring_of_cliques", topologies::ring_of_cliques(6, 5)),
        ("random", generators::random_connected(40, 0.14, seed)),
    ]
}

// ---------------------------------------------------------------------------
// ChaosGossip: p2p-heavy deterministic chaos for the fault dimension — every
// operational round below the horizon it unicasts to pseudo-random
// neighbours and sometimes writes a channel, folding everything it hears.
// Exercises drops (sender-side suppressed frames), erasures, and crash /
// recover on the wire.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct ChaosGossip {
    id: NodeId,
    acc: u64,
    recoveries: u64,
    done: bool,
}

impl ChaosGossip {
    const HORIZON: u64 = 24;

    fn new(id: NodeId) -> Self {
        ChaosGossip {
            id,
            acc: mix(0xc0a5, id.index() as u64),
            recoveries: 0,
            done: false,
        }
    }
}

impl Protocol for ChaosGossip {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (from, msg) in io.inbox() {
            self.acc = mix(self.acc, mix(from.index() as u64, *msg));
        }
        for c in 0..io.channels() {
            match io.prev_slot_on(ChannelId(c)) {
                SlotOutcome::Idle => {}
                SlotOutcome::Success { from, msg } => {
                    self.acc = mix(self.acc, mix(from.index() as u64, *msg));
                }
                SlotOutcome::Collision => self.acc = mix(self.acc, 0xc011),
                SlotOutcome::Erased => self.acc = mix(self.acc, 0xe5a5),
            }
        }
        let round = io.round();
        if round >= Self::HORIZON {
            self.done = true;
            return;
        }
        let neighbors: Vec<NodeId> = io.neighbors().into_iter().map(|(v, _)| v).collect();
        if !neighbors.is_empty() {
            // Two unicasts per round keeps multiple same-round messages per
            // (sender, receiver) pair in play — the drop coin must treat
            // them identically on both substrates.
            for shot in 0..2u64 {
                let pick = mix(self.acc, mix(round, shot)) as usize % neighbors.len();
                io.send(neighbors[pick], mix(self.acc, shot));
            }
        }
        let k = io.channels() as u64;
        if mix(self.acc, round).is_multiple_of(3) {
            let chan = ChannelId((mix(round, self.id.index() as u64) % k) as u16);
            io.write_channel_on(chan, self.acc);
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn on_recover(&mut self) {
        self.recoveries += 1;
        self.acc = mix(self.acc, 0xb007);
    }
}

// ---------------------------------------------------------------------------
// HeavyRound: every sixth node — all of them on host 0 whatever the host
// count under test, 6 being a multiple of 1, 2 and 3 — broadcasts to its
// neighbours, keys a pseudo-random channel with a large frame, and writes a
// lane word, all in the same round.  Everybody folds everything it hears.
//
// The sizes are the point.  A `Slot` frame is 26 bytes of framing plus the
// payload, so `SLOT_PAYLOAD` makes it exactly 4 000 bytes and 15 of them
// fill a destination batch to the backend's 60 000-byte flush threshold; a
// 270-ring has 45 talkers, so host 0 flushes every destination three times
// mid-round before the lane, p2p and barrier frames leave in a fourth
// datagram.  That is ~190 KB per receiver per round, which has to fit the
// kernel's default 208 KiB UDP receive buffer because `WireNet` transmits a
// whole round before it polls — hence only the talkers talk.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct HeavyRound {
    id: NodeId,
    acc: u64,
    rounds_left: u32,
}

impl HeavyRound {
    const TALKER_STRIDE: usize = 6;
    const NODES: usize = 45 * Self::TALKER_STRIDE;
    const SLOT_PAYLOAD: usize = 4_000 - 26;
    const ROUNDS: u32 = 3;

    fn new(id: NodeId) -> Self {
        HeavyRound {
            id,
            acc: mix(0x4ea7, id.index() as u64),
            rounds_left: Self::ROUNDS,
        }
    }

    fn frame(len: usize, seed: u64) -> Vec<u8> {
        (0..len as u64).map(|i| mix(seed, i) as u8).collect()
    }

    /// Cheap fold of a heard frame; the `Traced` wrapper is what digests
    /// every byte.
    fn hear(&mut self, from: NodeId, msg: &[u8]) {
        let sample = u64::from(msg[0]) << 8 | u64::from(msg[msg.len() - 1]);
        self.acc = mix(
            self.acc,
            mix(from.index() as u64, sample ^ msg.len() as u64),
        );
    }
}

impl Protocol for HeavyRound {
    type Msg = Vec<u8>;

    fn step(&mut self, io: &mut RoundIo<'_, Vec<u8>>) {
        for (from, msg) in io.inbox() {
            self.hear(from, msg);
        }
        for c in 0..io.channels() {
            match io.prev_slot_on(ChannelId(c)) {
                SlotOutcome::Idle => {}
                SlotOutcome::Success { from, msg } => self.hear(from, msg),
                SlotOutcome::Collision => self.acc = mix(self.acc, 0xc011),
                SlotOutcome::Erased => self.acc = mix(self.acc, 0xe5a5),
            }
            match io.prev_lanes_on(ChannelId(c)) {
                LaneOutcome::Idle => {}
                LaneOutcome::Word(w) => self.acc = mix(self.acc, w),
                LaneOutcome::Erased => self.acc = mix(self.acc, 0x1a5e),
            }
        }
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        if !self.id.index().is_multiple_of(Self::TALKER_STRIDE) {
            return;
        }
        let round = io.round();
        let talker = (self.id.index() / Self::TALKER_STRIDE) as u64;
        let chan = ChannelId((mix(talker, round) % u64::from(io.channels())) as u16);
        io.send_all(Self::frame(48, self.acc));
        io.write_channel_on(chan, Self::frame(Self::SLOT_PAYLOAD, mix(self.acc, 1)));
        io.write_lanes_on(chan, mix(self.acc, round));
    }

    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

// ---------------------------------------------------------------------------
// The matrix.
// ---------------------------------------------------------------------------

#[test]
fn sharded_sum_conforms_on_wire_k1_and_k4() {
    for k in [1u16, 4] {
        for (name, g) in wire_topologies(17) {
            let n = g.node_count();
            for hosts in [2u16, 3] {
                assert_wire_conformant(
                    &format!("wire/sharded_sum_k{k}/{name}/h{hosts}"),
                    &g,
                    &ChannelShardedSum::channel_set(n, k),
                    None,
                    hosts,
                    |v: NodeId| ChannelShardedSum::new(v, n, k, mix(0x5ade, v.index() as u64)),
                    10_000,
                );
            }
        }
    }
}

#[test]
fn single_host_wire_still_conforms() {
    let g = generators::ring(32);
    let n = g.node_count();
    assert_wire_conformant(
        "wire/sharded_sum_k4/ring/h1",
        &g,
        &ChannelShardedSum::channel_set(n, 4),
        None,
        1,
        |v: NodeId| ChannelShardedSum::new(v, n, 4, mix(0x1057, v.index() as u64)),
        10_000,
    );
}

#[test]
fn chaos_gossip_conforms_under_seeded_full_churn() {
    // Drops, erasures, crashes, and recoveries, all drawn from one seeded
    // plan; the wire maps drops onto frames that are never transmitted and
    // must still reproduce the engine's cost account to the bit.
    let plan = FaultPlan::from_rates(0x5eed_0002, 0.15, 0.10, 0.04, 0.30);
    for (name, g) in wire_topologies(23).into_iter().take(2) {
        assert_wire_conformant(
            &format!("wire/chaos_gossip/full_churn/{name}"),
            &g,
            &ChannelSet::uniform(3),
            Some(&plan),
            2,
            ChaosGossip::new,
            10_000,
        );
    }
}

#[test]
fn sharded_sum_conforms_under_seeded_erasures() {
    let plan = FaultPlan::from_rates(0xabcd_0001, 0.25, 0.0, 0.0, 0.0);
    for (name, g) in wire_topologies(31).into_iter().take(2) {
        let n = g.node_count();
        assert_wire_conformant(
            &format!("wire/sharded_sum_k4/erase/{name}"),
            &g,
            &ChannelShardedSum::channel_set(n, 4),
            Some(&plan),
            2,
            |v: NodeId| ChannelShardedSum::new(v, n, 4, mix(0xe5a5, v.index() as u64)),
            10_000,
        );
    }
}

#[test]
fn heavy_rounds_conform_through_the_mid_round_flush() {
    let g = generators::ring(HeavyRound::NODES);
    let channels = ChannelSet::uniform(64);
    let plan = FaultPlan::from_rates(0x4ea7_0003, 0.25, 0.10, 0.0, 0.0);
    for hosts in 1..=3u16 {
        for (name, plan) in [("plain", None), ("drop_erase", Some(&plan))] {
            assert_wire_conformant(
                &format!("wire/heavy_round/{name}/h{hosts}"),
                &g,
                &channels,
                plan,
                hosts,
                HeavyRound::new,
                100,
            );
        }
    }

    // The arithmetic above, observed: each heavy round puts three full
    // batches of slot frames on the wire towards every host.
    let mut net = WireNet::from_builder(
        &EngineBuilder::new(&g).channels(channels),
        2,
        HeavyRound::new,
    );
    assert!(net.run(100).is_completed());
    let flushed = u64::from(HeavyRound::ROUNDS) * 2 * 3 * 60_000;
    assert!(
        net.bytes_sent() >= flushed,
        "{} bytes sent, expected at least {flushed}",
        net.bytes_sent()
    );
}

#[test]
fn wire_sum_is_correct_and_costs_are_global() {
    // Beyond trace parity: the computed sums are right on every node, and
    // the byte counter actually moved.
    let g = generators::ring(40);
    let n = g.node_count();
    let k = 4usize;
    // Each node computes its shard's sum: the shard of v is every node
    // congruent to v modulo K (they share a channel).
    let shard_sum = |v: usize| {
        (0..n)
            .filter(|u| u % k == v % k)
            .fold(0u64, |a, u| a.wrapping_add(mix(0xfea7, u as u64)))
    };
    let mut net = WireNet::from_builder(
        &EngineBuilder::new(&g).channels(ChannelShardedSum::channel_set(n, k as u16)),
        2,
        |v: NodeId| ChannelShardedSum::new(v, n, k as u16, mix(0xfea7, v.index() as u64)),
    );
    let out = net.run(10_000);
    assert!(out.is_completed());
    assert!(net.bytes_sent() > 0);
    assert!(net.cost().rounds > 0);
    for v in g.nodes() {
        assert_eq!(
            net.node(v).sum(),
            shard_sum(v.index()),
            "node {v:?} disagrees on its shard sum"
        );
    }
}

/// The determinism contract *below* quiescence, on all four substrates:
/// from fresh every engine reports round 0 and a zero account, each
/// `step_round()` executes exactly one round, `run(0)` runs nothing, and
/// `run(2)` stops after two rounds with `RoundLimit` — equal `round()` and
/// equal node states after every call.  (Costs are compared at quiescence
/// only, by the suites above: mid-run the lockstep account lags one
/// boundary.)
#[test]
fn equal_call_sequences_agree_mid_run_on_all_four_substrates() {
    fn probe<E: EngineControl<ChaosGossip>>(mut stepped: E, mut ran: E, n: usize) -> Vec<String> {
        let snap = |tag: &str, e: &E| {
            let states: Vec<String> = (0..n).map(|v| format!("{:?}", e.node(NodeId(v)))).collect();
            format!("{tag}: round {} {states:?}", e.round())
        };
        assert_eq!(stepped.cost(), CostAccount::default(), "fresh account");
        let mut log = vec![snap("fresh", &stepped)];
        for _ in 0..3 {
            stepped.step_round();
            log.push(snap("step_round", &stepped));
        }
        for limit in [0, 2] {
            let out = ran.run(limit);
            assert!(!out.is_completed(), "run({limit}) must end in RoundLimit");
            log.push(snap(&format!("run({limit}) -> {out:?}"), &ran));
        }
        log
    }
    let g = generators::ring(12);
    let n = g.node_count();
    let b = EngineBuilder::new(&g).channels(ChannelSet::uniform(2));
    let init = ChaosGossip::new;
    let flat = probe(b.build_flat(init), b.build_flat(init), n);
    assert_eq!(flat.len(), 6);
    assert!(flat[0].starts_with("fresh: round 0 ") && flat[3].starts_with("step_round: round 3 "));
    assert!(flat[4].starts_with("run(0) -> RoundLimit { rounds: 0 }: round 0 "));
    assert!(flat[5].starts_with("run(2) -> RoundLimit { rounds: 2 }: round 2 "));
    assert_eq!(
        flat[2],
        flat[5].replace("run(2) -> RoundLimit { rounds: 2 }", "step_round")
    );
    assert_eq!(
        flat,
        probe(b.build_reference(init), b.build_reference(init), n),
        "reference"
    );
    assert_eq!(
        flat,
        probe(b.build_lockstep(init), b.build_lockstep(init), n),
        "lockstep"
    );
    let wire = || WireNet::from_builder(&b, 2, init);
    assert_eq!(flat, probe(wire(), wire(), n), "wire");
}
