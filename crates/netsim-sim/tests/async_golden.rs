//! Golden pins of the asynchronous engine's determinism tuple.
//!
//! Run-vs-rerun equality cannot tell a permuted delay draw from the real
//! one, so these tests compare against **constants**: the arrival tape of a
//! genuinely asynchronous run (`slot_ticks = 2`, `max_delay_ticks = 3`,
//! seeded drops and erasures), the same-tick delivery tie-break, and the
//! one-writer-per-slot fold of a node that writes from two callbacks.  The
//! order in which one callback — and one pass of callbacks — stages its
//! sends is part of that tuple: it fixes the delay RNG stream and the event
//! sequence numbers.

use netsim_graph::{generators, topologies, NodeId};
use netsim_sim::{
    AsyncConfig, AsyncCtx, AsyncEngine, AsyncProtocol, ChannelId, ChannelSet, CostAccount,
    FaultPlan, LaneOutcome, SlotOutcome,
};
use std::fmt::Write;

/// `origin << 24 | seq << 8 | kind << 4 | budget`: every payload of a run is
/// distinct and names the call that produced it.
fn payload(origin: NodeId, seq: u64, kind: u64, budget: u64) -> u64 {
    (origin.index() as u64) << 24 | seq << 8 | kind << 4 | budget
}

/// One arrival: `(tick, from, payload)`.
type Arrival = (u64, usize, u64);

/// FNV-1a over a tape of arrivals.
fn digest(tapes: &[Vec<Arrival>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (v, tape) in tapes.iter().enumerate() {
        eat(v as u64);
        eat(tape.len() as u64);
        for &(tick, from, msg) in tape {
            eat(tick);
            eat(from as u64);
            eat(msg);
        }
    }
    h
}

/// Mixes both media in **one callback**: `send`, `send_all`, `send`, a
/// channel write and a lane write, from the start, message and boundary
/// callbacks alike.
struct Mixed {
    id: NodeId,
    seq: u64,
    boundaries: u64,
    arrivals: Vec<Arrival>,
    /// One line per boundary: every channel's slot and lane outcome.
    heard: String,
}

impl Mixed {
    fn new(id: NodeId) -> Self {
        Mixed {
            id,
            seq: 0,
            boundaries: 0,
            arrivals: Vec::new(),
            heard: String::new(),
        }
    }

    fn burst(&mut self, budget: u64, ctx: &mut AsyncCtx<'_, u64>) {
        self.seq += 1;
        let (id, seq, nb) = (self.id, self.seq, ctx.neighbors());
        ctx.send(nb.target(0), payload(id, seq, 0, budget));
        ctx.send_all(payload(id, seq, 1, 0));
        ctx.send(nb.target(nb.len() - 1), payload(id, seq, 2, 0));
        let chan = ChannelId(((id.index() as u64 + seq) % 2) as u16);
        ctx.write_channel_on(chan, payload(id, seq, 3, 0));
        ctx.write_lanes_on(chan, 1 << (id.index() as u64 + 12 * (seq % 4)));
    }
}

impl AsyncProtocol for Mixed {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut AsyncCtx<'_, u64>) {
        if self.id.index().is_multiple_of(5) {
            self.burst(2, ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: &u64, ctx: &mut AsyncCtx<'_, u64>) {
        self.arrivals.push((ctx.tick(), from.index(), *msg));
        // Only a burst's first unicast carries a budget: one burst begets
        // at most one more.
        let budget = msg & 0xf;
        if budget > 0 {
            self.burst(budget - 1, ctx);
        }
    }

    fn on_boundary(
        &mut self,
        slots: &[SlotOutcome<u64>],
        lanes: &[LaneOutcome],
        ctx: &mut AsyncCtx<'_, u64>,
    ) {
        self.boundaries += 1;
        if self.id == NodeId(0) {
            write!(self.heard, "t{}", ctx.tick()).unwrap();
            for (slot, lane) in slots.iter().zip(lanes) {
                match slot {
                    SlotOutcome::Idle => self.heard.push_str(" idle"),
                    SlotOutcome::Success { from, msg } => {
                        write!(self.heard, " ok({},{msg:#x})", from.index()).unwrap()
                    }
                    SlotOutcome::Collision => self.heard.push_str(" coll"),
                    SlotOutcome::Erased => self.heard.push_str(" erased"),
                }
                match lane {
                    LaneOutcome::Idle => self.heard.push_str("/idle"),
                    LaneOutcome::Word(w) => write!(self.heard, "/{w:#x}").unwrap(),
                    LaneOutcome::Erased => self.heard.push_str("/erased"),
                }
            }
            self.heard.push('\n');
        }
        // One node per boundary opens a fresh burst for the first few slots,
        // and half the network twice over at the third: that pass — no delivery
        // retires a payload in it — is the slab's high-water mark, which so
        // pins how many payloads a burst interns and nothing about the
        // order a delivery pass frees and reuses slots in.
        let (id, b) = (self.id.index() as u64, self.boundaries);
        if b <= 6 && (id + b).is_multiple_of(12) {
            self.burst(1, ctx);
        }
        if b == 3 && id.is_multiple_of(2) {
            self.burst(0, ctx);
            self.burst(0, ctx);
        }
    }

    fn is_done(&self) -> bool {
        self.boundaries >= 8
    }
}

/// (a) A genuinely asynchronous run against constants recorded while the
/// engine still folded every callback's outputs on its own — the pass-wide
/// fold must reproduce them bit for bit.
#[test]
fn asynchronous_run_matches_recorded_tape() {
    let g = topologies::degree_bounded_expander(12, 4, 7);
    let cfg = AsyncConfig {
        slot_ticks: 2,
        max_delay_ticks: 3,
        seed: 24,
    };
    let mut eng = AsyncEngine::with_channels(&g, cfg, ChannelSet::uniform(2), Mixed::new);
    eng.set_fault_plan(FaultPlan::from_rates(9, 0.3, 0.15, 0.0, 0.0));
    assert!(eng.run(200), "run reaches quiescence");

    let tapes: Vec<Vec<Arrival>> = eng.nodes().iter().map(|p| p.arrivals.clone()).collect();
    let deliveries: usize = tapes.iter().map(Vec::len).sum();
    assert_eq!(
        (eng.tick(), deliveries, digest(&tapes)),
        GOLDEN_RUN,
        "(tick, deliveries, tape digest)"
    );
    assert_eq!(tapes[3], GOLDEN_TAPE_OF_NODE_3, "node 3's arrival tape");
    assert_eq!(eng.node(NodeId(0)).heard, GOLDEN_BOUNDARIES);
    assert_eq!(*eng.cost(), GOLDEN_COST);
    assert_eq!(eng.payload_slab_capacity(), GOLDEN_SLAB_CAPACITY);
}

const GOLDEN_RUN: (u64, usize, u64) = (16, 159, 7805191715279872760);
const GOLDEN_TAPE_OF_NODE_3: &[Arrival] = &[
    (4, 2, 0x2000120),
    (4, 2, 0x2000210),
    (4, 2, 0x2000220),
    (5, 11, 0xb000110),
    (5, 11, 0xb000210),
    (5, 2, 0x2000110),
    (7, 2, 0x2000310),
    (7, 2, 0x2000320),
    (8, 2, 0x2000420),
    (9, 2, 0x2000410),
    (9, 9, 0x9000110),
    (12, 7, 0x7000110),
    (13, 7, 0x7000101),
    (16, 11, 0xb000310),
];
const GOLDEN_BOUNDARIES: &str = "\
t2 coll/0x820000 coll/0x441000
t4 coll/0x4002000 coll/0x800004000
t6 coll/0x440000000 ok(5,0x5000230)/0x20000000
t8 coll/0x111200444 coll/0x445000110000
t10 idle/idle coll/0x110000000000
t12 ok(7,0x7000130)/0x80000 idle/idle
t14 erased/erased ok(6,0x6000530)/0x40000
t16 idle/idle idle/idle
";
const GOLDEN_COST: CostAccount = CostAccount {
    rounds: 8,
    p2p_messages: 178,
    channel_writes: 31,
    slots_idle: 4,
    slots_success: 3,
    slots_collision: 8,
    dropped_messages: 19,
    erased_slots: 1,
    crashed_rounds: 0,
    lane_writes: 31,
    lanes_busy: 11,
    lanes_erased: 1,
    corrupted_payloads: 0,
};
const GOLDEN_SLAB_CAPACITY: usize = 39;

/// Records arrivals; nodes 0 and 2 interleave unicasts and a broadcast at
/// start.
struct Interleave {
    id: NodeId,
    arrivals: Vec<Arrival>,
}

impl AsyncProtocol for Interleave {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut AsyncCtx<'_, u64>) {
        if self.id == NodeId(0) || self.id == NodeId(2) {
            let id = self.id;
            ctx.send(NodeId(1), payload(id, 1, 0, 0));
            ctx.send_all(payload(id, 2, 1, 0));
            ctx.send(NodeId(1), payload(id, 3, 0, 0));
            ctx.send(NodeId(3), payload(id, 4, 0, 0));
            ctx.send_all(payload(id, 5, 1, 0));
        }
    }

    fn on_message(&mut self, from: NodeId, msg: &u64, ctx: &mut AsyncCtx<'_, u64>) {
        self.arrivals.push((ctx.tick(), from.index(), *msg));
    }

    fn is_done(&self) -> bool {
        true
    }
}

/// (b) Deliveries due at the same tick arrive in **issue order**: callbacks
/// in dispatch order, and within one callback the exact interleaving of
/// `send` and `send_all` calls (a broadcast's copies are not batched ahead
/// of, or behind, the unicasts around it).
#[test]
fn same_tick_deliveries_arrive_in_issue_order() {
    let g = generators::complete(4);
    let cfg = AsyncConfig {
        slot_ticks: 1,
        max_delay_ticks: 1,
        seed: 5,
    };
    let mut eng = AsyncEngine::new(&g, cfg, |id| Interleave {
        id,
        arrivals: Vec::new(),
    });
    assert!(eng.run(10));
    let at = |v: usize| eng.node(NodeId(v)).arrivals.clone();
    let p = |origin: usize, seq: u64, kind: u64| payload(NodeId(origin), seq, kind, 0);
    assert_eq!(
        at(1),
        [
            (1, 0, p(0, 1, 0)),
            (1, 0, p(0, 2, 1)),
            (1, 0, p(0, 3, 0)),
            (1, 0, p(0, 5, 1)),
            (1, 2, p(2, 1, 0)),
            (1, 2, p(2, 2, 1)),
            (1, 2, p(2, 3, 0)),
            (1, 2, p(2, 5, 1)),
        ]
    );
    assert_eq!(
        at(3),
        [
            (1, 0, p(0, 2, 1)),
            (1, 0, p(0, 4, 0)),
            (1, 0, p(0, 5, 1)),
            (1, 2, p(2, 2, 1)),
            (1, 2, p(2, 4, 0)),
            (1, 2, p(2, 5, 1)),
        ]
    );
    assert_eq!(at(0), [(1, 2, p(2, 2, 1)), (1, 2, p(2, 5, 1))]);
    assert_eq!(at(2), [(1, 0, p(0, 2, 1)), (1, 0, p(0, 5, 1))]);
    assert_eq!(eng.cost().p2p_messages, 2 * (3 + 2 * 3));
    // One slab slot per send call, however many copies a broadcast fans out.
    assert_eq!(eng.payload_slab_capacity(), 2 * 5);
}

/// Node 1 writes channel 0 and a lane bit from `on_start` / `on_boundary`
/// and **again** from `on_message` within the same slot; node 0 feeds it one
/// message per slot and records what everyone hears.
struct TwoCallbacks {
    id: NodeId,
    boundaries: u64,
    heard: Vec<(SlotOutcome<u64>, LaneOutcome)>,
}

impl TwoCallbacks {
    fn act(&mut self, ctx: &mut AsyncCtx<'_, u64>) {
        if self.boundaries >= 3 {
            return;
        }
        match self.id.index() {
            0 => ctx.send(NodeId(1), self.boundaries),
            _ => {
                // Replaced (with a write on the other channel in between)
                // before the callback even returns, then again by the
                // slot's `on_message`.
                ctx.write_channel_on(ChannelId(0), 0xdead);
                ctx.write_channel_on(ChannelId(1), 0x50 + self.boundaries);
                ctx.write_channel_on(ChannelId(0), 0xb0 + self.boundaries);
                ctx.write_lanes_on(ChannelId(0), 0b0001);
                ctx.write_lanes_on(ChannelId(0), 0b0010);
            }
        }
    }
}

impl AsyncProtocol for TwoCallbacks {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut AsyncCtx<'_, u64>) {
        self.act(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: &u64, ctx: &mut AsyncCtx<'_, u64>) {
        ctx.write_channel_on(ChannelId(0), 0xa0 + msg);
        ctx.write_lanes_on(ChannelId(0), 0b0100 << msg);
    }

    fn on_boundary(
        &mut self,
        slots: &[SlotOutcome<u64>],
        lanes: &[LaneOutcome],
        ctx: &mut AsyncCtx<'_, u64>,
    ) {
        self.boundaries += 1;
        if self.id == NodeId(0) {
            self.heard.push((slots[0].clone(), lanes[0]));
            self.heard.push((slots[1].clone(), lanes[1]));
        }
        self.act(ctx);
    }

    fn is_done(&self) -> bool {
        self.boundaries >= 4
    }
}

/// (c) One transmitter per node and channel: writes from two callbacks of
/// one slot count as **one** writer carrying the last payload (a `Success`,
/// not a collision), and the lane words of both callbacks OR together.
#[test]
fn writes_from_two_callbacks_of_a_slot_fold_into_one_writer() {
    let g = generators::path(2);
    let cfg = AsyncConfig {
        slot_ticks: 2,
        max_delay_ticks: 1,
        seed: 0,
    };
    let mut eng = AsyncEngine::with_channels(&g, cfg, ChannelSet::uniform(2), |id| TwoCallbacks {
        id,
        boundaries: 0,
        heard: Vec::new(),
    });
    assert!(eng.run(100));
    let ok = |msg: u64| SlotOutcome::Success {
        from: NodeId(1),
        msg,
    };
    assert_eq!(
        eng.node(NodeId(0)).heard,
        [
            // Slot s: staged by `on_start` / `on_boundary` at tick 2s, then
            // overwritten by the `on_message` of tick 2s + 1.
            (ok(0xa0), LaneOutcome::Word(0b0111)),
            (ok(0x50), LaneOutcome::Idle),
            (ok(0xa1), LaneOutcome::Word(0b1011)),
            (ok(0x51), LaneOutcome::Idle),
            (ok(0xa2), LaneOutcome::Word(0b1_0011)),
            (ok(0x52), LaneOutcome::Idle),
            (SlotOutcome::Idle, LaneOutcome::Idle),
            (SlotOutcome::Idle, LaneOutcome::Idle),
        ]
    );
    let cost = eng.cost();
    assert_eq!(
        (
            cost.channel_writes,
            cost.slots_success,
            cost.slots_collision
        ),
        (6, 6, 0),
        "one writer per (node, channel, slot)"
    );
    assert_eq!((cost.lane_writes, cost.lanes_busy), (3, 3));
}
