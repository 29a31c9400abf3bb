//! Verifies the engines' zero-allocation steady-state guarantee with
//! `testkit`'s counting global allocator.
//!
//! The whole check lives in a single `#[test]` (per-thread counters keep the
//! libtest harness threads out of the measurement).  Phases:
//!
//! 1. the flat [`SyncEngine`] performs **zero** heap allocations per round
//!    once buffer capacities have reached their high-water mark;
//! 2. the [`ReferenceEngine`] (the pre-optimisation implementation) keeps
//!    allocating every round — by at least 5 allocations per round per the
//!    issue's target (in practice it is O(n) per round);
//! 3. the [`AsyncEngine`] also runs allocation-free in steady state;
//! 4. **heap payloads**: a `Vec<u8>`-frame protocol — non-`Copy`, one heap
//!    buffer per message — also runs at 0 allocations/round on the
//!    [`SyncEngine`], through the payload arena's intern + recycle loop;
//! 5. the same for the [`AsyncEngine`]'s refcounted payload slab.
//!
//! A second test pins the lockstep substrate (`EngineBuilder::build_lockstep`):
//! construction allocations independent of `n`, 0 allocations per
//! steady-state round for `u64` and `Vec<u8>`-frame payloads, and **zero**
//! clones of slot winners — a boundary is one borrowed broadcast, not a
//! private copy per node — and a whole build + run in a constant number of
//! allocations; a third pins that a replayed `send_all` is interned once.
//!
//! A separate test covers the arena-reuse property: over a 1 000-round run
//! the payload slab's capacity and high-water mark stay at one round's
//! traffic (handles freed by the expiry of round `r` are reissued in round
//! `r + 1`), and the reference engine stays on the clone path.
//!
//! A re-sharding attempt over a 2 048-member roster is pinned too: one
//! stream mirror per member to build, a constant number of allocations to
//! run to the verdict.

use netsim_graph::{generators, NodeId};
use netsim_sim::{
    protocols::{ChannelShardedSum, TreeBroadcast},
    reshard::{ReshardNode, ReshardSpec},
    AsyncConfig, AsyncCtx, AsyncEngine, AsyncProtocol, ChannelId, ChannelSet, EngineBuilder,
    EngineControl, Protocol, ReferenceEngine, RoundIo, SlotOutcome, SyncEngine,
};
use std::cell::Cell;
use testkit::allocs;

#[global_allocator]
static GLOBAL: testkit::CountingAllocator = testkit::CountingAllocator;

thread_local! {
    static FRAME_CLONES: Cell<u64> = const { Cell::new(0) };
}

/// A `Vec<u8>` frame that counts its clones on the current thread, so a
/// substrate that copies slot winners per listener is caught even when the
/// copies happen not to allocate.
#[derive(Default)]
struct CountedFrame(Vec<u8>);

impl Clone for CountedFrame {
    fn clone(&self) -> Self {
        FRAME_CLONES.with(|c| c.set(c.get() + 1));
        CountedFrame(self.0.clone())
    }
}

fn frame_clones() -> u64 {
    FRAME_CLONES.with(Cell::get)
}

/// Constant-traffic heartbeat: every node sends its running accumulator to
/// every neighbour each round for a fixed number of rounds.  The protocol
/// state is `Copy`, so all allocation observed during stepping belongs to the
/// engine.
#[derive(Clone, Copy)]
struct Heartbeat {
    acc: u64,
    rounds_left: u32,
}

impl Protocol for Heartbeat {
    type Msg = u64;
    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (_, &v) in io.inbox() {
            self.acc = self.acc.wrapping_add(v);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            io.send_all(self.acc | 1);
            if io.id() == NodeId(0) {
                io.write_channel(self.acc);
            }
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

/// Async counterpart: a token bounces between neighbours for a fixed number
/// of hops per node while node 0 writes the channel each slot.
struct AsyncHeartbeat {
    id: NodeId,
    hops_left: u32,
}

impl AsyncProtocol for AsyncHeartbeat {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut AsyncCtx<'_, u64>) {
        ctx.send_all(1);
    }
    fn on_message(&mut self, _from: NodeId, v: &u64, ctx: &mut AsyncCtx<'_, u64>) {
        if self.hops_left > 0 {
            self.hops_left -= 1;
            let next = ctx
                .neighbors()
                .target((*v as usize) % ctx.neighbors().len());
            ctx.send(next, v.wrapping_mul(31).wrapping_add(1));
        }
    }
    fn on_slot(&mut self, _o: &SlotOutcome<u64>, ctx: &mut AsyncCtx<'_, u64>) {
        if self.id == NodeId(0) && self.hops_left > 0 {
            ctx.write_channel(u64::from(self.hops_left));
        }
    }
    fn is_done(&self) -> bool {
        self.hops_left == 0
    }
}

/// Heap-payload heartbeat: every node broadcasts a 64-byte `Vec<u8>` frame
/// each round, rebuilt **in place** from a recycled arena buffer — the
/// pattern that makes non-`Copy` protocols allocation-free.
struct FrameHeartbeat {
    acc: u64,
    rounds_left: u32,
}

impl Protocol for FrameHeartbeat {
    type Msg = Vec<u8>;
    fn step(&mut self, io: &mut RoundIo<'_, Vec<u8>>) {
        for (_, frame) in io.inbox() {
            self.acc = self
                .acc
                .wrapping_add(frame.len() as u64)
                .wrapping_add(u64::from(frame.first().copied().unwrap_or(0)));
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            let mut frame = io.recycle_payload().unwrap_or_default();
            frame.clear();
            frame.resize(64, (self.acc & 0xff) as u8);
            io.send_all(frame);
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

/// Async heap-payload counterpart: a 64-byte frame bounces between
/// neighbours, each hop copied into a recycled slab buffer; node 0 keeps a
/// channel write alive with an **empty** `Vec` (capacity-free, so the slot
/// resolution's clone cannot allocate either).
struct AsyncFrameHeartbeat {
    id: NodeId,
    hops_left: u32,
}

impl AsyncProtocol for AsyncFrameHeartbeat {
    type Msg = Vec<u8>;
    fn on_start(&mut self, ctx: &mut AsyncCtx<'_, Vec<u8>>) {
        ctx.send_all(vec![1; 64]);
    }
    fn on_message(&mut self, _from: NodeId, frame: &Vec<u8>, ctx: &mut AsyncCtx<'_, Vec<u8>>) {
        if self.hops_left > 0 {
            self.hops_left -= 1;
            let next = ctx
                .neighbors()
                .target(frame.len().wrapping_add(usize::from(frame[0])) % ctx.neighbors().len());
            let mut fwd = ctx.recycle_payload().unwrap_or_default();
            fwd.clear();
            fwd.extend_from_slice(frame);
            fwd[0] = fwd[0].wrapping_mul(31).wrapping_add(1);
            ctx.send(next, fwd);
        }
    }
    fn on_slot(&mut self, _o: &SlotOutcome<Vec<u8>>, ctx: &mut AsyncCtx<'_, Vec<u8>>) {
        if self.id == NodeId(0) && self.hops_left > 0 {
            ctx.write_channel(Vec::new());
        }
    }
    fn is_done(&self) -> bool {
        self.hops_left == 0
    }
}

/// Channel-frame heartbeat over a **non-default** channel of a two-channel
/// set: the round-robin writer of the round rebuilds a 64-byte frame in a
/// recycled arena buffer and keys channel 1; every node folds the winning
/// frame it hears there.  The winner is delivered *by handle* out of the
/// delivery arena — resolving the slot clones nothing — and its buffer
/// expires into the graveyard for the next writer to recycle, so the whole
/// loop is allocation-free in steady state.
struct ChannelFrameHeartbeat {
    id: NodeId,
    n: usize,
    acc: u64,
    rounds_left: u32,
}

impl Protocol for ChannelFrameHeartbeat {
    type Msg = CountedFrame;
    fn step(&mut self, io: &mut RoundIo<'_, CountedFrame>) {
        assert!(
            io.prev_slot().is_idle(),
            "nothing ever writes the default channel"
        );
        if let SlotOutcome::Success { from, msg } = io.prev_slot_on(ChannelId(1)) {
            self.acc = self
                .acc
                .wrapping_add(from.index() as u64)
                .wrapping_add(u64::from(msg.0[0]))
                .wrapping_add(msg.0.len() as u64);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            if io.round() % self.n as u64 == self.id.index() as u64 {
                let mut frame = io.recycle_payload().unwrap_or_default();
                frame.0.clear();
                frame.0.resize(64, (self.acc & 0xff) as u8);
                io.write_channel_on(ChannelId(1), frame);
            }
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

/// Async counterpart: node 0 keys 64-byte frames on channel 1 of a
/// two-channel set every slot, rebuilt from the slab graveyard (which the
/// boundary resolution parks retired slot winners into).
struct AsyncChannelFrameHeartbeat {
    id: NodeId,
    slots_left: u32,
}

impl AsyncProtocol for AsyncChannelFrameHeartbeat {
    type Msg = Vec<u8>;
    fn on_start(&mut self, ctx: &mut AsyncCtx<'_, Vec<u8>>) {
        if self.id == NodeId(0) {
            let mut frame = vec![0; 64];
            frame[0] = 1;
            ctx.write_channel_on(ChannelId(1), frame);
        }
    }
    fn on_message(&mut self, _from: NodeId, _msg: &Vec<u8>, _ctx: &mut AsyncCtx<'_, Vec<u8>>) {}
    fn on_slot_on(
        &mut self,
        chan: ChannelId,
        outcome: &SlotOutcome<Vec<u8>>,
        ctx: &mut AsyncCtx<'_, Vec<u8>>,
    ) {
        if chan != ChannelId(1) {
            assert!(outcome.is_idle(), "only channel 1 is ever written");
            return;
        }
        if self.slots_left > 0 {
            self.slots_left -= 1;
            if self.id == NodeId(0) && self.slots_left > 0 {
                let mut frame = ctx.recycle_payload().unwrap_or_default();
                frame.clear();
                frame.resize(64, (self.slots_left & 0xff) as u8);
                ctx.write_channel_on(ChannelId(1), frame);
            }
        }
    }
    fn is_done(&self) -> bool {
        self.slots_left == 0
    }
}

#[test]
fn engines_meet_their_allocation_contracts() {
    let g = generators::Family::Grid.generate(400, 7);

    // Phase 1: flat engine — zero allocations per round in steady state.
    let mut engine = SyncEngine::new(&g, |_| Heartbeat {
        acc: 1,
        rounds_left: 64,
    });
    for _ in 0..8 {
        engine.step_round(); // reach the capacity high-water mark
    }
    let before = allocs();
    for _ in 0..40 {
        engine.step_round();
    }
    let flat_allocs = allocs() - before;
    assert_eq!(
        flat_allocs, 0,
        "SyncEngine::step_round allocated {flat_allocs} times over 40 steady-state rounds"
    );
    // The workload really did run: messages flowed every round.
    assert!(engine.cost().p2p_messages > 0);
    assert!(engine.in_flight() > 0);

    // Phase 1b: the radix-partitioned scatter (n ≥ 16384 with index-random
    // adjacency) is also allocation-free once the partition scratch has
    // reached its high-water mark.
    let big = netsim_graph::topologies::degree_bounded_expander(1 << 14, 4, 11);
    let mut radix_engine = SyncEngine::new(&big, |_| Heartbeat {
        acc: 1,
        rounds_left: 16,
    });
    for _ in 0..4 {
        radix_engine.step_round();
    }
    let before = allocs();
    for _ in 0..10 {
        radix_engine.step_round();
    }
    let radix_allocs = allocs() - before;
    assert_eq!(
        radix_allocs, 0,
        "radix-path step_round allocated {radix_allocs} times over 10 steady-state rounds"
    );
    assert!(radix_engine.in_flight() > 0);

    // Phase 2: the reference engine allocates every round.
    let mut reference = ReferenceEngine::new(&g, |_| Heartbeat {
        acc: 1,
        rounds_left: 64,
    });
    for _ in 0..8 {
        reference.step_round();
    }
    let before = allocs();
    for _ in 0..40 {
        reference.step_round();
    }
    let reference_allocs = allocs() - before;
    assert!(
        reference_allocs >= 5 * 40,
        "reference engine allocated only {reference_allocs} times over 40 rounds; \
         expected at least 5 per round"
    );

    // Phase 3: async engine — zero allocations per tick in steady state.
    let cfg = AsyncConfig {
        slot_ticks: 4,
        max_delay_ticks: 4,
        seed: 3,
    };
    let ring = generators::ring(64);
    let mut async_engine = AsyncEngine::new(&ring, cfg, |id| AsyncHeartbeat {
        id,
        hops_left: 10_000,
    });
    async_engine.run(2_000); // warm up: slab, heap, and scratch reach capacity
    let before = allocs();
    async_engine.run(6_000);
    let async_allocs = allocs() - before;
    assert_eq!(
        async_allocs, 0,
        "AsyncEngine allocated {async_allocs} times over 4000 steady-state ticks"
    );
    assert!(async_engine.cost().p2p_messages > 1000);

    // Phase 4: heap payloads on the flat engine — a Vec<u8>-frame protocol
    // runs at 0 allocations/round through the payload arena (intern once per
    // broadcast, recycle expired buffers back to senders).
    let mut frames = SyncEngine::new(&g, |_| FrameHeartbeat {
        acc: 1,
        rounds_left: 64,
    });
    for _ in 0..8 {
        frames.step_round(); // warm up: slab, graveyard, and frame capacities
    }
    let before = allocs();
    for _ in 0..40 {
        frames.step_round();
    }
    let frame_allocs = allocs() - before;
    assert_eq!(
        frame_allocs, 0,
        "SyncEngine allocated {frame_allocs} times over 40 steady-state Vec<u8>-payload rounds"
    );
    assert!(frames.in_flight() > 0);
    // Intern-on-broadcast: one payload per *node* per round in flight, not
    // one per delivery (the grid has ~2n more deliveries than broadcasts).
    assert_eq!(frames.payload_arena().live(), g.node_count());
    assert!(frames.in_flight() > 2 * g.node_count());

    // Phase 5: heap payloads on the async engine — the refcounted slab plus
    // graveyard recycling keep Vec<u8> forwarding allocation-free too.
    let mut async_frames = AsyncEngine::new(&ring, cfg, |id| AsyncFrameHeartbeat {
        id,
        hops_left: 10_000,
    });
    async_frames.run(2_000);
    let before = allocs();
    async_frames.run(6_000);
    let async_frame_allocs = allocs() - before;
    assert_eq!(
        async_frame_allocs, 0,
        "AsyncEngine allocated {async_frame_allocs} times over 4000 steady-state \
         Vec<u8>-payload ticks"
    );
    assert!(async_frames.cost().p2p_messages > 1000);

    // Phase 6: heap payloads over a NON-DEFAULT channel on the flat engine —
    // the slot winner is delivered by handle out of the delivery arena (no
    // `resolve_slot` clone), expires into the graveyard, and is recycled by
    // the next writer: 0 allocations/round.
    let small = generators::Family::Grid.generate(64, 7);
    let n = small.node_count();
    let mut chan_frames = EngineBuilder::new(&small)
        .channels(ChannelSet::uniform(2))
        .build_flat(|id| ChannelFrameHeartbeat {
            id,
            n,
            acc: 1,
            rounds_left: 64,
        });
    for _ in 0..8 {
        chan_frames.step_round();
    }
    let before = allocs();
    for _ in 0..40 {
        chan_frames.step_round();
    }
    let chan_frame_allocs = allocs() - before;
    assert_eq!(
        chan_frame_allocs, 0,
        "SyncEngine allocated {chan_frame_allocs} times over 40 steady-state \
         non-default-channel Vec<u8> rounds"
    );
    assert!(chan_frames.cost().slots_success >= 40);
    // Every node folded frames: the channel really carried traffic.
    assert!(chan_frames.nodes().iter().all(|p| p.acc > 1));

    // Phase 7: the same over the async engine — retired slot winners are
    // parked in the slab graveyard and recycled by the next write.
    let mut async_chan_frames =
        AsyncEngine::with_channels(&ring, cfg, ChannelSet::uniform(2), |id| {
            AsyncChannelFrameHeartbeat {
                id,
                slots_left: 2_000,
            }
        });
    async_chan_frames.run(500);
    let before = allocs();
    async_chan_frames.run(6_000);
    let async_chan_frame_allocs = allocs() - before;
    assert_eq!(
        async_chan_frame_allocs, 0,
        "AsyncEngine allocated {async_chan_frame_allocs} times over steady-state \
         non-default-channel Vec<u8> slots"
    );
    assert!(async_chan_frames.cost().slots_success > 100);
}

/// Allocations and winner clones of `rounds` lockstep rounds.
fn lockstep_rounds<P: Protocol>(eng: &mut impl EngineControl<P>, rounds: u32) -> (u64, u64) {
    let before = (allocs(), frame_clones());
    for _ in 0..rounds {
        eng.step_round();
    }
    (allocs() - before.0, frame_clones() - before.1)
}

/// The lockstep substrate keeps no per-node buffers: its adapters step over
/// the async engine's pooled boundary slices and one lent staging buffer.
#[test]
fn lockstep_substrate_is_pooled_and_clone_free() {
    // Construction plus the `on_start` round: O(1) allocations whatever n.
    let build_allocs = |n: usize| {
        let ring = generators::ring(n);
        let builder = EngineBuilder::new(&ring).channels(ChannelShardedSum::channel_set(n, 4));
        let before = allocs();
        let mut eng = builder.build_lockstep(|v| ChannelShardedSum::new(v, n, 4, 1));
        eng.step_round();
        allocs() - before
    };
    let small = build_allocs(256);
    assert_eq!(
        small,
        build_allocs(2048),
        "lockstep construction allocations grow with n"
    );
    assert!(small < 40, "lockstep construction made {small} allocations");

    // `u64` payloads: the sharded sum at 0 allocations per round.
    let n = 512;
    let ring = generators::ring(n);
    let mut sum = EngineBuilder::new(&ring)
        .channels(ChannelShardedSum::channel_set(n, 4))
        .build_lockstep(|v| ChannelShardedSum::new(v, n, 4, v.index() as u64));
    lockstep_rounds(&mut sum, 16);
    let (sum_allocs, _) = lockstep_rounds(&mut sum, 40);
    assert_eq!(
        sum_allocs, 0,
        "lockstep ChannelShardedSum allocated {sum_allocs} times over 40 steady-state rounds"
    );
    assert!(
        !sum.is_quiescent(),
        "the sum finished during the measurement"
    );
    assert!(sum.cost().slots_success >= 40);

    // `Vec<u8>` frames over a non-default channel: every node hears the
    // round's winner, nobody clones it, and its buffer comes back to the
    // next writer through the engine's graveyard.
    let grid = generators::Family::Grid.generate(64, 7);
    let n = grid.node_count();
    let mut frames = EngineBuilder::new(&grid)
        .channels(ChannelSet::uniform(2))
        .build_lockstep(|id| ChannelFrameHeartbeat {
            id,
            n,
            acc: 1,
            rounds_left: 64,
        });
    lockstep_rounds(&mut frames, 8);
    let (frame_allocs, winner_clones) = lockstep_rounds(&mut frames, 40);
    assert_eq!(
        frame_allocs, 0,
        "lockstep allocated {frame_allocs} times over 40 steady-state Vec<u8> channel rounds"
    );
    assert_eq!(
        winner_clones, 0,
        "lockstep cloned slot winners {winner_clones} times over 40 rounds"
    );
    assert!(frames.cost().slots_success >= 40);
    assert!(frames.nodes().iter().all(|p| p.inner().acc > 1));

    // The benchmark's shape (`chansum-lockstep`): building the substrate and
    // running the sum to quiescence allocates a small constant number of
    // times — every unfinished node requests a wakeup every round, and a
    // dense run drops those requests as they are staged instead of growing
    // a list of them to `n`.
    let run_allocs = |n: usize| {
        let ring = generators::ring(n);
        let before = allocs();
        let mut eng = EngineBuilder::new(&ring)
            .channels(ChannelShardedSum::channel_set(n, 4))
            .build_lockstep(|v| ChannelShardedSum::new(v, n, 4, v.index() as u64));
        assert!(eng.run(n as u64), "the sum finishes in n / 4 + 1 rounds");
        allocs() - before
    };
    let big = run_allocs(8192);
    assert!(big <= 18, "lockstep build + run made {big} allocations");
    assert_eq!(
        big,
        run_allocs(2048),
        "lockstep build + run allocations grow with n"
    );
}

/// The hub of a star broadcasts one frame per round, rebuilt in a recycled
/// buffer; the leaves only listen.
struct HubBroadcast {
    rounds_left: u32,
    heard: u64,
}

impl Protocol for HubBroadcast {
    type Msg = CountedFrame;
    fn step(&mut self, io: &mut RoundIo<'_, CountedFrame>) {
        self.heard += io.inbox().len() as u64;
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            if io.degree() > 1 {
                let mut frame = io.recycle_payload().unwrap_or_default();
                frame.0.clear();
                frame.0.resize(64, self.rounds_left as u8);
                io.send_all(frame);
            }
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

/// A `send_all` replayed through the lockstep adapter is what
/// [`AsyncCtx::send_all`] documents — interned **once**, no clones however
/// large the degree: the only copies are the adapter's one inbox clone per
/// *delivery*, and the slab holds one slot per broadcast in flight, not one
/// per copy.
#[test]
fn lockstep_broadcast_interns_once_and_clones_per_delivery_only() {
    let (degree, rounds) = (8, 20);
    let star = generators::star(degree + 1);
    let mut eng = EngineBuilder::new(&star).build_lockstep(|_| HubBroadcast {
        rounds_left: rounds,
        heard: 0,
    });
    let before = frame_clones();
    assert!(eng.run(100));
    let deliveries = u64::from(rounds) * degree as u64;
    assert_eq!(eng.cost().p2p_messages, deliveries);
    let heard: u64 = eng.nodes().iter().map(|p| p.inner().heard).sum();
    assert_eq!(heard, deliveries);
    assert_eq!(
        frame_clones() - before,
        deliveries,
        "one clone per delivery, none per send"
    );
    // Under the lockstep configuration one broadcast is in flight at a time.
    assert_eq!(eng.payload_slab_capacity(), 1);
}

/// `TreeBroadcast` steady state: once a node has forwarded, its step must
/// not touch the heap — the seed cloned the (possibly heap-carrying) value
/// *and* the whole children list every round even after `forwarded` was set.
#[test]
fn tree_broadcast_steps_allocation_free_after_forwarding() {
    // Path rooted at 0: parent i forwards to child i + 1.
    let g = generators::path(64);
    let n = g.node_count();
    let mut eng = SyncEngine::new(&g, |id| {
        let children = if id.index() + 1 < n {
            vec![NodeId(id.index() + 1)]
        } else {
            vec![]
        };
        let value = if id.index() == 0 {
            Some(vec![7u8; 256])
        } else {
            None
        };
        TreeBroadcast::new(children, value)
    });
    let out = eng.run(1000);
    assert!(out.is_completed());
    for v in g.nodes() {
        assert_eq!(eng.node(v).value(), Some(&vec![7u8; 256]));
    }
    // Broadcast complete: every further round re-steps done nodes.  With the
    // borrow-based step this touches no heap at all.
    let before = allocs();
    for _ in 0..20 {
        eng.step_round();
    }
    let post_allocs = allocs() - before;
    assert_eq!(
        post_allocs, 0,
        "TreeBroadcast allocated {post_allocs} times over 20 post-broadcast rounds"
    );
}

/// Arena-reuse property: on a 1 000-round constant-traffic heap-payload run,
/// the payload slab stops growing after warm-up — the handles freed by the
/// expiry of round `r` are reissued in round `r + 1` (same slot indices, so
/// capacity == high-water mark == one round's broadcasts per arena).
#[test]
fn payload_slab_high_water_is_bounded_over_1k_rounds() {
    let g = generators::Family::Grid.generate(100, 3);
    let n = g.node_count();
    let mut engine = SyncEngine::new(&g, |_| FrameHeartbeat {
        acc: 1,
        rounds_left: 1_100,
    });
    for _ in 0..8 {
        engine.step_round();
    }
    let warmed = engine.payload_slab_capacity();
    // One broadcast per node per round, double-buffered: the whole footprint
    // is two epochs' worth of slots.
    assert_eq!(warmed, 2 * n, "slab footprint should be two epochs");
    assert_eq!(engine.payload_arena().high_water(), n);
    for round in 0..1_000 {
        engine.step_round();
        assert_eq!(
            engine.payload_slab_capacity(),
            warmed,
            "payload slab grew at round {round}: handles were not reissued"
        );
        assert_eq!(engine.payload_arena().live(), n);
    }
    assert_eq!(engine.payload_arena().high_water(), n);
    // The graveyard is bounded too: at most one epoch parked for recycling.
    assert!(engine.payload_arena().recyclable() <= n);
}

/// Sparse token relay for the active-set contract: every node is done from
/// the start; tokens carry a hop budget in their high 32 bits and bounce
/// between neighbours until it runs out.  Only token receivers ever act, so
/// the frontier is O(live tokens) while the graph holds a million idle
/// nodes.
#[cfg(not(debug_assertions))]
struct SparseToken {
    id: NodeId,
}

#[cfg(not(debug_assertions))]
const TOKEN_SEEDS: usize = 64;

#[cfg(not(debug_assertions))]
impl Protocol for SparseToken {
    type Msg = u64;
    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (_, &t) in io.inbox() {
            let hops = t >> 32;
            if hops > 0 && io.degree() > 0 {
                let x = (t as u32).wrapping_mul(0x9e37_79b9).wrapping_add(1);
                let next = io.neighbors().target(x as usize % io.degree());
                io.send(next, (hops - 1) << 32 | u64::from(x));
            }
        }
        if io.round() == 0 && self.id.index() < TOKEN_SEEDS {
            io.send(
                io.neighbors().target(0),
                48u64 << 32 | self.id.index() as u64,
            );
        }
    }
    fn is_done(&self) -> bool {
        true
    }
}

/// Active-set stepping contract on a **million-node** graph (release builds
/// only — the graph build and the all-active round 0 are debug-prohibitive):
/// once warm, a round with `F` frontier members steps exactly those members
/// with **zero** heap allocations, and a fully idle round steps nobody —
/// per-round cost is O(frontier), not O(n).
#[cfg(not(debug_assertions))]
#[test]
fn sparse_million_node_idle_rounds_are_allocation_free_and_o_frontier() {
    let n = 1usize << 20;
    let g = netsim_graph::topologies::degree_bounded_expander(n, 4, 11);
    let mut eng = EngineBuilder::new(&g)
        .sparse(true)
        .build_flat(|id| SparseToken { id });
    // Warm up: round 0 is the all-active boot round; a few more rounds take
    // every pooled buffer (frontier member list, touched list, staging,
    // arena) to its constant-traffic high-water mark.
    for _ in 0..8 {
        eng.step_round();
    }
    let warm_total = eng.total_stepped();

    // Phase 1: active sparse rounds — tokens still alive.  Zero allocations,
    // and each round touches only the O(TOKEN_SEEDS) token receivers.
    let before = allocs();
    for _ in 0..20 {
        eng.step_round();
        assert!(
            eng.stepped_last_round() <= TOKEN_SEEDS as u64,
            "sparse round stepped {} nodes for {} live tokens",
            eng.stepped_last_round(),
            TOKEN_SEEDS
        );
    }
    let active_allocs = allocs() - before;
    assert_eq!(
        active_allocs, 0,
        "sparse active rounds allocated {active_allocs} times over 20 rounds"
    );
    // The 20 rounds together stepped O(frontier), nowhere near n.
    let stepped = eng.total_stepped() - warm_total;
    assert!(stepped > 0, "tokens died during warm-up");
    assert!(
        stepped <= (20 * TOKEN_SEEDS) as u64,
        "20 sparse rounds stepped {stepped} nodes on a {n}-node graph"
    );

    // Phase 2: run the hop budgets out, then measure fully idle rounds —
    // nobody steps, nothing allocates, the engine only advances the clock.
    for _ in 0..44 {
        eng.step_round();
    }
    let before = allocs();
    for _ in 0..10 {
        eng.step_round();
        assert_eq!(eng.stepped_last_round(), 0, "idle round stepped a node");
        assert_eq!(eng.last_stepped(), Some(&[][..]));
    }
    let idle_allocs = allocs() - before;
    assert_eq!(
        idle_allocs, 0,
        "sparse idle rounds allocated {idle_allocs} times over 10 rounds"
    );
    assert!(eng.is_quiescent());
}

/// One re-sharding attempt over a ring with every node on the roster.
/// Building it allocates one stream mirror per member plus a constant (the
/// leader's walk, the engine); running it to the verdict allocates a
/// constant number of times (the leader's cut among them), because a member
/// answers the cut from its parent chain and its running digest instead of
/// rebuilding the tree (≈ 9 allocations per member when it did).
#[test]
fn reshard_attempt_allocates_a_mirror_per_member_and_nothing_per_member_at_the_cut() {
    let m = 2048;
    let ring = generators::ring(m);
    let spec = ReshardSpec::new((0..m).map(NodeId).collect(), ChannelId(0), ChannelId(1), 7);
    let builder = EngineBuilder::new(&ring)
        .channels(ChannelSet::from_masks(2, vec![0b01; m]))
        .sparse(true);
    let before = allocs();
    let mut eng = builder.build_flat(|v| ReshardNode::new(spec.clone(), v));
    let build_allocs = allocs() - before;
    let before = allocs();
    let completed = eng.run((m as u64).div_ceil(3) + 18).is_completed();
    let run_allocs = allocs() - before;
    assert!(completed, "the attempt quiesces");
    assert!(eng.nodes().iter().all(|p| p.committed() == Some(true)));
    assert!(
        build_allocs <= m as u64 + 64,
        "building the attempt made {build_allocs} allocations for {m} members"
    );
    assert!(
        run_allocs <= 64,
        "running the attempt made {run_allocs} allocations for {m} members"
    );
}

/// Per-node sharded-sum states for an arbitrary channel assignment: ranks in
/// ascending node order within each shard, input value `v + 1`.
fn shard_states(chans: &[ChannelId], k: u16) -> Vec<ChannelShardedSum> {
    let mut sizes = vec![0u64; usize::from(k)];
    let ranks: Vec<u64> = chans
        .iter()
        .map(|c| {
            sizes[c.index()] += 1;
            sizes[c.index()] - 1
        })
        .collect();
    (chans.iter().zip(ranks).enumerate())
        .map(|(v, (&c, rank))| {
            ChannelShardedSum::with_assignment(c, rank, sizes[c.index()], v as u64 + 1)
        })
        .collect()
}

/// Sparse stepping under a **sharded attachment that changes mid-run** (the
/// re-sharding loop's shape): the per-channel listener bitsets the frontier
/// wakes through are rebuilt inside `reattach`, so every round — before it,
/// the all-active round right after it, and the channel-by-channel shrinking
/// frontier that follows — performs zero heap allocations.
#[test]
fn sparse_sharded_rounds_stay_allocation_free_across_reattach() {
    let (n, k) = (600usize, 4u16);
    let g = generators::ring(n);
    // Uneven shards (one of n/2, three of n/6), so channels fall idle at
    // different times; `shift` rotates every node onto the next channel.
    let assignment = |shift: usize| -> Vec<ChannelId> {
        (0..n)
            .map(|v| ChannelId(((if v < n / 2 { 0 } else { 1 + v % 3 }) + shift) as u16 % k))
            .collect()
    };
    let masks =
        |chans: &[ChannelId]| -> Vec<u64> { chans.iter().map(|c| 1 << c.index()).collect() };

    let chans = assignment(0);
    let states = shard_states(&chans, k);
    let mut eng = EngineBuilder::new(&g)
        .channels(ChannelSet::from_masks(k, masks(&chans)))
        .sparse(true)
        .build_flat(|v| states[v.index()].clone());
    for _ in 0..8 {
        eng.step_round(); // reach the capacity high-water mark
    }
    // Steps to quiescence; returns the allocations made and the smallest
    // number of nodes any of those rounds stepped.
    let drain = |eng: &mut SyncEngine<'_, ChannelShardedSum>| {
        let (before, mut fewest) = (allocs(), n as u64);
        while !eng.is_quiescent() {
            eng.step_round();
            fewest = fewest.min(eng.stepped_last_round());
        }
        (allocs() - before, fewest)
    };
    let (first_allocs, _) = drain(&mut eng);
    assert_eq!(first_allocs, 0, "sparse sharded rounds allocated");

    // Re-attachment + reseed between two windows of one engine run (the
    // channels are idle again, so no stale word leaks into the new shards);
    // only these two calls may allocate.
    let chans = assignment(1);
    let (new_masks, states) = (masks(&chans), shard_states(&chans, k));
    eng.reattach(&new_masks);
    eng.update_nodes(&mut |v, p| *p = states[v.index()].clone());

    let before = allocs();
    eng.step_round();
    assert_eq!(allocs() - before, 0, "the all-active round allocated");
    assert_eq!(
        eng.stepped_last_round(),
        n as u64,
        "re-attachment wakes all"
    );
    let (after_allocs, fewest) = drain(&mut eng);
    assert_eq!(after_allocs, 0, "rounds after the re-attachment allocated");
    // Once the three small shards finish, only the big one's listeners are
    // woken — through the bitsets rebuilt by the re-attachment.
    assert!(fewest <= (n / 2) as u64, "frontier never shrank: {fewest}");
    for (v, c) in chans.iter().enumerate() {
        let shard = (0..n).filter(|&u| chans[u] == *c).map(|u| u as u64 + 1);
        assert_eq!(eng.node(NodeId(v)).sum(), shard.sum::<u64>());
    }
}
