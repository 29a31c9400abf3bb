//! Verifies the wire substrate's allocation contract with `testkit`'s
//! counting global allocator (one `#[test]`, per-thread counter, so the
//! libtest harness threads stay out of the measurement):
//!
//! 1. building a net (bind + handshake) allocates the same number of times
//!    whatever `n` — a host keeps flat pooled buffers, not per-node ones
//!    (the staging buffers then grow to the round's high-water mark by
//!    doubling, as on the flat engine);
//! 2. on `u64` traffic a steady-state round allocates **nothing**: staging,
//!    the per-destination datagram batches, the barrier `sent_to` tables
//!    (sent and decoded), the per-channel counters and the arrival arena
//!    are all pooled, and every frame still crosses the codec and a socket;
//! 3. a `Vec<u8>` channel-frame protocol stays within a pinned constant per
//!    round: the frame the writer builds plus one decoded copy per host.

use netsim_graph::{generators, NodeId};
use netsim_io::WireNet;
use netsim_sim::{
    protocols::ChannelShardedSum, ChannelId, ChannelSet, EngineBuilder, EngineControl, Protocol,
    RoundIo,
};
use testkit::allocs;

#[global_allocator]
static GLOBAL: testkit::CountingAllocator = testkit::CountingAllocator;

/// Allocations of `rounds` wire rounds.
fn wire_rounds<P: Protocol>(net: &mut WireNet<'_, P>, rounds: u64) -> u64
where
    P::Msg: netsim_sim::wire::WireMsg,
{
    let before = allocs();
    for _ in 0..rounds {
        net.step_round();
    }
    allocs() - before
}

const HOSTS: u16 = 2;

/// The round-robin writer of the round rebuilds a 64-byte frame — in a
/// recycled arena buffer when the graveyard has one — and keys channel 1 of
/// a two-channel set; every node folds the winning frame it hears there.
struct ChannelFrameHeartbeat {
    id: NodeId,
    n: usize,
    acc: u64,
    rounds_left: u32,
}

impl Protocol for ChannelFrameHeartbeat {
    type Msg = Vec<u8>;
    fn step(&mut self, io: &mut RoundIo<'_, Vec<u8>>) {
        if let Some(frame) = io.prev_slot_on(ChannelId(1)).message() {
            self.acc = self
                .acc
                .wrapping_add(u64::from(frame[0]))
                .wrapping_add(frame.len() as u64);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            if io.round() % self.n as u64 == self.id.index() as u64 {
                let mut frame = io.recycle_payload().unwrap_or_default();
                frame.clear();
                frame.resize(64, (self.acc & 0xff) as u8);
                io.write_channel_on(ChannelId(1), frame);
            }
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

#[test]
fn wire_substrate_meets_its_allocation_contract() {
    // 1. Bind + handshake: O(1) allocations whatever n.
    let build_allocs = |n: usize| {
        let ring = generators::ring(n);
        let channels = ChannelShardedSum::channel_set(n, 4);
        let before = allocs();
        let net =
            WireNet::from_builder(&EngineBuilder::new(&ring).channels(channels), HOSTS, |v| {
                ChannelShardedSum::new(v, n, 4, 1)
            });
        assert_eq!(net.host_count(), HOSTS);
        allocs() - before
    };
    let small = build_allocs(256);
    assert_eq!(
        small,
        build_allocs(2048),
        "wire construction allocations grow with n"
    );

    // 2. `u64` traffic: the sharded sum at 0 allocations per round.
    let n = 1024;
    let ring = generators::ring(n);
    let mut sum = WireNet::from_builder(
        &EngineBuilder::new(&ring).channels(ChannelShardedSum::channel_set(n, 4)),
        HOSTS,
        |v| ChannelShardedSum::new(v, n, 4, v.index() as u64),
    );
    wire_rounds(&mut sum, 16);
    let sum_allocs = wire_rounds(&mut sum, 200);
    assert_eq!(
        sum_allocs, 0,
        "wire ChannelShardedSum allocated {sum_allocs} times over 200 steady-state rounds"
    );
    assert!(
        !sum.is_quiescent(),
        "the sum finished during the measurement"
    );
    assert!(sum.cost().slots_success >= 200);

    // 3. `Vec<u8>` channel frames: the host moves the staged frame into its
    //    `Slot` frame (nothing is left to recycle, so the writer builds a
    //    fresh one) and each receiving host's decode owns a copy.
    let grid = generators::Family::Grid.generate(64, 7);
    let n = grid.node_count();
    let mut frames = WireNet::from_builder(
        &EngineBuilder::new(&grid).channels(ChannelSet::uniform(2)),
        HOSTS,
        |id| ChannelFrameHeartbeat {
            id,
            n,
            acc: 1,
            rounds_left: 64,
        },
    );
    wire_rounds(&mut frames, 8);
    let frame_allocs = wire_rounds(&mut frames, 40);
    let per_round = 1 + u64::from(HOSTS);
    assert!(
        frame_allocs <= 40 * per_round,
        "wire allocated {frame_allocs} times over 40 Vec<u8> channel rounds, \
         more than {per_round} per round"
    );
    assert!(frames.cost().slots_success >= 40);
    assert!((0..n).all(|v| frames.node(NodeId(v)).acc > 1));
}
