//! Pins the heap diet of the sharded drivers' per-node phase state with
//! `testkit`'s counting global allocator (per-thread counter, so the
//! libtest harness threads stay out of the measurement): constructing a
//! [`MergePhase`] or a [`ShardedGlobalFn`] allocates nothing at all, and
//! after the first phase, `reattach` + an `update_nodes` re-arm + a whole
//! phase run of [`MergePhase`] on the flat engine allocates the same number
//! of times whatever `n`.  The deterministic partition those drivers start
//! from allocates per phase, not per node.

use channel_access::assigned::{LaneElectionSeries, Seat};
use multimedia::global_fn::{ShardedGlobalFn, Sum};
use multimedia::mst::{MergeCandidate, MergePhase, PhaseSeat};
use multimedia::partition::deterministic;
use multimedia::{MultimediaNetwork, WeightStations};
use netsim_graph::generators::{self, Family};
use netsim_graph::Graph;
use netsim_sim::{ChannelId, ChannelSet, EngineBuilder, EngineControl};
use testkit::allocs;

#[global_allocator]
static GLOBAL: testkit::CountingAllocator = testkit::CountingAllocator;

const K: u16 = 4;

/// Every node is its own fragment on channel `(v + shift) % K`, proposing
/// its lightest incident link; slots in ascending node order per channel.
fn seats(g: &Graph, stations: &WeightStations, shift: usize) -> (Vec<u64>, Vec<PhaseSeat>) {
    let n = g.node_count();
    let chan = |v: usize| ((v + shift) % K as usize) as u16;
    let mut elections = [0u32; K as usize];
    let slots: Vec<u32> = (0..n)
        .map(|v| {
            let count = &mut elections[chan(v) as usize];
            *count += 1;
            *count - 1
        })
        .collect();
    let busiest = elections.iter().copied().max().unwrap();
    let horizon = MergePhase::election_horizon(busiest, stations.bits());
    let seats = g
        .nodes()
        .map(|v| {
            let (peer, edge) = g.neighbors(v).get(0).expect("ring nodes have links");
            PhaseSeat {
                slot: Some(slots[v.index()]),
                candidate: Some(MergeCandidate {
                    station: stations.station_of(g, edge),
                    edge,
                    peer,
                }),
                label: v.index() as u64,
                chan: ChannelId(chan(v.index())),
                elections: elections[chan(v.index()) as usize],
                horizon,
            }
        })
        .collect();
    let masks = (0..n).map(|v| 1u64 << chan(v)).collect();
    (masks, seats)
}

/// Allocations of the second phase (re-attach, in-place re-arm, full run)
/// on an `n`-ring.
fn second_phase_allocs(n: usize) -> u64 {
    let g = generators::assign_random_weights(&generators::ring(n), 7);
    let stations = WeightStations::new(&g);
    let (masks, first) = seats(&g, &stations, 0);
    let (next_masks, next) = seats(&g, &stations, 1);
    let mut eng = EngineBuilder::new(&g)
        .channels(ChannelSet::from_masks(K, masks))
        .build_flat(|v| MergePhase::new(stations.bits(), first[v.index()]));
    let phase_rounds = first[0].horizon + MergePhase::HANDSHAKE_ROUNDS;
    assert!(eng.run(phase_rounds).is_completed());
    assert_eq!(eng.round(), phase_rounds);

    let before = allocs();
    eng.reattach(&next_masks);
    eng.update_nodes(&mut |v, phase| phase.rearm(next[v.index()]));
    let completed = eng.run(2 * phase_rounds).is_completed();
    let spent = allocs() - before;

    assert!(completed);
    assert_eq!(eng.round(), 2 * phase_rounds);
    // The re-armed phase really ran: every node elected its own proposal
    // (a singleton fragment has one contender) and had its graft accepted.
    for v in g.nodes() {
        let seat = next[v.index()];
        let candidate = seat.candidate.unwrap();
        assert_eq!(eng.node(v).winner(), Some(candidate.station));
        assert_eq!(
            eng.node(v).accepted(),
            Some((candidate.edge, candidate.peer.index() as u64))
        );
    }
    spent
}

/// Allocations of constructing the per-node phase state of both sharded
/// drivers for 1 000 nodes each.
fn construction_allocs() -> u64 {
    let g = generators::assign_random_weights(&generators::ring(1_000), 7);
    let stations = WeightStations::new(&g);
    let (_, seats) = seats(&g, &stations, 0);
    let before = allocs();
    for (v, &seat) in seats.iter().enumerate() {
        let phase = MergePhase::new(stations.bits(), seat);
        let seat = Seat {
            slot: 0,
            station: Some(v as u64),
        };
        let global = ShardedGlobalFn::<Sum>::new(
            LaneElectionSeries::new(Some(seat), 10, 1, 1, ChannelId(0)),
            LaneElectionSeries::slot_rounds(10),
            ChannelId(0),
            Some(v as u32),
            Some(v as u64),
            1_000,
        );
        std::hint::black_box((phase, global));
    }
    allocs() - before
}

#[test]
fn rearmed_merge_phase_allocates_independently_of_n() {
    assert_eq!(construction_allocs(), 0, "phase state must be heap-free");
    let small = second_phase_allocs(256);
    let large = second_phase_allocs(2048);
    assert_eq!(
        small, large,
        "re-armed phase allocations must not scale with n (256: {small}, 2048: {large})"
    );
    // Measured 0: the first phase already grew every engine buffer to the
    // handshake's high-water mark.
    assert!(small <= 4, "re-armed phase allocated {small} times");
}

/// Allocations of one deterministic partition of an `n`-node ring of
/// cliques, and its phase count.
fn partition_allocs(n: usize) -> (u64, u32) {
    let net = MultimediaNetwork::new(Family::RingOfCliques.generate(n, 3));
    let before = allocs();
    let outcome = deterministic::partition(&net);
    let spent = allocs() - before;
    assert_eq!(outcome.forest.node_count(), n);
    (spent, outcome.phases)
}

/// What one deterministic partition of a 2 048- or 8 192-node ring of
/// cliques may allocate: a few per-phase vectors per phase (6 and 7 phases;
/// 262 and 325 allocations measured in a debug build, 223 and 269 in
/// release), nothing per node or per walk.  Gathering the fragments into a
/// separate member/children index twice per level took it to 474 and 595
/// (budget 800); building a per-node `Vec` in a tree walk took it to
/// ≈ 8 000 and ≈ 31 000.
const PARTITION_ALLOC_BUDGET: u64 = 450;

#[test]
fn partition_allocates_per_phase_not_per_node() {
    for n in [2_048, 8_192] {
        let (spent, phases) = partition_allocs(n);
        assert!(
            spent <= PARTITION_ALLOC_BUDGET,
            "partition of n = {n} allocated {spent} times over {phases} phases \
             (budget {PARTITION_ALLOC_BUDGET}); its tree walks must not allocate"
        );
    }
}
