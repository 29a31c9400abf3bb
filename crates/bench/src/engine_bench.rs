//! The round-engine benchmark: a constant-traffic global-sum gossip workload
//! measured on both the flat zero-allocation [`SyncEngine`] and the
//! allocation-per-round [`ReferenceEngine`] baseline.
//!
//! The `experiments` binary drives this over the topology matrix — grid,
//! ring, random plus the structured `netsim_graph::topologies` families
//! (ring-of-cliques, geometric, preferential-attachment, expander) — at
//! n ∈ {1k, 10k, 100k} and records the results (plus allocator statistics
//! and graph-construction cost) in `BENCH_engine.json`, giving every future
//! PR a perf trajectory to compare against.
//!
//! The **payload dimension** ([`FrameGossip`], driven by `--engine`'s
//! `payloads` section) repeats the gossip with `Vec<u8>` frames of 0 B /
//! 64 B / 4 KB: on the flat engine a broadcast interns one frame into the
//! [`PayloadArena`](netsim_sim::PayloadArena) and recycles it next round,
//! while the reference engine clones every frame per delivery — the
//! workload the arena path exists for.

use channel_access::assigned::{LaneElectionSeries, Seat};
use netsim_graph::{Graph, NodeId};
use netsim_sim::{
    protocols::ChannelShardedSum, ChannelId, Protocol, ReferenceEngine, RoundIo, SyncEngine,
};
use std::time::Instant;

/// Global-sum gossip: every node starts with a value and, for a fixed number
/// of rounds, broadcasts its running partial sum to all neighbours each
/// round while folding everything it hears into that partial.  Constant
/// traffic (sum of degrees messages per round), `Copy` state, no protocol
/// allocations — everything measured belongs to the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GlobalSumGossip {
    /// Running partial sum (wrapping; used as the result checksum).
    pub partial: u64,
    /// Remaining broadcasting rounds.
    pub rounds_left: u32,
}

impl GlobalSumGossip {
    /// Initial state for node `v` with `rounds` broadcasting rounds.
    pub fn new(v: NodeId, rounds: u32) -> Self {
        GlobalSumGossip {
            partial: (v.index() as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1,
            rounds_left: rounds,
        }
    }
}

impl Protocol for GlobalSumGossip {
    type Msg = u64;
    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (_, &v) in io.inbox() {
            self.partial = self.partial.wrapping_add(v);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            io.send_all(self.partial);
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

/// Outcome of one measured engine run.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Rounds executed.
    pub rounds: u64,
    /// Point-to-point messages delivered.
    pub messages: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Fold of all final node states; equal across engines iff the engines
    /// executed identically.
    pub checksum: u64,
}

impl RunStats {
    /// Rounds per wall-clock second.
    pub fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.seconds.max(1e-12)
    }

    /// Messages per wall-clock second.
    pub fn messages_per_sec(&self) -> f64 {
        self.messages as f64 / self.seconds.max(1e-12)
    }
}

fn checksum(nodes: &[GlobalSumGossip]) -> u64 {
    nodes
        .iter()
        .fold(0u64, |acc, n| acc.rotate_left(7) ^ n.partial)
}

/// Shared measurement harness for every engine runner: times `run` (which
/// must drive its engine for at most `rounds + 8` rounds and return
/// `(completed, final states, cost)`), asserts completion, and folds the
/// final states through `fold`.  Keeping the round margin, the quiescence
/// assert, and the stat extraction in one place means a change to the
/// measurement protocol cannot skew one engine's numbers but not the
/// other's.
fn timed<N>(
    rounds: u32,
    fold: impl FnOnce(&[N]) -> u64,
    run: impl FnOnce(u64) -> (bool, Vec<N>, netsim_sim::CostAccount),
) -> RunStats {
    let start = Instant::now();
    let (completed, nodes, cost) = run(u64::from(rounds) + 8);
    let seconds = start.elapsed().as_secs_f64();
    assert!(completed, "workload quiesces within `rounds` + 8");
    RunStats {
        rounds: cost.rounds,
        messages: cost.p2p_messages,
        seconds,
        checksum: fold(&nodes),
    }
}

/// Picks the broadcasting-round count so every configuration moves roughly
/// the same number of messages (~8M), clamped to keep tiny and huge graphs
/// measurable.
pub fn workload_rounds(g: &Graph) -> u32 {
    let per_round = (2 * g.edge_count()).max(1) as u64;
    (8_000_000 / per_round).clamp(48, 2_048) as u32
}

/// Runs the workload on the flat zero-allocation engine.
pub fn run_flat(g: &Graph, rounds: u32) -> RunStats {
    let mut engine = SyncEngine::new(g, |v| GlobalSumGossip::new(v, rounds));
    timed(rounds, checksum, move |limit| {
        let completed = engine.run(limit).is_completed();
        let (nodes, cost) = engine.into_parts();
        (completed, nodes, cost)
    })
}

/// Runs the workload on the parallel stepping path of the flat engine.
#[cfg(feature = "parallel")]
pub fn run_flat_parallel(g: &Graph, rounds: u32, threads: usize) -> RunStats {
    let mut engine = SyncEngine::new(g, |v| GlobalSumGossip::new(v, rounds));
    timed(rounds, checksum, move |limit| {
        let completed = engine.run_parallel(limit, threads).is_completed();
        let (nodes, cost) = engine.into_parts();
        (completed, nodes, cost)
    })
}

/// Frame gossip: the payload-dimension workload.  Every node broadcasts a
/// `frame_bytes`-sized `Vec<u8>` frame to all neighbours each round for a
/// fixed number of rounds, folding the bytes it hears into a running
/// accumulator (which also varies the frame contents round to round).  On
/// the flat engine the frame buffer is recycled through the payload arena;
/// the reference engine pays one clone per delivery.
#[derive(Clone, Debug)]
pub struct FrameGossip {
    /// Running fold of received frame bytes (the result checksum).
    pub acc: u64,
    /// Remaining broadcasting rounds.
    pub rounds_left: u32,
    /// Frame size in bytes (0 measures pure plumbing overhead).
    pub frame_bytes: usize,
}

impl FrameGossip {
    /// Initial state for node `v` broadcasting `rounds` frames of
    /// `frame_bytes` bytes.
    pub fn new(v: NodeId, rounds: u32, frame_bytes: usize) -> Self {
        FrameGossip {
            acc: (v.index() as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1,
            rounds_left: rounds,
            frame_bytes,
        }
    }
}

impl Protocol for FrameGossip {
    type Msg = Vec<u8>;

    fn step(&mut self, io: &mut RoundIo<'_, Vec<u8>>) {
        for (from, frame) in io.inbox() {
            let edge = u64::from(frame.first().copied().unwrap_or(0))
                ^ u64::from(frame.last().copied().unwrap_or(0)).rotate_left(8);
            self.acc = self
                .acc
                .wrapping_add(frame.len() as u64)
                .wrapping_add(edge)
                .wrapping_add(from.index() as u64);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            let mut frame = io.recycle_payload().unwrap_or_default();
            frame.clear();
            frame.resize(self.frame_bytes, (self.acc & 0xff) as u8);
            if let Some(last) = frame.last_mut() {
                *last = (self.acc >> 8 & 0xff) as u8;
            }
            io.send_all(frame);
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

fn frame_checksum(nodes: &[FrameGossip]) -> u64 {
    nodes.iter().fold(0u64, |acc, n| acc.rotate_left(7) ^ n.acc)
}

/// Picks the broadcasting-round count of the payload workload so every
/// configuration moves roughly the same number of payload *bytes* (~256 MB
/// at 4 KB frames, proportionally fewer rounds), clamped to stay measurable.
pub fn payload_workload_rounds(g: &Graph, frame_bytes: usize) -> u32 {
    let per_round = (2 * g.edge_count()).max(1) as u64 * (frame_bytes.max(16) as u64);
    (268_435_456 / per_round).clamp(24, 512) as u32
}

/// Runs the payload workload on the flat arena-backed engine.
pub fn run_flat_payload(g: &Graph, rounds: u32, frame_bytes: usize) -> RunStats {
    let mut engine = SyncEngine::new(g, |v| FrameGossip::new(v, rounds, frame_bytes));
    timed(rounds, frame_checksum, move |limit| {
        let completed = engine.run(limit).is_completed();
        let (nodes, cost) = engine.into_parts();
        (completed, nodes, cost)
    })
}

/// Runs the payload workload on the clone-path reference engine.
pub fn run_reference_payload(g: &Graph, rounds: u32, frame_bytes: usize) -> RunStats {
    let mut engine = ReferenceEngine::new(g, |v| FrameGossip::new(v, rounds, frame_bytes));
    timed(rounds, frame_checksum, move |limit| {
        let completed = engine.run(limit).is_completed();
        let (nodes, cost) = engine.into_parts();
        (completed, nodes, cost)
    })
}

// ---------------------------------------------------------------------------
// Channel-sharded global sum: the multi-channel scenario family.
// ---------------------------------------------------------------------------

fn sharded_value(v: NodeId) -> u64 {
    (v.index() as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1
}

fn sharded_checksum(nodes: &[ChannelShardedSum]) -> u64 {
    // Position-dependent fold: all members of a shard hold the *same* sum,
    // and a plain rotate-XOR cancels to zero whenever each rotation amount
    // occurs an even number of times (any n divisible by 64) — mixing the
    // node index in keeps the checksum sensitive to every node's value.
    nodes.iter().enumerate().fold(0u64, |acc, (i, n)| {
        acc.rotate_left(7)
            ^ n.sum()
                .wrapping_add(i as u64)
                .wrapping_mul(0x9e3779b97f4a7c15)
    })
}

/// Rounds the channel-sharded global sum takes on a `k`-channel set: the
/// shard-local TDMA schedule (`⌈n/k⌉` writing rounds) plus the observation
/// round — `k` channels cut the wall-clock round count by a factor of `k`.
pub fn channel_workload_rounds(n: usize, k: u16) -> u32 {
    (n.div_ceil(k as usize) + 1) as u32
}

/// Runs the channel-sharded global sum ([`ChannelShardedSum`], node `v`
/// attached to channel `v mod k`) on the flat engine, where the slot winner
/// of every round is delivered by arena handle.
pub fn run_flat_channels(g: &Graph, k: u16) -> RunStats {
    let n = g.node_count();
    let mut engine = SyncEngine::with_channels(g, ChannelShardedSum::channel_set(n, k), |v| {
        ChannelShardedSum::new(v, n, k, sharded_value(v))
    });
    timed(
        channel_workload_rounds(n, k),
        sharded_checksum,
        move |limit| {
            let completed = engine.run(limit).is_completed();
            let (nodes, cost) = engine.into_parts();
            (completed, nodes, cost)
        },
    )
}

/// Runs the channel-sharded global sum on the clone-path reference engine
/// (every slot winner cloned into its outcome).
pub fn run_reference_channels(g: &Graph, k: u16) -> RunStats {
    let n = g.node_count();
    let mut engine = ReferenceEngine::with_channels(g, ChannelShardedSum::channel_set(n, k), |v| {
        ChannelShardedSum::new(v, n, k, sharded_value(v))
    });
    timed(
        channel_workload_rounds(n, k),
        sharded_checksum,
        move |limit| {
            let completed = engine.run(limit).is_completed();
            let (nodes, cost) = engine.into_parts();
            (completed, nodes, cost)
        },
    )
}

// ---------------------------------------------------------------------------
// Wire backend: the same channel-sharded sum over loopback UDP sockets.
// ---------------------------------------------------------------------------

/// Runs the channel-sharded global sum on the `netsim-io` wire backend —
/// `hosts` in-process [`WireHost`](netsim_io::WireHost)s exchanging wire
/// frames over loopback UDP — and reports the usual [`RunStats`] plus the
/// total bytes put on the wire.  The checksum and [`CostAccount`](netsim_sim::CostAccount) are the
/// flat engine's bit-for-bit (pinned by `netsim-io`'s `wire_conformance`
/// suite), so the delta against [`run_flat_channels`] is pure transport
/// cost: frame encode/decode, syscalls, and barrier latency.
pub fn run_wire_channels(g: &Graph, k: u16, hosts: u16) -> (RunStats, u64) {
    let n = g.node_count();
    let mut engine =
        netsim_io::WireNet::with_channels(g, ChannelShardedSum::channel_set(n, k), hosts, |v| {
            ChannelShardedSum::new(v, n, k, sharded_value(v))
        });
    let bytes = std::cell::Cell::new(0u64);
    let stats = timed(channel_workload_rounds(n, k), sharded_checksum, |limit| {
        let completed = engine.run(limit).is_completed();
        bytes.set(engine.bytes_sent());
        let cost = *engine.cost();
        (completed, engine.into_nodes(), cost)
    });
    (stats, bytes.get())
}

// ---------------------------------------------------------------------------
// Faulted channel-sharded global sum: the fault dimension of the bench.
// ---------------------------------------------------------------------------

/// Outcome of one measured *faulted* engine run: rounds-to-reconverge
/// against the fault-free schedule, plus the engine's fault counters.
#[derive(Clone, Copy, Debug)]
pub struct FaultRunStats {
    /// Rounds the faulted run actually took.
    pub rounds: u64,
    /// Rounds the same workload takes fault-free (the TDMA schedule).
    pub fault_free_rounds: u64,
    /// Channel slots erased by the plan.
    pub erased_slots: u64,
    /// Point-to-point messages dropped by the plan.
    pub dropped_messages: u64,
    /// Node-rounds spent non-operational.
    pub crashed_rounds: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Fold of the final node states (position-mixed shard sums).
    pub checksum: u64,
}

impl FaultRunStats {
    /// Rounds-to-reconverge ratio: faulted rounds over fault-free rounds
    /// (1.0 = the plan cost nothing).
    pub fn recovery_overhead(&self) -> f64 {
        self.rounds as f64 / self.fault_free_rounds.max(1) as f64
    }
}

/// Asserts the fault-tolerance contract of [`ChannelShardedSum`] on the
/// final states of a faulted run:
///
/// * if the plan never took a node down (`crashed_rounds == 0`, i.e.
///   erasures/drops only), every node holds the **exact** sum of its shard
///   — erasures cost retry rounds, never correctness;
/// * under churn, all never-crashed members of a shard (final lifecycle
///   operational and not crashed out) agree on the shard sum, and every
///   fully-surviving shard is exact.
fn verify_sharded_fault_outcome(
    g: &Graph,
    k: u16,
    crashed_rounds: u64,
    nodes: &[ChannelShardedSum],
    lifecycles: &[netsim_sim::NodeLifecycle],
) {
    let n = g.node_count();
    let kk = k as usize;
    let mut exact = vec![0u64; kk];
    for v in 0..n {
        exact[v % kk] = exact[v % kk].wrapping_add(sharded_value(NodeId(v)));
    }
    let mut agreed: Vec<Option<u64>> = vec![None; kk];
    let mut shard_intact = vec![true; kk];
    for v in 0..n {
        let shard = v % kk;
        let witness = lifecycles[v].is_operational() && !nodes[v].crashed_out();
        if !witness {
            shard_intact[shard] = false;
            continue;
        }
        match agreed[shard] {
            None => agreed[shard] = Some(nodes[v].sum()),
            Some(s) => assert_eq!(
                s,
                nodes[v].sum(),
                "never-crashed members of shard {shard} disagree"
            ),
        }
    }
    for shard in 0..kk {
        if crashed_rounds == 0 || shard_intact[shard] {
            assert_eq!(
                agreed[shard],
                Some(exact[shard]),
                "fully-surviving shard {shard} must compute the exact sum"
            );
        }
    }
}

fn timed_faulted(
    g: &Graph,
    k: u16,
    run: impl FnOnce(
        u64,
    ) -> (
        bool,
        Vec<ChannelShardedSum>,
        netsim_sim::CostAccount,
        Vec<netsim_sim::NodeLifecycle>,
    ),
) -> FaultRunStats {
    let fault_free_rounds = u64::from(channel_workload_rounds(g.node_count(), k));
    let start = Instant::now();
    let (completed, nodes, cost, lifecycles) = run(fault_free_rounds * 64 + 256);
    let seconds = start.elapsed().as_secs_f64();
    assert!(completed, "faulted channel workload must quiesce");
    verify_sharded_fault_outcome(g, k, cost.crashed_rounds, &nodes, &lifecycles);
    FaultRunStats {
        rounds: cost.rounds,
        fault_free_rounds,
        erased_slots: cost.erased_slots,
        dropped_messages: cost.dropped_messages,
        crashed_rounds: cost.crashed_rounds,
        seconds,
        checksum: sharded_checksum(&nodes),
    }
}

/// Runs the channel-sharded global sum under `plan` on the flat engine and
/// asserts the fault-tolerance contract on the result.
pub fn run_flat_channels_faulted(g: &Graph, k: u16, plan: &netsim_sim::FaultPlan) -> FaultRunStats {
    let n = g.node_count();
    let mut engine = SyncEngine::with_channels(g, ChannelShardedSum::channel_set(n, k), |v| {
        ChannelShardedSum::new(v, n, k, sharded_value(v))
    });
    engine.set_fault_plan(plan.clone());
    timed_faulted(g, k, move |limit| {
        let completed = engine.run(limit).is_completed();
        let lifecycles = engine
            .fault_session()
            .expect("plan installed")
            .lifecycles()
            .to_vec();
        let (nodes, cost) = engine.into_parts();
        (completed, nodes, cost, lifecycles)
    })
}

/// Runs the channel-sharded global sum under `plan` on the clone-path
/// reference engine.
pub fn run_reference_channels_faulted(
    g: &Graph,
    k: u16,
    plan: &netsim_sim::FaultPlan,
) -> FaultRunStats {
    let n = g.node_count();
    let mut engine = ReferenceEngine::with_channels(g, ChannelShardedSum::channel_set(n, k), |v| {
        ChannelShardedSum::new(v, n, k, sharded_value(v))
    });
    engine.set_fault_plan(plan.clone());
    timed_faulted(g, k, move |limit| {
        let completed = engine.run(limit).is_completed();
        let lifecycles = engine
            .fault_session()
            .expect("plan installed")
            .lifecycles()
            .to_vec();
        let (nodes, cost) = engine.into_parts();
        (completed, nodes, cost, lifecycles)
    })
}

// ---------------------------------------------------------------------------
// Active-set dimension: million-node graphs where almost every node is idle.
// ---------------------------------------------------------------------------

/// Sparse token relay: the active-set workload.  The first `seeds` nodes
/// inject a token at round 0; every token hops to a pseudo-randomly chosen
/// neighbour each round until its hop budget runs out, and each receiver
/// folds the token into its accumulator.  Per round only the O(seeds) token
/// receivers have anything to do — the dense stepping path still visits all
/// `n` nodes, the sparse frontier visits only the receivers.
///
/// The protocol is frontier-safe with no `wake_me`: it acts only on its
/// inbox (plus the round-0 boot, which wakes everyone on both paths), so
/// sparse and dense runs are bit-identical by the engine conformance
/// contract.
#[derive(Clone, Debug)]
pub struct ActiveTokens {
    /// Running fold of received tokens (the result checksum).
    pub acc: u64,
    id: u64,
    seeds: u64,
    ttl: u32,
}

impl ActiveTokens {
    /// Initial state for node `v`; the first `seeds` nodes inject a token
    /// with hop budget `ttl` at round 0.
    pub fn new(v: NodeId, seeds: u64, ttl: u32) -> Self {
        ActiveTokens {
            acc: (v.index() as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1,
            id: v.index() as u64,
            seeds,
            ttl,
        }
    }
}

impl Protocol for ActiveTokens {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (from, &t) in io.inbox() {
            let hops = t >> 32;
            let x = (t as u32)
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(from.index() as u32 | 1);
            self.acc = self.acc.wrapping_add(u64::from(x)).rotate_left(1);
            if hops > 0 && io.degree() > 0 {
                let next = io.neighbors().target(x as usize % io.degree());
                io.send(next, (hops - 1) << 32 | u64::from(x));
            }
        }
        if io.round() == 0 && self.id < self.seeds && io.degree() > 0 {
            let next = io.neighbors().target(self.id as usize % io.degree());
            io.send(next, u64::from(self.ttl) << 32 | self.id);
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

/// Outcome of one measured active-set run.
#[derive(Clone, Copy, Debug)]
pub struct ActiveSetStats {
    /// Measured rounds (excluding the untimed round-0 boot).
    pub rounds: u64,
    /// Node-steps executed over the measured rounds (the work the engine
    /// actually did; `n * rounds` under dense stepping, O(frontier) sparse).
    pub stepped: u64,
    /// Wall-clock seconds over the measured rounds.
    pub seconds: f64,
    /// Fold of all final accumulators; equal across dense and sparse runs
    /// iff the runs executed identically.
    pub checksum: u64,
}

impl ActiveSetStats {
    /// Rounds per wall-clock second.
    pub fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.seconds.max(1e-12)
    }

    /// Fraction of node-rounds that actually stepped, `stepped / (n * rounds)`.
    pub fn activity(&self, n: usize) -> f64 {
        self.stepped as f64 / (n as f64 * self.rounds as f64).max(1.0)
    }
}

/// Number of untimed warm-up rounds of [`run_active_set`]: the all-active
/// round-0 boot plus enough steady rounds to fault in the engine's
/// lazily-grown buffers — at 10M-node scale the first few rounds pay page
/// faults worth several multiples of the steady per-round cost.
pub const ACTIVE_SET_WARMUP: u32 = 8;

/// Runs the active-set token relay for exactly `rounds` measured rounds on
/// the flat engine, dense (`sparse = false`) or frontier-stepped
/// (`sparse = true`).  [`ACTIVE_SET_WARMUP`] rounds (including the
/// all-active round-0 boot) run outside the timer so the measurement
/// captures steady-state per-round cost.
pub fn run_active_set(g: &Graph, seeds: u64, rounds: u32, sparse: bool) -> ActiveSetStats {
    let mut engine = SyncEngine::new(g, |v| {
        ActiveTokens::new(v, seeds, rounds + ACTIVE_SET_WARMUP + 8)
    });
    if sparse {
        engine.enable_sparse_stepping();
    }
    for _ in 0..ACTIVE_SET_WARMUP {
        engine.step_round();
    }
    let boot_stepped = engine.total_stepped();
    let start = Instant::now();
    for _ in 0..rounds {
        engine.step_round();
    }
    let seconds = start.elapsed().as_secs_f64();
    let stepped = engine.total_stepped() - boot_stepped;
    let (nodes, _) = engine.into_parts();
    ActiveSetStats {
        rounds: u64::from(rounds),
        stepped,
        seconds,
        checksum: nodes.iter().fold(0u64, |acc, n| acc.rotate_left(7) ^ n.acc),
    }
}

// ---------------------------------------------------------------------------
// Election-lane dimension: scalar election slots vs word-wide lane packing.
// ---------------------------------------------------------------------------

/// Outcome of one measured election-series run (the `lane_elections`
/// section of `BENCH_engine.json`).
#[derive(Clone, Copy, Debug)]
pub struct ElectionRunStats {
    /// Engine rounds the whole series took — the number that drops by the
    /// lane width when the slots are saturated.
    pub rounds: u64,
    /// Lane-word writes the contenders issued.
    pub lane_writes: u64,
    /// Busy lane observations across all nodes.
    pub lanes_busy: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Fold of every node's own-slot winner; equal across lane widths iff
    /// they elected identically.
    pub checksum: u64,
}

/// The saturated election workload: node `v` contends in slot
/// `v mod elections` with its (globally unique) index as the station id, so
/// every one of the `elections` slots has contenders and the expected winner
/// of slot `s` is the largest node index congruent to `s`.
fn election_seat(v: NodeId, elections: u32) -> Seat {
    Seat {
        slot: (v.index() % elections as usize) as u32,
        station: Some(v.index() as u64),
    }
}

/// Station-id width for the saturated election workload (`election_seat`)
/// on an `n`-node graph.
pub fn election_bits(n: usize) -> u32 {
    (usize::BITS - n.next_power_of_two().leading_zeros()).max(1)
}

/// Folds node `v`'s view — the winner of its own slot — into `checksum`.
fn election_fold(checksum: &mut u64, v: NodeId, won: Option<u64>, n: usize, elections: u32) {
    let s = v.index() % elections as usize;
    let last = n - 1;
    let expected = last - (last + elections as usize - s) % elections as usize;
    assert_eq!(
        won,
        Some(expected as u64),
        "slot {s} must elect its largest contender"
    );
    *checksum = checksum
        .rotate_left(7)
        .wrapping_add(won.unwrap_or(u64::MAX) ^ s as u64);
}

/// Runs the saturated workload with up to `width` elections packed into
/// each word-wide lane batch ([`LaneElectionSeries`]): width 1 is the scalar
/// one-election-at-a-time schedule, and at `width` 64 with 64 saturated
/// slots the whole series costs one batch — a ~64× round-count reduction.
/// Verifies every node heard its slot's spec winner.
pub fn run_lane_elections(g: &Graph, elections: u32, width: u32) -> ElectionRunStats {
    let n = g.node_count();
    assert!(
        elections as usize <= n,
        "saturation needs a contender per slot"
    );
    let bits = election_bits(n);
    let mut engine = SyncEngine::new(g, |v| {
        LaneElectionSeries::new(
            Some(election_seat(v, elections)),
            bits,
            elections,
            width,
            ChannelId(0),
        )
    });
    let batches = u64::from(elections.div_ceil(width));
    let budget = batches * LaneElectionSeries::slot_rounds(bits) + 8;
    let start = Instant::now();
    let completed = engine.run(budget).is_completed();
    let seconds = start.elapsed().as_secs_f64();
    assert!(completed, "lane series must quiesce within its schedule");
    let cost = *engine.cost();
    let mut checksum = 0u64;
    for v in g.nodes() {
        election_fold(&mut checksum, v, engine.node(v).winner(), n, elections);
    }
    ElectionRunStats {
        rounds: cost.rounds,
        lane_writes: cost.lane_writes,
        lanes_busy: cost.lanes_busy,
        seconds,
        checksum,
    }
}

/// Runs the workload on the allocation-per-round reference engine.
pub fn run_reference(g: &Graph, rounds: u32) -> RunStats {
    let mut engine = ReferenceEngine::new(g, |v| GlobalSumGossip::new(v, rounds));
    timed(rounds, checksum, move |limit| {
        let completed = engine.run(limit).is_completed();
        let (nodes, cost) = engine.into_parts();
        (completed, nodes, cost)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::generators::Family;

    #[test]
    fn engines_agree_on_the_bench_workload() {
        let g = Family::Grid.generate(400, 5);
        let rounds = 40;
        let flat = run_flat(&g, rounds);
        let reference = run_reference(&g, rounds);
        assert_eq!(flat.checksum, reference.checksum);
        assert_eq!(flat.rounds, reference.rounds);
        assert_eq!(flat.messages, reference.messages);
        assert!(flat.messages > 0);
        assert!(flat.rounds_per_sec() > 0.0);
        assert!(flat.messages_per_sec() > 0.0);
    }

    #[test]
    fn engines_agree_on_the_payload_workload() {
        let g = Family::Grid.generate(256, 9);
        for frame_bytes in [0usize, 64, 4096] {
            let rounds = 12;
            let flat = run_flat_payload(&g, rounds, frame_bytes);
            let reference = run_reference_payload(&g, rounds, frame_bytes);
            assert_eq!(flat.checksum, reference.checksum, "at {frame_bytes} B");
            assert_eq!(flat.rounds, reference.rounds);
            assert_eq!(flat.messages, reference.messages);
            assert!(flat.messages > 0);
        }
    }

    #[test]
    fn engines_agree_on_the_channel_workload() {
        let g = Family::Ring.generate(200, 4);
        for k in [1u16, 4, 16] {
            let flat = run_flat_channels(&g, k);
            let reference = run_reference_channels(&g, k);
            assert_eq!(flat.checksum, reference.checksum, "k={k}");
            assert_eq!(flat.rounds, reference.rounds);
            assert_eq!(
                flat.rounds,
                u64::from(channel_workload_rounds(g.node_count(), k))
            );
            // Channel-only workload: no point-to-point traffic at all.
            assert_eq!(flat.messages, 0);
        }
        // K channels cut the schedule by a factor of K.
        assert!(run_flat_channels(&g, 16).rounds < run_flat_channels(&g, 1).rounds / 8);
    }

    #[test]
    fn engines_agree_on_the_faulted_channel_workload() {
        use netsim_sim::{FaultEvent, FaultPlan};
        let g = Family::Ring.generate(200, 4);
        let k = 4u16;
        // Erasure-only: exact sums, retry rounds only.
        let erase = FaultPlan::from_rates(0xfa01, 0.25, 0.0, 0.0, 0.0);
        let flat = run_flat_channels_faulted(&g, k, &erase);
        let reference = run_reference_channels_faulted(&g, k, &erase);
        assert_eq!(flat.checksum, reference.checksum);
        assert_eq!(flat.rounds, reference.rounds);
        assert_eq!(flat.erased_slots, reference.erased_slots);
        assert!(flat.erased_slots > 0, "erasure rate 0.25 never fired");
        assert!(flat.recovery_overhead() >= 1.0);
        // Churn: a crash mid-schedule plus a late recovery.
        let churn = FaultPlan::from_rates(0xfa02, 0.1, 0.0, 0.0, 0.0).with_events(vec![
            FaultEvent::Crash {
                round: 3,
                node: NodeId(9),
            },
            FaultEvent::Recover {
                round: 20,
                node: NodeId(9),
            },
        ]);
        let flat = run_flat_channels_faulted(&g, k, &churn);
        let reference = run_reference_channels_faulted(&g, k, &churn);
        assert_eq!(flat.checksum, reference.checksum);
        assert_eq!(flat.crashed_rounds, reference.crashed_rounds);
        assert!(flat.crashed_rounds > 0);
    }

    #[test]
    fn dense_and_sparse_agree_on_the_active_set_workload() {
        let g = netsim_graph::topologies::degree_bounded_expander(4_096, 4, 17);
        let seeds = 8u64;
        let rounds = 24u32;
        let dense = run_active_set(&g, seeds, rounds, false);
        let sparse = run_active_set(&g, seeds, rounds, true);
        assert_eq!(dense.checksum, sparse.checksum);
        assert_eq!(dense.rounds, sparse.rounds);
        // Dense stepping visits every node every round; the frontier visits
        // only the O(seeds) token receivers.
        assert_eq!(dense.stepped, 4_096 * u64::from(rounds));
        assert!(sparse.stepped > 0);
        assert!(sparse.stepped <= u64::from(rounds) * seeds);
        assert!(sparse.activity(4_096) < 0.01);
        assert!((dense.activity(4_096) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lane_packing_cuts_saturated_election_rounds() {
        let g = Family::Grid.generate(256, 3);
        let elections = 64u32;
        let scalar = run_lane_elections(&g, elections, 1);
        let lanes_64 = run_lane_elections(&g, elections, 64);
        // Width 1 is the scalar schedule; same winners at every width.
        assert_eq!(scalar.checksum, lanes_64.checksum);
        assert_eq!(
            scalar.rounds,
            u64::from(elections) * LaneElectionSeries::slot_rounds(election_bits(256))
        );
        // 64 saturated slots in one word-wide batch: >= 8x fewer rounds
        // (the BENCH_engine.json acceptance bar; the schedule says ~64x).
        assert!(
            lanes_64.rounds * 8 <= scalar.rounds,
            "expected >= 8x round cut, got {} vs {}",
            lanes_64.rounds,
            scalar.rounds
        );
        assert!(lanes_64.lane_writes > 0);
        assert!(lanes_64.lanes_busy > 0);
    }

    #[test]
    fn payload_rounds_scale_with_frame_size() {
        let g = Family::Grid.generate(10_000, 2);
        let small = payload_workload_rounds(&g, 0);
        let big = payload_workload_rounds(&g, 4096);
        assert!(small >= big);
        assert!((24..=512).contains(&small));
        assert!((24..=512).contains(&big));
    }

    #[test]
    fn workload_rounds_is_clamped() {
        let tiny = Family::Ring.generate(8, 1);
        assert_eq!(workload_rounds(&tiny), 2_048);
        let big = Family::Grid.generate(100_000, 1);
        let r = workload_rounds(&big);
        assert!((48..=2_048).contains(&r));
    }
}
