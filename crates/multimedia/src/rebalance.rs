//! Adaptive channel re-sharding of a sharded workload: the driver side of
//! [`netsim_sim::reshard`], written once against
//! [`EngineControl`].
//!
//! The scenario is the benchmark's channel-sharded global sum
//! ([`ChannelShardedSum`]) under a **Zipf-skewed** attachment
//! ([`zipf_channels`]): channel 0 carries a harmonic share of all nodes
//! while the tail channels sit nearly idle, so the busiest channel
//! serialises its oversized shard and dominates the round count.  The
//! rebalancer interleaves repetitions of the workload ("windows") with the
//! engine-executed re-sharding protocol:
//!
//! 1. after each window a [`ContentionMonitor`] ingests the engine's
//!    reconciled per-channel cost deltas; when the hot/cold skew exceeds
//!    the bound it emits a [`ReshardDecision`](netsim_sim::reshard::ReshardDecision);
//! 2. the driver re-attaches the merged hot+cold member set to the hot
//!    channel and seeds a [`ReshardNode`] per member (everyone else a
//!    bystander);
//! 3. the engine executes the recombination protocol — Wilson walk stream,
//!    balance-optimal cut, notify census, veto slot — and on commit the
//!    driver re-attaches the cut subtree to the cold channel and reseeds
//!    shard ranks for the next window.
//!
//! Every step is a pure function of the inputs and the engines' pinned
//! delivery semantics, so the full [`ReshardEvent`] trace, the window
//! totals and the final [`RebalanceRun::checksum`] are bit-identical
//! across the flat, reference, lockstep-async and wire substrates (the
//! four-substrate pinning test below; `reshard-loop-flat` is the timed
//! `mmbench` workload).

use crate::model::MultimediaNetwork;
use crate::mst::{on_substrate, MergeSubstrate};
use netsim_graph::NodeId;
use netsim_sim::reshard::{ContentionMonitor, ReshardNode, ReshardSpec, MAX_ROSTER};
use netsim_sim::{
    protocols::ChannelShardedSum, ChannelId, ChannelSet, CostAccount, EngineBuilder, EngineControl,
    FaultPlan, Protocol, RoundIo, MAX_CHANNELS,
};

/// A deterministic Zipf-skewed channel assignment: channel `c` receives a
/// share of the `n` nodes proportional to `1 / (c + 1)^exponent`,
/// apportioned by largest remainder (ties towards the lower channel) and
/// assigned in contiguous node-index blocks.  With `exponent >= 1` channel
/// 0's shard is an order of magnitude larger than the tail's — the skew the
/// rebalancer exists to fix.  Pure integer arithmetic; a pure function of
/// `(n, k, exponent)`.
pub fn zipf_channels(n: usize, k: u16, exponent: u32) -> Vec<ChannelId> {
    assert!(
        (1..=MAX_CHANNELS).contains(&k),
        "shard factor {k} outside 1..={MAX_CHANNELS}"
    );
    let k = k as usize;
    // Fixed-point harmonic weights w_c = 2^32 / (c+1)^s.
    let weights: Vec<u128> = (0..k)
        .map(|c| (1u128 << 32) / (c as u128 + 1).pow(exponent))
        .collect();
    let total: u128 = weights.iter().sum();
    let mut counts: Vec<usize> = Vec::with_capacity(k);
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(k);
    let mut assigned = 0usize;
    for (c, &w) in weights.iter().enumerate() {
        let exact = n as u128 * w;
        counts.push((exact / total) as usize);
        remainders.push((exact % total, c));
        assigned += counts[c];
    }
    // Largest remainder first; ties towards the lower channel index.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, c) in remainders.iter().take(n - assigned) {
        counts[c] += 1;
    }
    let mut chans = Vec::with_capacity(n);
    for (c, &cnt) in counts.iter().enumerate() {
        chans.extend(std::iter::repeat_n(ChannelId(c as u16), cnt));
    }
    chans
}

/// The per-node protocol of the rebalanced pipeline: alternates between the
/// sharded-sum workload and the re-sharding protocol, one engine holding
/// both (the driver swaps states between rounds via
/// [`update_nodes`](EngineControl::update_nodes)).
#[derive(Clone, Debug)]
pub enum RebalancePhase {
    /// A workload window: one repetition of the sharded global sum.
    Work(ChannelShardedSum),
    /// A re-sharding attempt: roster member or bystander.
    Reshard(ReshardNode),
}

impl RebalancePhase {
    /// The workload state, when in a work window.
    pub fn as_work(&self) -> Option<&ChannelShardedSum> {
        match self {
            RebalancePhase::Work(w) => Some(w),
            RebalancePhase::Reshard(_) => None,
        }
    }

    /// The re-sharding state, when in a re-sharding attempt.
    pub fn as_reshard(&self) -> Option<&ReshardNode> {
        match self {
            RebalancePhase::Work(_) => None,
            RebalancePhase::Reshard(r) => Some(r),
        }
    }
}

impl Protocol for RebalancePhase {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        match self {
            RebalancePhase::Work(w) => w.step(io),
            RebalancePhase::Reshard(r) => r.step(io),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            RebalancePhase::Work(w) => w.is_done(),
            RebalancePhase::Reshard(r) => r.is_done(),
        }
    }

    fn on_recover(&mut self) {
        match self {
            RebalancePhase::Work(w) => w.on_recover(),
            RebalancePhase::Reshard(r) => r.on_recover(),
        }
    }
}

/// One re-sharding attempt in a [`RebalanceRun`]'s decision trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReshardEvent {
    /// The workload window after which the monitor fired (0-based).
    pub window: u32,
    /// The paired hot channel.
    pub hot: ChannelId,
    /// The paired cold channel.
    pub cold: ChannelId,
    /// The hot channel's window load.
    pub hot_load: u64,
    /// The cold channel's window load.
    pub cold_load: u64,
    /// Whether the engine-executed attempt committed (idle veto slot).
    pub committed: bool,
    /// Nodes whose channel changed when the attempt committed.
    pub migrated: u32,
    /// The balance-optimal cut index the leader broadcast (0 on abort
    /// before the cut landed).
    pub cut: u32,
    /// The streamed tree's audit checksum (0 on abort before the cut).
    pub tree_checksum: u32,
}

/// Result of a [`rebalanced_sum`] run.
#[derive(Clone, Debug)]
pub struct RebalanceRun {
    /// Per-window totals: the wrapping sum of all shard sums of the window.
    /// Every window of a fault-free run totals the same global sum.
    pub window_totals: Vec<u64>,
    /// The re-sharding decision trace, in window order.
    pub events: Vec<ReshardEvent>,
    /// Total number of node migrations across all committed attempts.
    pub migrations: u64,
    /// The engine's reconciled cost over the whole run (work windows and
    /// re-sharding attempts).
    pub cost: CostAccount,
    /// Shard factor `K`.
    pub k: u16,
}

impl RebalanceRun {
    /// Total engine rounds of the run.
    pub fn rounds(&self) -> u64 {
        self.cost.rounds
    }

    /// Order-sensitive digest of the observable trace: window totals and
    /// the full decision trace.  Pinned bit-identical across all four
    /// substrates by the conformance test.
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mix = |h: &mut u64, x: u64| {
            *h = (*h ^ x).wrapping_mul(0x100_0000_01b3);
        };
        for &t in &self.window_totals {
            mix(&mut h, t);
        }
        for e in &self.events {
            mix(&mut h, u64::from(e.window));
            mix(&mut h, u64::from(e.hot.index() as u16));
            mix(&mut h, u64::from(e.cold.index() as u16));
            mix(&mut h, e.hot_load);
            mix(&mut h, e.cold_load);
            mix(&mut h, u64::from(e.committed));
            mix(&mut h, u64::from(e.migrated));
            mix(&mut h, u64::from(e.cut));
            mix(&mut h, u64::from(e.tree_checksum));
        }
        h
    }
}

/// Repeats the channel-sharded global sum for `windows` repetitions under
/// the given initial channel assignment, re-sharding adaptively between
/// repetitions when `skew` is `Some` (see the [module docs](self)); with
/// `skew == None` the attachment stays static — the baseline
/// `rebalancing_cuts_the_round_count` compares against.
///
/// An optional [`FaultPlan`] (e.g.
/// [`FaultPlan::with_partition`](netsim_sim::FaultPlan::with_partition))
/// exercises the protocol's abort path: a partitioned notify census vetoes
/// the attempt and the monitor simply fires again after the next window.
///
/// A decision whose merged hot + cold roster has fewer than two members or
/// more than [`MAX_ROSTER`] is skipped: no attempt runs and no
/// [`ReshardEvent`] is recorded.
///
/// # Panics
///
/// Panics if `values.len() != n`, `n == 0`, `chans.len() != n`, or any
/// assigned channel is outside `0..k`.
#[allow(clippy::too_many_arguments)]
pub fn rebalanced_sum(
    net: &MultimediaNetwork,
    values: &[u64],
    chans: &[ChannelId],
    k: u16,
    windows: u32,
    skew: Option<u64>,
    seed: u64,
    plan: Option<FaultPlan>,
    which: MergeSubstrate,
) -> RebalanceRun {
    on_substrate!(
        which,
        rebalanced_sum_generic(net, values, chans, k, windows, skew, seed, plan).0
    )
}

/// The substrate-generic body of [`rebalanced_sum`]; also hands back the
/// engine it drove (`None` when `windows == 0`) so tests can read
/// substrate-specific counters off it.
#[allow(clippy::too_many_arguments)]
fn rebalanced_sum_generic<'g, E, B>(
    net: &'g MultimediaNetwork,
    values: &[u64],
    chans: &[ChannelId],
    k: u16,
    windows: u32,
    skew: Option<u64>,
    seed: u64,
    plan: Option<FaultPlan>,
    build: B,
) -> (RebalanceRun, Option<E>)
where
    E: EngineControl<RebalancePhase>,
    B: FnOnce(&EngineBuilder<'g>, &mut dyn FnMut(NodeId) -> RebalancePhase) -> E,
{
    let g = net.graph();
    let n = g.node_count();
    assert!(n > 0, "need at least one processor");
    assert_eq!(values.len(), n, "one input value per node");
    assert_eq!(chans.len(), n, "one channel assignment per node");
    assert!(
        chans.iter().all(|c| (c.index() as u16) < k),
        "assigned channel outside 0..{k}"
    );

    // Driver-side attachment state: the current channel of every node.
    let mut chan_of: Vec<ChannelId> = chans.to_vec();
    let mut monitor = skew.map(|s| ContentionMonitor::new(k, s));

    // Shard roster of the current assignment: members of channel `c` in
    // ascending node order; a node's rank is its roster position.
    let shard_members = |chan_of: &[ChannelId]| -> Vec<Vec<NodeId>> {
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); usize::from(k)];
        for v in g.nodes() {
            members[chan_of[v.index()].index()].push(v);
        }
        members
    };
    let masks_of =
        |chan_of: &[ChannelId]| -> Vec<u64> { chan_of.iter().map(|c| 1u64 << c.index()).collect() };

    let mut engine: Option<E> = None;
    let mut build = Some(build);
    let mut window_totals = Vec::with_capacity(windows as usize);
    let mut events: Vec<ReshardEvent> = Vec::new();
    let mut migrations = 0u64;

    for window in 0..windows {
        // -- Work window -----------------------------------------------
        let members = shard_members(&chan_of);
        let masks = masks_of(&chan_of);
        let mut work_init = |v: NodeId| {
            let c = chan_of[v.index()];
            let shard = &members[c.index()];
            let rank = shard.binary_search(&v).expect("node is in its own shard") as u64;
            RebalancePhase::Work(ChannelShardedSum::with_assignment(
                c,
                rank,
                shard.len() as u64,
                values[v.index()],
            ))
        };
        match &mut engine {
            None => {
                // Most stations of a skewed run are idle most rounds (their
                // shard finished, or they are bystanders of an attempt), and
                // both phases arm themselves with `wake_me` while unfinished:
                // step the frontier, not all `n` nodes.
                let mut builder = EngineBuilder::new(g)
                    .channels(ChannelSet::from_masks(k, masks.clone()))
                    .sparse(true);
                if let Some(p) = plan.clone() {
                    builder = builder.fault_plan(p);
                }
                engine = Some((build.take().expect("build is one-shot"))(
                    &builder,
                    &mut work_init,
                ));
            }
            Some(e) => {
                e.reattach(&masks);
                e.update_nodes(&mut |v, p| *p = work_init(v));
            }
        }
        let eng = engine.as_mut().expect("engine constructed");
        let max_shard = members.iter().map(Vec::len).max().unwrap_or(0) as u64;
        let limit = eng.round() + max_shard + 8;
        assert!(
            eng.run(limit).is_completed(),
            "work window must quiesce within its schedule"
        );

        // Harvest: every member of a shard folded the same shard sum; the
        // window total is the wrapping sum over shards.
        let mut total = 0u64;
        for shard in members.iter().filter(|s| !s.is_empty()) {
            let sum = eng
                .node(shard[0])
                .as_work()
                .expect("work window state")
                .sum();
            for &v in shard {
                assert_eq!(
                    eng.node(v).as_work().expect("work window state").sum(),
                    sum,
                    "shard members must agree on the shard sum"
                );
            }
            total = total.wrapping_add(sum);
        }
        window_totals.push(total);

        // -- Contention check + re-sharding attempt --------------------
        let Some(monitor) = monitor.as_mut() else {
            continue; // static attachment: no monitor, no attempts
        };
        let report = monitor.observe(&eng.channel_costs());
        let Some(decision) = report.decision else {
            continue;
        };
        if window + 1 == windows {
            continue; // no further window would benefit
        }
        let on_roster = |v: NodeId| {
            let c = chan_of[v.index()];
            c == decision.hot || c == decision.cold
        };
        // Ascending, as `ReshardSpec` requires: `g.nodes()` is.
        let roster: Vec<NodeId> = g.nodes().filter(|&v| on_roster(v)).collect();
        if !(2..=MAX_ROSTER).contains(&roster.len()) {
            continue;
        }
        let spec = ReshardSpec::new(
            roster.clone(),
            decision.hot,
            decision.cold,
            seed.wrapping_add(u64::from(window)),
        );
        // Everyone on the roster attaches to the hot channel for the
        // attempt; bystanders keep their current attachment.
        let reshard_masks: Vec<u64> = g
            .nodes()
            .map(|v| {
                if on_roster(v) {
                    1u64 << decision.hot.index()
                } else {
                    1u64 << chan_of[v.index()].index()
                }
            })
            .collect();
        eng.reattach(&reshard_masks);
        eng.update_nodes(&mut |v, p| {
            *p = RebalancePhase::Reshard(if on_roster(v) {
                ReshardNode::new(spec.clone(), v)
            } else {
                ReshardNode::bystander()
            });
        });
        // Stream words + cut + notify/veto/observe, plus retry slack for
        // erasures and partitions.  A stalled attempt (crashed leader) is
        // treated as an abort.
        let words = (spec.roster.len() as u64).div_ceil(3) + 2;
        let limit = eng.round() + words + 16;
        let completed = eng.run(limit).is_completed();
        let leader = eng
            .node(roster[0])
            .as_reshard()
            .expect("re-sharding attempt state");
        let committed = completed && leader.committed() == Some(true);
        let (cut, tree_checksum) = if committed {
            (
                leader.cut_child().unwrap_or(0),
                leader.checksum().unwrap_or(0),
            )
        } else {
            (0, 0)
        };
        let mut migrated = 0u32;
        if committed {
            // The merged roster re-shards along the cut: the migrating
            // subtree to the cold channel, the rest to the hot channel.
            let migrators = leader.migrating_nodes();
            for &v in &roster {
                let target = if migrators.binary_search(&v).is_ok() {
                    decision.cold
                } else {
                    decision.hot
                };
                if chan_of[v.index()] != target {
                    migrated += 1;
                    chan_of[v.index()] = target;
                }
            }
            migrations += u64::from(migrated);
        }
        events.push(ReshardEvent {
            window,
            hot: decision.hot,
            cold: decision.cold,
            hot_load: decision.hot_load,
            cold_load: decision.cold_load,
            committed,
            migrated,
            cut,
            tree_checksum,
        });
    }

    let run = RebalanceRun {
        window_totals,
        events,
        migrations,
        cost: engine.as_ref().map(|e| e.cost()).unwrap_or_default(),
        k,
    };
    (run, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::generators;

    fn values(n: usize) -> Vec<u64> {
        (0..n as u64).map(|v| v * 7 + 3).collect()
    }

    #[test]
    fn zipf_assignment_is_skewed_and_total() {
        let chans = zipf_channels(1000, 8, 1);
        assert_eq!(chans.len(), 1000);
        let mut counts = [0usize; 8];
        for c in &chans {
            counts[c.index()] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        // Harmonic: channel 0 carries ~1/H_8 of the nodes, the tail ~1/8th
        // of that.
        assert!(counts[0] > 5 * counts[7], "assignment must be skewed");
        assert_eq!(chans, zipf_channels(1000, 8, 1), "deterministic");
    }

    #[test]
    fn rebalancing_cuts_the_round_count() {
        let n = 256;
        let g = generators::Family::Grid.generate(n, 5);
        let net = MultimediaNetwork::new(g);
        let vals = values(n);
        let chans = zipf_channels(n, 8, 1);
        let windows = 6;
        let static_run = rebalanced_sum(
            &net,
            &vals,
            &chans,
            8,
            windows,
            None,
            11,
            None,
            MergeSubstrate::Flat,
        );
        let adaptive = rebalanced_sum(
            &net,
            &vals,
            &chans,
            8,
            windows,
            Some(2),
            11,
            None,
            MergeSubstrate::Flat,
        );
        let expect: u64 = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        for run in [&static_run, &adaptive] {
            assert_eq!(run.window_totals.len(), windows as usize);
            for &t in &run.window_totals {
                assert_eq!(t, expect, "every window totals the global sum");
            }
        }
        assert!(adaptive.migrations > 0, "the monitor must fire and commit");
        assert!(
            adaptive.rounds() < static_run.rounds(),
            "adaptive {} rounds must beat static {}",
            adaptive.rounds(),
            static_run.rounds()
        );
    }

    /// The driver always builds a sparse engine; a dense one is reachable
    /// only here, by overriding the builder, to pin that frontier stepping
    /// changes nothing observable on any in-process substrate — and that the
    /// frontier really is a fraction of the nodes, not a wake-all in
    /// disguise.
    #[test]
    fn sparse_driver_matches_dense_and_steps_a_fraction_of_the_nodes() {
        let (n, k, windows) = (576, 16, 6); // a 24 × 24 grid
        let g = generators::Family::Grid.generate(n, 5);
        let net = MultimediaNetwork::new(g);
        let vals = values(n);
        let chans = zipf_channels(n, k, 1);
        macro_rules! sparse_and_dense {
            ($build:ident) => {{
                let run = |sparse: bool| {
                    rebalanced_sum_generic(
                        &net,
                        &vals,
                        &chans,
                        k,
                        windows,
                        Some(2),
                        11,
                        None,
                        |b, init| {
                            assert!(b.is_sparse(), "the driver asks for the frontier");
                            b.clone().sparse(sparse).$build(init)
                        },
                    )
                };
                let ((sparse, engine), (dense, _)) = (run(true), run(false));
                assert!(sparse.migrations > 0, "the monitor must fire and commit");
                assert_eq!(sparse.checksum(), dense.checksum());
                assert_eq!(sparse.cost, dense.cost);
                assert_eq!(sparse.events, dense.events);
                (sparse, engine.expect("windows > 0"))
            }};
        }
        let (flat, engine) = sparse_and_dense!(build_flat);
        let dense_steps = flat.rounds() * n as u64;
        assert!(
            engine.total_stepped() * 10 < dense_steps * 6,
            "frontier stepped {} of {dense_steps} dense node steps",
            engine.total_stepped()
        );
        for other in [
            sparse_and_dense!(build_reference).0,
            sparse_and_dense!(build_lockstep).0,
        ] {
            assert_eq!(other.checksum(), flat.checksum());
            assert_eq!(other.cost, flat.cost);
        }
    }

    #[test]
    fn rebalancer_reconverges_across_a_healed_partition() {
        let n = 64;
        let g = generators::Family::Grid.generate(n, 3);
        let net = MultimediaNetwork::new(g);
        let vals = values(n);
        let chans = zipf_channels(n, 4, 1);
        // The cut isolates the first half of the grid while the first
        // re-sharding attempt's notify round is in flight: its census
        // mismatches, the veto slot fires, and nothing migrates.  The
        // window heals long before the run ends, so a later attempt
        // commits.
        // Cutting through the middle of the hot shard's grid block
        // guarantees migrating members have roster graph-neighbours on the
        // far side.
        let side: Vec<NodeId> = (0..n / 4).map(NodeId).collect();
        let plan = FaultPlan::none().with_partition(0, 60, side);
        let run = rebalanced_sum(
            &net,
            &vals,
            &chans,
            4,
            8,
            Some(2),
            23,
            Some(plan.clone()),
            MergeSubstrate::Flat,
        );
        let expect: u64 = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        for &t in &run.window_totals {
            assert_eq!(t, expect, "channel traffic is unaffected by the cut");
        }
        assert!(run.events.len() >= 2, "abort then retry: {:?}", run.events);
        assert!(
            !run.events[0].committed && run.events[0].migrated == 0,
            "the partitioned attempt must veto: {:?}",
            run.events[0]
        );
        assert!(
            run.events.iter().any(|e| e.committed),
            "a post-heal attempt must commit: {:?}",
            run.events
        );
        assert!(run.migrations > 0);
        // The faulted trace is part of the conformance surface too.
        for which in [
            MergeSubstrate::Reference,
            MergeSubstrate::AsyncLockstep,
            MergeSubstrate::Wire,
        ] {
            let other = rebalanced_sum(
                &net,
                &vals,
                &chans,
                4,
                8,
                Some(2),
                23,
                Some(plan.clone()),
                which,
            );
            assert_eq!(other.events, run.events, "{which:?}");
            assert_eq!(other.cost, run.cost, "{which:?}");
            assert_eq!(other.checksum(), run.checksum(), "{which:?}");
        }
    }

    #[test]
    fn schedule_is_pinned_on_the_mmbench_instance_shape() {
        // `reshard-loop-flat`'s shape (ring, K = 16, Zipf exponent 1, skew 2,
        // its walk seed, six windows; its own n in release, a small one in
        // debug): a change to the members' work at the cut that alters a
        // cut, a checksum or the traffic fails here, not in the bench.
        // Each pinned event is `(window, cut, tree_checksum, migrated)`.
        let (n, rounds, p2p, migrations, events) = if cfg!(debug_assertions) {
            (
                1_024,
                1_422,
                585,
                450,
                [
                    (0, 117, 368_347_317, 153),
                    (1, 67, 1_097_764_744, 87),
                    (2, 42, 721_279_945, 63),
                    (3, 115, 2_783_237_071, 87),
                    (4, 22, 3_744_794_099, 60),
                ],
            )
        } else {
            (
                8_192,
                11_301,
                6_408,
                4_106,
                [
                    (0, 661, 2_864_231_612, 1_436),
                    (1, 536, 904_427_440, 714),
                    (2, 692, 1_906_718_081, 685),
                    (3, 425, 625_555_210, 568),
                    (4, 167, 887_794_321, 703),
                ],
            )
        };
        let net = MultimediaNetwork::new(generators::ring(n));
        let chans = zipf_channels(n, 16, 1);
        let run = rebalanced_sum(
            &net,
            &values(n),
            &chans,
            16,
            6,
            Some(2),
            0x5eed,
            None,
            MergeSubstrate::Flat,
        );
        assert_eq!(
            (run.rounds(), run.cost.p2p_messages, run.migrations),
            (rounds, p2p, migrations)
        );
        assert!(run.events.iter().all(|e| e.committed), "{:?}", run.events);
        let got: Vec<(u32, u32, u32, u32)> = run
            .events
            .iter()
            .map(|e| (e.window, e.cut, e.tree_checksum, e.migrated))
            .collect();
        assert_eq!(got, events);
    }

    /// K = 2 shards of 8 193 and 8 192 nodes: at skew 1 the monitor pairs
    /// them, and their merged roster is one member over `MAX_ROSTER`.  The
    /// attempt is skipped — no event, no panic — and both windows total.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "a 16 385-node run; release only")]
    fn a_roster_over_the_limit_skips_the_attempt() {
        let n = MAX_ROSTER + 1;
        let net = MultimediaNetwork::new(generators::ring(n));
        let vals = values(n);
        let chans: Vec<ChannelId> = (0..n).map(|v| ChannelId(u16::from(v > n / 2))).collect();
        let run = rebalanced_sum(
            &net,
            &vals,
            &chans,
            2,
            2,
            Some(1),
            0x5eed,
            None,
            MergeSubstrate::Flat,
        );
        let expect: u64 = vals.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        assert_eq!(run.window_totals, vec![expect; 2]);
        assert!(run.events.is_empty(), "{:?}", run.events);
        assert_eq!(run.migrations, 0);
    }

    #[test]
    fn trace_is_pinned_across_all_four_substrates() {
        let n = 64;
        let g = generators::Family::Grid.generate(n, 3);
        let net = MultimediaNetwork::new(g);
        let vals = values(n);
        let chans = zipf_channels(n, 4, 1);
        let runs: Vec<RebalanceRun> = [
            MergeSubstrate::Flat,
            MergeSubstrate::Reference,
            MergeSubstrate::AsyncLockstep,
            MergeSubstrate::Wire,
        ]
        .into_iter()
        .map(|which| rebalanced_sum(&net, &vals, &chans, 4, 5, Some(2), 23, None, which))
        .collect();
        assert!(!runs[0].events.is_empty(), "the monitor must fire");
        for r in &runs[1..] {
            assert_eq!(r.window_totals, runs[0].window_totals);
            assert_eq!(r.events, runs[0].events);
            assert_eq!(r.migrations, runs[0].migrations);
            assert_eq!(r.cost, runs[0].cost);
            assert_eq!(r.checksum(), runs[0].checksum());
        }
    }
}
