//! Property tests of the adaptive re-sharding protocol
//! (`netsim_sim::reshard`).
//!
//! Four contracts:
//!
//! 1. **seed determinism + balance bound** — the leader's Wilson walk is a
//!    pure function of `(m, seed)` and a genuine spanning tree, and
//!    [`balance_cut`] picks the *globally* balance-optimal tree edge, so
//!    the post-cut imbalance `|2·size − m|` is minimal over every possible
//!    single-edge cut;
//! 2. **permutation invariance** — the protocol's verdict, cut index,
//!    checksum and migrating-index set depend only on `(m, seed)`, not on
//!    which concrete `NodeId`s make up the roster;
//! 3. **no stranded nodes** — a committed attempt splits the roster into
//!    two non-empty sides whose union is the whole roster, so every member
//!    has exactly one definite destination channel;
//! 4. **substrate and stepping independence** — an adaptive loop of
//!    sharded-sum windows and re-sharding attempts under a *random* skewed
//!    assignment schedule produces a bit-identical observable trace on the
//!    dense flat engine, the sparse flat engine, and the reference engine.

use netsim_graph::{generators, NodeId};
use netsim_sim::reshard::{
    balance_cut, subtree_members, wilson_parents, ContentionMonitor, ReshardNode, ReshardSpec,
};
use netsim_sim::{
    protocols::ChannelShardedSum, ChannelId, ChannelSet, EngineBuilder, EngineControl, Protocol,
    RoundIo,
};
use proptest::prelude::*;
use testkit::mix;

/// Runs one re-sharding attempt over `roster` (a sorted subset of the
/// ring's nodes) and returns `(cut, checksum, migrating indices)`.
fn run_attempt(n: usize, roster: Vec<NodeId>, seed: u64) -> (u32, u32, Vec<u32>) {
    let g = generators::ring(n);
    let spec = ReshardSpec::new(roster.clone(), ChannelId(0), ChannelId(1), seed);
    let masks: Vec<u64> = (0..n)
        .map(|v| {
            if roster.binary_search(&NodeId(v)).is_ok() {
                0b01
            } else {
                0b10
            }
        })
        .collect();
    let builder = EngineBuilder::new(&g).channels(ChannelSet::from_masks(2, masks));
    let mut eng = builder.build_flat(|v| {
        if roster.binary_search(&v).is_ok() {
            ReshardNode::new(spec.clone(), v)
        } else {
            ReshardNode::bystander()
        }
    });
    let words = (roster.len() as u64).div_ceil(3) + 2;
    assert!(eng.run(words + 16).is_completed(), "attempt quiesces");
    let leader = eng.node(roster[0]);
    assert_eq!(leader.committed(), Some(true), "fault-free attempt commits");
    let migrating: Vec<u32> = roster
        .iter()
        .enumerate()
        .filter(|(_, v)| leader.migrating_nodes().binary_search(v).is_ok())
        .map(|(i, _)| i as u32)
        .collect();
    for &v in &roster {
        let node = eng.node(v);
        assert_eq!(node.committed(), Some(true), "verdict is unanimous");
        assert_eq!(node.cut_child(), leader.cut_child());
        assert_eq!(node.migrating_nodes(), leader.migrating_nodes());
    }
    (
        leader.cut_child().expect("committed attempt has a cut"),
        leader.checksum().expect("committed attempt has a checksum"),
        migrating,
    )
}

/// Work-or-reshard protocol of the adaptive mini-loop (the test-local
/// equivalent of `multimedia::rebalance::RebalancePhase`).
#[derive(Clone, Debug)]
enum Step {
    Work(ChannelShardedSum),
    Shard(ReshardNode),
}

impl Protocol for Step {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        match self {
            Step::Work(w) => w.step(io),
            Step::Shard(r) => r.step(io),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            Step::Work(w) => w.is_done(),
            Step::Shard(r) => r.is_done(),
        }
    }
}

/// The adaptive loop, generic over substrate: `windows` repetitions of the
/// sharded sum under a random skewed assignment, re-sharding the
/// monitor-paired extremes between repetitions.  Returns the folded
/// observable trace (shard sums, verdicts, migrations, reconciled costs).
fn adaptive_trace<'g, E, B>(
    n: usize,
    k: u16,
    seed: u64,
    windows: u32,
    g: &'g netsim_graph::Graph,
    build: B,
) -> Vec<u64>
where
    E: EngineControl<Step>,
    B: FnOnce(&EngineBuilder<'g>, &mut dyn FnMut(NodeId) -> Step) -> E,
{
    // Random skewed initial assignment: node v on channel mix(seed, v)^2
    // biased towards channel 0.
    let mut chan_of: Vec<ChannelId> = (0..n)
        .map(|v| {
            let r = mix(seed, v as u64) % u64::from(k);
            ChannelId(((r * r) / u64::from(k)) as u16)
        })
        .collect();
    let mut monitor = ContentionMonitor::new(k, 1);
    let mut engine: Option<E> = None;
    let mut build = Some(build);
    let mut trace = Vec::new();

    for window in 0..windows {
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); usize::from(k)];
        for v in 0..n {
            members[chan_of[v].index()].push(NodeId(v));
        }
        let masks: Vec<u64> = chan_of.iter().map(|c| 1u64 << c.index()).collect();
        let mut init = |v: NodeId| {
            let c = chan_of[v.index()];
            let shard = &members[c.index()];
            let rank = shard.binary_search(&v).expect("in own shard") as u64;
            Step::Work(ChannelShardedSum::with_assignment(
                c,
                rank,
                shard.len() as u64,
                v.index() as u64 * 5 + 1,
            ))
        };
        match &mut engine {
            None => {
                let builder =
                    EngineBuilder::new(g).channels(ChannelSet::from_masks(k, masks.clone()));
                engine = Some((build.take().expect("one-shot"))(&builder, &mut init));
            }
            Some(e) => {
                e.reattach(&masks);
                e.update_nodes(&mut |v, p| *p = init(v));
            }
        }
        let eng = engine.as_mut().expect("engine constructed");
        let max_shard = members.iter().map(Vec::len).max().unwrap_or(0) as u64;
        let limit = eng.round() + max_shard + 8;
        assert!(eng.run(limit).is_completed(), "work window quiesces");
        for v in 0..n {
            if let Step::Work(w) = eng.node(NodeId(v)) {
                trace.push(w.sum());
            }
        }
        trace.push(eng.cost().rounds);
        for c in eng.channel_costs() {
            trace.push(c.slots_busy() + c.lanes_busy);
        }

        let report = monitor.observe(&eng.channel_costs());
        let Some(d) = report.decision else { continue };
        if window + 1 == windows {
            continue;
        }
        let roster: Vec<NodeId> = (0..n)
            .map(NodeId)
            .filter(|&v| chan_of[v.index()] == d.hot || chan_of[v.index()] == d.cold)
            .collect();
        if roster.len() < 2 {
            continue;
        }
        let spec = ReshardSpec::new(roster.clone(), d.hot, d.cold, mix(seed, u64::from(window)));
        let reshard_masks: Vec<u64> = (0..n)
            .map(|v| {
                if roster.binary_search(&NodeId(v)).is_ok() {
                    1u64 << d.hot.index()
                } else {
                    1u64 << chan_of[v].index()
                }
            })
            .collect();
        eng.reattach(&reshard_masks);
        eng.update_nodes(&mut |v, p| {
            *p = Step::Shard(if roster.binary_search(&v).is_ok() {
                ReshardNode::new(spec.clone(), v)
            } else {
                ReshardNode::bystander()
            });
        });
        let words = (roster.len() as u64).div_ceil(3) + 2;
        let limit = eng.round() + words + 16;
        assert!(eng.run(limit).is_completed(), "attempt quiesces");
        let leader = eng.node(roster[0]);
        let Step::Shard(leader) = leader else {
            panic!("attempt state")
        };
        trace.push(u64::from(leader.committed() == Some(true)));
        if leader.committed() == Some(true) {
            let migrators = leader.migrating_nodes();
            for &v in &roster {
                chan_of[v.index()] = if migrators.binary_search(&v).is_ok() {
                    d.cold
                } else {
                    d.hot
                };
                trace.push(mix(v.index() as u64, chan_of[v.index()].index() as u64));
            }
        }
        trace.push(eng.cost().rounds);
    }
    let cost = engine.as_ref().map(|e| e.cost()).unwrap_or_default();
    trace.push(cost.rounds);
    trace.push(cost.p2p_messages);
    trace.push(cost.channel_writes);
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Contract 1: seed determinism of the walk, spanning-tree validity,
    /// and global optimality of the balance cut.
    #[test]
    fn wilson_walk_is_deterministic_and_cut_is_balance_optimal(
        m in 2usize..220,
        seed in 0u64..1_000_000,
    ) {
        let a = wilson_parents(m, seed);
        prop_assert_eq!(&a, &wilson_parents(m, seed));
        prop_assert_eq!(a[0], 0);
        for start in 1..m {
            let mut v = start;
            let mut hops = 0;
            while v != 0 {
                v = a[v] as usize;
                hops += 1;
                prop_assert!(hops <= m, "cycle in parent array");
            }
        }
        let (cut, size) = balance_cut(&a);
        prop_assert!(cut >= 1 && cut < m);
        prop_assert!(size >= 1 && size < m);
        // Globally optimal: no other tree edge cuts more evenly.
        let best = (1..m)
            .map(|c| (2 * subtree_members(&a, c).iter().filter(|&&x| x).count()).abs_diff(m))
            .min()
            .expect("m >= 2");
        prop_assert_eq!((2 * size).abs_diff(m), best);
    }

    /// Contracts 2 + 3: the committed outcome is a pure function of
    /// `(m, seed)` — two disjoint rosters of the same size agree index for
    /// index — and the cut never strands a member: both sides are
    /// non-empty and partition the roster.
    #[test]
    fn attempt_is_permutation_invariant_and_strands_nobody(
        m in 2usize..24,
        gap in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let n = 2 * m + gap + 2;
        // Roster A: the even positions; roster B: a shifted contiguous run.
        let a: Vec<NodeId> = (0..m).map(|i| NodeId(2 * i)).collect();
        let b: Vec<NodeId> = (0..m).map(|i| NodeId(i + gap + 1)).collect();
        let (cut_a, ck_a, mig_a) = run_attempt(n, a, seed);
        let (cut_b, ck_b, mig_b) = run_attempt(n, b, seed);
        prop_assert_eq!(cut_a, cut_b);
        prop_assert_eq!(ck_a, ck_b);
        prop_assert_eq!(&mig_a, &mig_b, "migrating index sets agree");
        // No stranding: the migrating side and its complement are both
        // non-empty and together cover the roster.
        prop_assert!(!mig_a.is_empty());
        prop_assert!(mig_a.len() < m);
        prop_assert!(mig_a.iter().all(|&i| (i as usize) < m));
    }

    /// Contract 4: dense flat ≡ sparse flat ≡ reference over a full
    /// adaptive loop under a random skewed assignment schedule.
    #[test]
    fn adaptive_loop_is_substrate_and_stepping_independent(
        n in 6usize..28,
        k in 2u16..5,
        seed in 0u64..1_000_000,
        windows in 2u32..5,
    ) {
        let g = generators::ring(n);
        let dense = adaptive_trace(n, k, seed, windows, &g, |b, init| b.build_flat(init));
        let sparse = adaptive_trace(n, k, seed, windows, &g, |b, init| {
            let b = b.clone().sparse(true);
            b.build_flat(init)
        });
        let reference = adaptive_trace(n, k, seed, windows, &g, |b, init| b.build_reference(init));
        prop_assert_eq!(&dense, &sparse, "sparse stepping must not change the trace");
        prop_assert_eq!(&dense, &reference, "reference engine must agree");
    }
}
