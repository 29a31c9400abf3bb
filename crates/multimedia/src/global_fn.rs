//! Computing **global sensitive functions** on a multimedia network
//! (Section 5.1 of the paper).
//!
//! A global sensitive function is an `n`-variate function over a commutative
//! semigroup whose value cannot be determined from any `n − 1` of its inputs
//! (e.g. sum, minimum, exclusive-or).  The paper computes such functions in
//! two stages:
//!
//! * a **local stage** on the point-to-point network: each tree of the
//!   partition aggregates its inputs up to its core with a
//!   broadcast-and-respond (executed here as a genuine message-passing
//!   protocol on the synchronous engine);
//! * a **global stage** on the multiaccess channel: the `O(√n)` cores are
//!   scheduled on the channel — deterministically with Capetanakis' tree
//!   resolution or randomly with Metcalfe–Boggs — and broadcast their partial
//!   results, which every node combines locally.
//!
//! The deterministic variant balances the two stages by stopping the
//! partition earlier (fragments of size `√(n/(log n·log* n))`), giving
//! `O(√(n·log n·log* n))` time; the randomized variant runs in expected
//! `O(√n·log* n)` time.

use crate::model::MultimediaNetwork;
use crate::mst::{on_substrate, MergeSubstrate};
use crate::partition::{deterministic, randomized, PartitionOutcome};
use channel_access::assigned::{LaneElectionSeries, Seat};
use channel_access::{backoff, capetanakis, Contender};
use netsim_graph::{ceil_log2, log_star, NodeId, SpanningForest};
use netsim_sim::{
    protocols::Convergecast, ChannelId, ChannelSet, CostAccount, EngineBuilder, EngineControl,
    Protocol, RoundIo, SlotOutcome, MAX_CHANNELS,
};

/// A commutative semigroup element: the domain of a global sensitive function.
///
/// Implementations must be commutative and associative; the provided wrappers
/// ([`Sum`], [`Min`], [`Max`], [`Xor`]) are the examples the paper lists.
pub trait Semigroup: Clone {
    /// The semigroup operation.
    fn combine(&self, other: &Self) -> Self;
}

/// Addition over `u64` (wrapping, to stay total).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sum(pub u64);
impl Semigroup for Sum {
    fn combine(&self, other: &Self) -> Self {
        Sum(self.0.wrapping_add(other.0))
    }
}

/// Minimum over `u64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Min(pub u64);
impl Semigroup for Min {
    fn combine(&self, other: &Self) -> Self {
        Min(self.0.min(other.0))
    }
}

/// Maximum over `u64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Max(pub u64);
impl Semigroup for Max {
    fn combine(&self, other: &Self) -> Self {
        Max(self.0.max(other.0))
    }
}

/// Exclusive-or over `u64` (addition modulo two in every bit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Xor(pub u64);
impl Semigroup for Xor {
    fn combine(&self, other: &Self) -> Self {
        Xor(self.0 ^ other.0)
    }
}

/// Result of a global-sensitive-function computation, with the per-stage cost
/// breakdown the experiments report.
#[derive(Clone, Debug)]
pub struct GlobalFnRun<T> {
    /// The function value, known to every node at the end.
    pub value: T,
    /// Number of trees (cores) produced by the partition stage.
    pub tree_count: usize,
    /// Cost of building the partition.
    pub partition_cost: CostAccount,
    /// Cost of the local (point-to-point) aggregation stage.
    pub local_cost: CostAccount,
    /// Cost of the global (channel) stage.
    pub global_cost: CostAccount,
}

impl<T> GlobalFnRun<T> {
    /// Total cost of all three stages.
    pub fn total_cost(&self) -> CostAccount {
        self.partition_cost + self.local_cost + self.global_cost
    }
}

/// The partition level that balances the local and global stages of the
/// deterministic algorithm (Section 5.1): fragments of size
/// `√(n / (log n · log* n))`, hence `O(√(n·log n·log* n))` cores.
pub fn balanced_target_level(net: &MultimediaNetwork) -> u32 {
    let n = net.node_count().max(2) as f64;
    let denom = (n.log2() * f64::from(log_star(net.node_count() as u64).max(1))).max(1.0);
    let size = (n / denom).sqrt().max(1.0);
    ceil_log2(size.ceil() as u64)
}

/// Runs the local stage: every tree of `forest` aggregates its members'
/// inputs up to its core with a convergecast executed on the synchronous
/// engine.  Returns the per-core partial values and the measured cost.
pub fn local_aggregate<T: Semigroup>(
    net: &MultimediaNetwork,
    forest: &SpanningForest,
    inputs: &[T],
) -> (Vec<(NodeId, T)>, CostAccount) {
    let g = net.graph();
    assert_eq!(inputs.len(), g.node_count(), "one input per processor");
    let mut engine = EngineBuilder::new(g).build_flat(|v| {
        Convergecast::new(
            forest.parent(v),
            forest.children(v).count(),
            inputs[v.index()].clone(),
            |a: &T, b: &T| a.combine(b),
        )
    });
    let limit = 4 * (forest.max_radius() as u64 + 2);
    let outcome = engine.run(limit);
    assert!(
        outcome.is_completed(),
        "convergecast must finish within O(radius) rounds"
    );
    let partials: Vec<(NodeId, T)> = forest
        .roots()
        .iter()
        .map(|&r| (r, engine.node(r).result().clone()))
        .collect();
    (partials, engine.cost())
}

fn combine_all<T: Semigroup>(partials: &[(NodeId, T)]) -> T {
    let mut iter = partials.iter();
    let first = iter.next().expect("at least one tree").1.clone();
    iter.fold(first, |acc, (_, v)| acc.combine(v))
}

/// Deterministic computation of a global sensitive function
/// (Section 5.1, deterministic variant).
///
/// Every processor contributes `inputs[v]`; the returned value is the
/// semigroup product of all inputs and is known to every processor.
///
/// # Panics
///
/// Panics if `inputs.len() != n`, if `n == 0`, or if the graph is disconnected.
pub fn compute_deterministic<T: Semigroup>(
    net: &MultimediaNetwork,
    inputs: &[T],
) -> GlobalFnRun<T> {
    assert!(net.node_count() > 0, "need at least one processor");
    let partition = deterministic::partition_to_level(net, balanced_target_level(net));
    compute_with_partition_deterministic(net, &partition, inputs)
}

/// Deterministic global computation on a pre-computed partition (useful when
/// several functions are evaluated over the same forest).
pub fn compute_with_partition_deterministic<T: Semigroup>(
    net: &MultimediaNetwork,
    partition: &PartitionOutcome,
    inputs: &[T],
) -> GlobalFnRun<T> {
    let (partials, local_cost) = local_aggregate(net, &partition.forest, inputs);

    // Global stage: schedule the cores with Capetanakis' tree resolution and
    // broadcast one partial value per success slot.
    let contenders: Vec<Contender> = partials
        .iter()
        .map(|&(r, _)| Contender::new(net.id_of(r)))
        .collect();
    let schedule = capetanakis::resolve(&contenders, net.id_space());
    let value = combine_all(&partials);
    GlobalFnRun {
        value,
        tree_count: partials.len(),
        partition_cost: partition.cost,
        local_cost,
        global_cost: schedule.cost,
    }
}

/// Randomized computation of a global sensitive function
/// (Section 5.1, randomized variant): randomized partition (Las-Vegas form)
/// plus Metcalfe–Boggs scheduling of the cores, expected `O(√n·log* n)` time.
///
/// # Panics
///
/// Panics if `inputs.len() != n`, if `n == 0`, or if the graph is disconnected.
pub fn compute_randomized<T: Semigroup>(
    net: &MultimediaNetwork,
    inputs: &[T],
    seed: u64,
) -> GlobalFnRun<T> {
    assert!(net.node_count() > 0, "need at least one processor");
    let lv = randomized::partition_las_vegas(net, seed);
    let partition = lv.outcome;
    let (partials, local_cost) = local_aggregate(net, &partition.forest, inputs);

    let contenders: Vec<Contender> = partials
        .iter()
        .map(|&(r, _)| Contender::new(net.id_of(r)))
        .collect();
    // The Las-Vegas partition guarantees at most 2√n cores, which is the
    // estimate the Metcalfe–Boggs scheduling uses.
    let estimate = (2.0 * (net.node_count() as f64).sqrt()).ceil() as u64 + 1;
    let mut global_cost = CostAccount::new();
    let mut attempt = 0u64;
    let schedule = loop {
        attempt += 1;
        match backoff::resolve_with_estimate(&contenders, estimate, seed ^ (attempt * 0x5bd1)) {
            Some(s) => break s,
            None => global_cost.add_idle_rounds(1),
        }
    };
    global_cost.absorb(&schedule.cost);

    let value = combine_all(&partials);
    GlobalFnRun {
        value,
        tree_count: partials.len(),
        partition_cost: partition.cost,
        local_cost,
        global_cost,
    }
}

// ---------------------------------------------------------------------------
// Channel-sharded global stage (engine-executed, per-group channels).
// ---------------------------------------------------------------------------

/// A [`Semigroup`] whose elements round-trip through a single channel word —
/// the `O(log n)`-bit data element the paper's channel slots carry.
///
/// Implementations must satisfy `from_word(x.to_word()) == x` for every
/// value the computation can produce; all four provided wrappers ([`Sum`],
/// [`Min`], [`Max`], [`Xor`]) are transparent `u64` newtypes.
pub trait WordSemigroup: Semigroup {
    /// Packs the value into a channel word.
    fn to_word(&self) -> u64;
    /// Unpacks a channel word heard on the channel.
    fn from_word(word: u64) -> Self;
}

impl WordSemigroup for Sum {
    fn to_word(&self) -> u64 {
        self.0
    }
    fn from_word(word: u64) -> Self {
        Sum(word)
    }
}
impl WordSemigroup for Min {
    fn to_word(&self) -> u64 {
        self.0
    }
    fn from_word(word: u64) -> Self {
        Min(word)
    }
}
impl WordSemigroup for Max {
    fn to_word(&self) -> u64 {
        self.0
    }
    fn from_word(word: u64) -> Self {
        Max(word)
    }
}
impl WordSemigroup for Xor {
    fn to_word(&self) -> u64 {
        self.0
    }
    fn from_word(word: u64) -> Self {
        Xor(word)
    }
}

/// One engine-executed phase of the sharded Section 5.1 pipeline.
///
/// The phase has two parts sharing one channel:
///
/// 1. **Rep election** (`horizon` rounds): slot 0 of a one-slot
///    [`LaneElectionSeries`] in which the phase's broadcasters contend with
///    their processor ids and every other group member sits as a listener —
///    the maximum id becomes the group representative the whole group
///    learns.  A phase with nothing to elect sets `horizon = 0` and an
///    inert, seatless series.
/// 2. **Data rounds** (`data_rounds` slots): TDMA over the channel's message
///    slot — the broadcaster with roster position `p` writes its packed
///    partial value in slot `p`, and *every* attached node folds each heard
///    word into its accumulator with the semigroup operation.
///
/// The driver composes two such phases ([`compute_sharded`]): a **group
/// phase** on per-group channels (each group folds its trees' partials and
/// elects its rep), then — after re-attaching everyone to channel 0 — a
/// **combine phase** in which the elected reps broadcast their group totals
/// to the whole network.  Both phases are executed by the engines; the
/// driver only reads results and re-seeds state between phases.
#[derive(Clone, Debug)]
pub struct ShardedGlobalFn<T> {
    series: LaneElectionSeries,
    /// Election rounds before the TDMA data rounds begin.
    horizon: u64,
    chan: ChannelId,
    /// This node's TDMA roster position (`None` for pure listeners).
    slot: Option<u32>,
    /// The packed partial this node broadcasts in its slot.
    word: Option<u64>,
    /// TDMA slots this phase schedules on the channel.
    data_rounds: u64,
    acc: Option<T>,
    round: u64,
    done: bool,
}

impl<T: WordSemigroup> ShardedGlobalFn<T> {
    /// Per-node phase state; `slot`/`word` are `Some` exactly for this
    /// phase's broadcasters.
    pub fn new(
        series: LaneElectionSeries,
        horizon: u64,
        chan: ChannelId,
        slot: Option<u32>,
        word: Option<u64>,
        data_rounds: u64,
    ) -> Self {
        ShardedGlobalFn {
            series,
            horizon,
            chan,
            slot,
            word,
            data_rounds,
            acc: None,
            round: 0,
            done: false,
        }
    }

    /// The semigroup fold of every word this node heard this phase.
    pub fn value(&self) -> Option<&T> {
        self.acc.as_ref()
    }

    /// The station id the phase's rep election resolved to (`None` before
    /// the election finishes or when the phase elects nothing).
    pub fn elected(&self) -> Option<u64> {
        self.series.winner()
    }
}

impl<T: WordSemigroup> Protocol for ShardedGlobalFn<T> {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        if self.done {
            return;
        }
        let r = self.round;
        self.round += 1;
        if r < self.horizon {
            self.series.step(io);
        }
        // Fold the word resolved from the previous data round's write.
        if r > self.horizon && r <= self.horizon + self.data_rounds {
            if let SlotOutcome::Success { msg, .. } = io.prev_slot_on(self.chan) {
                let heard = T::from_word(*msg);
                self.acc = Some(match &self.acc {
                    None => heard,
                    Some(acc) => acc.combine(&heard),
                });
            }
        }
        // TDMA write: roster position p owns data round p.
        if r >= self.horizon
            && r < self.horizon + self.data_rounds
            && self.slot == Some((r - self.horizon) as u32)
        {
            if let Some(w) = self.word {
                io.write_channel_on(self.chan, w);
            }
        }
        if r >= self.horizon + self.data_rounds {
            self.done = true;
        } else {
            io.wake_me();
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn on_recover(&mut self) {
        // A stale local round counter would desync both the election and the
        // TDMA schedule: retire inert, like the series.
        self.series.on_recover();
        self.done = true;
    }
}

/// Result of the channel-sharded global-function computation
/// ([`compute_sharded`]).
#[derive(Clone, Debug)]
pub struct ShardedGlobalFnRun<T> {
    /// The function value, known to (and verified identical on) every node.
    pub value: T,
    /// Number of trees (cores) produced by the partition stage.
    pub tree_count: usize,
    /// Number of per-channel groups the trees were sharded into
    /// (`min(tree_count, k)`).
    pub groups: usize,
    /// Shard factor `K` the global stage contended on.
    pub k: u16,
    /// Cost of building the partition.
    pub partition_cost: CostAccount,
    /// Cost of the local (point-to-point) aggregation stage.
    pub local_cost: CostAccount,
    /// Engine-measured cost of both channel phases (group + combine),
    /// reconciled across substrates.
    pub global_cost: CostAccount,
}

impl<T> ShardedGlobalFnRun<T> {
    /// Total cost of all three stages.
    pub fn total_cost(&self) -> CostAccount {
        self.partition_cost + self.local_cost + self.global_cost
    }

    /// Channel rounds the engine executed for the global stage — the number
    /// that drops with the shard factor in the `global_fn_sharded` benchmark
    /// section.
    pub fn global_rounds(&self) -> u64 {
        self.global_cost.rounds
    }
}

/// Runs the current global-stage phase to quiescence within `rounds` plus
/// slack.  Written once against [`EngineControl`]; the lockstep
/// substrate's round offset is folded into
/// [`round`](EngineControl::round), so the absolute limit is
/// substrate-agnostic.
fn run_global_phase<T, E>(eng: &mut E, rounds: u64)
where
    T: WordSemigroup,
    E: EngineControl<ShardedGlobalFn<T>>,
{
    let limit = eng.round() + rounds + 8;
    assert!(
        eng.run(limit).is_completed(),
        "global-stage phase must quiesce within its schedule"
    );
}

/// Channel-sharded deterministic computation of a global sensitive function:
/// the Section 5.1 pipeline with its global stage ported onto per-group
/// channels of a `K`-channel [`ChannelSet`], entirely engine-executed.
///
/// * **Group phase** — tree `i` of the partition is assigned to channel
///   `i mod K`, and every node attaches to its tree's channel.  On each
///   channel the attached cores elect a group representative by processor
///   id (slot 0 of a one-slot [`LaneElectionSeries`]), then broadcast their
///   tree partials in TDMA slots; every group member folds them into the
///   group total.
/// * **Combine phase** — the driver re-attaches all nodes to channel 0
///   (dynamic-attachment snapshot, as in the sharded MST) and re-seeds the
///   phase state; the `min(F, K)` elected reps broadcast their group totals
///   in TDMA slots, and every node folds them into the function value.
///
/// With `K` channels the group phase runs its `⌈F/K⌉`-ish broadcasts per
/// channel concurrently, so the busiest channel's round count — and with it
/// the engine-measured global-stage time — drops with the shard factor
/// (`sharded_global_rounds_drop_with_the_shard_factor`), while the
/// value stays exactly [`compute_deterministic`]'s on all four substrates.
///
/// # Panics
///
/// Panics if `inputs.len() != n`, `n == 0`, the graph is disconnected, or
/// `k` is outside `1..=`[`MAX_CHANNELS`].
pub fn compute_sharded<T: WordSemigroup>(
    net: &MultimediaNetwork,
    inputs: &[T],
    k: u16,
    which: MergeSubstrate,
) -> ShardedGlobalFnRun<T> {
    assert!(net.node_count() > 0, "need at least one processor");
    let partition = deterministic::partition_to_level(net, balanced_target_level(net));
    compute_sharded_with_partition(net, &partition, inputs, k, which)
}

/// [`compute_sharded`] on a pre-computed partition.
pub fn compute_sharded_with_partition<T: WordSemigroup>(
    net: &MultimediaNetwork,
    partition: &PartitionOutcome,
    inputs: &[T],
    k: u16,
    which: MergeSubstrate,
) -> ShardedGlobalFnRun<T> {
    on_substrate!(which, compute_sharded_generic(net, partition, inputs, k))
}

/// The substrate-generic body of [`compute_sharded_with_partition`]: both
/// channel phases written once against [`EngineControl`], with the
/// concrete engine supplied by a one-shot `build` closure over the shared
/// [`EngineBuilder`] snapshot of the group phase's attachment.
fn compute_sharded_generic<'g, T, E, B>(
    net: &'g MultimediaNetwork,
    partition: &PartitionOutcome,
    inputs: &[T],
    k: u16,
    build: B,
) -> ShardedGlobalFnRun<T>
where
    T: WordSemigroup,
    E: EngineControl<ShardedGlobalFn<T>>,
    B: FnOnce(&EngineBuilder<'g>, &mut dyn FnMut(NodeId) -> ShardedGlobalFn<T>) -> E,
{
    let g = net.graph();
    let n = g.node_count();
    assert!(n > 0, "need at least one processor");
    assert!(
        (1..=MAX_CHANNELS).contains(&k),
        "shard factor {k} outside 1..={MAX_CHANNELS}"
    );
    let (partials, local_cost) = local_aggregate(net, &partition.forest, inputs);
    let f = partials.len();

    // Group assignment: tree i -> channel i mod K; its core's TDMA roster
    // position is its rank among the trees on that channel.
    let mut roster = vec![0u32; f];
    let mut group_size = vec![0u32; k as usize];
    for (i, r) in roster.iter_mut().enumerate() {
        let c = i % k as usize;
        *r = group_size[c];
        group_size[c] += 1;
    }
    // Every node attaches to its tree's channel (partials follow the roots,
    // so tree `i` is partial `i`).
    let tree_of = |v: NodeId| partition.forest.tree_of(v);
    let chan_of = |v: NodeId| ChannelId((tree_of(v) % k as usize) as u16);
    let masks: Vec<u64> = g.nodes().map(|v| 1u64 << chan_of(v).index()).collect();

    // Group-phase broadcasters: the cores, with their roster slots and
    // packed tree partials.
    let mut slot_word: Vec<Option<(u32, u64)>> = vec![None; n];
    for (i, (r, val)) in partials.iter().enumerate() {
        slot_word[r.index()] = Some((roster[i], val.to_word()));
    }
    let bits = net.id_bits();
    let horizon = LaneElectionSeries::slot_rounds(bits);
    let mut init = |v: NodeId| {
        let c = chan_of(v);
        // The whole group sits in the one rep election; its cores contend.
        let seat = Seat {
            slot: 0,
            station: slot_word[v.index()].map(|_| net.id_of(v)),
        };
        ShardedGlobalFn::new(
            LaneElectionSeries::new(Some(seat), bits, 1, 1, c),
            horizon,
            c,
            slot_word[v.index()].map(|(p, _)| p),
            slot_word[v.index()].map(|(_, w)| w),
            u64::from(group_size[c.index()]),
        )
    };
    let builder = EngineBuilder::new(g).channels(ChannelSet::from_masks(k, masks));
    let mut engine = build(&builder, &mut init);
    let max_group = group_size.iter().copied().max().unwrap_or(0);
    run_global_phase(&mut engine, horizon + u64::from(max_group) + 1);

    // Group-phase harvest: the elected rep and folded total of every group.
    // Channels fill round-robin from 0, so channels 0..min(F, K) each host a
    // group.
    let groups = f.min(k as usize);
    let mut rep_of: Vec<Option<NodeId>> = vec![None; groups];
    for (i, &(r, _)) in partials.iter().enumerate() {
        let c = i % k as usize;
        let elected = engine
            .node(r)
            .elected()
            .expect("fault-free rep election must resolve");
        if elected == net.id_of(r) {
            rep_of[c] = Some(r);
        }
    }
    let group_val: Vec<T> = rep_of
        .iter()
        .enumerate()
        .map(|(c, rep)| {
            let rep = rep.unwrap_or_else(|| panic!("group {c} elected no attached core"));
            engine
                .node(rep)
                .value()
                .cloned()
                .expect("a group rep heard its own broadcast")
        })
        .collect();
    // Conformance: every member of a group folded the same group total.
    for v in g.nodes() {
        let c = tree_of(v) % k as usize;
        let folded = engine
            .node(v)
            .value()
            .cloned()
            .expect("every group member heard its group's broadcasts");
        assert_eq!(
            folded.to_word(),
            group_val[c].to_word(),
            "group members must agree on the group total"
        );
    }

    // Combine phase: everyone re-attaches to channel 0; the rep of group c
    // broadcasts the group total in TDMA slot c; nothing is elected.
    let masks_combine = vec![1u64; n];
    engine.reattach(&masks_combine);
    engine.update_nodes(&mut |v, p| {
        let c = tree_of(v) % k as usize;
        let mine = rep_of[c] == Some(v);
        *p = ShardedGlobalFn::new(
            LaneElectionSeries::new(None, bits, 0, 1, ChannelId(0)),
            0,
            ChannelId(0),
            mine.then_some(c as u32),
            mine.then(|| group_val[c].to_word()),
            groups as u64,
        );
    });
    run_global_phase(&mut engine, groups as u64 + 1);

    let value = engine
        .node(NodeId(0))
        .value()
        .cloned()
        .expect("every node heard every group total");
    for v in g.nodes() {
        let folded = engine
            .node(v)
            .value()
            .cloned()
            .expect("every node heard every group total");
        assert_eq!(
            folded.to_word(),
            value.to_word(),
            "all nodes must agree on the function value"
        );
    }
    ShardedGlobalFnRun {
        value,
        tree_count: f,
        groups,
        k,
        partition_cost: partition.cost,
        local_cost,
        global_cost: engine.cost(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::generators;

    fn inputs_sum(n: usize) -> (Vec<Sum>, u64) {
        let vals: Vec<Sum> = (0..n as u64).map(|i| Sum(i * 3 + 1)).collect();
        let expect = vals.iter().map(|s| s.0).sum();
        (vals, expect)
    }

    #[test]
    fn semigroup_wrappers() {
        assert_eq!(Sum(2).combine(&Sum(3)), Sum(5));
        assert_eq!(Min(2).combine(&Min(3)), Min(2));
        assert_eq!(Max(2).combine(&Max(3)), Max(3));
        assert_eq!(Xor(0b1100).combine(&Xor(0b1010)), Xor(0b0110));
    }

    #[test]
    fn deterministic_sum_on_families() {
        for fam in [
            generators::Family::Ring,
            generators::Family::Grid,
            generators::Family::RandomConnected,
            generators::Family::Ray,
        ] {
            let g = fam.generate(120, 5);
            let n = g.node_count();
            let net = MultimediaNetwork::new(g);
            let (vals, expect) = inputs_sum(n);
            let run = compute_deterministic(&net, &vals);
            assert_eq!(run.value.0, expect, "family {fam}");
            assert!(run.tree_count >= 1);
            assert!(run.total_cost().rounds > 0);
        }
    }

    #[test]
    fn randomized_min_matches_reference() {
        let g = generators::Family::Torus.generate(100, 8);
        let n = g.node_count();
        let net = MultimediaNetwork::new(g);
        let vals: Vec<Min> = (0..n as u64).map(|i| Min((i * 37 + 11) % 91 + 5)).collect();
        let expect = vals.iter().map(|m| m.0).min().unwrap();
        let run = compute_randomized(&net, &vals, 99);
        assert_eq!(run.value.0, expect);
    }

    #[test]
    fn xor_parity_on_ring() {
        let g = generators::ring(64);
        let net = MultimediaNetwork::new(g);
        let vals: Vec<Xor> = (0..64u64).map(|i| Xor(i % 2)).collect();
        let run = compute_deterministic(&net, &vals);
        assert_eq!(run.value.0, 0); // 32 ones XORed = 0
    }

    #[test]
    fn deterministic_time_beats_point_to_point_diameter_on_ring() {
        // The "power of multimedia": on a ring the point-to-point-only lower
        // bound is Ω(n), while the multimedia computation takes Õ(√n).
        let n = 2500;
        let g = generators::Family::Ring.generate(n, 1);
        let net = MultimediaNetwork::new(g);
        let (vals, expect) = inputs_sum(n);
        let run = compute_deterministic(&net, &vals);
        assert_eq!(run.value.0, expect);
        let total = run.total_cost().rounds;
        assert!(
            total < (n as u64) / 2,
            "multimedia time {total} should be well below the Ω(n/2) point-to-point bound"
        );
    }

    #[test]
    fn balanced_level_is_not_larger_than_full_level() {
        let g = generators::Family::Grid.generate(1024, 2);
        let net = MultimediaNetwork::new(g);
        assert!(balanced_target_level(&net) <= net.target_level());
        assert!(balanced_target_level(&net) >= 1);
    }

    #[test]
    fn reusing_a_partition_for_many_functions() {
        let g = generators::Family::RandomConnected.generate(150, 13);
        let n = g.node_count();
        let net = MultimediaNetwork::new(g);
        let partition = deterministic::partition(&net);
        let (sums, expect_sum) = inputs_sum(n);
        let mins: Vec<Min> = (0..n as u64).map(|i| Min(1000 - i)).collect();
        let s = compute_with_partition_deterministic(&net, &partition, &sums);
        let m = compute_with_partition_deterministic(&net, &partition, &mins);
        assert_eq!(s.value.0, expect_sum);
        assert_eq!(m.value.0, 1000 - (n as u64 - 1));
        assert_eq!(s.tree_count, m.tree_count);
    }

    #[test]
    fn single_node_network() {
        let net = MultimediaNetwork::new(generators::path(1));
        let run = compute_deterministic(&net, &[Sum(7)]);
        assert_eq!(run.value.0, 7);
        assert_eq!(run.tree_count, 1);
    }

    #[test]
    #[should_panic]
    fn wrong_input_length_rejected() {
        let net = MultimediaNetwork::new(generators::ring(5));
        let _ = compute_deterministic(&net, &[Sum(1), Sum(2)]);
    }

    #[test]
    fn sharded_matches_unsharded_across_shard_factors() {
        let g = generators::Family::Grid.generate(100, 3);
        let n = g.node_count();
        let net = MultimediaNetwork::new(g);
        let (vals, expect) = inputs_sum(n);
        let reference = compute_deterministic(&net, &vals);
        assert_eq!(reference.value.0, expect);
        for k in [1u16, 2, 4, 8] {
            let run = compute_sharded(&net, &vals, k, MergeSubstrate::Flat);
            assert_eq!(run.value.0, expect, "k = {k}");
            assert_eq!(run.tree_count, reference.tree_count);
            assert_eq!(run.groups, run.tree_count.min(k as usize));
            assert!(run.global_rounds() > 0);
        }
    }

    #[test]
    fn sharded_semigroups_beyond_sum() {
        let g = generators::Family::RandomConnected.generate(90, 21);
        let n = g.node_count();
        let net = MultimediaNetwork::new(g);
        let mins: Vec<Min> = (0..n as u64).map(|i| Min((i * 29 + 17) % 83 + 3)).collect();
        let expect_min = mins.iter().map(|m| m.0).min().unwrap();
        let run = compute_sharded(&net, &mins, 4, MergeSubstrate::Flat);
        assert_eq!(run.value.0, expect_min);
        let xors: Vec<Xor> = (0..n as u64).map(|i| Xor(i.wrapping_mul(0x9e37))).collect();
        let expect_xor = xors.iter().fold(0, |a, x| a ^ x.0);
        let run = compute_sharded(&net, &xors, 6, MergeSubstrate::Flat);
        assert_eq!(run.value.0, expect_xor);
    }

    #[test]
    fn sharded_is_pinned_across_all_four_substrates() {
        let g = generators::Family::Torus.generate(64, 11);
        let n = g.node_count();
        let net = MultimediaNetwork::new(g);
        let (vals, expect) = inputs_sum(n);
        let flat = compute_sharded(&net, &vals, 4, MergeSubstrate::Flat);
        assert_eq!(flat.value.0, expect);
        for which in [
            MergeSubstrate::Reference,
            MergeSubstrate::AsyncLockstep,
            MergeSubstrate::Wire,
        ] {
            let run = compute_sharded(&net, &vals, 4, which);
            assert_eq!(run.value.0, flat.value.0, "{which:?}");
            assert_eq!(run.groups, flat.groups, "{which:?}");
            assert_eq!(run.global_cost, flat.global_cost, "{which:?}");
        }
    }

    #[test]
    fn sharded_global_rounds_drop_with_the_shard_factor() {
        let g = generators::Family::Grid.generate(400, 9);
        let n = g.node_count();
        let net = MultimediaNetwork::new(g);
        let (vals, expect) = inputs_sum(n);
        let serial = compute_sharded(&net, &vals, 1, MergeSubstrate::Flat);
        let sharded = compute_sharded(&net, &vals, 8, MergeSubstrate::Flat);
        assert_eq!(serial.value.0, expect);
        assert_eq!(sharded.value.0, expect);
        assert!(
            sharded.global_rounds() < serial.global_rounds(),
            "8-way sharding must beat the single channel: {} vs {}",
            sharded.global_rounds(),
            serial.global_rounds()
        );
    }

    #[test]
    fn sharded_single_node() {
        let net = MultimediaNetwork::new(generators::path(1));
        let run = compute_sharded(&net, &[Sum(7)], 2, MergeSubstrate::Flat);
        assert_eq!(run.value.0, 7);
        assert_eq!(run.groups, 1);
    }
}
