//! The eight workloads: instance construction from the seed, one iteration
//! (build engine(s) → run to quiescence → read the result), and an oracle
//! that is not the code being timed.
//!
//! Engines are driven only through `EngineBuilder` / `EngineControl` /
//! `WireNet::from_builder` and the `multimedia` driver functions.  Sizes are
//! constants; the seed drives topology draws, input values and fault plans.

use crate::protocols::{Counted, Gossip, HopTokens};
use crate::spec::Layers;
use crate::trace::Tracer;
use multimedia::global_fn::{self, ShardedGlobalFnRun, Sum};
use multimedia::mst::{self, MergeSubstrate, ShardedMstRun};
use multimedia::partition::{deterministic, PartitionOutcome};
use multimedia::rebalance::{self, RebalanceRun};
use multimedia::MultimediaNetwork;
use netsim_graph::generators::Family;
use netsim_graph::{Graph, NodeId};
use netsim_io::WireNet;
use netsim_sim::protocols::ChannelShardedSum;
use netsim_sim::reshard;
use netsim_sim::wire::Frame;
use netsim_sim::{
    ChannelId, CostAccount, EngineBuilder, EngineControl, FaultEvent, FaultPlan, Protocol,
};
use std::hint::black_box;
use std::time::Instant;

/// The engine layer whose `run` span and per-round timings a workload's
/// iteration produces; `None` when a `multimedia` driver owns the engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    Flat,
    Lockstep,
    Wire,
}

impl Substrate {
    /// The layer's name in the per-layer table (the repo module's name).
    pub fn layer(self) -> &'static str {
        match self {
            Substrate::Flat => "engine",
            Substrate::Lockstep => "async_engine",
            Substrate::Wire => "netsim-io",
        }
    }
    fn build_span(self) -> &'static str {
        match self {
            Substrate::Flat | Substrate::Lockstep => "control.build",
            Substrate::Wire => "netsim-io.bind",
        }
    }
    pub fn run_span(self) -> &'static str {
        match self {
            Substrate::Flat => "engine.run",
            Substrate::Lockstep => "async_engine.run",
            Substrate::Wire => "netsim-io.run",
        }
    }
}

/// What one iteration produced.
pub struct Outcome {
    /// Every engine run quiesced inside its round limit.
    pub completed: bool,
    /// `cost()` of the iteration, summed over its stages.
    pub cost: CostAccount,
    /// `channel_costs()` of the engine; empty when a driver owns it.
    pub channel_costs: Vec<CostAccount>,
    /// `WireNet::bytes_sent()`; 0 off the wire.
    pub wire_bytes: u64,
    /// Node steps, counted by the harness's protocol wrappers; 0 when a
    /// driver owns the engine.
    pub node_steps: u64,
    pub answer: Answer,
}

/// The result an iteration read back — what the oracle checks.
// One per iteration and never stored in bulk: boxing the pipeline's result
// structs would only add an allocation to the measured region.
#[allow(clippy::large_enum_variant)]
pub enum Answer {
    /// Fold of all final node states, plus the steps that found mail.
    NodeFold {
        checksum: u64,
        mail_steps: u64,
    },
    /// Per-node shard sums and whether the node never crashed.
    ShardSums {
        sums: Vec<u64>,
        witness: Vec<bool>,
    },
    Pipeline {
        partition_a: PartitionOutcome,
        global: ShardedGlobalFnRun<Sum>,
        partition_b: PartitionOutcome,
        mst: ShardedMstRun,
        mst_weight: u128,
    },
    Rebalance(RebalanceRun),
}

impl Outcome {
    /// Order-sensitive digest of the answer, for the cross-substrate check.
    pub fn checksum(&self) -> u64 {
        match &self.answer {
            Answer::NodeFold { checksum, .. } => *checksum,
            Answer::ShardSums { sums, witness } => {
                fold_checksum(sums.iter().zip(witness).map(|(&s, &w)| s ^ u64::from(w)))
            }
            Answer::Pipeline { global, mst, .. } => global.value.0 ^ mst.checksum(),
            Answer::Rebalance(run) => run.checksum(),
        }
    }
}

/// A prepared workload instance.
pub trait Instance {
    fn substrate(&self) -> Option<Substrate>;
    fn edge_count(&self) -> usize;
    /// Computes the expected answer, untimed and outside `setup_s`.
    fn build_oracle(&mut self) -> Result<(), String>;
    fn iterate(&self, t: &mut Tracer) -> Outcome;
    /// Names the field that differs from the oracle, if any.
    fn verify(&self, outcome: &Outcome) -> Result<(), String>;
    /// Traced pass only: layer numbers that come from the last outcome or
    /// from measurements made outside the iterations.  `wall_s` is the run's
    /// untraced median iteration time.
    fn probe_layers(&self, _last: &Outcome, _wall_s: f64, _layers: &mut Layers) {}
}

/// Builds the named workload's instance from `seed`: graph generation (its
/// own span) plus network and input construction.
pub fn prepare(workload: &str, seed: u64, t: &mut Tracer) -> Option<Box<dyn Instance>> {
    let mut generate =
        |family: Family, n: usize, seed: u64| t.span("graph.generate", || family.generate(n, seed));
    let chansum =
        |graph, substrate, faulted| Box::new(ChanSum::new(graph, seed, substrate, faulted));
    Some(match workload {
        "gossip-dense-flat" => Box::new(GossipDense::new(
            generate(Family::Expander, GOSSIP_N, seed),
            seed,
        )),
        "tokens-sparse-flat" => Box::new(TokensSparse::new(
            generate(Family::PreferentialAttachment, TOKENS_N, seed),
            seed,
        )),
        "chansum-flat" => chansum(
            generate(Family::Ring, CHANSUM_N, seed),
            Substrate::Flat,
            false,
        ),
        "chansum-faulted-flat" => chansum(
            generate(Family::Ring, CHANSUM_N, seed),
            Substrate::Flat,
            true,
        ),
        "chansum-lockstep" => chansum(
            generate(Family::Ring, CHANSUM_N, seed),
            Substrate::Lockstep,
            false,
        ),
        "chansum-wire" => chansum(
            generate(Family::Ring, CHANSUM_N, seed),
            Substrate::Wire,
            false,
        ),
        // A ring of cliques has no random topology, only random weights, and
        // the weights decide how the partition and the MST phases go: a
        // constant draw keeps `sim_rounds` one number.  The seed drives the
        // input values.
        "paper-pipeline-flat" => Box::new(PaperPipeline::new(
            generate(Family::RingOfCliques, PIPELINE_N, PIPELINE_WEIGHT_SEED),
            seed,
        )),
        "reshard-loop-flat" => Box::new(ReshardLoop::new(
            generate(Family::Ring, RESHARD_N, seed),
            seed,
        )),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Stateless SplitMix64 draw `i` of stream `seed`: the harness's only source
/// of input randomness.
pub fn draw(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn input_values(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| draw(seed, i) | 1).collect()
}

/// Position-dependent fold, so equal values at different nodes still count.
fn fold_checksum(values: impl Iterator<Item = u64>) -> u64 {
    values.enumerate().fold(0u64, |acc, (i, x)| {
        acc.rotate_left(7) ^ x.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    })
}

/// Runs `eng` to quiescence or `limit` rounds inside a `span`.  The untraced
/// pass calls `run()`; the traced pass steps round by round and times each
/// `step_round()` from outside.
fn drive<P: Protocol, E: EngineControl<P>>(
    eng: &mut E,
    limit: u64,
    span: &'static str,
    t: &mut Tracer,
) -> bool {
    let id = t.enter(span);
    let completed = if t.enabled() {
        while !eng.is_quiescent() && eng.round() < limit {
            let start = Instant::now();
            eng.step_round();
            t.round_ns.push(start.elapsed().as_nanos() as f64);
        }
        eng.is_quiescent()
    } else {
        eng.run(limit).is_completed()
    };
    t.exit(id);
    completed
}

/// Builds an engine inside the substrate's build span, then drives it.
fn build_and_drive<P: Protocol, E: EngineControl<P>>(
    substrate: Substrate,
    limit: u64,
    build: impl FnOnce() -> E,
    t: &mut Tracer,
) -> (E, bool) {
    let mut eng = t.span(substrate.build_span(), build);
    let completed = drive(&mut eng, limit, substrate.run_span(), t);
    (eng, completed)
}

/// One flat iteration of a harness-owned protocol: build, run, and fold
/// every node's `(accumulator, steps, steps that found mail)`.
fn fold_run<P: Protocol, E: EngineControl<P>>(
    graph: &Graph,
    limit: u64,
    build: impl FnOnce() -> E,
    read: impl Fn(&P) -> (u64, u32, u32),
    t: &mut Tracer,
) -> Outcome {
    let (eng, completed) = build_and_drive(Substrate::Flat, limit, build, t);
    t.span("read", || {
        let (mut node_steps, mut mail_steps) = (0u64, 0u64);
        let checksum = fold_checksum(graph.nodes().map(|v| {
            let (acc, steps, mail) = read(eng.node(v));
            node_steps += u64::from(steps);
            mail_steps += u64::from(mail);
            acc
        }));
        Outcome {
            completed,
            cost: eng.cost(),
            channel_costs: Vec::new(),
            wire_bytes: 0,
            node_steps,
            answer: Answer::NodeFold {
                checksum,
                mail_steps,
            },
        }
    })
}

fn differs<T: PartialEq + std::fmt::Debug>(field: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{field}: got {got:?}, oracle says {want:?}"))
    }
}

/// `(rounds, p2p messages, checksum)` of a finished run.
type RunDigest = (u64, u64, u64);

fn digest(outcome: &Outcome) -> RunDigest {
    (
        outcome.cost.rounds,
        outcome.cost.p2p_messages,
        outcome.checksum(),
    )
}

fn verify_digest(outcome: &Outcome, want: RunDigest) -> Result<(), String> {
    differs("completed", outcome.completed, true)?;
    let got = digest(outcome);
    differs("sim_rounds", got.0, want.0)?;
    differs("p2p_messages", got.1, want.1)?;
    differs("checksum", got.2, want.2)
}

// ---------------------------------------------------------------------------
// gossip-dense-flat
// ---------------------------------------------------------------------------

/// Small enough that a round's working set (~200 B per node) stays inside the
/// core's private L2.  At n = 100 000 the run streams through the L3 it shares
/// with the host's other tenants, and iteration times swung by 30 % for tens
/// of seconds at a time — wider than any bound the driver accepts.
const GOSSIP_N: usize = 12_500;
const GOSSIP_ROUNDS: u32 = 240;

struct GossipDense {
    graph: Graph,
    values: Vec<u64>,
    reference: Option<RunDigest>,
}

impl GossipDense {
    fn new(graph: Graph, seed: u64) -> Self {
        let values = input_values(seed, graph.node_count());
        GossipDense {
            graph,
            values,
            reference: None,
        }
    }

    fn run<'g, E: EngineControl<Gossip>>(
        &'g self,
        build: impl FnOnce(&EngineBuilder<'g>, &dyn Fn(NodeId) -> Gossip) -> E,
        t: &mut Tracer,
    ) -> Outcome {
        let builder = EngineBuilder::new(&self.graph);
        let init = |v: NodeId| Gossip::new(self.values[v.index()], GOSSIP_ROUNDS);
        fold_run(
            &self.graph,
            u64::from(GOSSIP_ROUNDS) + 8,
            || build(&builder, &init),
            |node: &Gossip| (node.acc, node.steps, 0),
            t,
        )
    }
}

impl Instance for GossipDense {
    fn substrate(&self) -> Option<Substrate> {
        Some(Substrate::Flat)
    }
    fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }
    fn build_oracle(&mut self) -> Result<(), String> {
        // The reference engine is the oracle: same instance, clone path.
        let reference = self.run(|b, init| b.build_reference(init), &mut Tracer::new(false));
        differs("reference completed", reference.completed, true)?;
        differs(
            "reference p2p_messages",
            reference.cost.p2p_messages,
            2 * self.graph.edge_count() as u64 * u64::from(GOSSIP_ROUNDS),
        )?;
        self.reference = Some(digest(&reference));
        Ok(())
    }
    fn iterate(&self, t: &mut Tracer) -> Outcome {
        self.run(|b, init| b.build_flat(init), t)
    }
    fn verify(&self, outcome: &Outcome) -> Result<(), String> {
        verify_digest(outcome, self.reference.expect("oracle built first"))
    }
}

// ---------------------------------------------------------------------------
// tokens-sparse-flat
// ---------------------------------------------------------------------------

const TOKENS_N: usize = 1 << 20;
/// 0.1 % of the nodes hold a token.
const TOKENS: usize = 1048;
/// A token is sent `hops + 1` times, in rounds `0..=hops`, and the last send
/// is delivered one round later: the run takes `hops + 2` = 3000 rounds.
const TOKEN_HOPS: u32 = 2998;
/// Size of the sparse-vs-reference equality check.
const TOKENS_CHECK_N: usize = 1 << 14;

struct TokensSparse {
    graph: Graph,
    seed: u64,
    holders: Vec<bool>,
}

fn token_holders(seed: u64, n: usize, tokens: usize) -> Vec<bool> {
    let mut holders = vec![false; n];
    let mut placed = 0;
    let mut i = 0;
    while placed < tokens {
        let v = (draw(seed ^ 0x70_6b65_6e73, i) % n as u64) as usize;
        i += 1;
        if !holders[v] {
            holders[v] = true;
            placed += 1;
        }
    }
    holders
}

fn tokens_run<'g, E: EngineControl<HopTokens>>(
    graph: &'g Graph,
    holders: &[bool],
    hops: u32,
    sparse: bool,
    build: impl FnOnce(&EngineBuilder<'g>, &dyn Fn(NodeId) -> HopTokens) -> E,
    t: &mut Tracer,
) -> Outcome {
    let builder = EngineBuilder::new(graph).sparse(sparse);
    let init = |v: NodeId| HopTokens::new(v, holders[v.index()].then_some(hops));
    fold_run(
        graph,
        u64::from(hops) + 8,
        || build(&builder, &init),
        |node: &HopTokens| (node.acc, node.steps, node.mail_steps),
        t,
    )
}

impl TokensSparse {
    fn new(graph: Graph, seed: u64) -> Self {
        let holders = token_holders(seed, graph.node_count(), TOKENS);
        TokensSparse {
            graph,
            seed,
            holders,
        }
    }
}

impl Instance for TokensSparse {
    fn substrate(&self) -> Option<Substrate> {
        Some(Substrate::Flat)
    }
    fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }
    fn build_oracle(&mut self) -> Result<(), String> {
        // Reduced size: the sparse flat run must equal the dense reference
        // run of the same instance.  At full size the closed form in
        // `verify` stands in.
        let graph = Family::PreferentialAttachment.generate(TOKENS_CHECK_N, self.seed);
        let holders = token_holders(self.seed, TOKENS_CHECK_N, TOKENS_CHECK_N / 1000);
        let off = &mut Tracer::new(false);
        let sparse = tokens_run(&graph, &holders, 300, true, |b, i| b.build_flat(i), off);
        let dense = tokens_run(
            &graph,
            &holders,
            300,
            false,
            |b, i| b.build_reference(i),
            off,
        );
        differs("reduced-size reference completed", dense.completed, true)?;
        verify_digest(&sparse, digest(&dense)).map_err(|e| format!("reduced-size sparse run, {e}"))
    }
    fn iterate(&self, t: &mut Tracer) -> Outcome {
        tokens_run(
            &self.graph,
            &self.holders,
            TOKEN_HOPS,
            true,
            |b, init| b.build_flat(init),
            t,
        )
    }
    fn verify(&self, outcome: &Outcome) -> Result<(), String> {
        differs("completed", outcome.completed, true)?;
        differs("sim_rounds", outcome.cost.rounds, u64::from(TOKEN_HOPS) + 2)?;
        differs(
            "p2p_messages",
            outcome.cost.p2p_messages,
            TOKENS as u64 * (u64::from(TOKEN_HOPS) + 1),
        )?;
        // The frontier contract, counted by the protocol itself: all n nodes
        // boot in round 0, and afterwards a node steps only when it has mail.
        let Answer::NodeFold { mail_steps, .. } = outcome.answer else {
            unreachable!("tokens_run reads a node fold")
        };
        differs(
            "node_steps",
            outcome.node_steps,
            self.graph.node_count() as u64 + mail_steps,
        )
    }
}

// ---------------------------------------------------------------------------
// chansum-flat / chansum-faulted-flat / chansum-lockstep / chansum-wire
// ---------------------------------------------------------------------------

const CHANSUM_N: usize = 8192;
const CHANSUM_K: u16 = 4;
const WIRE_HOSTS: u16 = 2;
/// The scripted churn event of `chansum-faulted-flat`: one node is down for
/// these rounds, so its shard strikes its rank out and it rejoins crashed
/// out.
const CRASH_ROUND: u64 = 400;
const RECOVER_ROUND: u64 = 416;

type CountedSum = Counted<ChannelShardedSum>;

struct ChanSum {
    graph: Graph,
    values: Vec<u64>,
    substrate: Substrate,
    plan: Option<FaultPlan>,
    /// `chansum-flat`'s digest on this instance, which the lockstep and wire
    /// substrates must reproduce bit for bit.
    flat: Option<RunDigest>,
}

impl ChanSum {
    fn new(graph: Graph, seed: u64, substrate: Substrate, faulted: bool) -> Self {
        let n = graph.node_count();
        let plan = faulted.then(|| {
            let node = NodeId((draw(seed ^ 0x6372_6173, 0) % n as u64) as usize);
            FaultPlan::from_rates(seed, 0.10, 0.0, 0.0, 0.0).with_events(vec![
                FaultEvent::Crash {
                    round: CRASH_ROUND,
                    node,
                },
                FaultEvent::Recover {
                    round: RECOVER_ROUND,
                    node,
                },
            ])
        });
        ChanSum {
            values: input_values(seed, n),
            graph,
            substrate,
            plan,
            flat: None,
        }
    }

    fn run<'g, E: EngineControl<CountedSum>>(
        &'g self,
        substrate: Substrate,
        build: impl FnOnce(&EngineBuilder<'g>, &dyn Fn(NodeId) -> CountedSum) -> E,
        wire_bytes: impl FnOnce(&E) -> u64,
        t: &mut Tracer,
    ) -> Outcome {
        let n = self.graph.node_count();
        let mut builder =
            EngineBuilder::new(&self.graph).channels(ChannelShardedSum::channel_set(n, CHANSUM_K));
        if let Some(plan) = &self.plan {
            builder = builder.fault_plan(plan.clone());
        }
        let init = |v: NodeId| {
            Counted::new(ChannelShardedSum::new(
                v,
                n,
                CHANSUM_K,
                self.values[v.index()],
            ))
        };
        // A faulted run overruns the TDMA schedule by its retry rounds.
        let limit = 4 * (n as u64 / u64::from(CHANSUM_K) + 1) + 256;
        let (eng, completed) = build_and_drive(substrate, limit, || build(&builder, &init), t);
        t.span("read", || {
            let mut node_steps = 0u64;
            let mut sums = Vec::with_capacity(n);
            let mut witness = Vec::with_capacity(n);
            for v in self.graph.nodes() {
                let node = eng.node(v);
                node_steps += u64::from(node.steps);
                sums.push(node.inner.sum());
                witness.push(eng.lifecycle(v).is_operational() && !node.inner.crashed_out());
            }
            Outcome {
                completed,
                cost: eng.cost(),
                channel_costs: eng.channel_costs(),
                wire_bytes: wire_bytes(&eng),
                node_steps,
                answer: Answer::ShardSums { sums, witness },
            }
        })
    }

    fn run_flat(&self, t: &mut Tracer) -> Outcome {
        self.run(Substrate::Flat, |b, init| b.build_flat(init), |_| 0, t)
    }

    /// Host seconds of one untraced flat iteration on this instance: the
    /// base of the `slowdown_vs_flat` ratios.
    fn flat_seconds(&self) -> f64 {
        let off = &mut Tracer::new(false);
        let mut samples = [0.0; 3];
        for s in &mut samples {
            let start = Instant::now();
            black_box(self.run_flat(off));
            *s = start.elapsed().as_secs_f64();
        }
        crate::stats::fastest(&samples)
    }
}

impl Instance for ChanSum {
    fn substrate(&self) -> Option<Substrate> {
        Some(self.substrate)
    }
    fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }
    fn build_oracle(&mut self) -> Result<(), String> {
        if self.substrate != Substrate::Flat {
            let flat = self.run_flat(&mut Tracer::new(false));
            self.verify(&flat).map_err(|e| format!("flat base, {e}"))?;
            self.flat = Some(digest(&flat));
        }
        Ok(())
    }
    fn iterate(&self, t: &mut Tracer) -> Outcome {
        match self.substrate {
            Substrate::Flat => self.run_flat(t),
            Substrate::Lockstep => self.run(
                Substrate::Lockstep,
                |b, init| b.build_lockstep(init),
                |_| 0,
                t,
            ),
            // Loopback UDP: no real link is crossed.
            Substrate::Wire => self.run(
                Substrate::Wire,
                |b, init| WireNet::from_builder(b, WIRE_HOSTS, init),
                |net| net.bytes_sent(),
                t,
            ),
        }
    }
    fn verify(&self, outcome: &Outcome) -> Result<(), String> {
        differs("completed", outcome.completed, true)?;
        let n = self.graph.node_count();
        let k = usize::from(CHANSUM_K);
        let Answer::ShardSums { sums, witness } = &outcome.answer else {
            unreachable!("ChanSum::run reads shard sums")
        };
        // Arithmetic oracle: shard c is the nodes c, c + k, c + 2k, ...
        let mut exact = vec![0u64; k];
        for (v, &x) in self.values.iter().enumerate() {
            exact[v % k] = exact[v % k].wrapping_add(x);
        }
        if self.plan.is_none() {
            differs("sim_rounds", outcome.cost.rounds, (n / k) as u64 + 1)?;
            differs("p2p_messages", outcome.cost.p2p_messages, 0)?;
            differs("slots_success", outcome.cost.slots_success, n as u64)?;
            for (v, &sum) in sums.iter().enumerate() {
                differs(&format!("sum of node {v}"), sum, exact[v % k])?;
            }
        } else {
            // The survivors-agree contract `ChannelShardedSum` documents:
            // never-crashed members of a shard agree, and a shard nobody
            // crashed out of is exact.  Erasures cost rounds, never sums.
            let mut agreed: Vec<Option<u64>> = vec![None; k];
            let mut intact = vec![true; k];
            for v in 0..n {
                if !witness[v] {
                    intact[v % k] = false;
                } else if let Some(sum) = agreed[v % k] {
                    differs(&format!("survivor sum of node {v}"), sums[v], sum)?;
                } else {
                    agreed[v % k] = Some(sums[v]);
                }
            }
            for c in 0..k {
                if intact[c] {
                    differs(
                        &format!("sum of intact shard {c}"),
                        agreed[c],
                        Some(exact[c]),
                    )?;
                }
            }
            differs(
                "one shard lost a rank",
                intact.iter().filter(|&&i| !i).count(),
                1,
            )?;
            differs("erasures fired", outcome.cost.erased_slots > 0, true)?;
        }
        if let Some(flat) = self.flat {
            verify_digest(outcome, flat).map_err(|e| format!("against chansum-flat, {e}"))?;
        }
        Ok(())
    }
    fn probe_layers(&self, last: &Outcome, wall_s: f64, layers: &mut Layers) {
        let fault_free_rounds = (self.graph.node_count() / usize::from(CHANSUM_K)) as f64 + 1.0;
        if self.plan.is_some() {
            layers.set(
                "fault.recovery_overhead",
                last.cost.rounds as f64 / fault_free_rounds,
            );
        }
        match self.substrate {
            Substrate::Flat => {}
            Substrate::Lockstep => {
                layers.set(
                    "async_engine.slowdown_vs_flat",
                    wall_s / self.flat_seconds(),
                );
            }
            Substrate::Wire => {
                layers.set("netsim-io.slowdown_vs_flat", wall_s / self.flat_seconds());
                probe_wire_codec(last, layers);
            }
        }
    }
}

/// Times `Frame::encode` / `Frame::decode` over the two frame kinds a
/// `chansum-wire` run puts on the wire — one `Slot` per channel write, one
/// `Barrier` per host and round — weighted by how often the run sent each.
fn probe_wire_codec(last: &Outcome, layers: &mut Layers) {
    const REPS: u32 = 200_000;
    let hosts = u64::from(WIRE_HOSTS);
    let kinds: [(Frame<u64>, u64); 2] = [
        (
            Frame::Slot {
                round: 1024,
                chan: ChannelId(3),
                from: NodeId(4099),
                payload: 0x0123_4567_89ab_cdef,
            },
            last.cost.channel_writes,
        ),
        (
            Frame::Barrier {
                round: 1024,
                host: 1,
                settled: 17,
                staged: 0,
                dropped: 0,
                slot_frames: 2,
                lane_frames: 0,
                sent_to: vec![0; usize::from(WIRE_HOSTS)],
            },
            last.cost.rounds * hosts,
        ),
    ];
    let frames: u64 = kinds.iter().map(|(_, count)| count).sum();
    let (mut encode_ns, mut decode_ns, mut bytes) = (0.0, 0.0, 0.0);
    let mut buf = Vec::with_capacity(256);
    for (frame, count) in &kinds {
        let weight = *count as f64 / frames as f64;
        let start = Instant::now();
        for _ in 0..REPS {
            buf.clear();
            black_box(frame).encode(&mut buf);
            black_box(&buf);
        }
        encode_ns += weight * start.elapsed().as_nanos() as f64 / f64::from(REPS);
        let start = Instant::now();
        for _ in 0..REPS {
            black_box(Frame::<u64>::decode(black_box(&buf)).expect("a frame just encoded"));
        }
        decode_ns += weight * start.elapsed().as_nanos() as f64 / f64::from(REPS);
        bytes += weight * buf.len() as f64;
    }
    layers.set("wire.encode_ns_per_frame", encode_ns);
    layers.set("wire.decode_ns_per_frame", decode_ns);
    layers.set("wire.mean_frame_bytes", bytes);
}

// ---------------------------------------------------------------------------
// paper-pipeline-flat
// ---------------------------------------------------------------------------

const PIPELINE_N: usize = 16_384;
const PIPELINE_K: u16 = 4;
const PIPELINE_WEIGHT_SEED: u64 = 0x7061_7065;

struct PaperPipeline {
    net: MultimediaNetwork,
    inputs: Vec<Sum>,
    /// Sequential MST weight of the instance.
    mst_weight: Option<u128>,
}

impl PaperPipeline {
    fn new(graph: Graph, seed: u64) -> Self {
        let inputs = input_values(seed, graph.node_count())
            .into_iter()
            .map(Sum)
            .collect();
        PaperPipeline {
            net: MultimediaNetwork::new(graph),
            inputs,
            mst_weight: None,
        }
    }
}

impl Instance for PaperPipeline {
    fn substrate(&self) -> Option<Substrate> {
        None
    }
    fn edge_count(&self) -> usize {
        self.net.edge_count()
    }
    fn build_oracle(&mut self) -> Result<(), String> {
        let g = self.net.graph();
        self.mst_weight = Some(netsim_graph::mst::weight_of(
            g,
            &netsim_graph::mst::kruskal(g),
        ));
        Ok(())
    }
    fn iterate(&self, t: &mut Tracer) -> Outcome {
        // `compute_sharded` and `sharded_mst_on` are exactly these two calls
        // each; making them here gives the partition its own span.
        let net = &self.net;
        let partition_a = t.span("partition", || {
            deterministic::partition_to_level(net, global_fn::balanced_target_level(net))
        });
        let global = t.span("global_fn", || {
            global_fn::compute_sharded_with_partition(
                net,
                &partition_a,
                &self.inputs,
                PIPELINE_K,
                MergeSubstrate::Flat,
            )
        });
        let partition_b = t.span("partition", || deterministic::partition(net));
        let mst = t.span("mst", || {
            mst::sharded_mst_from_partition(net, &partition_b, PIPELINE_K, MergeSubstrate::Flat)
        });
        t.span("read", || Outcome {
            // The drivers assert quiescence themselves.
            completed: true,
            cost: global.total_cost() + mst.total_cost(),
            channel_costs: Vec::new(),
            wire_bytes: 0,
            node_steps: 0,
            answer: Answer::Pipeline {
                mst_weight: netsim_graph::mst::weight_of(net.graph(), &mst.edges),
                partition_a,
                global,
                partition_b,
                mst,
            },
        })
    }
    fn verify(&self, outcome: &Outcome) -> Result<(), String> {
        let Answer::Pipeline {
            global,
            mst,
            mst_weight,
            ..
        } = &outcome.answer
        else {
            unreachable!("PaperPipeline::iterate reads a pipeline answer")
        };
        let sum = self.inputs.iter().fold(0u64, |a, x| a.wrapping_add(x.0));
        differs("global sum", global.value.0, sum)?;
        differs("mst edge count", mst.edges.len(), self.net.node_count() - 1)?;
        differs(
            "mst weight",
            *mst_weight,
            self.mst_weight.expect("oracle built first"),
        )
    }
    fn probe_layers(&self, last: &Outcome, _wall_s: f64, layers: &mut Layers) {
        let Answer::Pipeline {
            partition_a,
            global,
            partition_b,
            mst,
            ..
        } = &last.answer
        else {
            return;
        };
        let partition = partition_a.cost + partition_b.cost;
        layers.set("partition.rounds", partition.rounds as f64);
        layers.set("partition.messages", partition.p2p_messages as f64);
        layers.set(
            "partition.fragments",
            (partition_a.forest.tree_count() + partition_b.forest.tree_count()) as f64,
        );
        layers.set("global_fn.local_rounds", global.local_cost.rounds as f64);
        layers.set("global_fn.global_rounds", global.global_rounds() as f64);
        layers.set("mst.phases", f64::from(mst.phases));
        layers.set("mst.election_rounds", mst.election_rounds() as f64);
        layers.set("mst.merge_messages", mst.merge_cost.p2p_messages as f64);
        layers.set(
            "channel-access.lane_writes",
            mst.election_cost.lane_writes as f64,
        );
        layers.set(
            "channel-access.lanes_busy",
            mst.election_cost.lanes_busy as f64,
        );
    }
}

// ---------------------------------------------------------------------------
// reshard-loop-flat
// ---------------------------------------------------------------------------

const RESHARD_N: usize = 8192;
const RESHARD_K: u16 = 16;
const RESHARD_WINDOWS: u32 = 6;
/// The monitor fires when the hot channel carries this many times the cold
/// channel's load.
const RESHARD_SKEW: u64 = 2;
/// Seed of the protocol's own Wilson walk.  It is a parameter of the
/// algorithm, not an input: the cuts it draws decide how many rounds and
/// allocations a run takes, so it stays constant and `--seed` drives the
/// input values.
const RESHARD_WALK_SEED: u64 = 0x5eed;

struct ReshardLoop {
    net: MultimediaNetwork,
    values: Vec<u64>,
    chans: Vec<ChannelId>,
}

impl ReshardLoop {
    fn new(graph: Graph, seed: u64) -> Self {
        let n = graph.node_count();
        ReshardLoop {
            net: MultimediaNetwork::new(graph),
            values: input_values(seed, n),
            chans: rebalance::zipf_channels(n, RESHARD_K, 1),
        }
    }

    fn run(&self, skew: Option<u64>) -> RebalanceRun {
        rebalance::rebalanced_sum(
            &self.net,
            &self.values,
            &self.chans,
            RESHARD_K,
            RESHARD_WINDOWS,
            skew,
            RESHARD_WALK_SEED,
            None,
            MergeSubstrate::Flat,
        )
    }
}

impl Instance for ReshardLoop {
    fn substrate(&self) -> Option<Substrate> {
        None
    }
    fn edge_count(&self) -> usize {
        self.net.edge_count()
    }
    fn build_oracle(&mut self) -> Result<(), String> {
        Ok(())
    }
    fn iterate(&self, t: &mut Tracer) -> Outcome {
        let run = t.span("rebalance", || self.run(Some(RESHARD_SKEW)));
        Outcome {
            completed: true,
            cost: run.cost,
            channel_costs: Vec::new(),
            wire_bytes: 0,
            node_steps: 0,
            answer: Answer::Rebalance(run),
        }
    }
    fn verify(&self, outcome: &Outcome) -> Result<(), String> {
        let Answer::Rebalance(run) = &outcome.answer else {
            unreachable!("ReshardLoop::iterate reads a rebalance run")
        };
        let total = self.values.iter().fold(0u64, |a, &x| a.wrapping_add(x));
        differs(
            "window count",
            run.window_totals.len(),
            RESHARD_WINDOWS as usize,
        )?;
        for (w, &got) in run.window_totals.iter().enumerate() {
            differs(&format!("total of window {w}"), got, total)?;
        }
        differs("a cut committed", run.migrations > 0, true)
    }
    fn probe_layers(&self, last: &Outcome, _wall_s: f64, layers: &mut Layers) {
        let Answer::Rebalance(run) = &last.answer else {
            return;
        };
        let commits = run.events.iter().filter(|e| e.committed).count();
        layers.set("rebalance.commits", commits as f64);
        layers.set("rebalance.migrations", run.migrations as f64);
        let static_rounds = self.run(None).rounds();
        layers.set(
            "rebalance.round_win_vs_static",
            static_rounds as f64 / run.rounds() as f64,
        );
        // The pure helpers, on the roster size of the run's first attempt:
        // the members of the hottest and the coldest channel.
        let members = |c: usize| self.chans.iter().filter(|ch| ch.index() == c).count();
        let roster = (members(0) + members(usize::from(RESHARD_K) - 1)).min(reshard::MAX_ROSTER);
        const REPS: u32 = 50;
        let per_node =
            |start: Instant| start.elapsed().as_nanos() as f64 / f64::from(REPS) / roster as f64;
        let start = Instant::now();
        for rep in 0..REPS {
            black_box(reshard::wilson_parents(
                roster,
                RESHARD_WALK_SEED ^ u64::from(rep),
            ));
        }
        layers.set("reshard.wilson_ns_per_node", per_node(start));
        let parents = reshard::wilson_parents(roster, RESHARD_WALK_SEED);
        let start = Instant::now();
        for _ in 0..REPS {
            black_box(reshard::balance_cut(black_box(&parents)));
        }
        layers.set("reshard.balance_cut_ns_per_node", per_node(start));
        let (cut, _) = reshard::balance_cut(&parents);
        let start = Instant::now();
        for _ in 0..REPS {
            black_box(reshard::subtree_members(black_box(&parents), cut));
        }
        layers.set("reshard.subtree_members_ns_per_node", per_node(start));
    }
}
