//! Property tests of the deterministic fault dimension.
//!
//! Three contracts:
//!
//! 1. **seed determinism** — a [`FaultPlan`] is a pure function of its seed:
//!    two [`FaultSession`]s built from the same plan produce bit-identical
//!    lifecycle transition sequences, erasure coins, and drop coins, round
//!    by round;
//! 2. **null-plan transparency** — installing a zero-rate, event-free plan
//!    is observationally identical to installing no plan at all: same final
//!    states, same full [`CostAccount`](netsim_sim::CostAccount);
//! 3. **substrate independence** — under a *random* seeded fault plan
//!    (erasures, drops, churn, scripted events, initially-off nodes) the
//!    flat arena-backed [`SyncEngine`] and the clone-path
//!    [`ReferenceEngine`] stay bit-for-bit identical.

use netsim_graph::{generators, NodeId};
use netsim_sim::{
    ChannelId, ChannelSet, EngineBuilder, EngineControl, FaultEvent, FaultPlan, FaultSession,
    NodeLifecycle, Protocol, RoundIo, SlotOutcome,
};
use proptest::prelude::*;
use testkit::mix;

/// Fixed-horizon chaos probe: folds every observable (inbox, all channel
/// outcomes, recoveries) into `state` and emits pseudo-random p2p and
/// channel traffic while its per-node horizon lasts.  The horizon only
/// ticks on executed rounds, so crashed nodes freeze; permanently-down
/// nodes are quiescence-exempt, keeping every faulted run terminating.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ChaosProbe {
    id: u64,
    seed: u64,
    state: u64,
    rounds_active: u32,
}

impl Protocol for ChaosProbe {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (from, &m) in io.inbox() {
            self.state = mix(self.state, mix(from.index() as u64, m));
        }
        for c in 0..io.channels() {
            match io.prev_slot_on(ChannelId(c)) {
                SlotOutcome::Idle => {}
                SlotOutcome::Success { from, msg } => {
                    self.state = mix(
                        self.state,
                        mix(u64::from(c), mix(from.index() as u64, *msg)),
                    );
                }
                SlotOutcome::Collision => self.state = mix(self.state, 0xc0 + u64::from(c)),
                SlotOutcome::Erased => self.state = mix(self.state, 0xe0 + u64::from(c)),
            }
        }
        if self.rounds_active > 0 {
            self.rounds_active -= 1;
            let r = mix(self.seed, mix(self.id, io.round()));
            if r.is_multiple_of(2) {
                io.write_channel_on(ChannelId((r >> 8) as u16 % io.channels()), self.state);
            }
            if r.is_multiple_of(3) && io.degree() > 0 {
                let v = io.neighbors().target(r as usize % io.degree());
                io.send(v, mix(self.state, 0xd0));
            }
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }

    fn on_recover(&mut self) {
        self.state = mix(self.state, 0x12ec0);
    }
}

/// Replays `rounds` rounds of a session, recording every lifecycle
/// transition plus the erasure and drop coins over a `k`-channel,
/// `n`-node sample grid.
fn fault_trace(plan: &FaultPlan, n: usize, k: u16, rounds: u64) -> Vec<u64> {
    let mut session = FaultSession::new(plan.clone(), n);
    let mut trace = Vec::new();
    for round in 0..rounds {
        session.apply_round(round, |v, from, to| {
            trace.push(mix(v.index() as u64, mix(from as u64 + 1, to as u64 + 17)));
        });
        for c in 0..k {
            trace.push(u64::from(plan.erases_slot(round, ChannelId(c))));
        }
        for from in 0..n {
            for to in 0..n {
                trace.push(u64::from(session.drops_message(
                    round,
                    NodeId(from),
                    NodeId(to),
                )));
            }
        }
        trace.push(session.non_operational_count());
    }
    trace
}

/// A random plan: seeded rates plus a few scripted events and up to two
/// initially-off nodes, all derived from `(n, fault_seed)`.
fn random_plan(n: usize, fault_seed: u64, churn: bool) -> FaultPlan {
    let p = |tag: u64, hi: f64| (mix(fault_seed, tag) % 1000) as f64 / 1000.0 * hi;
    let (crash_p, recover_p) = if churn {
        (p(3, 0.15), 0.25 + p(4, 0.5))
    } else {
        (0.0, 0.0)
    };
    let mut plan = FaultPlan::from_rates(fault_seed, p(1, 0.4), p(2, 0.35), crash_p, recover_p);
    let mut events = Vec::new();
    for i in 0..(mix(fault_seed, 7) % 4) {
        let node = NodeId((mix(fault_seed, 11 + i) % n as u64) as usize);
        let round = 1 + mix(fault_seed, 23 + i) % 12;
        events.push(FaultEvent::Crash { round, node });
        if churn {
            events.push(FaultEvent::Recover {
                round: round + 2 + mix(fault_seed, 31 + i) % 6,
                node,
            });
        }
    }
    if churn && n > 2 && mix(fault_seed, 41).is_multiple_of(2) {
        let off = NodeId((mix(fault_seed, 43) % n as u64) as usize);
        plan = plan.with_initial_off(vec![off]);
        events.push(FaultEvent::Recover {
            round: 1 + mix(fault_seed, 47) % 8,
            node: off,
        });
    }
    plan.with_events(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Contract 1: same plan (same seed, same rates, same events) ⇒ the
    /// same fault trace, replayed independently.
    #[test]
    fn same_seed_yields_identical_fault_trace(
        n in 2usize..32,
        k in 1u16..6,
        fault_seed in 0u64..100_000,
    ) {
        let plan = random_plan(n, fault_seed, true);
        let a = fault_trace(&plan, n, k, 24);
        let b = fault_trace(&plan, n, k, 24);
        prop_assert_eq!(a, b, "fault draws depend on replay, not just seed");
    }

    /// Contract 1b: a different seed perturbs the trace (sanity check that
    /// the trace actually covers the seeded draws — guards against the
    /// degenerate "everything always fires / never fires" trace).
    #[test]
    fn different_seeds_diverge_somewhere(
        n in 4usize..24,
        fault_seed in 0u64..100_000,
    ) {
        let a = fault_trace(&FaultPlan::from_rates(fault_seed, 0.5, 0.5, 0.0, 0.0), n, 4, 16);
        let b = fault_trace(&FaultPlan::from_rates(fault_seed ^ 0xdead_beef, 0.5, 0.5, 0.0, 0.0), n, 4, 16);
        prop_assert!(a != b, "trace insensitive to the plan seed");
    }

    /// Contract 2: a null plan is transparent — bit-identical states and
    /// cost against a run with no plan installed at all.
    #[test]
    fn null_plan_is_observationally_absent(
        n in 4usize..32,
        k in 1u16..5,
        seed in 0u64..10_000,
        active in 1u32..14,
    ) {
        let g = generators::random_connected(n, 0.15, seed);
        let init = |v: NodeId| ChaosProbe {
            id: v.index() as u64,
            seed,
            state: mix(seed, v.index() as u64),
            rounds_active: active + (v.index() as u32 % 3),
        };
        let channels = ChannelSet::uniform(k);
        let null = FaultPlan::none();
        prop_assert!(null.is_null());

        let mut bare = EngineBuilder::new(&g).channels(channels.clone()).build_flat(init);
        let mut nulled = EngineBuilder::new(&g).channels(channels).fault_plan(null).build_flat(init);
        let bare_out = bare.run(5_000);
        let nulled_out = nulled.run(5_000);
        prop_assert_eq!(bare_out, nulled_out);
        prop_assert!(bare_out.is_completed());
        prop_assert_eq!(bare.cost(), nulled.cost());
        prop_assert!(nulled
            .fault_session()
            .expect("plan installed")
            .lifecycles()
            .iter()
            .all(|l| *l == NodeLifecycle::Operational));
        let (bare_nodes, _) = bare.into_parts();
        let (nulled_nodes, _) = nulled.into_parts();
        prop_assert_eq!(bare_nodes, nulled_nodes);
    }

    /// Contract 3: flat vs reference under random fault schedules — rates,
    /// scripted events, and initially-off nodes all drawn by proptest.
    #[test]
    fn engines_agree_under_random_fault_schedules(
        n in 4usize..32,
        k in 1u16..5,
        seed in 0u64..10_000,
        fault_seed in 0u64..100_000,
        active in 1u32..14,
    ) {
        let churn = fault_seed.is_multiple_of(2);
        let g = generators::random_connected(n, 0.15, seed);
        let plan = random_plan(n, fault_seed, churn);
        let init = |v: NodeId| ChaosProbe {
            id: v.index() as u64,
            seed,
            state: mix(seed, v.index() as u64),
            rounds_active: active + (v.index() as u32 % 3),
        };
        let builder = EngineBuilder::new(&g).channels(ChannelSet::uniform(k)).fault_plan(plan);
        let mut flat = builder.build_flat(init);
        let mut reference = builder.build_reference(init);
        let flat_out = flat.run(5_000);
        let ref_out = reference.run(5_000);
        prop_assert_eq!(flat_out, ref_out);
        prop_assert!(flat_out.is_completed());
        prop_assert_eq!(flat.cost(), reference.cost());
        prop_assert_eq!(
            flat.fault_session().expect("plan installed").lifecycles(),
            reference.fault_session().expect("plan installed").lifecycles()
        );
        let (flat_nodes, _) = flat.into_parts();
        let (ref_nodes, _) = reference.into_parts();
        prop_assert_eq!(flat_nodes, ref_nodes);
    }
}
