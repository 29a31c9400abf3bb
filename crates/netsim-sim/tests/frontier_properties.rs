//! Property tests of the active-set (sparse) stepping frontier.
//!
//! Two contracts:
//!
//! 1. **frontier invariant** — after any scripted traffic + fault schedule,
//!    the flat [`SyncEngine`]'s incrementally maintained frontier steps
//!    *exactly* the brute-force active set the [`ReferenceEngine`] recomputes
//!    from full state every round (nodes with a non-empty inbox, a non-idle
//!    outcome on an attached channel, a lifecycle boot, or a pending
//!    `wake_me`), round by round;
//! 2. **sparse ≡ dense** — enabling active-set stepping is observationally
//!    invisible on all three substrates: bit-identical final states, cost
//!    accounts, and final lifecycles against the dense run of the same
//!    engine.
//!
//! The probe adopts the canonical `wake_me` pattern (`if !done { wake_me }`)
//! so its round-driven traffic is frontier-safe.

use netsim_graph::{generators, NodeId};
use netsim_sim::{
    lockstep_config, AsyncEngine, ChannelId, ChannelSet, EngineBuilder, EngineControl, FaultEvent,
    FaultPlan, Lockstep, Protocol, ReferenceEngine, RoundIo, SlotOutcome, SyncEngine,
};
use proptest::prelude::*;
use testkit::mix;

/// Fixed-horizon chaos probe with native `wake_me` adoption: folds every
/// observable into `state`, emits pseudo-random p2p and channel traffic
/// while its horizon lasts, and arms its own next round until done.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ArmedChaos {
    id: u64,
    seed: u64,
    state: u64,
    rounds_active: u32,
}

impl Protocol for ArmedChaos {
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
        if !self.is_done() {
            io.wake_me();
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }

    fn on_recover(&mut self) {
        self.state = mix(self.state, 0x12ec0);
    }
}

/// A random plan: seeded rates plus a few scripted crash/recover events and
/// an optional initially-off node, all derived from `(n, fault_seed)`.
fn random_plan(n: usize, fault_seed: u64) -> FaultPlan {
    let p = |tag: u64, hi: f64| (mix(fault_seed, tag) % 1000) as f64 / 1000.0 * hi;
    let churn = fault_seed.is_multiple_of(2);
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

fn probe_init(seed: u64, active: u32) -> impl Fn(NodeId) -> ArmedChaos {
    move |v: NodeId| ArmedChaos {
        id: v.index() as u64,
        seed,
        state: mix(seed, v.index() as u64),
        rounds_active: active + (v.index() as u32 % 3),
    }
}

/// Attachment-safe probe for the orphaned-slot regression: nodes 0 and 1
/// write channel 1 on round 0 (guaranteed collision, or erasure under a
/// full-erasure plan); background chatter stays on channel 0, which every
/// node is attached to.  Adopts the canonical `wake_me` pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
struct OrphanProbe {
    id: u64,
    state: u64,
    rounds_active: u32,
}

impl Protocol for OrphanProbe {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (from, &m) in io.inbox() {
            self.state = mix(self.state, mix(from.index() as u64, m));
        }
        for c in 0..io.channels() {
            match io.prev_slot_on(ChannelId(c)) {
                SlotOutcome::Idle => {}
                SlotOutcome::Success { from, msg } => {
                    self.state = mix(self.state, mix(from.index() as u64, *msg));
                }
                SlotOutcome::Collision => self.state = mix(self.state, 0xc0 + u64::from(c)),
                SlotOutcome::Erased => self.state = mix(self.state, 0xe0 + u64::from(c)),
            }
        }
        if io.round() == 0 && self.id <= 1 {
            io.write_channel_on(ChannelId(1), 0xdead + self.id);
        }
        if self.rounds_active > 0 {
            self.rounds_active -= 1;
            if mix(self.id, io.round()).is_multiple_of(2) {
                io.write_channel_on(ChannelId(0), self.state);
            }
            if mix(self.id, io.round()).is_multiple_of(3) && io.degree() > 0 {
                let v = io.neighbors().target(self.state as usize % io.degree());
                io.send(v, mix(self.state, 0xd0));
            }
        }
        if !self.is_done() {
            io.wake_me();
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }

    fn on_recover(&mut self) {
        self.state = mix(self.state, 0x12ec0);
    }
}

/// Regression: a non-idle slot outcome (`Collision`, or `Erased` under a
/// full-erasure plan) on a channel whose *every* attached listener is down
/// must not leak a frontier wake or a done-count tick for the downed nodes.
///
/// Nodes 0 and 1 are the only listeners of channel 1; both write it on
/// round 0 and a scripted plan crashes both at round 1 — exactly when the
/// outcome becomes observable.  The flat engine's stepped set must exclude
/// them from round 1 on, the brute-force reference must agree, and the run
/// must still quiesce on the survivors (a leaked done tick would end it
/// early and diverge from the dense run).
#[test]
fn downed_channel_listeners_never_enter_the_frontier() {
    let n = 10;
    let g = generators::ring(n);
    for erase_p in [0.0, 1.0] {
        let plan = FaultPlan::from_rates(0x0e4a_0001, erase_p, 0.0, 0.0, 0.0).with_events(vec![
            FaultEvent::Crash {
                round: 1,
                node: NodeId(0),
            },
            FaultEvent::Crash {
                round: 1,
                node: NodeId(1),
            },
        ]);
        let channels = ChannelSet::from_masks(
            2,
            (0..n).map(|v| if v <= 1 { 0b11 } else { 0b01 }).collect(),
        );
        // Probe: the two doomed nodes write channel 1 on round 0; everyone
        // chatters on channel 0 long enough to surface a leaked wake.
        let init = |v: NodeId| OrphanProbe {
            id: v.index() as u64,
            state: mix(0x0e4a, v.index() as u64),
            rounds_active: 10 + (v.index() as u32 % 3),
        };
        let run = |sparse: bool| {
            let mut eng = EngineBuilder::new(&g)
                .channels(channels.clone())
                .sparse(sparse)
                .fault_plan(plan.clone())
                .build_flat(init);
            let mut rounds = 0u64;
            while !eng.is_quiescent() && rounds < 5_000 {
                eng.step_round();
                if let Some(stepped) = eng.last_stepped() {
                    if rounds >= 1 {
                        assert!(
                            !stepped.contains(&0) && !stepped.contains(&1),
                            "erase_p={erase_p} round {rounds}: crashed channel-1 \
                             listeners leaked into the stepped set {stepped:?}"
                        );
                    }
                }
                rounds += 1;
            }
            assert!(eng.is_quiescent(), "erase_p={erase_p}: run did not quiesce");
            let cost = eng.cost();
            let lifecycles = eng.fault_session().expect("plan").lifecycles().to_vec();
            let (nodes, _) = eng.into_parts();
            (nodes, cost, lifecycles, rounds)
        };
        let sparse = run(true);
        let dense = run(false);
        assert_eq!(sparse, dense, "erase_p={erase_p}: sparse != dense");
        assert_eq!(sparse.2[0], netsim_sim::NodeLifecycle::Crashed);
        assert_eq!(sparse.2[1], netsim_sim::NodeLifecycle::Crashed);
        if erase_p == 0.0 {
            assert!(
                sparse.1.slots_collision > 0,
                "orphaned collision never fired"
            );
        } else {
            assert!(sparse.1.erased_slots > 0, "orphaned erasure never fired");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Contract 1: the flat engine's incremental frontier steps exactly the
    /// brute-force active set of the reference engine, every round, under
    /// random traffic and fault schedules.
    #[test]
    fn frontier_matches_brute_force_active_set(
        n in 4usize..32,
        k in 1u16..5,
        seed in 0u64..10_000,
        fault_seed in 0u64..100_000,
        active in 1u32..14,
    ) {
        let g = generators::random_connected(n, 0.15, seed);
        let plan = random_plan(n, fault_seed);
        let init = probe_init(seed, active);
        let channels = ChannelSet::uniform(k);
        let builder = EngineBuilder::new(&g).channels(channels).sparse(true).fault_plan(plan);
        let mut flat = builder.build_flat(&init);
        let mut reference = builder.build_reference(&init);

        let mut rounds = 0u64;
        while !flat.is_quiescent() && rounds < 5_000 {
            flat.step_round();
            reference.step_round();
            prop_assert_eq!(
                flat.last_stepped().expect("sparse mode"),
                reference.last_stepped().expect("sparse mode"),
                "round {}: incremental frontier != brute-force active set",
                rounds
            );
            rounds += 1;
        }
        prop_assert!(flat.is_quiescent(), "flat run did not quiesce");
        prop_assert!(reference.is_quiescent(), "quiescence rounds diverged");
        prop_assert_eq!(flat.cost(), reference.cost());
        let (flat_nodes, _) = flat.into_parts();
        let (ref_nodes, _) = reference.into_parts();
        prop_assert_eq!(flat_nodes, ref_nodes);
    }

    /// Contract 2: sparse ≡ dense on all three engines — final states, cost
    /// accounts, and final lifecycles bit-identical under random traffic and
    /// fault schedules.
    #[test]
    fn sparse_equals_dense_on_all_three_engines(
        n in 4usize..32,
        k in 1u16..5,
        seed in 0u64..10_000,
        fault_seed in 0u64..100_000,
        active in 1u32..14,
    ) {
        let g = generators::random_connected(n, 0.15, seed);
        let plan = random_plan(n, fault_seed);
        let init = probe_init(seed, active);
        let channels = ChannelSet::uniform(k);
        let builder = EngineBuilder::new(&g).channels(channels.clone()).fault_plan(plan.clone());

        // Flat sync engine.
        let run_flat = |sparse: bool| {
            let mut eng = builder.clone().sparse(sparse).build_flat(&init);
            assert!(eng.run(5_000).is_completed());
            let cost = eng.cost();
            let lifecycles = eng.fault_session().expect("plan").lifecycles().to_vec();
            let (nodes, _) = eng.into_parts();
            (nodes, cost, lifecycles)
        };
        prop_assert_eq!(run_flat(true), run_flat(false));

        // Clone-path reference engine.
        let run_ref = |sparse: bool| {
            let mut eng = builder.clone().sparse(sparse).build_reference(&init);
            assert!(eng.run(5_000).is_completed());
            let cost = eng.cost();
            let lifecycles = eng.fault_session().expect("plan").lifecycles().to_vec();
            let (nodes, _) = eng.into_parts();
            (nodes, cost, lifecycles)
        };
        prop_assert_eq!(run_ref(true), run_ref(false));

        // Async engine in lockstep (sparse boundary dispatch vs dense).
        let run_async = |sparse: bool| {
            let mut eng =
                AsyncEngine::with_channels(&g, lockstep_config(), channels.clone(), |v| {
                    Lockstep::new(init(v))
                });
            if sparse {
                eng.enable_sparse_boundaries();
            }
            eng.set_fault_plan(plan.clone());
            assert!(eng.run(10_000), "async run must quiesce");
            let cost = *eng.cost();
            let lifecycles = eng.fault_session().expect("plan").lifecycles().to_vec();
            let (adapters, _) = eng.into_parts();
            let nodes: Vec<ArmedChaos> =
                adapters.into_iter().map(Lockstep::into_inner).collect();
            (nodes, cost, lifecycles)
        };
        prop_assert_eq!(run_async(true), run_async(false));
    }
}

/// Hop tokens whose nodes are always done: only mail in flight keeps a run
/// from quiescing.  Frontier-safe: after round 0 a step with an empty inbox
/// does nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Relay {
    id: u64,
    acc: u64,
}

impl Protocol for Relay {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for (from, &t) in io.inbox() {
            self.acc = mix(self.acc, mix(from.index() as u64, t));
            let hops = t >> 32;
            if hops > 0 && io.degree() > 0 {
                let v = io.neighbors().target(self.acc as usize % io.degree());
                io.send(v, (hops - 1) << 32 | (self.acc & 0xffff_ffff));
            }
        }
        if io.round() == 0 && self.id.is_multiple_of(3) && io.degree() > 0 {
            io.send(io.neighbors().target(0), 9 << 32 | self.id);
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

/// Steps `eng` to round `at`, re-attaches, steps once, replaces the node
/// states, then runs out; returns `look` read after every round and right
/// after each of the two all-active re-schedulings, which must each find
/// mail pending.
fn relay_with_all_active_rounds<E: EngineControl<Relay>>(
    eng: &mut E,
    at: u64,
    masks: &[u64],
    look: impl Fn(&E) -> (bool, usize),
) -> Vec<(bool, usize)> {
    let mut seen = Vec::new();
    while eng.round() < at {
        eng.step_round();
        seen.push(look(eng));
    }
    eng.reattach(masks);
    seen.push(look(eng));
    assert!(
        !eng.is_quiescent(),
        "quiescent with mail pending at re-attachment"
    );
    eng.step_round();
    seen.push(look(eng));
    eng.update_nodes(&mut |v, node| node.acc ^= v.index() as u64);
    seen.push(look(eng));
    assert!(
        !eng.is_quiescent(),
        "quiescent with mail pending at update_nodes"
    );
    while !eng.is_quiescent() && eng.round() < 100 {
        eng.step_round();
        seen.push(look(eng));
    }
    assert!(eng.is_quiescent(), "relay run did not quiesce");
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `in_flight()` and quiescence count the mail pending across a
    /// `reattach` and an `update_nodes` (each schedules an all-active round),
    /// and that round delivers it: sparse ≡ dense on the flat engine, and
    /// both agree with the reference engine round by round.
    #[test]
    fn pending_mail_is_counted_across_all_active_rounds(
        n in 4usize..32,
        seed in 0u64..10_000,
        at in 1u64..6,
    ) {
        let g = generators::random_connected(n, 0.15, seed);
        let masks: Vec<u64> = (0..n).map(|v| 1 << (v % 2)).collect();
        let builder = EngineBuilder::new(&g).channels(ChannelSet::uniform(2));
        let init = |v: NodeId| Relay { id: v.index() as u64, acc: mix(seed, v.index() as u64) };
        let flat = |sparse: bool| {
            let mut eng = builder.clone().sparse(sparse).build_flat(init);
            let look = |e: &SyncEngine<'_, Relay>| (e.is_quiescent(), e.in_flight());
            let seen = relay_with_all_active_rounds(&mut eng, at, &masks, look);
            (seen, eng.cost(), eng.into_parts().0)
        };
        let reference = |sparse: bool| {
            let mut eng = builder.clone().sparse(sparse).build_reference(init);
            let look = |e: &ReferenceEngine<'_, Relay>| (e.is_quiescent(), 0);
            let seen = relay_with_all_active_rounds(&mut eng, at, &masks, look);
            (seen, eng.cost(), eng.into_parts().0)
        };
        let sparse = flat(true);
        prop_assert!(sparse.0.iter().any(|&(_, pending)| pending > 0));
        prop_assert_eq!(&sparse, &flat(false));
        for run in [reference(true), reference(false)] {
            let quiescence = |seen: &[(bool, usize)]| seen.iter().map(|p| p.0).collect::<Vec<_>>();
            prop_assert_eq!(quiescence(&run.0), quiescence(&sparse.0));
            prop_assert_eq!(run.1, sparse.1);
            prop_assert_eq!(&run.2, &sparse.2);
        }
    }
}
