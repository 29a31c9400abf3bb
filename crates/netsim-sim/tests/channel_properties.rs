//! Property tests of the multi-channel slot substrate.
//!
//! Two order-independence contracts (plus the dynamic-attachment snapshot
//! semantics of [`ChannelSet::reattach`]):
//!
//! 1. **writer arrival order** — a channel's slot outcome (idle / success /
//!    collision, winner identity *and* winner payload) is a function of the
//!    *set* of writes, not of the order they arrive in: [`resolve_slots`]
//!    must produce identical outcomes for any permutation of the write list,
//!    and a scripted multi-channel protocol must observe identical outcomes
//!    on the flat [`SyncEngine`] (which stages writes in node-index order)
//!    and the [`ReferenceEngine`] (which collects them per node in step
//!    order);
//! 2. **re-attachment snapshots** — [`ChannelSet::reattach`] is a pure
//!    snapshot (any permutation of earlier snapshots followed by the same
//!    final one yields the same set as [`ChannelSet::from_masks`]), and a
//!    phase-boundary re-attachment schedule replayed on the flat and the
//!    reference engine leaves the runs bit-for-bit identical.

use netsim_graph::{generators, NodeId};
use netsim_sim::{
    resolve_slots, ChannelId, ChannelSet, EngineBuilder, EngineControl, Protocol, RoundIo,
    SlotOutcome,
};
use proptest::prelude::*;
use testkit::mix;

/// Deterministic Fisher–Yates permutation driven by a splitmix stream.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        state = mix(state, i as u64);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Scripted multi-channel traffic: every node deterministically picks, per
/// round, a channel to write and a payload, both as pure functions of
/// `(seed, id, round)` — so the *set* of writes per round is engine-
/// independent while arrival order differs by substrate.  Every observed
/// outcome folds into `state`, so any outcome divergence is visible in the
/// final states.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ScriptedWriters {
    id: u64,
    seed: u64,
    state: u64,
    rounds_active: u32,
}

impl Protocol for ScriptedWriters {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
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
            if !r.is_multiple_of(3) {
                io.write_channel_on(ChannelId((r >> 16) as u16 % io.channels()), mix(r, 0xabc));
            }
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }
}

/// [`ScriptedWriters`] for sharded / re-attached channel sets: the per-round
/// channel pick scans forward from a scripted start until it hits a channel
/// the node is currently attached to, so the write gate is honoured under
/// any attachment snapshot while the traffic stays a pure function of
/// `(seed, id, round, attachment)`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct AttachedWriters {
    id: u64,
    seed: u64,
    state: u64,
    rounds_active: u32,
}

impl Protocol for AttachedWriters {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        for c in 0..io.channels() {
            let chan = ChannelId(c);
            self.state = mix(self.state, u64::from(io.is_attached(chan)));
            match io.prev_slot_on(chan) {
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
            if !r.is_multiple_of(3) {
                let k = io.channels();
                let start = (r >> 16) as u16 % k;
                for off in 0..k {
                    let chan = ChannelId((start + off) % k);
                    if io.is_attached(chan) {
                        io.write_channel_on(chan, mix(r, 0xabc));
                        break;
                    }
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.rounds_active == 0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 1a: [`resolve_slots`] is invariant under any permutation of
    /// the write list — per channel, the outcome class, the winner, and the
    /// winner's payload all match.
    #[test]
    fn slot_outcomes_independent_of_writer_order(
        k in 1u16..8,
        writes_seed in 0u64..10_000,
        writers in 0usize..24,
        perm_seed in 0u64..10_000,
    ) {
        let writes: Vec<(ChannelId, NodeId, u64)> = (0..writers)
            .map(|i| {
                let r = mix(writes_seed, i as u64);
                (
                    ChannelId((r % u64::from(k)) as u16),
                    NodeId(i),
                    mix(r, 0xbeef),
                )
            })
            .collect();
        let mut permuted = writes.clone();
        shuffle(&mut permuted, perm_seed);

        let a = resolve_slots(k, &writes);
        let b = resolve_slots(k, &permuted);
        prop_assert_eq!(&a, &b, "outcomes depend on write order");
        // Sanity: the per-channel classification matches the writer counts.
        for (c, slot) in a.iter().enumerate() {
            let count = writes.iter().filter(|w| w.0.index() == c).count();
            match count {
                0 => prop_assert!(slot.is_idle()),
                1 => prop_assert!(slot.is_success()),
                _ => prop_assert!(slot.is_collision()),
            }
        }
    }

    /// Contract 1b: the flat engine (writes staged in node-index order, slot
    /// winners delivered by arena handle) and the reference engine (writes
    /// collected per stepping node, winners cloned) observe identical
    /// per-channel outcomes on random scripted traffic.
    #[test]
    fn engines_agree_on_scripted_multi_channel_traffic(
        n in 4usize..40,
        k in 1u16..6,
        seed in 0u64..10_000,
        active in 1u32..16,
    ) {
        let g = generators::random_connected(n, 0.15, seed);
        let init = |v: NodeId| ScriptedWriters {
            id: v.index() as u64,
            seed,
            state: mix(seed, v.index() as u64),
            rounds_active: active + (v.index() as u32 % 3),
        };
        let builder = EngineBuilder::new(&g).channels(ChannelSet::uniform(k));
        let mut flat = builder.build_flat(init);
        let mut reference = builder.build_reference(init);
        let flat_out = flat.run(1000);
        let ref_out = reference.run(1000);
        prop_assert_eq!(flat_out, ref_out);
        prop_assert!(flat_out.is_completed());
        let (flat_nodes, flat_cost) = flat.into_parts();
        let (ref_nodes, ref_cost) = reference.into_parts();
        prop_assert_eq!(flat_cost, ref_cost);
        prop_assert_eq!(flat_nodes, ref_nodes);
    }

    /// Contract 2a: a re-attachment is a pure snapshot — applying any
    /// permutation of a sequence of intermediate snapshots before the final
    /// one leaves the set exactly [`ChannelSet::from_masks`] of the final
    /// masks, with no dependence on history or application order.
    #[test]
    fn reattach_is_permutation_invariant_snapshot(
        n in 1usize..24,
        k in 1u16..8,
        seed in 0u64..10_000,
        snapshots in 1usize..6,
        perm_seed in 0u64..10_000,
    ) {
        let full = (1u64 << k) - 1; // k < 8 here, no overflow
        let masks_of = |tag: u64| -> Vec<u64> {
            (0..n).map(|v| {
                // At least one channel attached per node, bits below k.
                let m = mix(seed, mix(tag, v as u64)) & full;
                if m == 0 { 1 } else { m }
            }).collect()
        };
        let mut tags: Vec<u64> = (0..snapshots as u64).collect();
        shuffle(&mut tags, perm_seed);

        let final_masks = masks_of(u64::MAX);
        // History A: intermediate snapshots in shuffled order, then final.
        let mut a = ChannelSet::uniform(k);
        for &t in &tags { a.reattach(&masks_of(t)); }
        a.reattach(&final_masks);
        // History B: intermediate snapshots in natural order, then final.
        let mut b = ChannelSet::uniform(k);
        for t in 0..snapshots as u64 { b.reattach(&masks_of(t)); }
        b.reattach(&final_masks);
        // History C: no history at all.
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &ChannelSet::from_masks(k, final_masks));
    }

    /// Contract 2b: a phase-boundary re-attachment schedule replayed on both
    /// synchronous substrates — the flat engine (snapshot applied to the
    /// handle-based slot path) and the reference engine (clone path) — gives
    /// bit-for-bit identical node states and cost accounts.
    #[test]
    fn engines_agree_under_reattach_schedule(
        n in 4usize..32,
        k in 2u16..6,
        seed in 0u64..10_000,
        active in 6u32..18,
        boundaries in 1usize..4,
    ) {
        let g = generators::random_connected(n, 0.15, seed);
        let init = |v: NodeId| AttachedWriters {
            id: v.index() as u64,
            seed,
            state: mix(seed, v.index() as u64),
            rounds_active: active + (v.index() as u32 % 3),
        };
        let masks_at = |b: u64| -> Vec<u64> {
            let full = (1u64 << k) - 1;
            (0..n).map(|v| {
                let m = mix(seed, mix(0xa77ac4 + b, v as u64)) & full;
                if m == 0 { 1 << (v as u64 % u64::from(k)) } else { m }
            }).collect()
        };
        // Phase boundaries spread over the active window, ascending.
        let schedule: Vec<(u64, Vec<u64>)> = (0..boundaries as u64)
            .map(|b| (2 + b * 4, masks_at(b)))
            .collect();

        let builder = EngineBuilder::new(&g).channels(ChannelSet::uniform(k));
        let mut flat = builder.build_flat(init);
        let mut reference = builder.build_reference(init);
        let mut next_flat = 0;
        while !flat.is_quiescent() && flat.round() < 1000 {
            if next_flat < schedule.len() && schedule[next_flat].0 == flat.round() {
                flat.reattach(&schedule[next_flat].1);
                next_flat += 1;
            }
            flat.step_round();
        }
        let mut next_ref = 0;
        while !reference.is_quiescent() && reference.round() < 1000 {
            if next_ref < schedule.len() && schedule[next_ref].0 == reference.round() {
                reference.reattach(&schedule[next_ref].1);
                next_ref += 1;
            }
            reference.step_round();
        }
        prop_assert!(flat.is_quiescent());
        prop_assert_eq!(next_flat, next_ref);
        let (flat_nodes, flat_cost) = flat.into_parts();
        let (ref_nodes, ref_cost) = reference.into_parts();
        prop_assert_eq!(flat_cost, ref_cost);
        prop_assert_eq!(flat_nodes, ref_nodes);
    }
}
