//! Property tests pinning [`LaneElectionSeries`]' seated semantics against
//! its arithmetic specification.
//!
//! The series packs up to 64 concurrent bitwise elections into the
//! channel's word-wide lane sub-slot, and a node remembers only the
//! election it is seated in.  Every node here is seated at `pick %
//! elections` and either contends or listens; the spec of a slot is the
//! maximum station of its contenders (`None` for an empty slot).  Four
//! contracts:
//!
//! 1. **own-slot winner, at every width** — for widths {1, 8, 64} and random
//!    assignments, stations and message-slot traffic, each seated node hears
//!    exactly its slot's spec winner, so width `w` equals width 1 (the
//!    scalar one-election-at-a-time schedule) slot by slot;
//! 2. **erasures never corrupt** — under random lane erasures a member hears
//!    `None` or exactly the fault-free winner, and all members of one slot
//!    agree;
//! 3. **re-arm after reattach** — a series re-armed via `update_nodes`
//!    after a mid-run `reattach` that moves every node to the other channel
//!    elects exactly the spec winners again;
//! 4. **seatless listeners** — an unseated node reports `None` yet
//!    quiesces on the channel's shared horizon.

use channel_access::assigned::{LaneElectionSeries, Seat};
use netsim_graph::{generators, NodeId};
use netsim_sim::{
    ChannelId, ChannelSet, EngineBuilder, EngineControl, FaultPlan, Protocol, RoundIo, SyncEngine,
};
use proptest::prelude::*;

const NODES: usize = 48;

/// A series plus deterministic message-slot noise: pseudo-random writes on
/// the channel's *message* slot while the election runs on the *lane*
/// sub-slot.  The two sub-slots are independent by construction, so traffic
/// must never perturb a winner.
struct Noisy {
    inner: LaneElectionSeries,
    chan: ChannelId,
    /// Per-node noise seed; zero keeps the node silent.
    noise: u64,
    round: u64,
}

impl Protocol for Noisy {
    type Msg = u64;

    fn step(&mut self, io: &mut RoundIo<'_, u64>) {
        let r = self.round;
        self.round += 1;
        if !self.inner.is_done() && self.noise != 0 {
            let draw = self
                .noise
                .wrapping_mul(r + 1)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .rotate_left(17);
            if draw.is_multiple_of(3) {
                io.write_channel_on(self.chan, draw);
            }
        }
        self.inner.step(io);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn on_recover(&mut self) {
        self.inner.on_recover();
    }
}

/// One generated election workload: every node seated, contenders of a slot
/// holding distinct stations, derived deterministically from proptest draws.
struct Workload {
    bits: u32,
    elections: u32,
    seats: Vec<Seat>,
}

impl Workload {
    /// Spec winner per slot among the nodes selected by `on_channel`: the
    /// max station of the slot's contenders.
    fn expected(&self, on_channel: impl Fn(usize) -> bool) -> Vec<Option<u64>> {
        let mut expected = vec![None; self.elections as usize];
        for (v, seat) in self.seats.iter().enumerate() {
            if let (true, Some(st)) = (on_channel(v), seat.station) {
                let e = &mut expected[seat.slot as usize];
                *e = Some(e.map_or(st, |w: u64| st.max(w)));
            }
        }
        expected
    }
}

fn build_workload(bits: u32, elections: u32, picks: &[(u32, u32)], salt: u64) -> Workload {
    let space = 1u64 << bits;
    // Distinct stations per slot: a per-slot odd-stride walk over the id
    // space, so up to 2^bits contenders per slot all get different ids.
    let stride = ((salt | 1) % space) | 1;
    let base: Vec<u64> = (0..elections)
        .map(|s| salt.wrapping_mul(u64::from(s) + 1) % space)
        .collect();
    let mut taken = vec![0u64; elections as usize];
    let seats = picks
        .iter()
        .map(|&(pick, participate)| {
            let slot = pick % elections;
            let s = slot as usize;
            // Roughly a quarter of the nodes only listen.
            let contends = participate != 0 && taken[s] < space;
            let station = contends.then(|| {
                taken[s] += 1;
                (base[s] + (taken[s] - 1) * stride) % space
            });
            Seat { slot, station }
        })
        .collect();
    Workload {
        bits,
        elections,
        seats,
    }
}

/// Runs the workload on a fresh single-channel engine with `width` lanes
/// per batch (width 1 = the scalar schedule) and returns every node's
/// own-slot winner.
fn run_lanes(
    w: &Workload,
    width: u32,
    noise_salt: u64,
    plan: Option<FaultPlan>,
) -> Vec<Option<u64>> {
    let g = generators::path(NODES);
    let mut builder = EngineBuilder::new(&g);
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    let mut engine = builder.build_flat(|v: NodeId| Noisy {
        inner: LaneElectionSeries::new(
            Some(w.seats[v.index()]),
            w.bits,
            w.elections,
            width,
            ChannelId::DEFAULT,
        ),
        chan: ChannelId::DEFAULT,
        noise: noise_salt.wrapping_mul(v.index() as u64 + 1) & 0x7,
        round: 0,
    });
    let batches = u64::from(w.elections.div_ceil(width));
    let budget = batches * LaneElectionSeries::slot_rounds(w.bits) + 8;
    assert!(
        engine.run(budget).is_completed(),
        "series must quiesce within its schedule"
    );
    g.nodes().map(|v| engine.node(v).inner.winner()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1: at widths 1, 8 and 64 every seated node hears exactly
    /// the max-station spec of its own slot — hence width w ≡ width 1 slot
    /// by slot — under random assignments and concurrent message-slot
    /// traffic.
    #[test]
    fn lane_series_matches_scalar_slot_by_slot(
        bits in 1u32..=6,
        elections in 1u32..=40,
        salt in 1u64..u64::MAX,
        noise_salt in 0u64..u64::MAX,
        picks in collection::vec((0u32..1_000, 0u32..4), NODES..NODES + 1),
    ) {
        let w = build_workload(bits, elections, &picks, salt);
        let expected = w.expected(|_| true);
        let scalar = run_lanes(&w, 1, noise_salt, None);
        for width in [1u32, 8, 64] {
            let heard = run_lanes(&w, width, noise_salt, None);
            for (v, &won) in heard.iter().enumerate() {
                let slot = w.seats[v].slot as usize;
                prop_assert_eq!(won, expected[slot], "width {} node {} slot {}", width, v, slot);
            }
            prop_assert_eq!(&heard, &scalar, "width {} vs width 1", width);
        }
    }

    /// Contract 2: random lane erasures may only poison a batch — a member
    /// hears `None` or the exact fault-free winner, and all members of one
    /// slot agree.
    #[test]
    fn erasures_poison_but_never_corrupt(
        bits in 1u32..=5,
        width in 1u32..=64,
        elections in 1u32..=32,
        salt in 1u64..u64::MAX,
        fault_seed in 0u64..u64::MAX,
        erase_pct in 5u32..=40,
        picks in collection::vec((0u32..1_000, 0u32..4), NODES..NODES + 1),
    ) {
        let w = build_workload(bits, elections, &picks, salt);
        let expected = w.expected(|_| true);
        let plan = FaultPlan::from_rates(fault_seed, f64::from(erase_pct) / 100.0, 0.0, 0.0, 0.0);
        let faulted = run_lanes(&w, width, 0, Some(plan));
        let mut by_slot: Vec<Option<Option<u64>>> = vec![None; elections as usize];
        for (v, &won) in faulted.iter().enumerate() {
            let slot = w.seats[v].slot as usize;
            prop_assert!(
                won.is_none() || won == expected[slot],
                "slot {} elected {:?}, fault-free winner {:?}",
                slot, won, expected[slot]
            );
            prop_assert_eq!(
                *by_slot[slot].get_or_insert(won), won,
                "members of slot {} disagree at node {}", slot, v
            );
        }
    }

    /// Contract 3: a series re-armed through `update_nodes` after a
    /// `reattach` that moves every node to the other channel elects exactly
    /// the spec winners again — the multi-phase path the sharded MST and
    /// global-function drivers rely on.
    #[test]
    fn re_armed_series_after_reattach_matches_spec(
        bits in 1u32..=5,
        width in 1u32..=16,
        elections in 1u32..=12,
        salt_a in 1u64..u64::MAX,
        salt_b in 1u64..u64::MAX,
        picks_a in collection::vec((0u32..1_000, 0u32..4), NODES..NODES + 1),
        picks_b in collection::vec((0u32..1_000, 0u32..4), NODES..NODES + 1),
    ) {
        let g = generators::path(NODES);
        let budget = u64::from(elections.div_ceil(width)) * LaneElectionSeries::slot_rounds(bits) + 8;
        let wa = build_workload(bits, elections, &picks_a, salt_a);
        let wb = build_workload(bits, elections, &picks_b, salt_b);
        // Phase 1 (shift 0): nodes split across two channels by parity.
        // Phase 2 (shift 1): every node moves to the *other* channel and
        // re-arms in place with a fresh workload.
        let chan = |v: usize, shift: usize| ((v + shift) % 2) as u16;
        let masks = |shift: usize| (0..NODES).map(|v| 1u64 << chan(v, shift)).collect::<Vec<u64>>();
        let mut engine = EngineBuilder::new(&g).channels(ChannelSet::from_masks(2, masks(0))).build_flat(|v: NodeId| LaneElectionSeries::new(
                Some(wa.seats[v.index()]), bits, elections, width, ChannelId(chan(v.index(), 0)),
            ));
        for (w, shift) in [(&wa, 0usize), (&wb, 1)] {
            if shift > 0 {
                engine.reattach(&masks(shift));
                engine.update_nodes(&mut |v, series| {
                    series.rearm(Some(w.seats[v.index()]), elections, ChannelId(chan(v.index(), shift)));
                });
            }
            let limit = engine.round() + budget;
            prop_assert!(engine.run(limit).is_completed());
            // Per-channel spec: the contenders of channel c are its members.
            for c in 0..2u16 {
                let expected = w.expected(|v| chan(v, shift) == c);
                for v in g.nodes().filter(|v| chan(v.index(), shift) == c) {
                    let slot = w.seats[v.index()].slot as usize;
                    prop_assert_eq!(engine.node(v).winner(), expected[slot]);
                }
            }
        }
    }

    /// Contract 4: unseated nodes hear nothing, write nothing, and still
    /// quiesce exactly on the channel's horizon, leaving the seated nodes'
    /// elections untouched.
    #[test]
    fn seatless_listeners_report_none_and_quiesce_on_the_horizon(
        bits in 1u32..=5,
        width in 1u32..=64,
        elections in 1u32..=20,
        salt in 1u64..u64::MAX,
        picks in collection::vec((0u32..1_000, 0u32..4), NODES..NODES + 1),
    ) {
        let w = build_workload(bits, elections, &picks, salt);
        // Every fifth node loses its seat (and with it its candidacy).
        let seated = |v: usize| !v.is_multiple_of(5);
        let expected = w.expected(seated);
        let g = generators::path(NODES);
        let mut engine = SyncEngine::new(&g, |v: NodeId| LaneElectionSeries::new(
            seated(v.index()).then_some(w.seats[v.index()]),
            bits, elections, width, ChannelId::DEFAULT,
        ));
        let horizon = u64::from(elections.div_ceil(width)) * LaneElectionSeries::slot_rounds(bits);
        let out = engine.run(horizon + 8);
        prop_assert!(out.is_completed());
        prop_assert_eq!(out.rounds(), horizon);
        for v in g.nodes() {
            let spec = seated(v.index()).then(|| expected[w.seats[v.index()].slot as usize]).flatten();
            prop_assert_eq!(engine.node(v).winner(), spec, "node {}", v.index());
            prop_assert!(engine.node(v).is_done());
        }
    }
}
