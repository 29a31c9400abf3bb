//! # netsim-sim
//!
//! The **multimedia network simulator**: the execution substrate for the
//! reproduction of *"The Power of Multimedia: Combining Point-to-Point and
//! Multiaccess Networks"* (Afek, Landau, Schieber, Yung).
//!
//! A multimedia network (Section 2 of the paper) connects the same set of
//! processors by two media at once:
//!
//! 1. an arbitrary-topology **point-to-point** message-passing network, and
//! 2. a slotted **multiaccess channel** with ternary feedback
//!    (idle / success / collision).
//!
//! The simulator generalises the second medium to a [`ChannelSet`]: `K`
//! independent slotted collision channels with per-node attachment, one slot
//! each per round.  The paper's model is the `K = 1` default
//! ([`ChannelSet::single`]), and the single-channel API
//! ([`RoundIo::write_channel`] / [`RoundIo::prev_slot`]) is sugar for
//! [`ChannelId::DEFAULT`], so existing protocols compile and run unchanged.
//!
//! This crate provides:
//!
//! * [`SyncEngine`] — a deterministic synchronous round engine: per round,
//!   every node takes one [`Protocol::step`], point-to-point messages sent in
//!   a round are delivered at the next round, and one channel slot is
//!   resolved per round;
//! * [`AsyncEngine`] — an event-driven engine with adversarial (seeded)
//!   link delays, used to validate the channel-synchronizer claim of
//!   Section 7.1;
//! * [`protocols`] — reusable building blocks (BFS tree construction,
//!   convergecast / "broadcast and respond", tree broadcast);
//! * [`CostAccount`] — the paper's cost measures (rounds, point-to-point
//!   messages, channel-slot statistics);
//! * [`ReferenceEngine`] (module `reference`) — the straightforward
//!   pre-optimisation engine, kept for equivalence testing and as the
//!   benchmark baseline.
//!
//! # Performance architecture
//!
//! Both engines are **zero-allocation in steady state** (verified by the
//! `alloc_steady_state` integration test with a counting global allocator),
//! for `Copy` *and* for heap-carrying payloads:
//!
//! * message payloads are **arena-backed**: a send interns its payload once
//!   into a [`PayloadArena`] (sync: epoch slab swapped every round) or a
//!   refcounted slab (async), and everything downstream — staging,
//!   bucketing, delivery — moves 4-byte handles.  A broadcast over `d`
//!   links stores one payload, not `d` clones; retired heap payloads are
//!   recycled back to senders ([`RoundIo::recycle_payload`] /
//!   [`AsyncCtx::recycle_payload`]), so `Vec<u8>`-frame protocols run
//!   allocation-free too (see the [`payload`] module docs).  The **channel**
//!   rides the same plumbing: a write is interned into the staging arena and
//!   the flat engines resolve slots to *handle-based* outcomes
//!   ([`RoundIo::prev_slot_on`] borrows the winner straight from the
//!   delivery arena), so slot resolution never clones a message either;
//! * `SyncEngine` double-buffers messages through a flat CSR-style inbox
//!   arena plus a pooled staging buffer, bucketed per receiver with an
//!   O(n + k) stable counting pass — no per-round `Vec`s (see the
//!   [`engine`](SyncEngine) module docs for the layout);
//! * `AsyncEngine` keeps in-flight payloads in the refcounted slab with a
//!   free list and pools its callback buffers;
//! * quiescence checks are O(1) in both engines (incremental done-node
//!   counter + in-flight counters) instead of O(n) rescans per round/tick;
//! * **active-set stepping** (opt-in: [`EngineBuilder::sparse`]; on a bare
//!   [`AsyncEngine`], [`AsyncEngine::enable_sparse_boundaries`]) makes
//!   per-round cost proportional to the *active* node set, not `n`: the
//!   engine maintains a
//!   frontier — nodes with a non-empty inbox, a non-idle outcome on an
//!   attached channel, a lifecycle transition, or an explicit
//!   [`RoundIo::wake_me`] / [`AsyncCtx::wake_me`] self-wakeup — and steps
//!   only its members, with epoch-versioned inbox ranges so idle nodes are
//!   never touched, cloned, or iterated.  Sparse runs are bit-identical to
//!   dense runs for *frontier-safe* protocols (see the [`RoundIo::wake_me`]
//!   contract); a run on a million-node graph with a thousand active nodes
//!   pays for a thousand steps per round.
//!
//! Delivery semantics across all three engines (flat sync, async, reference)
//! are pinned by the `engine_conformance` integration suite: identical
//! delivery traces and final states over the full topology matrix, whether
//! payloads travel as arena handles or as reference-engine clones.
//!
//! **Determinism contract:** each node's inbox is ordered by the sender's
//! node index (then send order): the flat engine steps the nodes in one
//! ascending pass into one staging buffer, so runs are bit-for-bit
//! reproducible.  `Protocol::is_done` must only change during `step` — which is the only
//! mutable access the engines expose.
//!
//! The flat engine's steady state allocates nothing per round, and a
//! `Vec<u8>` broadcast interns one frame instead of cloning per neighbour
//! and recycles it the round after — both pinned by the
//! `alloc_steady_state` suite; host-time numbers are recorded per workload
//! by the repo benchmark (`BENCHMARK.json`, `benchmark/`).
//!
//! # Example
//!
//! ```
//! use netsim_graph::{generators, NodeId};
//! use netsim_sim::{protocols::BfsBuild, EngineControl, SyncEngine};
//!
//! let g = generators::ring(8);
//! let mut engine = SyncEngine::new(&g, |id| BfsBuild::new(id, NodeId(0)));
//! let outcome = engine.run(100);
//! assert!(outcome.is_completed());
//! assert_eq!(engine.node(NodeId(4)).depth(), Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod async_engine;
mod channel;
pub mod control;
mod engine;
pub mod fault;
mod frontier;
pub mod lockstep;
mod metrics;
mod node;
pub mod payload;
pub mod protocols;
pub mod reference;
pub mod reshard;
mod round;
pub mod wire;

pub use async_engine::{AsyncConfig, AsyncCtx, AsyncEngine, AsyncProtocol};
pub use channel::{
    fdma_slot_lengths, resolve_lanes, resolve_slot, resolve_slots, ChannelId, ChannelSet,
    LaneOutcome, SlotOutcome, SlotState, MAX_CHANNELS,
};
pub use control::{EngineBuilder, EngineControl};
pub use engine::{RunOutcome, SyncEngine};
pub use fault::{FaultEvent, FaultPlan, FaultSession, NodeLifecycle};
pub use lockstep::{lockstep_config, Lockstep};
pub use metrics::CostAccount;
pub use node::{
    DrainSends, DrainSendsWithSender, Inbox, InboxIter, OutboxBuffer, Protocol, RoundIo,
};
pub use payload::{PayloadArena, PayloadHandle};
pub use reference::ReferenceEngine;
pub use round::{settle_lanes, settle_slot, ChannelFold, Gate, Tally};
pub use wire::{Frame, WireError, WireMsg};
