//! # multimedia-net
//!
//! Facade crate for the reproduction of *"The Power of Multimedia: Combining
//! Point-to-Point and Multiaccess Networks"* (Afek, Landau, Schieber, Yung;
//! PODC 1988 / Information & Computation 1990).
//!
//! It re-exports the workspace crates under one roof:
//!
//! * [`graph`] — topologies, generators, reference MST, spanning forests;
//! * [`sim`] — the synchronous / asynchronous multimedia-network simulator;
//! * [`channel`] — multiaccess-channel contention resolution and estimation;
//! * [`symmetry`] — 3-colouring and MIS on rooted forests;
//! * [`multimedia`] — the paper's algorithms (partitioning, global sensitive
//!   functions, MST, synchronizer, size estimation, lower bounds);
//! * [`baselines`] — single-medium comparators.
//!
//! See `README.md` for a tour; the `experiments` binary of the `bench`
//! crate regenerates the measured tables E1–E9 of the paper's results
//! (ROADMAP item 1).
//!
//! ```
//! use multimedia_net::multimedia::{global_fn::{self, Min}, MultimediaNetwork};
//! use multimedia_net::graph::generators;
//!
//! let net = MultimediaNetwork::new(generators::Family::Ring.generate(64, 1));
//! let inputs: Vec<Min> = (0..64u64).map(|i| Min(1000 + (i * 37) % 64)).collect();
//! let run = global_fn::compute_deterministic(&net, &inputs);
//! assert_eq!(run.value.0, 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use baselines;
pub use channel_access as channel;
pub use multimedia;
pub use netsim_graph as graph;
pub use netsim_sim as sim;
pub use symmetry;
