//! # testkit
//!
//! The one test kit of the workspace: what more than one test suite needs,
//! stated once.
//!
//! * [`CountingAllocator`] — a per-thread counting global allocator
//!   (allocation count, live and peak heap bytes).  A test binary installs
//!   it with
//!   `#[global_allocator] static GLOBAL: testkit::CountingAllocator = testkit::CountingAllocator;`
//!   and reads [`allocs`] / [`peak_bytes_during`];
//! * [`digest`] and [`mix`] — a stable hash of any value and the splitmix
//!   finaliser every seeded test protocol folds its observations with;
//! * the cross-substrate conformance harness: [`Traced`] records what a node
//!   can observe in a round, [`run_on`] drives any
//!   [`EngineControl`](netsim_sim::EngineControl) substrate (flat,
//!   reference, async lockstep, or `netsim-io`'s `WireNet`) and reads the
//!   whole run back, and [`assert_runs_identical`] compares two runs in
//!   every observable dimension.
//!
//! The crate is an unpublished path dev-dependency.  It depends on
//! `netsim-sim`, so `netsim-sim`'s own `#[cfg(test)]` modules cannot use it
//! (they would see a second copy of the crate); its integration tests can.
//! It is the one crate under `crates/` that does not forbid `unsafe`: the
//! allocator is the only `unsafe` code there.

#![warn(missing_docs)]

mod alloc;
mod conformance;

pub use alloc::{allocs, peak_bytes_during, CountingAllocator};
pub use conformance::*;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Stable 64-bit digest of any hashable value (used to compare payloads and
/// slot outcomes across engines without requiring `PartialEq` on messages).
pub fn digest<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Folds `b` into `a` with the splitmix64 finaliser: the deterministic
/// chaos every seeded test protocol draws its choices from.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 31)
}
