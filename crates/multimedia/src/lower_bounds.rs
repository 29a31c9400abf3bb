//! Lower bounds on computing global sensitive functions (Section 5.2,
//! Theorem 2 and Corollary 3).
//!
//! Lower bounds cannot be "executed"; what this module provides is
//!
//! * the bound values themselves ([`point_to_point_bound`],
//!   [`broadcast_bound`], [`multimedia_bound`]) so the experiments can plot
//!   measured running times against them, and
//! * the paper's adversary topology, the **ray graph** (a center with
//!   `2(n−1)/d` vertex-disjoint paths of length `d/2`), packaged as a ready
//!   workload ([`ray_network`]) for experiment E4, which sweeps the diameter
//!   and sets the measured times beside these bounds.
//!
//! The measured multimedia time does not yet track `Θ(min{d, √n})`.  In the
//! E4 rows of `BENCH_paper.json`, `multimedia-det` loses to the executed
//! `p2p-only` run on every grid and random graph with `n ≤ 4 096` (grid
//! 4 096: 1 341 rounds against 382; random 4 096: 1 186 against 19).  It
//! beats it on rings at every size where both ran (233 against 388 at
//! n = 256, 603 against 1 540 at n = 1 024).  On the ray graph (n = 4 097)
//! it rises with `d` and levels off past `d ≈ √n` (313 rounds at d = 8,
//! 1 542 at d = 128, where [`multimedia_bound`] is 2 and 16).

use crate::model::MultimediaNetwork;
use netsim_graph::generators;

/// The Ω(d) lower bound for an `n`-variate global sensitive function on a
/// point-to-point network of diameter `d` (information must travel from every
/// node to any given node).
pub fn point_to_point_bound(diameter: u32) -> u64 {
    u64::from(diameter)
}

/// The Ω(n) lower bound for a slotted broadcast (channel-only) network:
/// Claim 3 shows at least `⌊n/2⌋` slots are necessary.
pub fn broadcast_bound(n: usize) -> u64 {
    (n / 2) as u64
}

/// The Ω(min{d, √n}) lower bound for a multimedia network of diameter `d`
/// (Claim 4 shows at least `min{d, √n}/4` steps on the ray graph).
pub fn multimedia_bound(n: usize, diameter: u32) -> u64 {
    let sqrt_n = (n as f64).sqrt();
    (f64::from(diameter).min(sqrt_n) / 4.0).floor() as u64
}

/// Builds the paper's lower-bound topology as a multimedia network: a ray
/// graph on (approximately) `n` nodes with diameter `d`, with distinct random
/// link weights derived from `seed`.
///
/// # Panics
///
/// Panics if `n < 2` or `d < 2`.
pub fn ray_network(n: usize, d: usize, seed: u64) -> MultimediaNetwork {
    let g = generators::assign_random_weights(&generators::ray_graph(n, d), seed);
    MultimediaNetwork::new(g)
}

/// Summary of the three bounds for a given network, used by the experiment
/// reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundSummary {
    /// Ω(d) — point-to-point only.
    pub point_to_point: u64,
    /// Ω(n/2) — broadcast channel only.
    pub broadcast: u64,
    /// Ω(min{d, √n}/4) — multimedia.
    pub multimedia: u64,
}

/// Computes all three bounds for a network with the given size and diameter.
pub fn bounds_for(n: usize, diameter: u32) -> BoundSummary {
    BoundSummary {
        point_to_point: point_to_point_bound(diameter),
        broadcast: broadcast_bound(n),
        multimedia: multimedia_bound(n, diameter),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::traversal;

    #[test]
    fn bound_values() {
        assert_eq!(point_to_point_bound(17), 17);
        assert_eq!(broadcast_bound(101), 50);
        assert_eq!(multimedia_bound(100, 40), 2); // min(40, 10)/4
        assert_eq!(multimedia_bound(100, 2), 0); // min(2, 10)/4 = 0 (floor)
        let b = bounds_for(64, 16);
        assert_eq!(b.point_to_point, 16);
        assert_eq!(b.broadcast, 32);
        assert_eq!(b.multimedia, 2);
    }

    #[test]
    fn multimedia_bound_separates_from_single_media() {
        // For d ≈ √n the multimedia bound is a constant factor below both
        // single-medium bounds — this is "the power of multimedia".
        let n = 10_000;
        let d = 100;
        let b = bounds_for(n, d);
        assert!(b.multimedia < b.point_to_point);
        assert!(b.multimedia < b.broadcast);
    }

    #[test]
    fn ray_network_has_requested_diameter() {
        let net = ray_network(101, 20, 7);
        let (d, _) = traversal::diameter_radius(net.graph());
        assert_eq!(d, 20);
        assert!(net.node_count() <= 101);
        assert!(traversal::is_connected(net.graph()));
    }

    #[test]
    #[should_panic]
    fn ray_network_rejects_degenerate_diameter() {
        let _ = ray_network(10, 1, 0);
    }
}
