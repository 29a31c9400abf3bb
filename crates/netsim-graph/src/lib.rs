//! # netsim-graph
//!
//! Graph substrate for the reproduction of *"The Power of Multimedia:
//! Combining Point-to-Point and Multiaccess Networks"* (Afek, Landau,
//! Schieber, Yung; PODC 1988 / Information & Computation 1990).
//!
//! The crate models the **point-to-point component** of a multimedia network:
//! an arbitrary-topology undirected graph of `n` processors and `m`
//! bidirectional weighted links.  On top of the basic [`Graph`] type it
//! provides:
//!
//! * topology [`generators`] for the experiment workloads, including the
//!   paper's lower-bound *ray graph*, plus the structured [`topologies`]
//!   (ring-of-cliques, unit-disk, preferential attachment, expander) that
//!   stress the CSR layout in different ways;
//! * [`traversal`] (BFS, connectivity, diameter/radius) with flat
//!   [`ComponentSet`] / [`DistanceMatrix`] results;
//! * reference sequential [`mst`] algorithms (Kruskal, Prim) used as ground
//!   truth for the distributed MST of Section 6;
//! * rooted [`SpanningForest`]s — the output type of the partitioning
//!   algorithms of Sections 3–4, stored as one preorder in which a subtree
//!   is a slice — with the size/radius/MST-subtree quality measures the
//!   paper's theorems bound;
//! * a [`UnionFind`] used throughout.
//!
//! # Example
//!
//! ```
//! use netsim_graph::{generators, traversal, mst};
//!
//! let g = generators::Family::Grid.generate(64, 7);
//! assert!(traversal::is_connected(&g));
//! let tree = mst::kruskal(&g);
//! assert!(mst::is_spanning_tree(&g, &tree));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod forest;
pub mod generators;
mod graph;
pub mod mst;
pub mod topologies;
pub mod traversal;
mod union_find;

pub use forest::{partition_quality, ForestError, PartitionQuality, SpanningForest};
pub use graph::{Edge, EdgeId, Graph, GraphBuilder, Neighbors, NeighborsIter, NodeId, Weight};
pub use traversal::{ComponentSet, DistanceMatrix};
pub use union_find::UnionFind;

/// Computes `log* x`: the number of times `log2` must be iterated, starting
/// from `x`, before the value drops to at most 1.
///
/// The paper's complexity bounds are stated in terms of `log* n`; the
/// experiment harness uses this to normalise measured costs.
///
/// # Examples
///
/// ```
/// use netsim_graph::log_star;
/// assert_eq!(log_star(1), 0);
/// assert_eq!(log_star(2), 1);
/// assert_eq!(log_star(4), 2);
/// assert_eq!(log_star(16), 3);
/// assert_eq!(log_star(65536), 4);
/// ```
pub fn log_star(x: u64) -> u32 {
    let mut v = x as f64;
    let mut count = 0;
    while v > 1.0 {
        v = v.log2();
        count += 1;
        if count > 16 {
            break; // unreachable for u64 inputs, defensive only
        }
    }
    count
}

/// Ceiling of `log2 x` for `x >= 1` (`0` for `x <= 1`).
pub fn ceil_log2(x: u64) -> u32 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(0), 0);
        assert_eq!(log_star(1), 0);
        assert_eq!(log_star(2), 1);
        assert_eq!(log_star(3), 2);
        assert_eq!(log_star(4), 2);
        assert_eq!(log_star(5), 3);
        assert_eq!(log_star(16), 3);
        assert_eq!(log_star(17), 4);
        assert_eq!(log_star(65536), 4);
        assert_eq!(log_star(u64::MAX), 5);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn log_star_is_monotone() {
        let mut prev = 0;
        for x in 1..10_000u64 {
            let v = log_star(x);
            assert!(v >= prev);
            prev = v;
        }
    }
}
