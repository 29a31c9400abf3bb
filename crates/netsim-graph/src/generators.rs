//! Topology generators for the experiment workloads.
//!
//! The paper's bounds hold for arbitrary topologies; the experiments sweep a
//! set of standard families (ring, path, grid, torus, complete, random
//! connected, random tree) plus the **ray graph** used by the paper's own
//! lower-bound construction in Section 5.2.
//!
//! All randomized generators take an explicit seed so every experiment run is
//! reproducible.

use crate::graph::{Graph, GraphBuilder, NodeId, Weight};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Named graph family, used by the workload sweeps and reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Simple path `v0 - v1 - … - v(n-1)`; diameter `n - 1`.
    Path,
    /// Cycle on `n` nodes; diameter `⌊n/2⌋`.
    Ring,
    /// √n × √n grid (mesh); diameter Θ(√n).
    Grid,
    /// √n × √n torus (wrap-around mesh).
    Torus,
    /// Complete graph; diameter 1, m = n(n-1)/2.
    Complete,
    /// Connected Erdős–Rényi-style random graph.
    RandomConnected,
    /// Uniform random spanning tree (random attachment).
    RandomTree,
    /// The paper's lower-bound topology: a central node with vertex-disjoint
    /// paths ("rays") of equal length emanating from it.
    Ray,
    /// A star: one hub adjacent to all other nodes; diameter 2.
    Star,
    /// Dense clusters joined in a sparse ring
    /// ([`topologies::ring_of_cliques`](crate::topologies::ring_of_cliques)).
    RingOfCliques,
    /// Random geometric (unit-disk) graph
    /// ([`topologies::random_geometric`](crate::topologies::random_geometric)).
    Geometric,
    /// Scale-free preferential-attachment graph
    /// ([`topologies::preferential_attachment`](crate::topologies::preferential_attachment)).
    PreferentialAttachment,
    /// Degree-bounded random expander
    /// ([`topologies::degree_bounded_expander`](crate::topologies::degree_bounded_expander)).
    Expander,
}

impl Family {
    /// All families, for exhaustive sweeps.
    pub const ALL: [Family; 13] = [
        Family::Path,
        Family::Ring,
        Family::Grid,
        Family::Torus,
        Family::Complete,
        Family::RandomConnected,
        Family::RandomTree,
        Family::Ray,
        Family::Star,
        Family::RingOfCliques,
        Family::Geometric,
        Family::PreferentialAttachment,
        Family::Expander,
    ];

    /// Short machine-friendly name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Ring => "ring",
            Family::Grid => "grid",
            Family::Torus => "torus",
            Family::Complete => "complete",
            Family::RandomConnected => "random",
            Family::RandomTree => "tree",
            Family::Ray => "ray",
            Family::Star => "star",
            Family::RingOfCliques => "cliquering",
            Family::Geometric => "geometric",
            Family::PreferentialAttachment => "prefattach",
            Family::Expander => "expander",
        }
    }

    /// Generates a graph of (approximately) `n` nodes from this family.
    ///
    /// Grid/torus round `n` down to a perfect square; ray graphs round down so
    /// that all rays have equal length.  Weights are the distinct values
    /// [`assign_random_weights`] would produce with the given seed, written
    /// onto the topology's edge list *before* it is finalised: the CSR is
    /// built once, and the result is identical to finalising the topology
    /// and re-weighting the finished graph.
    pub fn generate(self, n: usize, seed: u64) -> Graph {
        use crate::topologies as t;
        let mut b = match self {
            Family::Path => path_builder(n),
            Family::Ring => ring_builder(n),
            Family::Grid => {
                let side = (n as f64).sqrt().floor() as usize;
                grid_builder(side.max(1), side.max(1))
            }
            Family::Torus => {
                let side = (n as f64).sqrt().floor() as usize;
                torus_builder(side.max(3), side.max(3))
            }
            Family::Complete => complete_builder(n),
            Family::RandomConnected => {
                // Average degree ~8 keeps m = Θ(n) so message bounds are visible.
                let p = (8.0 / n.max(2) as f64).min(1.0);
                random_connected_builder(n, p, seed)
            }
            Family::RandomTree => random_tree_builder(n, seed),
            Family::Ray => {
                // Default shape: diameter ≈ 2√n (the "interesting point" of the
                // lower bound where d ≈ √n).
                let d = (2.0 * (n as f64).sqrt()).round() as usize;
                ray_graph_builder(n, d.max(2))
            }
            Family::Star => star_builder(n),
            Family::RingOfCliques => {
                // Clusters of 8 (a typical LAN-segment size); at least one.
                let s = 8.min(n.max(1));
                t::ring_of_cliques_builder((n / s).max(1), s)
            }
            Family::Geometric => {
                // 1.2× the percolation threshold: connected with margin,
                // average degree Θ(log n).
                let r = t::geometric_threshold_radius(n) * 1.2;
                t::random_geometric_builder(n, r, seed)
            }
            Family::PreferentialAttachment => t::preferential_attachment_builder(n, 3, seed),
            Family::Expander => t::degree_bounded_expander_builder(n, 6, seed),
        };
        // The permutation is dropped before the CSR is allocated.
        let weights = random_weights(b.edge_count(), seed ^ 0x9e37_79b9_7f4a_7c15);
        b.map_weights(|e, _| weights[e.index()]);
        drop(weights);
        b.build()
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Simple path on `n` nodes. Weight of edge `i` is `i + 1`.
pub fn path(n: usize) -> Graph {
    path_builder(n).build()
}

/// [`path`] before finalisation.
pub(crate) fn path_builder(n: usize) -> GraphBuilder {
    let mut b = GraphBuilder::new(n);
    for i in 0..n.saturating_sub(1) {
        b.add_edge(NodeId(i), NodeId(i + 1), (i + 1) as Weight);
    }
    b
}

/// Cycle on `n` nodes (`n >= 3`; smaller `n` degenerates to a path).
pub fn ring(n: usize) -> Graph {
    ring_builder(n).build()
}

/// [`ring`] before finalisation.
pub(crate) fn ring_builder(n: usize) -> GraphBuilder {
    if n < 3 {
        return path_builder(n);
    }
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(NodeId(i), NodeId((i + 1) % n), (i + 1) as Weight);
    }
    b
}

/// `rows × cols` grid (mesh).
pub fn grid(rows: usize, cols: usize) -> Graph {
    grid_builder(rows, cols).build()
}

/// [`grid`] before finalisation.
pub(crate) fn grid_builder(rows: usize, cols: usize) -> GraphBuilder {
    let n = rows * cols;
    let mut b = GraphBuilder::new(n);
    let id = |r: usize, c: usize| NodeId(r * cols + c);
    let mut w: Weight = 0;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                w += 1;
                b.add_edge(id(r, c), id(r, c + 1), w);
            }
            if r + 1 < rows {
                w += 1;
                b.add_edge(id(r, c), id(r + 1, c), w);
            }
        }
    }
    b
}

/// `rows × cols` torus (grid with wrap-around links). Requires `rows, cols >= 3`
/// to avoid parallel edges; smaller inputs fall back to [`grid`].
pub fn torus(rows: usize, cols: usize) -> Graph {
    torus_builder(rows, cols).build()
}

/// [`torus`] before finalisation.
pub(crate) fn torus_builder(rows: usize, cols: usize) -> GraphBuilder {
    if rows < 3 || cols < 3 {
        return grid_builder(rows, cols);
    }
    let n = rows * cols;
    let mut b = GraphBuilder::new(n);
    let id = |r: usize, c: usize| NodeId(r * cols + c);
    let mut w: Weight = 0;
    for r in 0..rows {
        for c in 0..cols {
            w += 1;
            b.add_edge(id(r, c), id(r, (c + 1) % cols), w);
            w += 1;
            b.add_edge(id(r, c), id((r + 1) % rows, c), w);
        }
    }
    b
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    complete_builder(n).build()
}

/// [`complete`] before finalisation.
pub(crate) fn complete_builder(n: usize) -> GraphBuilder {
    let mut b = GraphBuilder::new(n);
    let mut w: Weight = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            w += 1;
            b.add_edge(NodeId(i), NodeId(j), w);
        }
    }
    b
}

/// Star graph: node 0 is adjacent to every other node.
pub fn star(n: usize) -> Graph {
    star_builder(n).build()
}

/// [`star`] before finalisation.
pub(crate) fn star_builder(n: usize) -> GraphBuilder {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId(0), NodeId(i), i as Weight);
    }
    b
}

/// Random tree built by uniform random attachment: node `i` attaches to a
/// uniformly random earlier node.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    random_tree_builder(n, seed).build()
}

/// [`random_tree`] before finalisation.
pub(crate) fn random_tree_builder(n: usize, seed: u64) -> GraphBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        b.add_edge(NodeId(parent), NodeId(i), i as Weight);
    }
    b
}

/// Connected random graph: a random spanning tree plus each remaining pair
/// independently with probability `p`.
///
/// # Panics
///
/// Panics if `p` is not within `[0, 1]`.
pub fn random_connected(n: usize, p: f64, seed: u64) -> Graph {
    random_connected_builder(n, p, seed).build()
}

/// [`random_connected`] before finalisation.
pub(crate) fn random_connected_builder(n: usize, p: f64, seed: u64) -> GraphBuilder {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Spanning tree backbone guarantees connectivity.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut w: Weight = 0;
    for i in 1..n {
        let j = rng.gen_range(0..i);
        w += 1;
        b.add_edge(NodeId(order[i]), NodeId(order[j]), w);
    }
    // Extra random edges.
    if n >= 2 && p > 0.0 {
        for i in 0..n {
            for j in (i + 1)..n {
                if !b.has_edge(NodeId(i), NodeId(j)) && rng.gen_bool(p) {
                    w += 1;
                    b.add_edge(NodeId(i), NodeId(j), w);
                }
            }
        }
    }
    b
}

/// Sparse connected random graph for large `n`: spanning-tree backbone plus
/// `extra` random non-duplicate edges (rejection sampled).  Unlike
/// [`random_connected`] the cost is `O(n + extra)` rather than `O(n²)`.
pub fn random_connected_sparse(n: usize, extra: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut w: Weight = 0;
    for i in 1..n {
        let j = rng.gen_range(0..i);
        w += 1;
        b.add_edge(NodeId(order[i]), NodeId(order[j]), w);
    }
    if n >= 2 {
        let mut added = 0;
        let mut attempts = 0;
        let max_attempts = extra.saturating_mul(20) + 100;
        while added < extra && attempts < max_attempts {
            attempts += 1;
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && !b.has_edge(NodeId(u), NodeId(v)) {
                w += 1;
                b.add_edge(NodeId(u), NodeId(v), w);
                added += 1;
            }
        }
    }
    b.build()
}

/// The paper's lower-bound topology (Section 5.2): a **ray graph** of
/// diameter `d` consists of one distinguished *center* node from which
/// `2(n-1)/d` vertex-disjoint simple paths ("rays"), each of length `d/2`,
/// emanate.
///
/// This constructor takes the target node budget `n` and diameter `d` and
/// builds `⌊(n-1)/(d/2)⌋` rays of length `⌈d/2⌉` (at least one ray), so the
/// realised node count is `1 + rays·ray_len ≤ n` (or slightly above `n` for
/// degenerate inputs).  Node 0 is the center.
///
/// # Panics
///
/// Panics if `n < 2` or `d < 2`.
pub fn ray_graph(n: usize, d: usize) -> Graph {
    ray_graph_builder(n, d).build()
}

/// [`ray_graph`] before finalisation.
pub(crate) fn ray_graph_builder(n: usize, d: usize) -> GraphBuilder {
    assert!(n >= 2, "ray graph needs at least 2 nodes");
    assert!(d >= 2, "ray graph needs diameter at least 2");
    let ray_len = (d / 2).max(1);
    let rays = ((n - 1) / ray_len).max(1);
    let total = 1 + rays * ray_len;
    let mut b = GraphBuilder::new(total);
    let mut w: Weight = 0;
    let mut next = 1usize;
    for _ in 0..rays {
        let mut prev = NodeId(0);
        for _ in 0..ray_len {
            let cur = NodeId(next);
            next += 1;
            w += 1;
            b.add_edge(prev, cur, w);
            prev = cur;
        }
    }
    b
}

/// A seeded random permutation of `1..=m`, indexed by edge id.
fn random_weights(m: usize, seed: u64) -> Vec<Weight> {
    let mut perm: Vec<Weight> = (1..=m as Weight).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    perm
}

/// Replaces every weight with a distinct pseudo-random value (a random
/// permutation of `1..=m`), keeping the topology.
///
/// Distinct weights are the w.l.o.g. assumption of the paper's MST sections.
/// [`Family::generate`] applies the same weights while the topology is still
/// an edge list; this is for callers that already hold a [`Graph`].
pub fn assign_random_weights(g: &Graph, seed: u64) -> Graph {
    let weights = random_weights(g.edge_count(), seed);
    g.map_weights(|e, _| weights[e.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{diameter_radius, is_connected};
    use std::collections::HashSet;

    #[test]
    fn path_and_ring_shapes() {
        let p = path(6);
        assert_eq!(p.edge_count(), 5);
        assert_eq!(diameter_radius(&p).0, 5);
        let r = ring(6);
        assert_eq!(r.edge_count(), 6);
        assert_eq!(diameter_radius(&r).0, 3);
        for v in r.nodes() {
            assert_eq!(r.degree(v), 2);
        }
    }

    #[test]
    fn tiny_ring_degenerates_to_path() {
        let r = ring(2);
        assert_eq!(r.edge_count(), 1);
    }

    #[test]
    fn grid_and_torus() {
        let g = grid(4, 5);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 4 * 4 + 3 * 5); // rows*(cols-1) + (rows-1)*cols
        assert!(is_connected(&g));
        assert_eq!(diameter_radius(&g).0, 3 + 4);

        let t = torus(4, 4);
        assert_eq!(t.node_count(), 16);
        assert_eq!(t.edge_count(), 2 * 16);
        for v in t.nodes() {
            assert_eq!(t.degree(v), 4);
        }
        assert!(is_connected(&t));
    }

    #[test]
    fn complete_and_star() {
        let k = complete(6);
        assert_eq!(k.edge_count(), 15);
        assert_eq!(diameter_radius(&k).0, 1);
        let s = star(6);
        assert_eq!(s.edge_count(), 5);
        assert_eq!(diameter_radius(&s).0, 2);
        assert_eq!(s.degree(NodeId(0)), 5);
    }

    #[test]
    fn random_tree_is_spanning_tree() {
        let t = random_tree(50, 7);
        assert_eq!(t.edge_count(), 49);
        assert!(is_connected(&t));
    }

    #[test]
    fn random_connected_is_connected_and_deterministic() {
        let a = random_connected(40, 0.1, 42);
        let b = random_connected(40, 0.1, 42);
        assert!(is_connected(&a));
        assert_eq!(a.edge_count(), b.edge_count());
        let c = random_connected(40, 0.1, 43);
        // Different seed very likely gives a different edge count.
        assert!(is_connected(&c));
    }

    #[test]
    fn random_connected_sparse_connected() {
        let g = random_connected_sparse(200, 300, 3);
        assert!(is_connected(&g));
        assert!(g.edge_count() >= 199);
        assert!(g.edge_count() <= 199 + 300);
    }

    #[test]
    fn ray_graph_structure() {
        // n = 17, d = 8 -> ray_len = 4, rays = 4, total = 17.
        let g = ray_graph(17, 8);
        assert_eq!(g.node_count(), 17);
        assert_eq!(g.edge_count(), 16);
        assert!(is_connected(&g));
        let (d, _) = diameter_radius(&g);
        assert_eq!(d, 8);
    }

    #[test]
    fn ray_graph_single_ray() {
        let g = ray_graph(4, 6);
        assert!(is_connected(&g));
        assert!(g.node_count() >= 2);
    }

    #[test]
    #[should_panic]
    fn ray_graph_rejects_tiny_n() {
        let _ = ray_graph(1, 4);
    }

    #[test]
    fn random_weights_are_distinct_permutation() {
        let g = assign_random_weights(&complete(8), 99);
        let weights: HashSet<Weight> = g.edges().map(|e| e.weight).collect();
        assert_eq!(weights.len(), g.edge_count());
        assert_eq!(*weights.iter().min().unwrap(), 1);
        assert_eq!(*weights.iter().max().unwrap(), g.edge_count() as Weight);
    }

    #[test]
    fn family_generate_all_connected() {
        for fam in Family::ALL {
            let g = fam.generate(40, 11);
            assert!(
                is_connected(&g),
                "family {fam} must generate connected graphs"
            );
            assert!(g.node_count() > 1, "family {fam} produced a trivial graph");
            let names: HashSet<&str> = Family::ALL.iter().map(|f| f.name()).collect();
            assert_eq!(names.len(), Family::ALL.len());
        }
    }

    #[test]
    fn family_display_matches_name() {
        assert_eq!(Family::Ray.to_string(), "ray");
        assert_eq!(Family::RandomConnected.to_string(), "random");
    }
}
