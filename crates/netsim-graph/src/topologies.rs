//! Structured topology generators that stress the CSR graph layout and the
//! engine's cache-aware delivery in different ways.
//!
//! The classic families in [`generators`](crate::generators) (ring, grid,
//! random, …) either have perfectly local adjacency (ring, grid: neighbours
//! are index-adjacent, so delivery is almost sequential) or fully random
//! adjacency.  The families here fill the space in between — the regimes that
//! multipoint-communication surveys identify as typical of real multi-access
//! deployments:
//!
//! * [`ring_of_cliques`] — dense local clusters (LAN segments) joined by a
//!   sparse global ring: block-diagonal adjacency with a few long-range
//!   off-diagonal entries;
//! * [`random_geometric`] — a unit-disk radio graph: spatially local but
//!   index-random adjacency, the worst case for naive receiver bucketing;
//! * [`preferential_attachment`] — a scale-free (Barabási–Albert style)
//!   graph with heavy-tailed degrees: a few hub rows dominate the CSR
//!   arrays;
//! * [`degree_bounded_expander`] — a union of random Hamiltonian cycles:
//!   bounded degree, Θ(log n) diameter, no locality at all.
//!
//! All generators are deterministic per seed, produce **connected** graphs,
//! and assign sequential weights (callers that need the paper's distinct
//! random weights pass the result through
//! [`generators::assign_random_weights`](crate::generators::assign_random_weights),
//! which [`Family::generate`](crate::generators::Family::generate) does
//! automatically).

use crate::graph::{Graph, GraphBuilder, NodeId, Weight};
use crate::union_find::UnionFind;
use rand::prelude::*;
use rand::rngs::StdRng;

/// A ring of `cliques` dense clusters of `clique_size` nodes each:
/// consecutive cliques are joined by a single bridge link, wrapping around.
///
/// Nodes `k·s..(k + 1)·s` form clique `k`; the bridge out of clique `k`
/// connects its last node to the first node of clique `k + 1 (mod cliques)`.
/// Degenerate shapes stay valid: one clique is a complete graph, cliques of
/// size one form a plain ring.
///
/// # Examples
///
/// ```
/// use netsim_graph::{topologies, traversal};
/// let g = topologies::ring_of_cliques(5, 4);
/// assert_eq!(g.node_count(), 20);
/// assert!(traversal::is_connected(&g));
/// ```
pub fn ring_of_cliques(cliques: usize, clique_size: usize) -> Graph {
    ring_of_cliques_builder(cliques, clique_size).build()
}

/// [`ring_of_cliques`] before finalisation.
pub(crate) fn ring_of_cliques_builder(cliques: usize, clique_size: usize) -> GraphBuilder {
    let s = clique_size;
    let n = cliques * s;
    if n == 0 {
        return GraphBuilder::new(0);
    }
    let mut b = GraphBuilder::new(n);
    let mut w: Weight = 0;
    for k in 0..cliques {
        let base = k * s;
        for i in 0..s {
            for j in (i + 1)..s {
                w += 1;
                b.add_edge(NodeId(base + i), NodeId(base + j), w);
            }
        }
    }
    if cliques > 1 {
        for k in 0..cliques {
            let from = NodeId(k * s + (s - 1));
            let to = NodeId(((k + 1) % cliques) * s);
            w += 1;
            if b.try_add_edge(from, to, w).is_none() {
                // Two cliques of size one produce the same bridge twice.
                w -= 1;
            }
        }
    }
    b
}

/// The percolation-threshold connection radius of a random geometric graph
/// on `n` uniform points in the unit square, `√(ln n / (π n))`; radii a
/// constant factor above it give connected graphs with average degree
/// `Θ(log n)`.
pub fn geometric_threshold_radius(n: usize) -> f64 {
    let nf = n.max(2) as f64;
    (nf.ln() / (std::f64::consts::PI * nf)).sqrt()
}

/// Random geometric (unit-disk) graph: `n` points placed uniformly in the
/// unit square, with a link between every pair at Euclidean distance at most
/// `radius`.
///
/// Pairs are found with grid binning (cells of side `radius`), so generation
/// is `O(n + m)` for threshold-scale radii rather than `O(n²)`.  Because a
/// finite sample may leave isolated pockets at any radius, the generator
/// finally chains consecutive points in `(x, y)` order **only across
/// components** (union-find gated), which guarantees connectivity while
/// adding at most a few non-disk edges.
///
/// # Panics
///
/// Panics if `radius` is not finite and positive.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    random_geometric_builder(n, radius, seed).build()
}

/// [`random_geometric`] before finalisation.
pub(crate) fn random_geometric_builder(n: usize, radius: f64, seed: u64) -> GraphBuilder {
    assert!(
        radius.is_finite() && radius > 0.0,
        "radius must be finite and positive, got {radius}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    let mut b = GraphBuilder::new(n);
    let mut uf = UnionFind::new(n);
    let mut w: Weight = 0;

    // Grid binning: cells of side at least `radius` (floor, not ceil: a
    // finer grid would let in-radius pairs sit two cells apart and be
    // missed), so candidate pairs share a cell or one of the 8 surrounding
    // cells.
    let cells_per_side = ((1.0 / radius).floor() as usize).clamp(1, n.max(1));
    let cell_of = |p: (f64, f64)| {
        let cx = ((p.0 * cells_per_side as f64) as usize).min(cells_per_side - 1);
        let cy = ((p.1 * cells_per_side as f64) as usize).min(cells_per_side - 1);
        cy * cells_per_side + cx
    };
    // Flat cell index (counting sort of points into cells — CSR again).
    let mut cell_offsets = vec![0u32; cells_per_side * cells_per_side + 1];
    for &p in &pts {
        cell_offsets[cell_of(p) + 1] += 1;
    }
    for i in 1..cell_offsets.len() {
        cell_offsets[i] += cell_offsets[i - 1];
    }
    let mut cursor: Vec<u32> = cell_offsets[..cells_per_side * cells_per_side].to_vec();
    let mut cell_members = vec![0u32; n];
    for (i, &p) in pts.iter().enumerate() {
        let c = cell_of(p);
        cell_members[cursor[c] as usize] = i as u32;
        cursor[c] += 1;
    }

    let r2 = radius * radius;
    for (i, &(xi, yi)) in pts.iter().enumerate() {
        let cx = ((xi * cells_per_side as f64) as usize).min(cells_per_side - 1);
        let cy = ((yi * cells_per_side as f64) as usize).min(cells_per_side - 1);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let (nx, ny) = (cx as i64 + dx, cy as i64 + dy);
                if nx < 0 || ny < 0 || nx >= cells_per_side as i64 || ny >= cells_per_side as i64 {
                    continue;
                }
                let c = ny as usize * cells_per_side + nx as usize;
                let (a, z) = (cell_offsets[c] as usize, cell_offsets[c + 1] as usize);
                for &j in &cell_members[a..z] {
                    let j = j as usize;
                    if j <= i {
                        continue; // each unordered pair once
                    }
                    let (dx, dy) = (pts[j].0 - xi, pts[j].1 - yi);
                    if dx * dx + dy * dy <= r2 {
                        w += 1;
                        b.add_edge(NodeId(i), NodeId(j), w);
                        uf.union(i, j);
                    }
                }
            }
        }
    }

    // Connectivity repair: walk points in (x, y) order and bridge component
    // boundaries between consecutive points.
    if n > 1 {
        let mut by_x: Vec<usize> = (0..n).collect();
        by_x.sort_unstable_by(|&a, &z| {
            pts[a].partial_cmp(&pts[z]).expect("coordinates are finite")
        });
        for pair in by_x.windows(2) {
            if uf.union(pair[0], pair[1]) {
                w += 1;
                b.add_edge(NodeId(pair[0]), NodeId(pair[1]), w);
            }
        }
    }
    b
}

/// Scale-free graph by preferential attachment (Barabási–Albert): nodes
/// arrive one at a time and connect to `attach` distinct earlier nodes chosen
/// with probability proportional to current degree.
///
/// The first `attach + 1` nodes form a seed clique; attachment sampling uses
/// the repeated-endpoints trick (every edge contributes both endpoints to a
/// flat pool, so uniform pool draws are degree-proportional).  Connected by
/// construction; degree distribution is heavy-tailed, giving the CSR layout
/// a few very long rows.
///
/// # Panics
///
/// Panics if `attach == 0`.
pub fn preferential_attachment(n: usize, attach: usize, seed: u64) -> Graph {
    preferential_attachment_builder(n, attach, seed).build()
}

/// [`preferential_attachment`] before finalisation.
pub(crate) fn preferential_attachment_builder(n: usize, attach: usize, seed: u64) -> GraphBuilder {
    assert!(attach > 0, "attachment count must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let seed_size = (attach + 1).min(n);
    let max_edges = seed_size * seed_size.saturating_sub(1) / 2 + attach * (n - seed_size);
    let mut b = GraphBuilder::with_edge_capacity(n, max_edges);
    let mut w: Weight = 0;
    // Degree-proportional sampling pool: each edge pushes both endpoints.
    let mut pool: Vec<u32> = Vec::with_capacity(2 * max_edges);
    for i in 0..seed_size {
        for j in (i + 1)..seed_size {
            w += 1;
            b.add_edge(NodeId(i), NodeId(j), w);
            pool.push(i as u32);
            pool.push(j as u32);
        }
    }
    for v in seed_size..n {
        let mut added = 0;
        let mut attempts = 0;
        while added < attach && attempts < 32 * attach {
            attempts += 1;
            let t = pool[rng.gen_range(0..pool.len())];
            // Every link at `v` so far is one of its own picks, and those
            // are the pool's tail `[v, t₁, v, t₂, …]`: a draw found there is
            // a self loop or a duplicate, and nothing else can be either.
            if !pool[pool.len() - 2 * added..].contains(&t) {
                w += 1;
                b.add_edge(NodeId(v), NodeId(t as usize), w);
                pool.push(v as u32);
                pool.push(t);
                added += 1;
            }
        }
        if added == 0 {
            // Pathological rejection streak: fall back to uniform attachment
            // so the graph stays connected.
            let t = rng.gen_range(0..v);
            w += 1;
            b.add_edge(NodeId(v), NodeId(t), w);
            pool.push(v as u32);
            pool.push(t as u32);
        }
    }
    b
}

/// Degree-bounded expander: the union of `⌈degree / 2⌉` independent random
/// Hamiltonian cycles on `0..n`.
///
/// Each cycle is a uniformly shuffled permutation closed into a ring, so the
/// graph is connected (every cycle alone spans all nodes), every node has
/// degree at most `2·⌈degree / 2⌉` (less where cycles coincide on an edge),
/// and the union is an expander with high probability — Θ(log n) diameter
/// and adjacency with no index locality whatsoever.
///
/// Inputs with `n < 3` degenerate to a path.
///
/// # Panics
///
/// Panics if `degree == 0`.
pub fn degree_bounded_expander(n: usize, degree: usize, seed: u64) -> Graph {
    degree_bounded_expander_builder(n, degree, seed).build()
}

/// [`degree_bounded_expander`] before finalisation.
pub(crate) fn degree_bounded_expander_builder(n: usize, degree: usize, seed: u64) -> GraphBuilder {
    assert!(degree > 0, "degree bound must be positive");
    if n < 3 {
        return crate::generators::path_builder(n);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let mut w: Weight = 0;
    let cycles = degree.div_ceil(2);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..cycles {
        order.shuffle(&mut rng);
        for i in 0..n {
            let u = NodeId(order[i]);
            let v = NodeId(order[(i + 1) % n]);
            w += 1;
            if b.try_add_edge(u, v, w).is_none() {
                // Later cycles may retrace an existing link; skip it, keeping
                // the degree bound rather than the exact edge count.
                w -= 1;
            }
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{diameter_lower_bound, is_connected};

    #[test]
    fn ring_of_cliques_shape() {
        let g = ring_of_cliques(4, 5);
        assert_eq!(g.node_count(), 20);
        // 4 cliques of C(5,2) = 10 edges plus 4 bridges.
        assert_eq!(g.edge_count(), 44);
        assert!(is_connected(&g));
        // Interior clique nodes have degree 4; bridge endpoints degree 5.
        assert_eq!(g.degree(NodeId(1)), 4);
        assert_eq!(g.degree(NodeId(4)), 5);
        assert_eq!(g.degree(NodeId(5)), 5);
    }

    #[test]
    fn ring_of_cliques_degenerate_shapes() {
        // One clique = complete graph.
        let k = ring_of_cliques(1, 6);
        assert_eq!(k.edge_count(), 15);
        // Cliques of size one = plain ring.
        let r = ring_of_cliques(6, 1);
        assert_eq!(r.node_count(), 6);
        assert_eq!(r.edge_count(), 6);
        assert!(is_connected(&r));
        // Two singleton cliques: the two bridges coincide; one survives.
        let p = ring_of_cliques(2, 1);
        assert_eq!(p.edge_count(), 1);
        // Empty.
        assert!(ring_of_cliques(0, 5).is_empty());
        assert!(ring_of_cliques(5, 0).is_empty());
    }

    #[test]
    fn geometric_connected_and_deterministic() {
        let r = geometric_threshold_radius(300) * 1.2;
        let a = random_geometric(300, r, 11);
        let b = random_geometric(300, r, 11);
        assert!(is_connected(&a));
        assert_eq!(a.edge_count(), b.edge_count());
        for v in a.nodes() {
            assert_eq!(a.neighbors(v).targets(), b.neighbors(v).targets());
        }
        let c = random_geometric(300, r, 12);
        assert!(is_connected(&c));
        assert_ne!(
            (0..300)
                .map(|v| a.degree(NodeId(v)))
                .collect::<Vec<usize>>(),
            (0..300)
                .map(|v| c.degree(NodeId(v)))
                .collect::<Vec<usize>>(),
            "different seeds should give different layouts"
        );
    }

    #[test]
    fn geometric_contains_every_in_radius_pair() {
        // The unit-disk contract, checked against the O(n²) brute force: the
        // grid binning must not drop any pair within the radius (a cell side
        // below the radius would miss pairs two cells apart).
        for radius in [0.3, 0.11, geometric_threshold_radius(300) * 1.2] {
            let g = random_geometric(300, radius, 7);
            // Re-derive the point set: same seed, same draw order.
            let mut rng = StdRng::seed_from_u64(7);
            let pts: Vec<(f64, f64)> = (0..300)
                .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
                .collect();
            let mut expected = 0usize;
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                    if dx * dx + dy * dy <= radius * radius {
                        expected += 1;
                        assert!(
                            g.has_edge(NodeId(i), NodeId(j)),
                            "in-radius pair ({i}, {j}) missing at radius {radius}"
                        );
                    }
                }
            }
            // Only the union-find connectivity chain may add extras.
            assert!(g.edge_count() >= expected);
            assert!(g.edge_count() <= expected + 299);
        }
    }

    #[test]
    fn geometric_tiny_and_sparse() {
        assert!(random_geometric(0, 0.1, 3).is_empty());
        assert_eq!(random_geometric(1, 0.1, 3).node_count(), 1);
        // Minuscule radius: the connectivity chain must still connect.
        let g = random_geometric(50, 1e-6, 5);
        assert!(is_connected(&g));
        assert_eq!(g.edge_count(), 49);
    }

    #[test]
    #[should_panic]
    fn geometric_rejects_bad_radius() {
        let _ = random_geometric(10, 0.0, 1);
    }

    #[test]
    fn preferential_attachment_is_scale_free_ish() {
        let g = preferential_attachment(400, 3, 7);
        assert_eq!(g.node_count(), 400);
        assert!(is_connected(&g));
        // m ≈ seed clique + 3 per arrival (a few rejections allowed).
        assert!(g.edge_count() > 3 * 396 - 50);
        assert!(g.edge_count() <= 6 + 3 * 397);
        // Heavy tail: the max degree far exceeds the mean (~6).
        assert!(g.max_degree() >= 20, "max degree {}", g.max_degree());
        // Determinism.
        let h = preferential_attachment(400, 3, 7);
        assert_eq!(g.edge_count(), h.edge_count());
    }

    #[test]
    fn preferential_attachment_tiny() {
        assert!(preferential_attachment(0, 2, 1).is_empty());
        let g = preferential_attachment(2, 3, 1);
        assert_eq!(g.edge_count(), 1);
        assert!(is_connected(&preferential_attachment(5, 2, 9)));
    }

    #[test]
    fn expander_degree_bound_and_diameter() {
        let g = degree_bounded_expander(512, 6, 13);
        assert_eq!(g.node_count(), 512);
        assert!(is_connected(&g));
        assert!(g.max_degree() <= 6);
        // Expander: diameter is logarithmic, far below √n ≈ 22.
        assert!(diameter_lower_bound(&g) <= 16);
        // Determinism.
        let h = degree_bounded_expander(512, 6, 13);
        assert_eq!(g.edge_count(), h.edge_count());
    }

    #[test]
    fn expander_tiny_degenerates_to_path() {
        let g = degree_bounded_expander(2, 4, 1);
        assert_eq!(g.edge_count(), 1);
        assert!(degree_bounded_expander(0, 2, 1).is_empty());
    }

    #[test]
    #[should_panic]
    fn expander_rejects_zero_degree() {
        let _ = degree_bounded_expander(10, 0, 1);
    }

    #[test]
    #[should_panic]
    fn preferential_attachment_rejects_zero_attach() {
        let _ = preferential_attachment(10, 0, 1);
    }
}
