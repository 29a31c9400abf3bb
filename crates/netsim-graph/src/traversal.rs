//! Breadth-first traversal, distances, connectivity and metric properties
//! (eccentricity, diameter, radius) of the point-to-point graph.
//!
//! Aggregate results use the same index-flat discipline as the CSR graph
//! itself: [`connected_components`] returns a [`ComponentSet`] (one `offsets`
//! index over one flat node array) and [`all_pairs_distances`] returns a
//! dense row-major [`DistanceMatrix`], instead of nested `Vec<Vec<_>>`s.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Result of a breadth-first search from a single source.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// Source of the search.
    pub source: NodeId,
    /// `dist[v]` is the hop distance from the source, or `None` if unreachable.
    pub dist: Vec<Option<u32>>,
    /// `parent[v]` is the BFS-tree parent, `None` for the source and for
    /// unreachable nodes.
    pub parent: Vec<Option<NodeId>>,
}

impl BfsTree {
    /// Hop distance to `v`, if reachable.
    pub fn distance(&self, v: NodeId) -> Option<u32> {
        self.dist[v.index()]
    }

    /// BFS-tree parent of `v`.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Nodes reachable from the source (including the source itself).
    pub fn reachable_count(&self) -> usize {
        self.dist.iter().filter(|d| d.is_some()).count()
    }

    /// Largest finite distance in the tree (the eccentricity of the source
    /// within its connected component).
    pub fn max_distance(&self) -> u32 {
        self.dist.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Reconstructs the path from the source to `v` (inclusive), if reachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        self.dist[v.index()]?;
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// Runs a breadth-first search from `source`.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs(g: &Graph, source: NodeId) -> BfsTree {
    assert!(source.index() < g.node_count(), "source out of range");
    let n = g.node_count();
    let mut dist = vec![None; n];
    let mut parent = vec![None; n];
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued node has a distance");
        for &v in g.neighbor_targets(u) {
            let v = v as usize;
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                parent[v] = Some(u);
                queue.push_back(NodeId(v));
            }
        }
    }
    BfsTree {
        source,
        dist,
        parent,
    }
}

/// The connected components of a graph, in flat `(offsets, nodes)` form.
///
/// Component `i` is the slice `nodes[offsets[i]..offsets[i + 1]]`; component
/// order (by smallest member) and the order of nodes inside a component
/// (BFS discovery order from that member) are deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentSet {
    /// Flat index: component `i` spans `nodes[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Concatenated component memberships.
    nodes: Vec<NodeId>,
    /// Component index of every node.
    comp_of: Vec<usize>,
}

impl ComponentSet {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the underlying graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Members of component `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count()`.
    pub fn component(&self, i: usize) -> &[NodeId] {
        &self.nodes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Index of the component containing `v`.
    pub fn component_of(&self, v: NodeId) -> usize {
        self.comp_of[v.index()]
    }

    /// Iterator over the component slices, in component order.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        (0..self.count()).map(|i| self.component(i))
    }

    /// The flat `(offsets, nodes)` pair backing the set.
    pub fn as_flat(&self) -> (&[usize], &[NodeId]) {
        (&self.offsets, &self.nodes)
    }

    /// Size of the largest component (0 when there are none).
    pub fn max_size(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

/// Returns the connected components of `g` as a flat [`ComponentSet`].
pub fn connected_components(g: &Graph) -> ComponentSet {
    let n = g.node_count();
    let mut comp_of: Vec<usize> = vec![usize::MAX; n];
    let mut offsets = Vec::with_capacity(8);
    let mut nodes = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    offsets.push(0);
    for start in g.nodes() {
        if comp_of[start.index()] != usize::MAX {
            continue;
        }
        let idx = offsets.len() - 1;
        comp_of[start.index()] = idx;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            nodes.push(u);
            for &v in g.neighbor_targets(u) {
                let v = v as usize;
                if comp_of[v] == usize::MAX {
                    comp_of[v] = idx;
                    queue.push_back(NodeId(v));
                }
            }
        }
        offsets.push(nodes.len());
    }
    ComponentSet {
        offsets,
        nodes,
        comp_of,
    }
}

/// Returns `true` when the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    if g.node_count() == 0 {
        return true;
    }
    bfs(g, NodeId(0)).reachable_count() == g.node_count()
}

/// Eccentricity of `v`: the maximum hop distance from `v` to any reachable node.
pub fn eccentricity(g: &Graph, v: NodeId) -> u32 {
    bfs(g, v).max_distance()
}

/// Exact diameter and radius of a connected graph, computed with `n` BFS runs.
///
/// Returns `(diameter, radius)`.
///
/// # Panics
///
/// Panics if the graph is empty or disconnected (the metric is undefined there).
pub fn diameter_radius(g: &Graph) -> (u32, u32) {
    assert!(
        g.node_count() > 0,
        "diameter of the empty graph is undefined"
    );
    assert!(
        is_connected(g),
        "diameter of a disconnected graph is undefined"
    );
    let mut diameter = 0;
    let mut radius = u32::MAX;
    for v in g.nodes() {
        let ecc = eccentricity(g, v);
        diameter = diameter.max(ecc);
        radius = radius.min(ecc);
    }
    (diameter, radius)
}

/// Exact diameter of a connected graph.  See [`diameter_radius`].
pub fn diameter(g: &Graph) -> u32 {
    diameter_radius(g).0
}

/// A cheap two-sweep lower bound on the diameter (exact on trees): BFS from an
/// arbitrary node, then BFS from the farthest node found.
///
/// Useful for large graphs where the exact `O(n·m)` diameter is too slow.
pub fn diameter_lower_bound(g: &Graph) -> u32 {
    if g.node_count() == 0 {
        return 0;
    }
    let first = bfs(g, NodeId(0));
    let far = first
        .dist
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|d| (d, i)))
        .max()
        .map(|(_, i)| NodeId(i))
        .unwrap_or(NodeId(0));
    bfs(g, far).max_distance()
}

/// Dense all-pairs hop-distance matrix in one flat row-major array.
///
/// Row `u` is `data[u·n..(u + 1)·n]`; entry `(u, v)` is `None` when `v` is
/// unreachable from `u`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<Option<u32>>,
}

impl DistanceMatrix {
    /// Number of nodes (the matrix is `n × n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The distances from `u` to every node, as a flat row.
    pub fn row(&self, u: NodeId) -> &[Option<u32>] {
        &self.data[u.index() * self.n..(u.index() + 1) * self.n]
    }

    /// Hop distance from `u` to `v`, if reachable.
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<u32> {
        self.data[u.index() * self.n + v.index()]
    }

    /// The whole matrix as one flat row-major slice of length `n²`.
    pub fn as_flat(&self) -> &[Option<u32>] {
        &self.data
    }
}

/// All-pairs shortest hop distances as a flat [`DistanceMatrix`].
///
/// Intended for test-sized graphs; cost is `O(n·(n + m))`.
pub fn all_pairs_distances(g: &Graph) -> DistanceMatrix {
    let n = g.node_count();
    let mut data = Vec::with_capacity(n * n);
    for v in g.nodes() {
        data.extend(bfs(g, v).dist);
    }
    DistanceMatrix { n, data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n.saturating_sub(1) {
            b.add_edge(NodeId(i), NodeId(i + 1), (i + 1) as u64);
        }
        b.build()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(5);
        let t = bfs(&g, NodeId(0));
        for v in 0..5 {
            assert_eq!(t.distance(NodeId(v)), Some(v as u32));
        }
        assert_eq!(t.max_distance(), 4);
        assert_eq!(t.reachable_count(), 5);
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(2)));
    }

    #[test]
    fn bfs_path_reconstruction() {
        let g = path(4);
        let t = bfs(&g, NodeId(0));
        assert_eq!(
            t.path_to(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(t.path_to(NodeId(0)).unwrap(), vec![NodeId(0)]);
    }

    #[test]
    fn disconnected_components() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(0), NodeId(1), 1);
        b.add_edge(NodeId(2), NodeId(3), 1);
        let g = b.build();
        assert!(!is_connected(&g));
        let comps = connected_components(&g);
        assert_eq!(comps.count(), 3);
        assert!(!comps.is_empty());
        assert_eq!(comps.component(0), &[NodeId(0), NodeId(1)]);
        assert_eq!(comps.component(1), &[NodeId(2), NodeId(3)]);
        assert_eq!(comps.component(2), &[NodeId(4)]);
        assert_eq!(comps.component_of(NodeId(3)), 1);
        assert_eq!(comps.max_size(), 2);
        let sizes: Vec<usize> = comps.iter().map(<[NodeId]>::len).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
        let (offsets, nodes) = comps.as_flat();
        assert_eq!(offsets, &[0, 2, 4, 5]);
        assert_eq!(nodes.len(), 5);
        let t = bfs(&g, NodeId(0));
        assert_eq!(t.distance(NodeId(4)), None);
        assert!(t.path_to(NodeId(4)).is_none());
    }

    #[test]
    fn components_of_empty_graph() {
        let comps = connected_components(&GraphBuilder::new(0).build());
        assert_eq!(comps.count(), 0);
        assert!(comps.is_empty());
        assert_eq!(comps.max_size(), 0);
        assert_eq!(comps.iter().count(), 0);
    }

    #[test]
    fn diameter_and_radius_of_path() {
        let g = path(7);
        let (d, r) = diameter_radius(&g);
        assert_eq!(d, 6);
        assert_eq!(r, 3);
        assert_eq!(diameter(&g), 6);
        assert_eq!(diameter_lower_bound(&g), 6);
    }

    #[test]
    fn eccentricity_of_center_and_leaf() {
        let g = path(5);
        assert_eq!(eccentricity(&g, NodeId(2)), 2);
        assert_eq!(eccentricity(&g, NodeId(0)), 4);
    }

    #[test]
    fn all_pairs_matches_bfs() {
        let g = path(6);
        let ap = all_pairs_distances(&g);
        assert_eq!(ap.n(), 6);
        assert_eq!(ap.as_flat().len(), 36);
        for u in g.nodes() {
            let row = ap.row(u);
            for v in g.nodes() {
                let expect = Some((u.index() as i64 - v.index() as i64).unsigned_abs() as u32);
                assert_eq!(row[v.index()], expect);
                assert_eq!(ap.get(u, v), expect);
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let g = GraphBuilder::new(0).build();
        assert!(is_connected(&g));
        assert_eq!(diameter_lower_bound(&g), 0);
        let g1 = GraphBuilder::new(1).build();
        assert!(is_connected(&g1));
        assert_eq!(diameter_radius(&g1), (0, 0));
    }

    #[test]
    #[should_panic]
    fn diameter_of_disconnected_panics() {
        let g = GraphBuilder::new(2).build();
        let _ = diameter_radius(&g);
    }
}
