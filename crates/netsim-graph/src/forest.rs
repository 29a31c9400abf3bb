//! Rooted spanning forests: the output type of both partitioning algorithms
//! of the paper, together with the quality measures the paper's Theorem 1 and
//! Claims 1–2 speak about (number of trees, per-tree size and radius, and the
//! MST-subtree property).

use crate::graph::{EdgeId, Graph, NodeId};
use crate::mst::is_mst_subforest;
use std::collections::VecDeque;

/// A rooted spanning forest over the nodes of a graph.
///
/// Every node stores its parent (`None` for roots) and, redundantly for
/// convenience, the id of the tree (root) it belongs to.  The forest is
/// *spanning*: every node of the underlying graph belongs to exactly one tree.
///
/// # Examples
///
/// ```
/// use netsim_graph::{generators, SpanningForest, NodeId};
/// let g = generators::path(4);
/// // Two trees: {v0, v1} rooted at v0 and {v2, v3} rooted at v3.
/// let forest = SpanningForest::from_parents(
///     &g,
///     vec![None, Some(NodeId(0)), Some(NodeId(3)), None],
/// ).unwrap();
/// assert_eq!(forest.tree_count(), 2);
/// assert_eq!(forest.tree_size(NodeId(0)), 2);
/// assert_eq!(forest.radius_of(NodeId(3)), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SpanningForest {
    parent: Vec<Option<NodeId>>,
    root_of: Vec<NodeId>,
    roots: Vec<NodeId>,
    /// CSR children index: node `v`'s children are
    /// `child_list[child_offsets[v]..child_offsets[v + 1]]`, ascending.
    child_offsets: Vec<u32>,
    child_list: Vec<NodeId>,
}

/// Builds the flat CSR children triple from parent pointers with a counting
/// pass (no per-node `Vec`s): node order is ascending, so each child slice
/// comes out in ascending node order.
fn children_csr(parent: &[Option<NodeId>]) -> (Vec<u32>, Vec<NodeId>) {
    let n = parent.len();
    let mut offsets = vec![0u32; n + 1];
    for p in parent.iter().flatten() {
        offsets[p.index() + 1] += 1;
    }
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut list = vec![NodeId(0); offsets[n] as usize];
    for (v, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            let pos = cursor[p.index()] as usize;
            cursor[p.index()] += 1;
            list[pos] = NodeId(v);
        }
    }
    (offsets, list)
}

/// Error returned when a parent vector does not describe a valid rooted
/// spanning forest of the given graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForestError {
    /// The parent vector length differs from the node count.
    WrongLength {
        /// nodes in the graph
        expected: usize,
        /// entries supplied
        got: usize,
    },
    /// A node's parent is not one of its graph neighbours.
    ParentNotNeighbor(NodeId),
    /// Following parent pointers from this node never reaches a root
    /// (there is a cycle).
    Cycle(NodeId),
}

impl std::fmt::Display for ForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForestError::WrongLength { expected, got } => {
                write!(f, "parent vector has {got} entries, expected {expected}")
            }
            ForestError::ParentNotNeighbor(v) => {
                write!(f, "parent of {v} is not a neighbour in the graph")
            }
            ForestError::Cycle(v) => write!(f, "parent pointers from {v} form a cycle"),
        }
    }
}

impl std::error::Error for ForestError {}

impl SpanningForest {
    /// Builds a forest from a parent vector (`parent[v] = None` ⇔ `v` is a root).
    ///
    /// # Errors
    ///
    /// Returns a [`ForestError`] if the vector length is wrong, a parent is
    /// not a graph neighbour, or the parent pointers contain a cycle.
    pub fn from_parents(g: &Graph, parent: Vec<Option<NodeId>>) -> Result<Self, ForestError> {
        let n = g.node_count();
        if parent.len() != n {
            return Err(ForestError::WrongLength {
                expected: n,
                got: parent.len(),
            });
        }
        for v in g.nodes() {
            if let Some(p) = parent[v.index()] {
                if !g.has_edge(v, p) {
                    return Err(ForestError::ParentNotNeighbor(v));
                }
            }
        }
        // Resolve roots with two walks per unresolved start: the first
        // marks its path up to a resolved node or a root (meeting its own
        // mark again is a cycle), the second writes the root along it.
        let mut root_of: Vec<Option<NodeId>> = vec![None; n];
        let mut on_walk = vec![false; n];
        for v in g.nodes() {
            if root_of[v.index()].is_some() {
                continue;
            }
            let mut cur = v;
            let root = loop {
                if let Some(r) = root_of[cur.index()] {
                    break r;
                }
                if on_walk[cur.index()] {
                    return Err(ForestError::Cycle(v));
                }
                on_walk[cur.index()] = true;
                match parent[cur.index()] {
                    None => break cur,
                    Some(p) => cur = p,
                }
            };
            let mut cur = Some(v);
            while let Some(x) = cur.filter(|x| root_of[x.index()].is_none()) {
                root_of[x.index()] = Some(root);
                cur = parent[x.index()];
            }
        }
        let root_of: Vec<NodeId> = root_of.into_iter().map(|r| r.expect("resolved")).collect();
        let mut roots: Vec<NodeId> = g.nodes().filter(|v| parent[v.index()].is_none()).collect();
        roots.sort();
        let (child_offsets, child_list) = children_csr(&parent);
        Ok(SpanningForest {
            parent,
            root_of,
            roots,
            child_offsets,
            child_list,
        })
    }

    /// The trivial forest in which every node is the root of a singleton tree.
    pub fn singletons(g: &Graph) -> Self {
        SpanningForest {
            parent: vec![None; g.node_count()],
            root_of: g.nodes().collect(),
            roots: g.nodes().collect(),
            child_offsets: vec![0; g.node_count() + 1],
            child_list: Vec::new(),
        }
    }

    /// Number of nodes covered by the forest.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// Number of trees (roots).
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// The roots, in ascending node order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Parent of `v` (`None` when `v` is a root).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Children of `v` in the forest (a slice of the flat CSR child array),
    /// in ascending node order.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        let (a, b) = (
            self.child_offsets[v.index()] as usize,
            self.child_offsets[v.index() + 1] as usize,
        );
        &self.child_list[a..b]
    }

    /// Root (core) of the tree containing `v`.
    pub fn root_of(&self, v: NodeId) -> NodeId {
        self.root_of[v.index()]
    }

    /// Returns `true` when `u` and `v` are in the same tree.
    pub fn same_tree(&self, u: NodeId, v: NodeId) -> bool {
        self.root_of(u) == self.root_of(v)
    }

    /// The members of the tree rooted at `root`, in ascending node order.
    pub fn tree_members(&self, root: NodeId) -> Vec<NodeId> {
        (0..self.parent.len())
            .map(NodeId)
            .filter(|&v| self.root_of(v) == root)
            .collect()
    }

    /// Size (number of nodes) of the tree containing `v`.
    pub fn tree_size(&self, v: NodeId) -> usize {
        let root = self.root_of(v);
        self.root_of.iter().filter(|&&r| r == root).count()
    }

    /// Depth of `v` below its root (root has depth 0).
    pub fn depth(&self, v: NodeId) -> u32 {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = self.parent[cur.index()] {
            d += 1;
            cur = p;
        }
        d
    }

    /// Radius of the tree rooted at `root`: the maximum depth of any member.
    ///
    /// This is the quantity bounded by `8√n` (deterministic partition) and
    /// `4√n` (randomized partition) in the paper.
    pub fn radius_of(&self, root: NodeId) -> u32 {
        // BFS down through children.
        let mut best = 0;
        let mut queue = VecDeque::new();
        queue.push_back((root, 0u32));
        while let Some((v, d)) = queue.pop_front() {
            best = best.max(d);
            for &c in self.children(v) {
                queue.push_back((c, d + 1));
            }
        }
        best
    }

    /// Maximum radius over all trees of the forest.
    pub fn max_radius(&self) -> u32 {
        self.roots
            .iter()
            .map(|&r| self.radius_of(r))
            .max()
            .unwrap_or(0)
    }

    /// Minimum tree size over all trees of the forest.
    pub fn min_tree_size(&self) -> usize {
        self.roots
            .iter()
            .map(|&r| self.tree_size(r))
            .min()
            .unwrap_or(0)
    }

    /// The set of (parent, child) graph edges used by the forest.
    pub fn tree_edges(&self, g: &Graph) -> Vec<EdgeId> {
        let mut edges = Vec::new();
        for v in g.nodes() {
            if let Some(p) = self.parent[v.index()] {
                let e = g
                    .find_edge(v, p)
                    .expect("forest parent edges exist in the graph");
                edges.push(e);
            }
        }
        edges
    }

    /// Returns `true` when every tree edge of the forest belongs to the unique
    /// minimum spanning tree of `g` — property (1) of the deterministic
    /// partition (Section 3).
    pub fn is_mst_subforest(&self, g: &Graph) -> bool {
        is_mst_subforest(g, &self.tree_edges(g))
    }

    /// Per-tree summary statistics, keyed by root, sorted by root id.
    pub fn tree_stats(&self) -> Vec<TreeStats> {
        self.roots
            .iter()
            .map(|&r| TreeStats {
                root: r,
                size: self.tree_size(r),
                radius: self.radius_of(r),
            })
            .collect()
    }
}

/// Size and radius of a single tree of a [`SpanningForest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeStats {
    /// Root (core) of the tree.
    pub root: NodeId,
    /// Number of nodes in the tree.
    pub size: usize,
    /// Maximum depth of any node below the root.
    pub radius: u32,
}

/// Summary of partition quality, as reported by the experiments for
/// Theorem 1 / Claims 1–2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionQuality {
    /// Number of trees in the forest.
    pub trees: usize,
    /// Maximum tree radius.
    pub max_radius: u32,
    /// Minimum tree size.
    pub min_size: usize,
    /// `trees / √n` — the paper bounds the expectation of this by a constant.
    pub trees_over_sqrt_n: f64,
    /// `max_radius / √n` — bounded by 8 (deterministic) or 4 (randomized).
    pub radius_over_sqrt_n: f64,
}

/// Computes the quality summary of a forest over a graph with `n` nodes.
pub fn partition_quality(forest: &SpanningForest) -> PartitionQuality {
    let n = forest.node_count().max(1) as f64;
    PartitionQuality {
        trees: forest.tree_count(),
        max_radius: forest.max_radius(),
        min_size: forest.min_tree_size(),
        trees_over_sqrt_n: forest.tree_count() as f64 / n.sqrt(),
        radius_over_sqrt_n: forest.max_radius() as f64 / n.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{path, ring};

    #[test]
    fn singleton_forest() {
        let g = ring(5);
        let f = SpanningForest::singletons(&g);
        assert_eq!(f.tree_count(), 5);
        assert_eq!(f.max_radius(), 0);
        assert_eq!(f.min_tree_size(), 1);
        assert!(f.is_mst_subforest(&g));
        let q = partition_quality(&f);
        assert_eq!(q.trees, 5);
        assert_eq!(q.max_radius, 0);
    }

    #[test]
    fn two_tree_forest_on_path() {
        let g = path(6);
        let parent = vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(4)),
            None,
            Some(NodeId(4)),
        ];
        let f = SpanningForest::from_parents(&g, parent).unwrap();
        assert_eq!(f.tree_count(), 2);
        assert_eq!(f.roots(), &[NodeId(0), NodeId(4)]);
        assert_eq!(f.tree_size(NodeId(2)), 3);
        assert_eq!(f.tree_size(NodeId(5)), 3);
        assert_eq!(f.radius_of(NodeId(0)), 2);
        assert_eq!(f.radius_of(NodeId(4)), 1);
        assert_eq!(f.depth(NodeId(2)), 2);
        assert_eq!(f.root_of(NodeId(3)), NodeId(4));
        assert!(f.same_tree(NodeId(3), NodeId(5)));
        assert!(!f.same_tree(NodeId(0), NodeId(5)));
        assert_eq!(
            f.tree_members(NodeId(0)),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(f.children(NodeId(4)), &[NodeId(3), NodeId(5)]);
        assert_eq!(f.tree_edges(&g).len(), 4);
        // A path's edges are all MST edges.
        assert!(f.is_mst_subforest(&g));
        let stats = f.tree_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].size, 3);
    }

    #[test]
    fn from_parents_rejects_wrong_length() {
        let g = path(3);
        let err = SpanningForest::from_parents(&g, vec![None, None]).unwrap_err();
        assert!(matches!(
            err,
            ForestError::WrongLength {
                expected: 3,
                got: 2
            }
        ));
        assert!(err.to_string().contains("expected 3"));
    }

    #[test]
    fn from_parents_rejects_non_neighbor_parent() {
        let g = path(4);
        let err =
            SpanningForest::from_parents(&g, vec![None, Some(NodeId(0)), Some(NodeId(0)), None])
                .unwrap_err();
        assert_eq!(err, ForestError::ParentNotNeighbor(NodeId(2)));
    }

    #[test]
    fn from_parents_rejects_cycle() {
        let g = ring(3);
        let err = SpanningForest::from_parents(
            &g,
            vec![Some(NodeId(1)), Some(NodeId(2)), Some(NodeId(0))],
        )
        .unwrap_err();
        assert!(matches!(err, ForestError::Cycle(_)));
    }

    #[test]
    fn quality_ratios() {
        let g = path(16);
        let f = SpanningForest::singletons(&g);
        let q = partition_quality(&f);
        assert!((q.trees_over_sqrt_n - 4.0).abs() < 1e-9);
        assert_eq!(q.radius_over_sqrt_n, 0.0);
        assert_eq!(q.min_size, 1);
    }
}
