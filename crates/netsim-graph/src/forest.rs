//! Rooted spanning forests: the output type of both partitioning algorithms
//! of the paper, together with the quality measures the paper's Theorem 1 and
//! Claims 1–2 speak about (number of trees, per-tree size and radius, and the
//! MST-subtree property).
//!
//! A [`SpanningForest`] is stored as **one preorder** over all its trees:
//! the trees follow each other in ascending root order, and inside a tree
//! every node comes before its children, which ascend.  Each node keeps its
//! parent, its tree index, its preorder position and its subtree size, so
//! the subtree of `v` is the slice `order[pos[v] .. pos[v] + size[v]]` and a
//! whole tree is the subtree of its root.  Tree size, root, tree index and
//! radius are O(1) lookups.
//!
//! One routine builds every forest, [`SpanningForest::from_fn`] over a parent
//! function; [`SpanningForest::from_parents`] adds the check that each parent
//! is a graph neighbour.  A node that the build cannot reach from a root
//! lies on a cycle or leads into one, and the smallest such node is the one
//! [`ForestError::Cycle`] names.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::mst::is_mst_subforest;

/// The stored parent of a root.
const NO_PARENT: u32 = u32::MAX;

/// Per-node record of a [`SpanningForest`].
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Parent index, [`NO_PARENT`] for a root.
    parent: u32,
    /// Index of the node's tree (its root's rank among the roots).
    tree: u32,
    /// Position of the node in the preorder.
    pos: u32,
    /// Number of nodes in the node's subtree, itself included.
    size: u32,
}

/// A rooted spanning forest over the nodes of a graph, stored as a preorder.
///
/// The forest is *spanning*: every node belongs to exactly one tree.  Trees
/// are indexed `0..tree_count()` in ascending root order; the nodes of the
/// subtree of `v` are the contiguous preorder slice [`subtree`](Self::subtree)
/// (the whole tree for a root), starting with `v`.  [`tree_size`],
/// [`root_of`], [`tree_of`] and [`radius_of`] are O(1), [`max_radius`] and
/// [`min_tree_size`] are O(trees), and none of them allocates.
///
/// [`tree_size`]: Self::tree_size
/// [`root_of`]: Self::root_of
/// [`tree_of`]: Self::tree_of
/// [`radius_of`]: Self::radius_of
/// [`max_radius`]: Self::max_radius
/// [`min_tree_size`]: Self::min_tree_size
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
/// // The tree of v3 in preorder: the root, then its child.
/// assert_eq!(forest.subtree(NodeId(3)), &[3, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct SpanningForest {
    nodes: Vec<Slot>,
    /// Node indices in preorder.
    order: Vec<u32>,
    /// Roots, ascending: `roots[t]` is the root of tree `t`.
    roots: Vec<NodeId>,
    /// Radius (maximum depth below the root) of tree `t`.
    radius: Vec<u32>,
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
    /// Builds a forest from a parent vector (`parent[v] = None` ⇔ `v` is a root)
    /// whose every parent edge is an edge of `g`.
    ///
    /// # Errors
    ///
    /// Returns a [`ForestError`] if the vector length is wrong, a parent is
    /// not a graph neighbour (the smallest such node is named), or the
    /// parent pointers contain a cycle (see [`from_fn`](Self::from_fn)).
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
        Self::from_fn(n, |v| parent[v.index()])
    }

    /// Builds a forest over the nodes `0..n` from a parent function
    /// (`parent(v) = None` ⇔ `v` is a root), without a graph.
    ///
    /// The build makes four allocations (the per-node records, the
    /// preorder, the roots and the radii) and no others: child counts,
    /// the leaf-first order that sums subtree sizes and heights, and the
    /// sibling offsets all live in the storage they end up in.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::Cycle`] naming the smallest node whose parent
    /// chain never reaches a root, i.e. the smallest node that lies on a
    /// cycle or leads into one.
    ///
    /// # Panics
    ///
    /// Panics if a parent is not below `n`, or if `n` does not fit the
    /// 32-bit node records.
    pub fn from_fn(
        n: usize,
        parent: impl Fn(NodeId) -> Option<NodeId>,
    ) -> Result<Self, ForestError> {
        assert!(n < NO_PARENT as usize, "{n} nodes exceed the 32-bit forest");
        // Parents, and child counts held in `pos` until the positions are known.
        let mut nodes = vec![
            Slot {
                parent: NO_PARENT,
                tree: 0,
                pos: 0,
                size: 1,
            };
            n
        ];
        let mut tree_count = 0;
        for v in 0..n {
            match parent(NodeId(v)) {
                None => tree_count += 1,
                Some(p) => {
                    assert!(p.index() < n, "parent {p} of v{v} is out of range");
                    nodes[v].parent = p.index() as u32;
                    nodes[p.index()].pos += 1;
                }
            }
        }
        // Leaves first: a node is queued once all its children have been
        // taken, and taking it adds its size and height (held in `tree`)
        // to its parent.  A node on a cycle is never queued.
        let mut order: Vec<u32> = Vec::with_capacity(n);
        order.extend((0..n as u32).filter(|&v| nodes[v as usize].pos == 0));
        let mut next = 0;
        while let Some(&v) = order.get(next) {
            next += 1;
            let s = nodes[v as usize];
            if s.parent != NO_PARENT {
                let p = &mut nodes[s.parent as usize];
                p.size += s.size;
                p.tree = p.tree.max(s.tree + 1);
                p.pos -= 1;
                if p.pos == 0 {
                    order.push(s.parent);
                }
            }
        }
        if order.len() < n {
            return Err(ForestError::Cycle(first_unrooted(&mut nodes, &order)));
        }
        // A root's height is its tree's radius; roots take their preorder
        // offsets in ascending order, and every node resets its next-child
        // offset (held in `tree`) to 1.
        let mut roots = Vec::with_capacity(tree_count);
        let mut radius = Vec::with_capacity(tree_count);
        let mut offset = 0;
        for (v, s) in nodes.iter_mut().enumerate() {
            if s.parent == NO_PARENT {
                roots.push(NodeId(v));
                radius.push(s.tree);
                s.pos = offset;
                offset += s.size;
            }
            s.tree = 1;
        }
        // Children in ascending order take consecutive offsets inside their
        // parent's range (`pos` holds the offset relative to the parent).
        for v in 0..n {
            let s = nodes[v];
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                nodes[v].pos = nodes[p].tree;
                nodes[p].tree += s.size;
            }
        }
        for (t, r) in roots.iter().enumerate() {
            nodes[r.index()].tree = t as u32;
        }
        // Parents before children (the leaf-first order reversed): absolute
        // positions and tree indices flow down from the roots.
        for &v in order.iter().rev() {
            let s = nodes[v as usize];
            if s.parent != NO_PARENT {
                let p = nodes[s.parent as usize];
                nodes[v as usize].pos += p.pos;
                nodes[v as usize].tree = p.tree;
            }
        }
        for (v, s) in nodes.iter().enumerate() {
            order[s.pos as usize] = v as u32;
        }
        Ok(SpanningForest {
            nodes,
            order,
            roots,
            radius,
        })
    }

    /// The trivial forest in which every node is the root of a singleton tree.
    pub fn singletons(g: &Graph) -> Self {
        Self::from_fn(g.node_count(), |_| None).expect("singletons have no cycle")
    }

    /// Number of nodes covered by the forest.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of trees (roots).
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// The roots, in ascending node order: `roots()[t]` is the root of tree
    /// `t`.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Parent of `v` (`None` when `v` is a root).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.nodes[v.index()].parent;
        (p != NO_PARENT).then_some(NodeId(p as usize))
    }

    /// Children of `v` in the forest, in ascending node order: the first
    /// child follows `v` in the preorder, and each next sibling follows the
    /// previous one's subtree.
    pub fn children(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let s = self.nodes[v.index()];
        let (mut next, end) = (s.pos + 1, s.pos + s.size);
        std::iter::from_fn(move || {
            (next < end).then(|| {
                let c = self.order[next as usize];
                next += self.nodes[c as usize].size;
                NodeId(c as usize)
            })
        })
    }

    /// Index of the tree containing `v` (its root's rank among the roots).
    pub fn tree_of(&self, v: NodeId) -> usize {
        self.nodes[v.index()].tree as usize
    }

    /// Root (core) of the tree containing `v`.
    pub fn root_of(&self, v: NodeId) -> NodeId {
        self.roots[self.tree_of(v)]
    }

    /// The subtree of `v` as node indices in preorder, `v` first; for a
    /// root, its whole tree.
    pub fn subtree(&self, v: NodeId) -> &[u32] {
        let s = self.nodes[v.index()];
        &self.order[s.pos as usize..(s.pos + s.size) as usize]
    }

    /// Number of nodes in the subtree of `v`, `v` included.
    pub fn subtree_size(&self, v: NodeId) -> usize {
        self.nodes[v.index()].size as usize
    }

    /// Size (number of nodes) of the tree containing `v`.
    pub fn tree_size(&self, v: NodeId) -> usize {
        self.subtree_size(self.root_of(v))
    }

    /// Radius of the tree rooted at `root` (any member names its tree): the
    /// maximum depth of any member.
    ///
    /// This is the quantity bounded by `8√n` (deterministic partition) and
    /// `4√n` (randomized partition) in the paper.
    pub fn radius_of(&self, root: NodeId) -> u32 {
        self.radius[self.tree_of(root)]
    }

    /// Maximum radius over all trees of the forest.
    pub fn max_radius(&self) -> u32 {
        self.radius.iter().copied().max().unwrap_or(0)
    }

    /// Minimum tree size over all trees of the forest.
    pub fn min_tree_size(&self) -> usize {
        self.roots
            .iter()
            .map(|&r| self.subtree_size(r))
            .min()
            .unwrap_or(0)
    }

    /// The set of (parent, child) graph edges used by the forest.
    pub fn tree_edges(&self, g: &Graph) -> Vec<EdgeId> {
        let mut edges = Vec::new();
        for v in g.nodes() {
            if let Some(p) = self.parent(v) {
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
}

/// The smallest node whose parent chain never reaches a root, given the
/// leaf-first order of the nodes the build could take.  The nodes never
/// taken lie on a cycle (their child count never fell to 0); a taken node
/// leads into a cycle exactly when its parent does, and the reversed order
/// visits parents first.
fn first_unrooted(nodes: &mut [Slot], taken: &[u32]) -> NodeId {
    for s in nodes.iter_mut() {
        s.tree = u32::from(s.pos > 0);
    }
    for &v in taken.iter().rev() {
        let s = nodes[v as usize];
        if s.parent != NO_PARENT {
            nodes[v as usize].tree = nodes[s.parent as usize].tree;
        }
    }
    let v = nodes.iter().position(|s| s.tree == 1);
    NodeId(v.expect("an untaken node lies on a cycle"))
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
        assert_eq!(f.root_of(NodeId(3)), NodeId(4));
        assert_eq!(
            f.children(NodeId(4)).collect::<Vec<_>>(),
            [NodeId(3), NodeId(5)]
        );
        assert_eq!(f.tree_edges(&g).len(), 4);
        // A path's edges are all MST edges.
        assert!(f.is_mst_subforest(&g));
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
