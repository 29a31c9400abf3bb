//! Rooted forests over abstract vertices.
//!
//! The deterministic partition of the paper (Section 3) builds, in every
//! phase, a *fragment graph* `F`: one vertex per fragment, one directed edge
//! per chosen minimum-weight outgoing link, cycles of length two broken by
//! id — the result is a rooted forest.  The symmetry-breaking algorithms of
//! this crate (3-colouring, MIS) operate on that forest, so it is represented
//! independently of the underlying communication graph.

/// A rooted forest on vertices `0..len`, given by parent pointers.
///
/// Children are stored in flat CSR form (one `offsets` index over one child
/// array), matching the graph substrate's layout discipline; the per-vertex
/// [`RootedForest::children`] slice API is unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootedForest {
    parent: Vec<Option<usize>>,
    /// CSR index: vertex `v`'s children are
    /// `child_list[child_offsets[v]..child_offsets[v + 1]]`, ascending.
    child_offsets: Vec<u32>,
    child_list: Vec<usize>,
}

/// Error returned when parent pointers do not form a forest (contain a cycle
/// or point out of range).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RootedForestError {
    /// A parent index is `>= len`.
    ParentOutOfRange {
        /// offending vertex
        vertex: usize,
    },
    /// Following parents from this vertex never reaches a root.
    Cycle {
        /// offending vertex
        vertex: usize,
    },
    /// A vertex is its own parent.
    SelfParent {
        /// offending vertex
        vertex: usize,
    },
}

impl std::fmt::Display for RootedForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootedForestError::ParentOutOfRange { vertex } => {
                write!(f, "parent of vertex {vertex} is out of range")
            }
            RootedForestError::Cycle { vertex } => {
                write!(f, "parent pointers from vertex {vertex} form a cycle")
            }
            RootedForestError::SelfParent { vertex } => {
                write!(f, "vertex {vertex} is its own parent")
            }
        }
    }
}

impl std::error::Error for RootedForestError {}

impl RootedForest {
    /// Builds a forest from parent pointers (`None` marks a root).
    ///
    /// # Errors
    ///
    /// Returns an error if a parent is out of range, a vertex is its own
    /// parent, or the pointers contain a cycle.
    pub fn new(parent: Vec<Option<usize>>) -> Result<Self, RootedForestError> {
        let n = parent.len();
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                if *p >= n {
                    return Err(RootedForestError::ParentOutOfRange { vertex: v });
                }
                if *p == v {
                    return Err(RootedForestError::SelfParent { vertex: v });
                }
            }
        }
        // Cycle detection: a walk marks its path "on stack" up to a done
        // vertex or a root, then a second walk over the same path marks it
        // done.
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            let mut cur = Some(start);
            while let Some(v) = cur.filter(|&v| state[v] != 2) {
                if state[v] == 1 {
                    return Err(RootedForestError::Cycle { vertex: start });
                }
                state[v] = 1;
                cur = parent[v];
            }
            let mut cur = Some(start);
            while let Some(v) = cur.filter(|&v| state[v] == 1) {
                state[v] = 2;
                cur = parent[v];
            }
        }
        // Flat CSR children via a counting pass (vertices ascend, so each
        // child slice is ascending).
        let mut child_offsets = vec![0u32; n + 1];
        for p in parent.iter().flatten() {
            child_offsets[p + 1] += 1;
        }
        for i in 1..=n {
            child_offsets[i] += child_offsets[i - 1];
        }
        let mut cursor: Vec<u32> = child_offsets[..n].to_vec();
        let mut child_list = vec![0usize; child_offsets[n] as usize];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                child_list[cursor[*p] as usize] = v;
                cursor[*p] += 1;
            }
        }
        Ok(RootedForest {
            parent,
            child_offsets,
            child_list,
        })
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the forest has no vertices.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of `v`, or `None` for roots.
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    /// Children of `v` (a slice of the flat CSR child array), ascending.
    pub fn children(&self, v: usize) -> &[usize] {
        &self.child_list[self.child_offsets[v] as usize..self.child_offsets[v + 1] as usize]
    }

    /// Returns `true` when `v` is a root.
    pub fn is_root(&self, v: usize) -> bool {
        self.parent[v].is_none()
    }

    /// Returns `true` when `v` is a leaf (has no children).
    pub fn is_leaf(&self, v: usize) -> bool {
        self.child_offsets[v] == self.child_offsets[v + 1]
    }

    /// All roots, ascending.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len()).filter(|&v| self.is_root(v)).collect()
    }

    /// Root of the tree containing `v`.
    pub fn root_of(&self, v: usize) -> usize {
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            cur = p;
        }
        cur
    }

    /// Depth of `v` (roots have depth 0).
    pub fn depth(&self, v: usize) -> usize {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            d += 1;
            cur = p;
        }
        d
    }

    /// Neighbours of `v` in the (undirected view of the) forest: its parent
    /// and children.
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        let children = self.children(v);
        let mut out = Vec::with_capacity(children.len() + 1);
        if let Some(p) = self.parent[v] {
            out.push(p);
        }
        out.extend_from_slice(children);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RootedForest {
        // Tree 0: 0 <- 1 <- 2, 0 <- 3 ; Tree 1: 4 <- 5
        RootedForest::new(vec![None, Some(0), Some(1), Some(0), None, Some(4)]).unwrap()
    }

    #[test]
    fn structure_queries() {
        let f = sample();
        assert_eq!(f.len(), 6);
        assert!(!f.is_empty());
        assert_eq!(f.roots(), vec![0, 4]);
        assert!(f.is_root(0) && !f.is_root(1));
        assert!(f.is_leaf(2) && f.is_leaf(3) && f.is_leaf(5));
        assert!(!f.is_leaf(0));
        assert_eq!(f.parent(2), Some(1));
        assert_eq!(f.children(0), &[1, 3]);
        assert_eq!(f.root_of(2), 0);
        assert_eq!(f.root_of(5), 4);
        assert_eq!(f.depth(2), 2);
        assert_eq!(f.neighbors(1), vec![0, 2]);
    }

    #[test]
    fn empty_forest() {
        let f = RootedForest::new(vec![]).unwrap();
        assert!(f.is_empty());
        assert!(f.roots().is_empty());
    }

    #[test]
    fn rejects_self_parent() {
        assert_eq!(
            RootedForest::new(vec![Some(0)]).unwrap_err(),
            RootedForestError::SelfParent { vertex: 0 }
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            RootedForest::new(vec![Some(5)]).unwrap_err(),
            RootedForestError::ParentOutOfRange { vertex: 0 }
        );
    }

    #[test]
    fn rejects_cycle() {
        let err = RootedForest::new(vec![Some(1), Some(2), Some(0)]).unwrap_err();
        assert!(matches!(err, RootedForestError::Cycle { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn long_path_depth() {
        let n = 500;
        let parent: Vec<Option<usize>> = (0..n)
            .map(|v| if v == 0 { None } else { Some(v - 1) })
            .collect();
        let f = RootedForest::new(parent).unwrap();
        assert_eq!(f.root_of(n - 1), 0);
    }
}
