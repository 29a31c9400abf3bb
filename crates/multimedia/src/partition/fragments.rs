//! Book-keeping for fragment forests during partition construction.
//!
//! A *fragment* is a rooted subtree of the (eventual) spanning forest; its
//! root is called the **core**.  Both partitioning algorithms and the MST
//! algorithm of Section 6 maintain, for every node, its tree parent and the
//! core of the fragment it currently belongs to; this module derives the
//! per-fragment views (members, sizes, radii) needed for cost
//! accounting and for the algorithms' own decisions.
//!
//! Everything is stored index-flat, mirroring the CSR graph substrate:
//! fragments get dense indices `0..count` (by ascending core id), member
//! lists live in one `(offsets, members)` pair, and per-node / per-fragment
//! attributes are plain vectors — no hash maps on the partition hot path.

use netsim_graph::{Graph, NodeId};
use std::collections::VecDeque;

/// A snapshot of the current fragment structure, in flat CSR-style form.
///
/// Fragments are indexed densely `0..count` in ascending core order.
#[derive(Clone, Debug)]
pub(crate) struct Fragments {
    /// Cores, in ascending node order (one per fragment; `cores[f]` is the
    /// core of fragment `f`).
    pub cores: Vec<NodeId>,
    /// Dense fragment index of every node's fragment.
    frag_of: Vec<u32>,
    /// CSR member index: fragment `f`'s members are
    /// `members[member_offsets[f]..member_offsets[f + 1]]`, ascending.
    member_offsets: Vec<u32>,
    members: Vec<NodeId>,
    /// Radius (maximum member depth) per fragment index.
    radius: Vec<u32>,
}

impl Fragments {
    /// Derives the snapshot from parent pointers and core labels.
    ///
    /// `parent[v]` must stay within `v`'s fragment and `core[v]` must be the
    /// root reached by following parents; both invariants are maintained by
    /// the partition algorithms and asserted here in debug builds.
    pub(crate) fn gather(g: &Graph, parent: &[Option<NodeId>], core: &[NodeId]) -> Self {
        let n = g.node_count();
        debug_assert_eq!(parent.len(), n);
        debug_assert_eq!(core.len(), n);

        // Dense fragment indices by ascending core id: a core's rank among
        // all cores.  (`core_rank[c]` is meaningful only at core positions.)
        let mut is_core = vec![false; n];
        for v in g.nodes() {
            is_core[core[v.index()].index()] = true;
        }
        let mut core_rank = vec![0u32; n];
        let mut cores = Vec::new();
        for c in 0..n {
            if is_core[c] {
                core_rank[c] = cores.len() as u32;
                cores.push(NodeId(c));
            }
        }
        let frag_of: Vec<u32> = (0..n).map(|v| core_rank[core[v].index()]).collect();

        // Member CSR via a counting pass; nodes ascend, so each member slice
        // comes out ascending.
        let f = cores.len();
        let mut member_offsets = vec![0u32; f + 1];
        for &fi in &frag_of {
            member_offsets[fi as usize + 1] += 1;
        }
        for i in 1..=f {
            member_offsets[i] += member_offsets[i - 1];
        }
        let mut cursor: Vec<u32> = member_offsets[..f].to_vec();
        let mut members = vec![NodeId(0); n];
        for v in g.nodes() {
            let fi = frag_of[v.index()] as usize;
            members[cursor[fi] as usize] = v;
            cursor[fi] += 1;
        }

        // Children CSR over the fragment trees, for the radius sweep.
        let mut child_offsets = vec![0u32; n + 1];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                debug_assert_eq!(core[p.index()], core[v], "parents stay in-fragment");
                child_offsets[p.index() + 1] += 1;
            } else {
                debug_assert_eq!(core[v], NodeId(v), "roots are their own core");
            }
        }
        for i in 1..=n {
            child_offsets[i] += child_offsets[i - 1];
        }
        let mut child_cursor: Vec<u32> = child_offsets[..n].to_vec();
        let mut child_list = vec![NodeId(0); child_offsets[n] as usize];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                child_list[child_cursor[p.index()] as usize] = NodeId(v);
                child_cursor[p.index()] += 1;
            }
        }

        let mut radius = vec![0u32; f];
        let mut queue = VecDeque::new();
        for (fi, &c) in cores.iter().enumerate() {
            queue.push_back((c, 0u32));
            let mut r = 0;
            while let Some((v, d)) = queue.pop_front() {
                r = r.max(d);
                let (a, b) = (
                    child_offsets[v.index()] as usize,
                    child_offsets[v.index() + 1] as usize,
                );
                for &ch in &child_list[a..b] {
                    queue.push_back((ch, d + 1));
                }
            }
            radius[fi] = r;
        }
        Fragments {
            cores,
            frag_of,
            member_offsets,
            members,
            radius,
        }
    }

    /// Number of fragments.
    pub(crate) fn count(&self) -> usize {
        self.cores.len()
    }

    /// Dense index of the fragment containing node `v`.
    pub(crate) fn frag_of(&self, v: NodeId) -> usize {
        self.frag_of[v.index()] as usize
    }

    /// Members of fragment `f`, ascending.
    pub(crate) fn members_of(&self, f: usize) -> &[NodeId] {
        &self.members[self.member_offsets[f] as usize..self.member_offsets[f + 1] as usize]
    }

    /// Size of fragment `f`.
    pub(crate) fn size(&self, f: usize) -> usize {
        (self.member_offsets[f + 1] - self.member_offsets[f]) as usize
    }

    /// Level of fragment `f`: `⌊log₂ size⌋`.
    pub(crate) fn level(&self, f: usize) -> u32 {
        let s = self.size(f).max(1) as u64;
        63 - s.leading_zeros()
    }

    /// Radius of fragment `f`.
    pub(crate) fn radius(&self, f: usize) -> u32 {
        self.radius[f]
    }

    /// Maximum radius over all fragments (0 if there are none).
    pub(crate) fn max_radius(&self) -> u32 {
        self.radius.iter().copied().max().unwrap_or(0)
    }
}

/// Re-roots the fragment tree containing `new_root` at `new_root` by
/// reversing the parent pointers along the path from `new_root` to the old
/// core.  Used when a fragment is merged into another one through one of its
/// non-core nodes (Step 6 of the deterministic partition, and GHS-style
/// merging in general).
pub(crate) fn reroot_at(parent: &mut [Option<NodeId>], new_root: NodeId) {
    // In-place list reversal: each node on the path takes the previous one
    // as its parent, starting with `None` for `new_root`.
    let (mut prev, mut cur) = (None, Some(new_root));
    while let Some(v) = cur {
        cur = std::mem::replace(&mut parent[v.index()], prev);
        prev = Some(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::generators;

    #[test]
    fn gather_singletons() {
        let g = generators::ring(5);
        let parent = vec![None; 5];
        let core: Vec<NodeId> = g.nodes().collect();
        let f = Fragments::gather(&g, &parent, &core);
        assert_eq!(f.count(), 5);
        assert_eq!(f.max_radius(), 0);
        for v in g.nodes() {
            let fi = f.frag_of(v);
            assert_eq!(f.cores[fi], v);
            assert_eq!(f.size(fi), 1);
            assert_eq!(f.level(fi), 0);
            assert_eq!(f.members_of(fi), &[v]);
        }
    }

    #[test]
    fn gather_two_fragments_on_path() {
        let g = generators::path(6);
        // {0,1,2} rooted at 0; {3,4,5} rooted at 5.
        let parent = vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(4)),
            Some(NodeId(5)),
            None,
        ];
        let core = vec![
            NodeId(0),
            NodeId(0),
            NodeId(0),
            NodeId(5),
            NodeId(5),
            NodeId(5),
        ];
        let f = Fragments::gather(&g, &parent, &core);
        assert_eq!(f.count(), 2);
        assert_eq!(f.cores, vec![NodeId(0), NodeId(5)]);
        assert_eq!(f.frag_of(NodeId(1)), 0);
        assert_eq!(f.frag_of(NodeId(3)), 1);
        assert_eq!(f.size(0), 3);
        assert_eq!(f.radius(0), 2);
        assert_eq!(f.radius(1), 2);
        assert_eq!(f.level(0), 1);
        assert_eq!(f.members_of(1), &[NodeId(3), NodeId(4), NodeId(5)]);
        // The radius is the deepest member: node 2 sits two parent hops
        // below core 0.
        let hops = std::iter::successors(Some(NodeId(2)), |v| parent[v.index()]).count() - 1;
        assert_eq!(hops as u32, f.radius(0));
        assert_eq!(f.max_radius(), 2);
    }

    #[test]
    fn level_is_floor_log2() {
        let g = generators::path(9);
        let mut parent = vec![None; 9];
        let mut core = vec![NodeId(0); 9];
        for (i, p) in parent.iter_mut().enumerate().skip(1) {
            *p = Some(NodeId(i - 1));
        }
        for c in core.iter_mut() {
            *c = NodeId(0);
        }
        let f = Fragments::gather(&g, &parent, &core);
        assert_eq!(f.level(0), 3); // floor(log2 9) = 3
    }

    #[test]
    fn reroot_reverses_path() {
        // Path fragment 0 <- 1 <- 2 <- 3 (core 0); re-root at 3.
        let mut parent = vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(2))];
        reroot_at(&mut parent, NodeId(3));
        assert_eq!(parent[3], None);
        assert_eq!(parent[2], Some(NodeId(3)));
        assert_eq!(parent[1], Some(NodeId(2)));
        assert_eq!(parent[0], Some(NodeId(1)));
    }

    #[test]
    fn reroot_at_existing_root_is_noop() {
        let mut parent = vec![None, Some(NodeId(0))];
        reroot_at(&mut parent, NodeId(0));
        assert_eq!(parent, vec![None, Some(NodeId(0))]);
    }
}
