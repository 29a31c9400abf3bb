//! Maximal independent set of a rooted forest that **contains every root** —
//! Steps 4 and 5 of the paper's deterministic partition (Section 3).
//!
//! Given a proper 3-colouring (red / green / blue) of the fragment forest
//! `F`, the paper recolours so that the red vertices form an MIS and every
//! tree root is red:
//!
//! * **Step 4** — every vertex except the root and its children takes its
//!   father's colour.  If the root is red, each of its children takes a
//!   colour different from red and from the child's own colour; otherwise the
//!   children take the root's colour and the root becomes red.
//! * **Step 5** — every *blue* vertex with no red neighbour becomes red, then
//!   every *green* vertex with no red neighbour becomes red.
//!
//! The red set is then a maximal independent set, so any path in `F` between
//! two consecutive red vertices has length at most three — which is what lets
//! Step 6 split every tree of `F` into subtrees of radius at most four.

use crate::coloring::is_proper_coloring;
use crate::forest::RootedForest;

/// The three colours of the paper's recolouring.
pub const RED: u8 = 0;
/// Green.
pub const GREEN: u8 = 1;
/// Blue.
pub const BLUE: u8 = 2;

/// Result of the MIS computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MisResult {
    /// Final colour of every vertex (`RED` marks MIS membership).
    pub colors: Vec<u8>,
    /// `in_mis[v]` ⇔ vertex `v` is red.
    pub in_mis: Vec<bool>,
    /// Parent–child communication rounds used (a constant).
    pub rounds: u32,
}

/// Computes a maximal independent set containing every root, from a proper
/// 3-colouring (colours must be in `{0, 1, 2}`).
///
/// # Panics
///
/// Panics if the colouring has the wrong length, uses colours outside
/// `{0, 1, 2}`, or is not proper for `forest`.
pub fn mis_with_roots(forest: &RootedForest, coloring: &[u8]) -> MisResult {
    assert_eq!(coloring.len(), forest.len(), "one colour per vertex");
    assert!(
        coloring.iter().all(|&c| c <= 2),
        "colours must be in {{0, 1, 2}}"
    );
    assert!(
        is_proper_coloring(forest, coloring),
        "input colouring must be proper"
    );
    let n = forest.len();
    let mut colors = coloring.to_vec();
    let mut rounds = 0u32;

    // ------------------------------------------------------------------
    // Step 4: root-priority recolouring.
    // ------------------------------------------------------------------
    let old = colors.clone();
    for v in 0..n {
        let root = forest.root_of(v);
        let is_root = v == root;
        let is_root_child = forest.parent(v) == Some(root);
        if !is_root && !is_root_child {
            // Take the father's (old) colour.
            colors[v] = old[forest.parent(v).expect("non-root has a parent")];
        } else if is_root_child {
            if old[root] == RED {
                // Child takes a colour different from red and from its own.
                colors[v] = (0..3u8)
                    .find(|&c| c != RED && c != old[v])
                    .expect("three colours suffice");
            } else {
                // Child takes the root's colour ...
                colors[v] = old[root];
            }
        } else {
            // v is a root: ... and the root becomes red.
            if old[root] != RED {
                colors[v] = RED;
            }
        }
    }
    rounds += 2; // one exchange down (father colours), one constant-size fix-up

    debug_assert!(
        is_proper_coloring(forest, &colors),
        "Step 4 must keep the colouring legal"
    );
    debug_assert!(forest.roots().iter().all(|&r| colors[r] == RED));

    // ------------------------------------------------------------------
    // Step 5: greedily flood red into blue then green vertices that have no
    // red neighbour.
    // ------------------------------------------------------------------
    for &promote in &[BLUE, GREEN] {
        let snapshot = colors.clone();
        for v in 0..n {
            if snapshot[v] == promote && !any_neighbor(forest, v, |u| snapshot[u] == RED) {
                colors[v] = RED;
            }
        }
        rounds += 1;
    }

    let in_mis: Vec<bool> = colors.iter().map(|&c| c == RED).collect();
    MisResult {
        colors,
        in_mis,
        rounds,
    }
}

/// Checks that `in_mis` is an independent set of the forest: no two adjacent
/// vertices are both members.
pub fn is_independent(forest: &RootedForest, in_mis: &[bool]) -> bool {
    (0..forest.len()).all(|v| match forest.parent(v) {
        Some(p) => !(in_mis[v] && in_mis[p]),
        None => true,
    })
}

/// Checks that `in_mis` is a **maximal** independent set: independent, and
/// every non-member has a member neighbour.
pub fn is_maximal_independent(forest: &RootedForest, in_mis: &[bool]) -> bool {
    is_independent(forest, in_mis)
        && (0..forest.len()).all(|v| in_mis[v] || any_neighbor(forest, v, |u| in_mis[u]))
}

/// `true` when `v`'s parent or one of its children satisfies `pred`, read in
/// place ([`RootedForest::neighbors`] collects them into a `Vec`).
fn any_neighbor(forest: &RootedForest, v: usize, mut pred: impl FnMut(usize) -> bool) -> bool {
    forest.parent(v).is_some_and(&mut pred) || forest.children(v).iter().any(|&u| pred(u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::three_color;

    fn path_forest(n: usize) -> RootedForest {
        RootedForest::new(
            (0..n)
                .map(|v| if v == 0 { None } else { Some(v - 1) })
                .collect(),
        )
        .unwrap()
    }

    fn check_all(forest: &RootedForest, ids: &[u64]) -> MisResult {
        let coloring = three_color(forest, ids);
        let mis = mis_with_roots(forest, &coloring.colors);
        assert!(is_maximal_independent(forest, &mis.in_mis));
        for r in forest.roots() {
            assert!(mis.in_mis[r], "root {r} must be in the MIS");
        }
        assert!(mis.rounds <= 8);
        mis
    }

    #[test]
    fn single_vertex_is_in_mis() {
        let f = RootedForest::new(vec![None]).unwrap();
        let mis = check_all(&f, &[7]);
        assert_eq!(mis.in_mis, vec![true]);
    }

    #[test]
    fn path_mis_properties() {
        let n = 100;
        let f = path_forest(n);
        let ids: Vec<u64> = (0..n as u64).map(|i| i * 997 + 3).collect();
        let mis = check_all(&f, &ids);
        // On a path, an MIS has at least ⌈n/3⌉ members.
        let members = mis.in_mis.iter().filter(|&&b| b).count();
        assert!(members >= n / 3);
    }

    #[test]
    fn star_mis_is_root_only() {
        let n = 20;
        let parent: Vec<Option<usize>> = (0..n)
            .map(|v| if v == 0 { None } else { Some(0) })
            .collect();
        let f = RootedForest::new(parent).unwrap();
        let ids: Vec<u64> = (0..n as u64).map(|i| i + 1).collect();
        let mis = check_all(&f, &ids);
        assert!(mis.in_mis[0]);
        // Children of the (red) root can never be in the MIS.
        assert!(mis.in_mis[1..].iter().all(|&b| !b));
    }

    #[test]
    fn binary_tree_mis() {
        let n = 127;
        let parent: Vec<Option<usize>> = (0..n)
            .map(|v| if v == 0 { None } else { Some((v - 1) / 2) })
            .collect();
        let f = RootedForest::new(parent).unwrap();
        let ids: Vec<u64> = (0..n as u64).map(|i| i * 13 + 11).collect();
        check_all(&f, &ids);
    }

    #[test]
    fn multi_tree_forest_every_root_red() {
        let mut parent = Vec::new();
        for t in 0..5 {
            for i in 0..20 {
                parent.push(if i == 0 { None } else { Some(t * 20 + i - 1) });
            }
        }
        let f = RootedForest::new(parent).unwrap();
        let ids: Vec<u64> = (0..100u64)
            .map(|i| i.wrapping_mul(2654435761) | 1)
            .collect();
        let mis = check_all(&f, &ids);
        assert!(mis.in_mis.iter().filter(|&&b| b).count() >= 5);
    }

    #[test]
    fn gap_between_mis_vertices_at_most_three() {
        // The property Step 6 relies on: walking up from any vertex, a red
        // vertex is reached within three hops.
        let n = 300;
        let f = path_forest(n);
        let ids: Vec<u64> = (0..n as u64).map(|i| i * 31 + 17).collect();
        let mis = check_all(&f, &ids);
        for v in 0..n {
            let mut cur = v;
            let mut hops = 0;
            let mut found = mis.in_mis[cur];
            while !found && hops < 3 {
                match f.parent(cur) {
                    Some(p) => {
                        cur = p;
                        hops += 1;
                        found = mis.in_mis[cur];
                    }
                    None => break,
                }
            }
            assert!(
                found,
                "vertex {v} has no MIS ancestor within 3 hops (path to root too long without red)"
            );
        }
    }

    #[test]
    #[should_panic]
    fn rejects_improper_coloring() {
        let f = path_forest(3);
        let _ = mis_with_roots(&f, &[1, 1, 2]);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_colors() {
        let f = path_forest(2);
        let _ = mis_with_roots(&f, &[0, 5]);
    }

    #[test]
    fn independence_checkers() {
        let f = path_forest(4);
        assert!(is_independent(&f, &[true, false, true, false]));
        assert!(!is_independent(&f, &[true, true, false, false]));
        assert!(is_maximal_independent(&f, &[true, false, true, false]));
        assert!(!is_maximal_independent(&f, &[true, false, false, false]));
    }
}
