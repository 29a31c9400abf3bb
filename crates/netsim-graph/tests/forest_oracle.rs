//! Oracle test of the preorder [`SpanningForest`]: on seeded random parent
//! arrays (1–8 trees, up to 2 000 nodes) and on paths and stars, every
//! per-node query is checked against a naive parent-chain walk, and
//! malformed arrays are checked to fail with the error a plain
//! walk-per-node validator reports.

use netsim_graph::{ForestError, Graph, GraphBuilder, NodeId, SpanningForest};
use rand::rngs::StdRng;
use rand::SliceRandom;
use rand::{Rng, SeedableRng};

/// A random forest on `n` nodes with `trees` roots: nodes take their
/// parent among the nodes placed before them in a random order.
fn random_forest(n: usize, trees: usize, rng: &mut StdRng) -> Vec<Option<NodeId>> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let mut parent = vec![None; n];
    for i in trees..n {
        parent[perm[i]] = Some(NodeId(perm[rng.gen_range(0..i)]));
    }
    parent
}

/// The graph made of exactly the parent edges.
fn graph_of(parent: &[Option<NodeId>]) -> Graph {
    let mut b = GraphBuilder::new(parent.len());
    for (v, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            b.add_edge(NodeId(v), p, v as u64 + 1);
        }
    }
    b.build()
}

/// The chain `v, parent(v), …, root`.
fn chain(parent: &[Option<NodeId>], v: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors(Some(v), |&u| parent[u].map(NodeId::index))
}

/// Checks every query of `f` against parent-chain walks over `parent`.
fn check_against_oracle(what: &str, f: &SpanningForest, parent: &[Option<NodeId>]) {
    let n = parent.len();
    assert_eq!(f.node_count(), n, "{what}");
    let root: Vec<usize> = (0..n).map(|v| chain(parent, v).last().unwrap()).collect();
    let depth: Vec<u32> = (0..n)
        .map(|v| chain(parent, v).count() as u32 - 1)
        .collect();
    let roots: Vec<NodeId> = (0..n)
        .filter(|&v| parent[v].is_none())
        .map(NodeId)
        .collect();
    assert_eq!(f.roots(), roots.as_slice(), "{what}: roots ascend");
    assert_eq!(f.tree_count(), roots.len(), "{what}");
    // `below[v]` = every u with v on u's parent chain.
    let mut below: Vec<Vec<u32>> = vec![Vec::new(); n];
    for u in 0..n {
        for a in chain(parent, u) {
            below[a].push(u as u32);
        }
    }
    // Per root: the tree's size and its deepest member.
    let (mut size, mut radius) = (vec![0; n], vec![0; n]);
    for u in 0..n {
        size[root[u]] += 1;
        radius[root[u]] = radius[root[u]].max(depth[u]);
    }
    for v in 0..n {
        let id = NodeId(v);
        let (size, radius) = (size[root[v]], radius[root[v]]);
        assert_eq!(f.parent(id), parent[v], "{what}: parent of {v}");
        assert_eq!(f.root_of(id), NodeId(root[v]), "{what}: root of {v}");
        assert_eq!(
            f.roots()[f.tree_of(id)],
            NodeId(root[v]),
            "{what}: tree of {v}"
        );
        assert_eq!(f.tree_size(id), size, "{what}: tree size at {v}");
        assert_eq!(f.radius_of(id), radius, "{what}: radius at {v}");
        let slice = f.subtree(id);
        assert_eq!(slice[0], v as u32, "{what}: subtree of {v} starts at {v}");
        assert_eq!(f.subtree_size(id), slice.len(), "{what}");
        let mut set = slice.to_vec();
        set.sort_unstable();
        assert_eq!(set, below[v], "{what}: subtree of {v}");
        let children: Vec<NodeId> = f.children(id).collect();
        let expected: Vec<NodeId> = (0..n)
            .filter(|&u| parent[u] == Some(id))
            .map(NodeId)
            .collect();
        assert_eq!(children, expected, "{what}: children of {v} ascend");
    }
    let max_radius = roots.iter().map(|r| radius[r.index()]).max().unwrap();
    let min_size = roots.iter().map(|r| size[r.index()]).min().unwrap();
    assert_eq!(f.max_radius(), max_radius, "{what}");
    assert_eq!(f.min_tree_size(), min_size, "{what}");
}

/// Validates a parent vector by one parent walk per unresolved node — the
/// rule the forest's error values follow: length first, then the smallest
/// node with a non-neighbour parent, then the smallest node whose walk
/// never reaches a root.
fn walk_validate(g: &Graph, parent: &[Option<NodeId>]) -> Result<(), ForestError> {
    let n = g.node_count();
    if parent.len() != n {
        return Err(ForestError::WrongLength {
            expected: n,
            got: parent.len(),
        });
    }
    if let Some(v) = g
        .nodes()
        .find(|&v| parent[v.index()].is_some_and(|p| !g.has_edge(v, p)))
    {
        return Err(ForestError::ParentNotNeighbor(v));
    }
    for v in 0..n {
        let mut steps = 0;
        for _ in chain(parent, v) {
            steps += 1;
            if steps > n {
                return Err(ForestError::Cycle(NodeId(v)));
            }
        }
    }
    Ok(())
}

#[test]
fn random_forests_agree_with_the_parent_walk_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..24 {
        let n = rng.gen_range(1..=2_000usize);
        let trees = rng.gen_range(1..=8usize.min(n));
        let parent = random_forest(n, trees, &mut rng);
        let what = format!("case {case} (n = {n}, {trees} trees)");
        let built = SpanningForest::from_parents(&graph_of(&parent), parent.clone()).unwrap();
        check_against_oracle(&what, &built, &parent);
        let graph_free = SpanningForest::from_fn(n, |v| parent[v.index()]).unwrap();
        assert_eq!(
            graph_free.subtree(built.roots()[0]),
            built.subtree(built.roots()[0])
        );
    }
}

#[test]
fn paths_and_stars_agree_with_the_parent_walk_oracle() {
    for n in [1usize, 2, 3, 17, 2_000] {
        let up: Vec<Option<NodeId>> = (0..n).map(|v| v.checked_sub(1).map(NodeId)).collect();
        let down: Vec<Option<NodeId>> =
            (0..n).map(|v| (v + 1 < n).then(|| NodeId(v + 1))).collect();
        let centre = n / 2;
        let star: Vec<Option<NodeId>> = (0..n)
            .map(|v| (v != centre).then_some(NodeId(centre)))
            .collect();
        for (shape, parent) in [
            ("path rooted at 0", up),
            ("path rooted at n-1", down),
            ("star", star),
        ] {
            let f = SpanningForest::from_parents(&graph_of(&parent), parent.clone()).unwrap();
            check_against_oracle(&format!("{shape}, n = {n}"), &f, &parent);
        }
    }
}

#[test]
fn malformed_parent_arrays_fail_like_the_parent_walk() {
    let mut rng = StdRng::seed_from_u64(7);
    let k = netsim_graph::generators::complete(12);
    let ring = netsim_graph::generators::ring(6);
    let mut cases: Vec<(&Graph, Vec<Option<NodeId>>)> = vec![
        // wrong length
        (&ring, vec![None; 5]),
        // a parent that is not a neighbour
        (
            &ring,
            vec![None, Some(NodeId(0)), Some(NodeId(0)), None, None, None],
        ),
        // a self-loop
        (&ring, vec![None, Some(NodeId(1)), None, None, None, None]),
        // a cycle, with a node leading into it below the cycle's smallest node
        (
            &ring,
            vec![
                Some(NodeId(1)),
                Some(NodeId(2)),
                Some(NodeId(3)),
                Some(NodeId(2)),
                None,
                None,
            ],
        ),
        // a parent out of range
        (&ring, vec![None, None, Some(NodeId(9)), None, None, None]),
    ];
    // Random parent functions on K12: cycles, chains into them, and forests.
    for _ in 0..200 {
        let parent = (0..12)
            .map(|v| match rng.gen_range(0..13usize) {
                12 => None,
                p if p == v => None,
                p => Some(NodeId(p)),
            })
            .collect();
        cases.push((&k, parent));
    }
    let mut cycles = 0;
    for (g, parent) in cases {
        let expected = walk_validate(g, &parent);
        let got = SpanningForest::from_parents(g, parent.clone()).map(|_| ());
        assert_eq!(got, expected, "parents {parent:?}");
        if let Err(ForestError::Cycle(_)) = expected {
            cycles += 1;
            let graph_free = SpanningForest::from_fn(parent.len(), |v| parent[v.index()]);
            assert_eq!(graph_free.map(|_| ()), expected, "parents {parent:?}");
        }
    }
    assert!(
        cycles > 20,
        "the random cases exercise the cycle rule ({cycles})"
    );
}
