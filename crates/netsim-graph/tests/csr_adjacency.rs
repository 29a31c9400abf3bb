//! Property tests pinning the CSR adjacency to the semantics of the old
//! `Vec<Vec<(NodeId, EdgeId)>>` builder it replaced:
//!
//! * per node, the CSR row is **permutation-equal** to the naive per-node
//!   list (same multiset of `(neighbour, edge id)` pairs) — and, stronger,
//!   exactly equal once the naive list is sorted by the global edge key,
//!   which is the order the old builder guaranteed;
//! * rebuilding a graph from the same edge list reproduces the identical
//!   neighbour iteration order (the order is a pure function of the edges,
//!   never of allocator or hash state);
//! * the radix-ordered finalisation equals its specification — a comparison
//!   sort by `(weight, index)` followed by a row scatter — array for array,
//!   on edge lists built to stress it: heavy weight ties, weight 0,
//!   `u64::MAX` (every digit pass), no edges at all, a single node.

use netsim_graph::{generators, EdgeId, Graph, GraphBuilder, NodeId, Weight};
use proptest::prelude::*;
use std::collections::HashSet;

/// The pre-CSR reference construction: per-node `Vec`s in insertion order,
/// then each list sorted by the `(weight, edge id)` key.
fn naive_adjacency(g: &Graph) -> Vec<Vec<(NodeId, EdgeId)>> {
    let mut adjacency = vec![Vec::new(); g.node_count()];
    for (i, e) in g.edges().enumerate() {
        adjacency[e.u.index()].push((e.v, EdgeId(i)));
        adjacency[e.v.index()].push((e.u, EdgeId(i)));
    }
    for list in &mut adjacency {
        list.sort_by_key(|&(_, eid)| g.edge_key(eid));
    }
    adjacency
}

/// The finalisation's specification, written the slow obvious way: order the
/// edge indices by `(weight, index)` with the standard comparison sort, push
/// every edge onto both endpoints' rows in that order, flatten the rows.
fn spec_csr(n: usize, edges: &[(usize, usize, Weight)]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by_key(|&i| (edges[i].2, i));
    let mut rows = vec![Vec::new(); n];
    for i in order {
        let (u, v, _) = edges[i];
        rows[u].push((v as u32, i as u32));
        rows[v].push((u as u32, i as u32));
    }
    let mut offsets = vec![0u32];
    for row in &rows {
        offsets.push(offsets[offsets.len() - 1] + row.len() as u32);
    }
    let (targets, edge_ids) = rows.into_iter().flatten().unzip();
    (offsets, targets, edge_ids)
}

/// Weights that tie heavily and sit on the radix digit boundaries: zero, the
/// last one-digit and first two-digit values, a three-digit one, and the top
/// of the range (which takes every digit pass).
const TIED_WEIGHTS: [Weight; 8] = [0, 0, 1, 2047, 2048, 1 << 22, u64::MAX - 1, u64::MAX];

/// A simple graph's edge list on `n ≥ 1` nodes (possibly empty; always empty
/// at `n = 1`).  Weights come from a prefix of [`TIED_WEIGHTS`], so the
/// largest weight — which picks the number of digit passes — lands on every
/// boundary, or (prefix length 0) from the full range.
fn random_edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize, Weight)>)> {
    let draw = (0usize..1000, 0usize..1000, 0usize..8, 0u64..=u64::MAX);
    (
        1usize..=40,
        0usize..=8,
        proptest::collection::vec(draw, 0..120),
    )
        .prop_map(|(n, prefix, draws)| {
            let mut taken = HashSet::new();
            let edges = draws
                .into_iter()
                .map(|(u, v, pick, raw)| {
                    let weight = TIED_WEIGHTS[..prefix].get(pick % prefix.max(1));
                    (u % n, v % n, weight.copied().unwrap_or(raw))
                })
                .filter(|&(u, v, _)| u != v && taken.insert((u.min(v), u.max(v))))
                .collect();
            (n, edges)
        })
}

fn random_graph() -> impl Strategy<Value = Graph> {
    (2usize..=80, 0u64..1000, 0.0f64..0.4).prop_map(|(n, seed, p)| {
        generators::assign_random_weights(&generators::random_connected(n, p, seed), seed ^ 0x5a)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_rows_equal_naive_builder_output(g in random_graph()) {
        let naive = naive_adjacency(&g);
        for v in g.nodes() {
            let row: Vec<(NodeId, EdgeId)> = g.neighbors(v).iter().collect();
            // Permutation equality (order-insensitive)…
            let mut row_sorted = row.clone();
            let mut naive_sorted = naive[v.index()].clone();
            row_sorted.sort();
            naive_sorted.sort();
            prop_assert_eq!(&row_sorted, &naive_sorted, "row multiset of {} differs", v);
            // …and exact equality in the documented edge-key order.
            prop_assert_eq!(&row, &naive[v.index()], "row order of {} differs", v);
            prop_assert_eq!(g.degree(v), naive[v.index()].len());
        }
    }

    #[test]
    fn rebuild_reproduces_identical_iteration_order(g in random_graph()) {
        // Rebuild via the public builder from the same edge list.
        let mut b = GraphBuilder::new(g.node_count());
        for e in g.edges() {
            b.add_edge(e.u, e.v, e.weight);
        }
        let rebuilt = b.build();
        // And again via map_weights (the internal from_parts path).
        let remapped = g.map_weights(|_, w| w);
        for v in g.nodes() {
            let row: Vec<(NodeId, EdgeId)> = g.neighbors(v).iter().collect();
            let row2: Vec<(NodeId, EdgeId)> = rebuilt.neighbors(v).iter().collect();
            let row3: Vec<(NodeId, EdgeId)> = remapped.neighbors(v).iter().collect();
            prop_assert_eq!(&row, &row2);
            prop_assert_eq!(&row, &row3);
        }
        let (offsets, targets, edge_ids) = g.csr();
        let (offsets2, targets2, edge_ids2) = rebuilt.csr();
        prop_assert_eq!(offsets, offsets2);
        prop_assert_eq!(targets, targets2);
        prop_assert_eq!(edge_ids, edge_ids2);
    }

    #[test]
    fn finalisation_equals_the_comparison_sort_spec((n, edges) in random_edge_list()) {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            b.add_edge(NodeId(u), NodeId(v), w);
        }
        let g = b.build();
        let (offsets, targets, edge_ids) = g.csr();
        let spec = spec_csr(n, &edges);
        prop_assert_eq!(offsets, &spec.0[..]);
        prop_assert_eq!(targets, &spec.1[..]);
        prop_assert_eq!(edge_ids, &spec.2[..]);
        let listed: Vec<_> = g.edges().map(|e| (e.u.index(), e.v.index(), e.weight)).collect();
        prop_assert_eq!(&listed, &edges);
        // The re-weighting path finalises through the same routine.
        let flipped: Vec<_> = edges.iter().map(|&(u, v, w)| (u, v, !w)).collect();
        let g2 = g.map_weights(|_, w| !w);
        let (offsets, targets, edge_ids) = g2.csr();
        let spec = spec_csr(n, &flipped);
        prop_assert_eq!(offsets, &spec.0[..]);
        prop_assert_eq!(targets, &spec.1[..]);
        prop_assert_eq!(edge_ids, &spec.2[..]);
    }

    #[test]
    fn csr_invariants_hold(g in random_graph()) {
        let (offsets, targets, edge_ids) = g.csr();
        prop_assert_eq!(offsets.len(), g.node_count() + 1);
        prop_assert_eq!(targets.len(), 2 * g.edge_count());
        prop_assert_eq!(edge_ids.len(), targets.len());
        prop_assert_eq!(offsets[0], 0);
        prop_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(offsets[g.node_count()] as usize, targets.len());
        // Every half-edge is consistent with its edge record.
        for v in g.nodes() {
            for (w, e) in g.neighbors(v) {
                prop_assert_eq!(g.edge(e).other(v), w);
            }
        }
    }
}

/// The degenerate shapes the property test only meets by chance.
#[test]
fn finalisation_of_degenerate_edge_lists() {
    for n in [0, 1, 5] {
        let g = GraphBuilder::new(n).build();
        let (offsets, targets, edge_ids) = g.csr();
        assert_eq!(offsets, &vec![0u32; n + 1][..], "m = 0 on n = {n}");
        assert!(targets.is_empty() && edge_ids.is_empty());
    }
    // Every weight the maximum: all digit passes run and all of them tie.
    let edges: Vec<_> = (1..6).map(|i| (0, i, u64::MAX)).collect();
    let mut b = GraphBuilder::new(6);
    for &(u, v, w) in &edges {
        b.add_edge(NodeId(u), NodeId(v), w);
    }
    let g = b.build();
    let spec = spec_csr(6, &edges);
    assert_eq!(g.csr(), (&spec.0[..], &spec.1[..], &spec.2[..]));
}
