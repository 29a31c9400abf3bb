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
//! * the row-by-row finalisation equals its specification — a comparison
//!   sort by `(weight, index)` followed by a row scatter — array for array,
//!   on edge lists built to stress it: heavy weight ties, weight 0,
//!   `u64::MAX`, no edges at all, a single node, a hub row wider than the
//!   small-sort cutoff, a row wider than one gather block, and edge lists
//!   spanning many blocks, each also through `map_weights`;
//! * a duplicate edge panics naming the edge that the old post-build stamp
//!   pass named, whether it sits in a short row or in one wider than a
//!   block.

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

/// Builds `edges` through the builder, and again through `map_weights` with
/// every weight flipped, and compares both with [`spec_csr`] array for array.
fn finalisation_matches_spec(n: usize, edges: &[(usize, usize, Weight)]) -> Result<(), String> {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        b.add_edge(NodeId(u), NodeId(v), w);
    }
    let g = b.build();
    let (offsets, targets, edge_ids) = g.csr();
    let spec = spec_csr(n, edges);
    prop_assert_eq!(offsets, &spec.0[..]);
    prop_assert_eq!(targets, &spec.1[..]);
    prop_assert_eq!(edge_ids, &spec.2[..]);
    let listed: Vec<_> = g
        .edges()
        .map(|e| (e.u.index(), e.v.index(), e.weight))
        .collect();
    prop_assert_eq!(&listed, &edges);
    // The re-weighting path finalises through the same routine.
    let flipped: Vec<_> = edges.iter().map(|&(u, v, w)| (u, v, !w)).collect();
    let g2 = g.map_weights(|_, w| !w);
    let (offsets, targets, edge_ids) = g2.csr();
    let spec = spec_csr(n, &flipped);
    prop_assert_eq!(offsets, &spec.0[..]);
    prop_assert_eq!(targets, &spec.1[..]);
    prop_assert_eq!(edge_ids, &spec.2[..]);
    Ok(())
}

/// The panic message the old post-build duplicate check gave: walk the spec
/// rows in node order, stamping each neighbour with the row that saw it
/// last; at the first neighbour seen twice in one row, name the later
/// (higher-id) of that row's edges to it.  `None` for a simple graph.
fn stamp_pass_rejection(n: usize, edges: &[(usize, usize, Weight)]) -> Option<String> {
    let (offsets, targets, edge_ids) = spec_csr(n, edges);
    let mut seen_by = vec![usize::MAX; n];
    for v in 0..n {
        let row = offsets[v] as usize..offsets[v + 1] as usize;
        for &t in &targets[row.clone()] {
            if seen_by[t as usize] == v {
                let later = row
                    .filter(|&i| targets[i] == t)
                    .map(|i| edge_ids[i] as usize)
                    .max()?;
                let (u, w, _) = edges[later];
                return Some(format!(
                    "invalid or duplicate edge ({:?}, {:?})",
                    NodeId(u),
                    NodeId(w)
                ));
            }
            seen_by[t as usize] = v;
        }
    }
    None
}

/// Weights that tie heavily, from zero to the top of the range.
const TIED_WEIGHTS: [Weight; 8] = [0, 0, 1, 2047, 2048, 1 << 22, u64::MAX - 1, u64::MAX];

/// A weight from a prefix of [`TIED_WEIGHTS`] (its length `prefix`; 2 makes
/// every weight 0), or from the full range when the prefix is empty.
fn pick_weight(prefix: usize, pick: usize, raw: Weight) -> Weight {
    let tied = TIED_WEIGHTS[..prefix].get(pick % prefix.max(1));
    tied.copied().unwrap_or(raw)
}

/// A simple graph's edge list on `n ≥ 1` nodes (possibly empty; always empty
/// at `n = 1`).  Weights come from a prefix of [`TIED_WEIGHTS`], or (prefix
/// length 0) from the full range.  Every row is short and the whole list
/// fits one gather block.
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
                .map(|(u, v, pick, raw)| (u % n, v % n, pick_weight(prefix, pick, raw)))
                .filter(|&(u, v, _)| u != v && taken.insert((u.min(v), u.max(v))))
                .collect();
            (n, edges)
        })
}

/// A simple graph on `n` nodes: node `n / 2` joined to `hub` others, plus
/// up to `chords` random edges, in shuffled id order so that the hub's
/// edge ids are scattered; weights as in [`random_edge_list`].
fn hub_and_chords(
    n: usize,
    hub: usize,
    chords: usize,
    prefix: usize,
    seed: &mut u64,
) -> Vec<(usize, usize, Weight)> {
    // splitmix64
    let mut next = || {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (*seed ^ (*seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let centre = n / 2;
    let mut taken = HashSet::new();
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .filter(|&t| t != centre)
        .take(hub)
        .map(|t| (t, centre))
        .collect();
    for _ in 0..chords {
        let (u, v) = (next() as usize % n, next() as usize % n);
        pairs.push((u, v));
    }
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, next() as usize % (i + 1));
    }
    pairs
        .into_iter()
        .filter(|&(u, v)| u != v && taken.insert((u.min(v), u.max(v))))
        .map(|(u, v)| (u, v, pick_weight(prefix, next() as usize, next())))
        .collect()
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
        finalisation_matches_spec(n, &edges)?;
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

proptest! {
    // Each case builds nine graphs of up to 5 500 edges.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn wide_rows_and_many_blocks_equal_the_comparison_sort_spec(seed in 0u64..=u64::MAX) {
        let mut state = seed;
        // (n, hub degree, chords): a hub row past the small-sort cutoff in
        // one block; a hub row wider than a 4 096-entry block between
        // blocks of short rows; 12 000 half-edges of short rows in several
        // blocks.  Weights: the full range, all tied at 0, every tied value
        // up to `u64::MAX`.
        for (n, hub, chords) in [(200, 150, 300), (6_000, 4_500, 1_000), (3_000, 0, 6_000)] {
            for prefix in [0, 2, 8] {
                finalisation_matches_spec(n, &hub_and_chords(n, hub, chords, prefix, &mut state))?;
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
    // Every weight the maximum: all of them tie.
    let edges: Vec<_> = (1..6).map(|i| (0, i, u64::MAX)).collect();
    let mut b = GraphBuilder::new(6);
    for &(u, v, w) in &edges {
        b.add_edge(NodeId(u), NodeId(v), w);
    }
    let g = b.build();
    let spec = spec_csr(6, &edges);
    assert_eq!(g.csr(), (&spec.0[..], &spec.1[..], &spec.2[..]));
}

/// A builder fed only through `add_edge` checks for duplicates while it
/// orders the rows.  Whichever row holds the repeat, short or wider than a
/// gather block, and however many repeats it holds, the panic names the
/// edge the old post-build stamp pass named.
#[test]
fn duplicate_edges_panic_as_the_stamp_pass_named_them() {
    let hub: Vec<_> = (1..5_001).map(|t| (0, t, (t % 7) as Weight)).collect();
    let lists = [
        (3, vec![(0, 1, 5), (1, 2, 3), (2, 1, 7)]),
        // Row 0 in key order reads 1, 2, 1, 2: neighbour 1 repeats first.
        (3, vec![(0, 1, 1), (0, 2, 2), (0, 2, 4), (0, 1, 3)]),
        // Row 0 reads 1, 2, 2, 1: neighbour 2 repeats first.
        (3, vec![(0, 1, 1), (0, 2, 2), (0, 2, 3), (0, 1, 4)]),
        // Three copies: the latest one is named.
        (2, vec![(0, 1, 9), (1, 0, 2), (0, 1, 5)]),
        // The hub's row (wider than a block) is the first to repeat.
        (
            5_001,
            [hub.clone(), vec![(4_321, 0, 3), (17, 0, 3)]].concat(),
        ),
        // The hub's row holds no repeat; two short rows after it do.
        (
            5_003,
            [vec![(5_002, 5_001, 1)], hub, vec![(5_001, 5_002, 0)]].concat(),
        ),
    ];
    for (n, edges) in lists {
        let expected = stamp_pass_rejection(n, &edges).expect("the list repeats an edge");
        let caught = std::panic::catch_unwind(|| {
            let mut b = GraphBuilder::new(n);
            for &(u, v, w) in &edges {
                b.add_edge(NodeId(u), NodeId(v), w);
            }
            b.build()
        });
        let payload = caught.expect_err("build() must reject the duplicate");
        let message = payload
            .downcast_ref::<String>()
            .expect("the panic carries a formatted message");
        assert_eq!(message, &expected, "on n = {n}, m = {}", edges.len());
    }
}
