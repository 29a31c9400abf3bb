//! Model test of [`GraphBuilder`]'s edge checks: mixed `add_edge` /
//! `try_add_edge` / `has_edge` sequences against a `HashSet` model, so the
//! lazily materialised duplicate set is observed taking over at every
//! possible point of a sequence, plus the panics of every edge `add_edge`
//! must refuse — whether the refusal happens at the call or is discharged by
//! `build()`.

use netsim_graph::{GraphBuilder, NodeId, Weight};
use proptest::prelude::*;
use std::collections::HashSet;

/// What the builder must remember: the accepted edges in order, and the
/// unordered pairs among them.
#[derive(Default)]
struct Model {
    edges: Vec<(usize, usize, Weight)>,
    pairs: HashSet<(usize, usize)>,
}

impl Model {
    fn has(&self, u: usize, v: usize) -> bool {
        self.pairs.contains(&(u.min(v), u.max(v)))
    }

    /// Records `{u, v}` if a simple graph on `n` nodes can take it.
    fn offer(&mut self, n: usize, u: usize, v: usize, w: Weight) -> bool {
        let fresh = u != v && u < n && v < n && self.pairs.insert((u.min(v), u.max(v)));
        if fresh {
            self.edges.push((u, v, w));
        }
        fresh
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn builder_agrees_with_the_set_model(
        n in 1usize..10,
        ops in proptest::collection::vec((0u8..3, 0usize..12, 0usize..12, 0u64..4), 0..60),
    ) {
        let mut b = GraphBuilder::new(n);
        let mut model = Model::default();
        for (op, u, v, w) in ops {
            match op {
                // `add_edge` is only ever handed what it must accept; the
                // refusals are the `should_panic` cases below.
                0 => {
                    let next = model.edges.len();
                    if model.offer(n, u, v, w) {
                        prop_assert_eq!(b.add_edge(NodeId(u), NodeId(v), w).index(), next);
                    }
                }
                1 => {
                    let next = model.edges.len();
                    let expected = model.offer(n, u, v, w).then_some(next);
                    let got = b.try_add_edge(NodeId(u), NodeId(v), w);
                    prop_assert_eq!(got.map(|e| e.index()), expected);
                }
                _ => prop_assert_eq!(b.has_edge(NodeId(u), NodeId(v)), model.has(u, v)),
            }
            prop_assert_eq!(b.edge_count(), model.edges.len());
        }
        let g = b.build();
        let built: Vec<_> = g.edges().map(|e| (e.u.index(), e.v.index(), e.weight)).collect();
        prop_assert_eq!(&built, &model.edges);
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(g.has_edge(NodeId(u), NodeId(v)), model.has(u, v));
            }
        }
    }
}

/// Nobody asked a membership question, so nothing was hashed: the duplicate
/// is caught by `build()`, naming the later edge as the online check would.
#[test]
#[should_panic(expected = "invalid or duplicate edge (v1, v0)")]
fn duplicate_via_add_edge_fires_no_later_than_build() {
    let mut b = GraphBuilder::new(3);
    b.add_edge(NodeId(0), NodeId(1), 1);
    b.add_edge(NodeId(1), NodeId(2), 2);
    b.add_edge(NodeId(1), NodeId(0), 3);
    let _ = b.build();
}

/// Once the duplicate set exists, `add_edge` refuses at the call.
#[test]
#[should_panic(expected = "invalid or duplicate edge (v1, v0)")]
fn duplicate_via_add_edge_fires_at_the_call_once_the_set_exists() {
    let mut b = GraphBuilder::new(3);
    b.add_edge(NodeId(0), NodeId(1), 1);
    assert!(b.has_edge(NodeId(1), NodeId(0)));
    b.add_edge(NodeId(1), NodeId(0), 3);
}

/// A duplicate slipped in before the first membership question is reported
/// by that question, not answered around.
#[test]
#[should_panic(expected = "invalid or duplicate edge (v1, v0)")]
fn duplicate_added_unseen_fires_at_the_first_membership_question() {
    let mut b = GraphBuilder::new(3);
    b.add_edge(NodeId(0), NodeId(1), 1);
    b.add_edge(NodeId(1), NodeId(0), 3);
    let _ = b.has_edge(NodeId(1), NodeId(2));
}

#[test]
#[should_panic(expected = "invalid or duplicate edge (v2, v2)")]
fn self_loop_via_add_edge_fires_at_the_call() {
    GraphBuilder::new(3).add_edge(NodeId(2), NodeId(2), 1);
}

#[test]
#[should_panic(expected = "invalid or duplicate edge (v0, v3)")]
fn out_of_range_endpoint_via_add_edge_fires_at_the_call() {
    GraphBuilder::new(3).add_edge(NodeId(0), NodeId(3), 1);
}
