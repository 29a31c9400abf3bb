//! Point-to-point-only baselines (the channel is never used).
//!
//! These are the comparators of the paper's lower-bound discussion: on the
//! point-to-point network alone, computing a global sensitive function takes
//! Ω(d) time on a network of diameter `d` (Theorem 2), realised here by the
//! classical BFS-tree + convergecast + broadcast pipeline, executed as real
//! message-passing protocols on the synchronous engine.

use netsim_graph::{NodeId, SpanningForest};
use netsim_sim::{
    protocols::{BfsBuild, Convergecast, TreeBroadcast},
    CostAccount, EngineBuilder, EngineControl,
};

/// Result of a point-to-point-only global computation.
#[derive(Clone, Debug)]
pub struct P2pGlobalRun<T> {
    /// The computed value (known to every node after the broadcast stage).
    pub value: T,
    /// Cost of building the BFS spanning tree.
    pub tree_cost: CostAccount,
    /// Cost of the convergecast (aggregation towards the root).
    pub up_cost: CostAccount,
    /// Cost of the final broadcast down the tree.
    pub down_cost: CostAccount,
    /// Depth of the BFS tree (≈ the eccentricity of the root).
    pub tree_depth: u32,
}

impl<T> P2pGlobalRun<T> {
    /// Total cost of all three stages.
    pub fn total_cost(&self) -> CostAccount {
        self.tree_cost + self.up_cost + self.down_cost
    }
}

/// Computes a global function over the point-to-point network only:
/// build a BFS tree rooted at `root`, converge-cast the inputs with the
/// associative `combine`, then broadcast the result back down.
///
/// Takes `Θ(ecc(root))` time — on a ring or path this is `Θ(n)`, which is the
/// separation the multimedia algorithms beat.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the node count, the graph is
/// disconnected, or it is empty.
pub fn global_function<T, F>(
    graph: &netsim_graph::Graph,
    root: NodeId,
    inputs: &[T],
    combine: F,
) -> P2pGlobalRun<T>
where
    T: Clone,
    F: Fn(&T, &T) -> T + Copy,
{
    let n = graph.node_count();
    assert!(n > 0, "empty network");
    assert_eq!(inputs.len(), n, "one input per processor");

    // Stage 1: BFS spanning tree.
    let mut bfs = EngineBuilder::new(graph).build_flat(|id| BfsBuild::new(id, root));
    let outcome = bfs.run(4 * n as u64 + 16);
    assert!(
        outcome.is_completed(),
        "BFS must terminate on a connected graph"
    );
    let parents: Vec<Option<NodeId>> = graph.nodes().map(|v| bfs.node(v).parent()).collect();
    let tree_depth = graph
        .nodes()
        .filter_map(|v| bfs.node(v).depth())
        .max()
        .unwrap_or(0);
    let tree_cost = bfs.cost();
    let forest =
        SpanningForest::from_parents(graph, parents).expect("BFS parents form a spanning tree");
    assert_eq!(forest.tree_count(), 1, "graph must be connected");

    // Stage 2: convergecast to the root.
    let mut up = EngineBuilder::new(graph).build_flat(|v| {
        Convergecast::new(
            forest.parent(v),
            forest.children(v).count(),
            inputs[v.index()].clone(),
            combine,
        )
    });
    let outcome = up.run(4 * n as u64 + 16);
    assert!(outcome.is_completed());
    let value = up.node(root).result().clone();
    let up_cost = up.cost();

    // Stage 3: broadcast the value down the tree.
    let mut down = EngineBuilder::new(graph).build_flat(|v| {
        let children: Vec<NodeId> = forest.children(v).collect();
        let val = if v == root { Some(value.clone()) } else { None };
        TreeBroadcast::new(children, val)
    });
    let outcome = down.run(4 * n as u64 + 16);
    assert!(outcome.is_completed());
    for v in graph.nodes() {
        debug_assert!(down.node(v).value().is_some(), "broadcast must reach {v}");
    }
    let down_cost = down.cost();

    P2pGlobalRun {
        value,
        tree_cost,
        up_cost,
        down_cost,
        tree_depth,
    }
}

/// A point-to-point-only MST baseline: synchronous Borůvka phases where every
/// fragment finds its minimum outgoing edge by broadcast-and-respond over its
/// own tree and merges along it.  Without a channel, fragment coordination is
/// charged `Θ(fragment diameter)` time per phase, giving `Θ(n·log n)` time on
/// high-diameter graphs — the comparison point for Section 6.
#[derive(Clone, Debug)]
pub struct P2pMstRun {
    /// Edges of the MST.
    pub edges: Vec<netsim_graph::EdgeId>,
    /// Measured cost.
    pub cost: CostAccount,
    /// Number of Borůvka phases.
    pub phases: u32,
}

/// Runs the point-to-point-only Borůvka MST baseline.
///
/// # Panics
///
/// Panics if the graph is empty or disconnected.
pub fn boruvka_mst(graph: &netsim_graph::Graph) -> P2pMstRun {
    use netsim_graph::UnionFind;
    let n = graph.node_count();
    assert!(n > 0, "empty network");
    assert!(
        netsim_graph::traversal::is_connected(graph),
        "MST baseline requires a connected graph"
    );
    let mut uf = UnionFind::new(n);
    let mut edges = Vec::new();
    let mut cost = CostAccount::new();
    let mut phases = 0;
    // Fragment sizes for the per-phase time charge (a fragment of size s has
    // diameter ≤ s; coordination over the fragment tree costs Θ(diameter)).
    while uf.set_count() > 1 {
        phases += 1;
        let mut best: std::collections::HashMap<usize, netsim_graph::EdgeId> =
            std::collections::HashMap::new();
        for e in graph.edge_ids() {
            let edge = graph.edge(e);
            let (a, b) = (uf.find(edge.u.index()), uf.find(edge.v.index()));
            if a == b {
                continue;
            }
            for side in [a, b] {
                best.entry(side)
                    .and_modify(|cur| {
                        if graph.edge_key(e) < graph.edge_key(*cur) {
                            *cur = e;
                        }
                    })
                    .or_insert(e);
            }
        }
        if best.is_empty() {
            break;
        }
        // Time per phase: proportional to the largest fragment diameter
        // (bounded by its size); messages: 2m edge tests + 2n tree traffic.
        let max_size = (0..n).map(|v| uf.set_size(v)).max().unwrap_or(1);
        cost.add_idle_rounds(2 * max_size as u64 + 2);
        cost.add_messages(2 * graph.edge_count() as u64 + 2 * n as u64);
        for (_, e) in best {
            let edge = graph.edge(e);
            if uf.union(edge.u.index(), edge.v.index()) {
                edges.push(e);
            }
        }
    }
    edges.sort();
    edges.dedup();
    P2pMstRun {
        edges,
        cost,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::{generators, mst, traversal};

    #[test]
    fn p2p_sum_on_ring_takes_diameter_time() {
        let n = 200;
        let g = generators::ring(n);
        let inputs: Vec<u64> = (0..n as u64).collect();
        let run = global_function(&g, NodeId(0), &inputs, |a, b| a + b);
        assert_eq!(run.value, (0..n as u64).sum());
        let d = traversal::diameter_radius(&g).0 as u64;
        // Ω(d): the three stages each traverse the tree depth ≈ d.
        assert!(run.total_cost().rounds >= d);
        assert_eq!(run.tree_depth as u64, d);
        assert!(run.total_cost().p2p_messages >= 3 * (n as u64 - 1));
    }

    #[test]
    fn p2p_min_on_grid() {
        let g = generators::Family::Grid.generate(81, 4);
        let n = g.node_count();
        let inputs: Vec<u64> = (0..n as u64).map(|i| 1000 - i).collect();
        let run = global_function(&g, NodeId(5), &inputs, |a, b| *a.min(b));
        assert_eq!(run.value, 1000 - (n as u64 - 1));
    }

    #[test]
    fn boruvka_matches_kruskal() {
        for seed in 0..5 {
            let g = generators::Family::RandomConnected.generate(70, seed);
            let run = boruvka_mst(&g);
            assert!(mst::is_minimum_spanning_tree(&g, &run.edges));
            assert!(run.phases <= netsim_graph::ceil_log2(70) + 1);
        }
    }

    #[test]
    fn boruvka_time_scales_with_fragment_diameter() {
        let n = 400;
        let g = generators::Family::Ring.generate(n, 3);
        let run = boruvka_mst(&g);
        assert!(mst::is_minimum_spanning_tree(&g, &run.edges));
        // On a ring the final phases coordinate over Θ(n)-sized fragments.
        assert!(run.cost.rounds >= n as u64 / 2);
    }

    #[test]
    #[should_panic]
    fn wrong_inputs_rejected() {
        let g = generators::ring(4);
        let _ = global_function(&g, NodeId(0), &[1u64, 2], |a, b| a + b);
    }
}
