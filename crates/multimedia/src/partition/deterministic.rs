//! The deterministic partitioning algorithm (Section 3 of the paper).
//!
//! The algorithm builds a spanning forest whose trees are rooted subtrees of
//! the minimum spanning tree, each of size at least `√n` and radius `O(√n)`,
//! in `O(√n·log* n)` time and `O(m + n·log n·log* n)` messages.  It combines
//! the fragment-growing technique of Gallager–Humblet–Spira with the
//! symmetry-breaking (3-colouring + MIS) technique of
//! Goldberg–Plotkin–Shannon, exactly following the six steps of the paper:
//!
//! 1. every fragment counts its nodes (broadcast-and-respond on the fragment
//!    tree) and computes its *level* `⌊log₂ size⌋`; fragments at level `i`
//!    are *active* in phase `i`;
//! 2. every active fragment finds its minimum-weight outgoing link;
//! 3. the chosen links define the *fragment forest* `F`, which is
//!    3-coloured in `O(log* n)` fragment-level rounds;
//! 4. (and 5.) the colouring is turned into a maximal independent set of
//!    `F` containing every root;
//! 6. `F` is cut below every red internal vertex into subtrees of radius at
//!    most four, and the fragments of each subtree merge into one new
//!    fragment.
//!
//! The implementation executes these steps over the actual fragment trees and
//! charges time and messages from the structures it builds (tree depths,
//! edges tested, colouring rounds); no cost is taken from a closed-form
//! formula, so the measured growth rates in the experiments are informative.

use super::PartitionOutcome;
use crate::model::MultimediaNetwork;
use netsim_graph::{traversal, EdgeId, NodeId, SpanningForest};
use netsim_sim::CostAccount;
use symmetry::{mis_with_roots, three_color, RootedForest};

/// Runs the partition until every fragment has level at least
/// [`MultimediaNetwork::target_level`] (i.e. size ≥ √n).
///
/// # Panics
///
/// Panics if the point-to-point graph is not connected (the paper's model
/// assumption).
pub fn partition(net: &MultimediaNetwork) -> PartitionOutcome {
    partition_to_level(net, net.target_level())
}

/// Runs the partition until every fragment has level at least `target_level`
/// (size at least `2^target_level`), or until the whole graph is a single
/// fragment.
///
/// Section 5.1 uses a smaller target (`log √(n/ (log n·log* n))`) to balance
/// the local and global stages of the global-function computation; pass the
/// desired level here.
///
/// # Panics
///
/// Panics if the graph is not connected.
pub fn partition_to_level(net: &MultimediaNetwork, target_level: u32) -> PartitionOutcome {
    let g = net.graph();
    let n = g.node_count();
    assert!(
        traversal::is_connected(g),
        "the multimedia network model assumes a connected point-to-point graph"
    );
    let mut cost = CostAccount::new();

    // Phase 0 state: every node is a singleton fragment and its own core.
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut core: Vec<NodeId> = g.nodes().collect();
    // Links discovered to be internal to a fragment are removed from further
    // consideration; this is what bounds the edge-test messages by O(m).
    let mut rejected = vec![false; g.edge_count()];
    let mut phases = 0u32;
    // The fragments of the current `parent` array: fragment `f` is tree `f`
    // of the forest (cores ascend as roots do), its members are the tree's
    // preorder slice.  Rebuilt only when a level merges fragments.
    let mut frags = snapshot(&parent);

    for level in 0..target_level {
        debug_assert!(
            g.nodes().all(|v| frags.root_of(v) == core[v.index()]),
            "every node's core is the root of its fragment tree"
        );
        if frags.tree_count() <= 1 {
            break; // the whole graph is already one fragment
        }
        let cores = frags.roots();

        // ---- Step 1: count fragment sizes (broadcast and respond). --------
        cost.add_messages(2 * (n as u64 - cores.len() as u64));
        cost.add_idle_rounds(2 * u64::from(frags.max_radius()) + 1);

        let active: Vec<usize> = (0..cores.len())
            .filter(|&f| level_of(frags.subtree_size(cores[f])) == level)
            .collect();
        if active.is_empty() {
            // Every fragment is already past this level; nothing to do.
            phases += 1;
            continue;
        }
        let max_active_radius = active
            .iter()
            .map(|&f| frags.radius_of(cores[f]))
            .max()
            .unwrap_or(0);

        // ---- Step 2: minimum-weight outgoing link of every active fragment.
        // Indexed flat by fragment, like everything else in the phase.
        // Members are visited in preorder: the message count and the strict
        // minimum over distinct edge keys do not depend on the visit order.
        let mut chosen: Vec<Option<EdgeId>> = vec![None; cores.len()];
        let mut chosen_count = 0u64;
        for &f in &active {
            let members = frags.subtree(cores[f]);
            // Broadcast "active" + convergecast of the minimum: 2(size-1) msgs.
            cost.add_messages(2 * (members.len() as u64 - 1));
            let mut best: Option<EdgeId> = None;
            for &u in members {
                let u = NodeId(u as usize);
                for (v, e) in g.neighbors(u) {
                    if rejected[e.index()] {
                        continue;
                    }
                    // Test message and reply over the link.
                    cost.add_messages(2);
                    if core[v.index()] == core[u.index()] {
                        rejected[e.index()] = true;
                        continue;
                    }
                    // First non-internal link in weight order is u's minimum.
                    best = match best {
                        None => Some(e),
                        Some(b) if g.edge_key(e) < g.edge_key(b) => Some(e),
                        Some(b) => Some(b),
                    };
                    break;
                }
            }
            if let Some(e) = best {
                chosen[f] = Some(e);
                chosen_count += 1;
            }
        }
        cost.add_idle_rounds(2 * u64::from(max_active_radius) + 2);
        if chosen_count == 0 {
            // No active fragment has an outgoing link: each spans a whole
            // connected component (for a connected graph, the whole graph).
            break;
        }

        // ---- Step 3 (setup): build the fragment forest F. ------------------
        let mut parent_f: Vec<Option<usize>> = vec![None; cores.len()];
        for (a, cand) in chosen.iter().enumerate() {
            let Some(e) = *cand else { continue };
            let c = cores[a];
            let edge = g.edge(e);
            let (u, v) = if core[edge.u.index()] == c {
                (edge.u, edge.v)
            } else {
                (edge.v, edge.u)
            };
            debug_assert_eq!(core[u.index()], c);
            let target_core = core[v.index()];
            let b = frags.tree_of(v);
            // Two fragments may choose the same link (case (iii) of the
            // paper): root the pair at the higher-id core and drop its edge.
            let reciprocal = chosen[b] == Some(e);
            if reciprocal && net.id_of(c) > net.id_of(target_core) {
                continue; // `c` becomes the root of this component of F
            }
            parent_f[a] = Some(b);
        }
        let forest_f = RootedForest::new(parent_f.clone())
            .expect("minimum-weight outgoing links with distinct weights form a forest");

        // ---- Steps 3–5: 3-colour F and extract the root-containing MIS. ---
        let f_ids: Vec<u64> = cores.iter().map(|&c| net.id_of(c)).collect();
        let coloring = three_color(&forest_f, &f_ids);
        let mis = mis_with_roots(&forest_f, &coloring.colors);
        let comm_rounds = u64::from(coloring.rounds + mis.rounds);
        // Every fragment-level exchange travels through the fragment trees:
        // O(radius) time and O(total fragment size) messages per exchange.
        cost.add_idle_rounds(comm_rounds * 2 * (u64::from(frags.max_radius()) + 1));
        let active_size: u64 = active
            .iter()
            .map(|&f| frags.subtree_size(cores[f]) as u64)
            .sum();
        cost.add_messages(comm_rounds * (active_size + chosen_count));

        // ---- Step 6: cut below red internal vertices and merge subtrees. --
        // Subtree root of an F-vertex = nearest ancestor (inclusive) that is
        // either a red internal vertex or an F-root.
        let is_cut = |x: usize| (mis.in_mis[x] && !forest_f.is_leaf(x)) || forest_f.is_root(x);
        let subtree_root_of = |mut x: usize| {
            while !is_cut(x) {
                x = forest_f.parent(x).expect("non-root has a parent");
            }
            x
        };

        let mut merges = 0u64;
        for (fidx, &c) in cores.iter().enumerate() {
            if is_cut(fidx) {
                continue;
            }
            // Keep the edge fidx -> parent_f[fidx]: merge fragment `c` into
            // its parent fragment through the chosen graph link.  (Non-cut
            // vertices have a parent in F, hence a chosen link.)
            let e = chosen[fidx].expect("non-cut fragment chose an outgoing link");
            let edge = g.edge(e);
            let (u, v) = if core[edge.u.index()] == c {
                (edge.u, edge.v)
            } else {
                (edge.v, edge.u)
            };
            reroot_at(&mut parent, u);
            parent[u.index()] = Some(v);
            merges += 1;
        }

        // Relabel cores: every node's new core is the core of its subtree's
        // root fragment.  (In the real network this is the "broadcast the new
        // fragment identity" message of GHS.)
        let mut new_core_of_fragment: Vec<NodeId> = Vec::with_capacity(cores.len());
        for fidx in 0..cores.len() {
            new_core_of_fragment.push(cores[subtree_root_of(fidx)]);
        }
        for vtx in g.nodes() {
            core[vtx.index()] = new_core_of_fragment[frags.tree_of(vtx)];
        }
        let _ = merges;
        cost.add_messages(n as u64);

        // Identity broadcast + phase wrap-up: proportional to the new radius.
        // The next level starts from this snapshot.
        frags = snapshot(&parent);
        cost.add_idle_rounds(2 * u64::from(frags.max_radius()) + 1);

        phases += 1;
    }

    PartitionOutcome {
        forest: frags,
        cost,
        phases,
    }
}

/// The fragment forest of the partition's parent pointers.  Parents are
/// graph neighbours by construction (every merge follows a graph link).
fn snapshot(parent: &[Option<NodeId>]) -> SpanningForest {
    SpanningForest::from_fn(parent.len(), |v| parent[v.index()])
        .expect("partition maintains a valid spanning forest")
}

/// Level of a fragment of `size` nodes: `⌊log₂ size⌋`.
fn level_of(size: usize) -> u32 {
    size.max(1).ilog2()
}

/// Re-roots the fragment tree containing `new_root` at `new_root` by
/// reversing the parent pointers along the path from `new_root` to the old
/// core.  Used when a fragment is merged into another one through one of its
/// non-core nodes (Step 6).
fn reroot_at(parent: &mut [Option<NodeId>], new_root: NodeId) {
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
    use netsim_graph::{generators, mst, partition_quality};

    fn check_claims(net: &MultimediaNetwork, outcome: &PartitionOutcome, target_level: u32) {
        let n = net.node_count();
        let forest = &outcome.forest;
        // Spanning: every node covered exactly once (by construction of
        // SpanningForest); trees are MST subtrees (property 1 of Section 3).
        assert!(
            forest.is_mst_subforest(net.graph()),
            "every tree edge must belong to the MST"
        );
        // Claim 1: every fragment reaches level >= target, unless the whole
        // graph collapsed into a single fragment first.
        let min_size_required = (1usize << target_level).min(n);
        if forest.tree_count() > 1 {
            assert!(
                forest.min_tree_size() >= min_size_required,
                "fragment of size {} below 2^{target_level}",
                forest.min_tree_size()
            );
        }
        // Claim 2: radius of every fragment is below 2^(target+4).
        assert!(
            u64::from(forest.max_radius()) < (1u64 << (target_level + 4)),
            "radius {} exceeds 2^{}",
            forest.max_radius(),
            target_level + 4
        );
    }

    #[test]
    fn partitions_small_families() {
        for (fam, n) in [
            (generators::Family::Ring, 64),
            (generators::Family::Grid, 64),
            (generators::Family::RandomConnected, 80),
            (generators::Family::RandomTree, 70),
            (generators::Family::Ray, 65),
            (generators::Family::Star, 40),
        ] {
            let g = fam.generate(n, 42);
            let net = MultimediaNetwork::new(g);
            let outcome = partition(&net);
            check_claims(&net, &outcome, net.target_level());
        }
    }

    #[test]
    fn partition_quality_ratios_bounded() {
        let g = generators::Family::Grid.generate(256, 5);
        let net = MultimediaNetwork::new(g);
        let outcome = partition(&net);
        let q = partition_quality(&outcome.forest);
        // Number of trees is at most √n (sizes ≥ √n) and radius ≤ 8√n.
        assert!(q.trees_over_sqrt_n <= 1.0 + 1e-9, "{q:?}");
        assert!(q.radius_over_sqrt_n <= 8.0 + 1e-9, "{q:?}");
    }

    #[test]
    fn costs_scale_sublinearly_in_time() {
        // Time must be Õ(√n), far below the Ω(d) = Ω(n) a path would need
        // with point-to-point flooding alone.
        let n = 1024;
        let g = generators::Family::Ring.generate(n, 3);
        let net = MultimediaNetwork::new(g);
        let outcome = partition(&net);
        let sqrt_n = (n as f64).sqrt();
        let logstar = netsim_graph::log_star(n as u64) as f64;
        let bound = 220.0 * sqrt_n * logstar;
        assert!(
            (outcome.cost.rounds as f64) < bound,
            "rounds {} not O(sqrt n log* n) (bound {bound})",
            outcome.cost.rounds
        );
        assert!((outcome.cost.rounds as f64) < (n as f64) * 3.0);
    }

    #[test]
    fn message_complexity_within_bound() {
        let n = 512;
        let g = generators::Family::RandomConnected.generate(n, 9);
        let net = MultimediaNetwork::new(g.clone());
        let outcome = partition(&net);
        let m = g.edge_count() as f64;
        let nf = n as f64;
        let bound = 8.0 * (m + nf * nf.log2() * netsim_graph::log_star(n as u64) as f64);
        assert!(
            (outcome.cost.p2p_messages as f64) < bound,
            "messages {} exceed O(m + n log n log* n) (bound {bound})",
            outcome.cost.p2p_messages
        );
    }

    #[test]
    fn single_node_and_tiny_graphs() {
        let net = MultimediaNetwork::new(generators::path(1));
        let outcome = partition(&net);
        assert_eq!(outcome.forest.tree_count(), 1);

        let net = MultimediaNetwork::new(generators::path(2));
        let outcome = partition(&net);
        assert_eq!(outcome.forest.tree_count(), 1);
        assert!(outcome.forest.is_mst_subforest(net.graph()));

        let net = MultimediaNetwork::new(generators::path(3));
        let outcome = partition(&net);
        check_claims(&net, &outcome, net.target_level());
    }

    #[test]
    fn complete_graph_partition() {
        let g = generators::Family::Complete.generate(32, 8);
        let net = MultimediaNetwork::new(g);
        let outcome = partition(&net);
        check_claims(&net, &outcome, net.target_level());
    }

    #[test]
    fn partial_level_partition_for_global_functions() {
        // Section 5.1 runs fewer phases; the invariants must hold for any level.
        let g = generators::Family::Grid.generate(400, 2);
        let net = MultimediaNetwork::new(g);
        for level in 0..=net.target_level() {
            let outcome = partition_to_level(&net, level);
            check_claims(&net, &outcome, level);
        }
    }

    #[test]
    fn tree_edges_equal_mst_for_full_merge() {
        // Driving the partition to level log2(n) merges everything into one
        // fragment whose tree must be exactly the MST.
        let g = generators::Family::RandomConnected.generate(48, 4);
        let net = MultimediaNetwork::new(g.clone());
        let outcome = partition_to_level(&net, netsim_graph::ceil_log2(48));
        assert_eq!(outcome.forest.tree_count(), 1);
        let edges = outcome.forest.tree_edges(&g);
        assert!(mst::is_minimum_spanning_tree(&g, &edges));
    }

    #[test]
    fn snapshot_of_singletons() {
        let g = generators::ring(5);
        let f = snapshot(&[None; 5]);
        assert_eq!(f.tree_count(), 5);
        assert_eq!(f.max_radius(), 0);
        for v in g.nodes() {
            let fi = f.tree_of(v);
            assert_eq!(f.roots()[fi], v);
            assert_eq!(f.tree_size(v), 1);
            assert_eq!(level_of(f.tree_size(v)), 0);
            assert_eq!(f.subtree(v), &[v.index() as u32]);
        }
    }

    #[test]
    fn snapshot_of_two_fragments_on_path() {
        // {0,1,2} rooted at 0; {3,4,5} rooted at 5.
        let parent = vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(4)),
            Some(NodeId(5)),
            None,
        ];
        let f = snapshot(&parent);
        assert_eq!(f.tree_count(), 2);
        assert_eq!(f.roots(), &[NodeId(0), NodeId(5)]);
        assert_eq!(f.tree_of(NodeId(1)), 0);
        assert_eq!(f.tree_of(NodeId(3)), 1);
        assert_eq!(f.tree_size(NodeId(0)), 3);
        assert_eq!(f.radius_of(NodeId(0)), 2);
        assert_eq!(f.radius_of(NodeId(5)), 2);
        assert_eq!(level_of(f.tree_size(NodeId(0))), 1);
        // Members in preorder: the core first, then down the path.
        assert_eq!(f.subtree(NodeId(5)), &[5, 4, 3]);
        // The radius is the deepest member: node 2 sits two parent hops
        // below core 0.
        let hops = std::iter::successors(Some(NodeId(2)), |v| parent[v.index()]).count() - 1;
        assert_eq!(hops as u32, f.radius_of(NodeId(0)));
        assert_eq!(f.max_radius(), 2);
    }

    #[test]
    fn level_is_floor_log2() {
        let parent: Vec<Option<NodeId>> =
            (0..9usize).map(|i| i.checked_sub(1).map(NodeId)).collect();
        let f = snapshot(&parent);
        assert_eq!(level_of(f.tree_size(NodeId(0))), 3); // floor(log2 9) = 3
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

    #[test]
    #[should_panic]
    fn disconnected_graph_rejected() {
        let mut b = netsim_graph::GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1);
        b.add_edge(NodeId(2), NodeId(3), 2);
        let net = MultimediaNetwork::new(b.build());
        let _ = partition(&net);
    }
}
