//! The randomized partitioning algorithm (Section 4 of the paper).
//!
//! The algorithm runs at most `ln* n + 1` synchronized iterations.  In every
//! iteration each still-*free* node flips a coin with head probability
//! `min(1, E_i/√n)` (where `E_1 = 1` and `E_i = e^{E_{i-1}}` grows as a tower
//! of exponentials); heads become *local centers* and grow BFS trees of depth
//! at most `4√n`, relabelling nodes that get strictly closer to a center.
//! Nodes within distance `2√n` of a center — and all nodes of trees with no
//! links to unlabelled nodes — become *unfree*.  The last iteration uses
//! probability 1, so every node ends up in some tree of radius at most `4√n`.
//!
//! Theorem 1 of the paper shows the expected number of trees is `O(√n)`;
//! the experiments (E3) measure this expectation.  The worst-case time is
//! `O(√n·log* n)` and the messages are `O(m + n·log* n)`; both are measured
//! here from the structures actually built.
//!
//! [`partition_las_vegas`] adds the paper's verification step (Remark after
//! Theorem 1): schedule the roots on the channel with the Metcalfe–Boggs
//! resolution for `8√n` slots and restart the whole algorithm if they do not
//! all fit, turning the Monte-Carlo guarantee into a Las-Vegas one.

use super::PartitionOutcome;
use crate::model::MultimediaNetwork;
use channel_access::{backoff, Contender};
use netsim_graph::{traversal, NodeId, SpanningForest};
use netsim_sim::CostAccount;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Detailed outcome of the randomized partition (Monte-Carlo form).
#[derive(Clone, Debug)]
pub struct RandomizedOutcome {
    /// The partition itself plus its cost.
    pub outcome: PartitionOutcome,
    /// Number of coin-flip iterations that were executed.
    pub iterations: u32,
    /// Number of local centers selected in each iteration.
    pub centers_per_iteration: Vec<usize>,
}

/// Runs the Monte-Carlo randomized partition with the given seed.
///
/// # Panics
///
/// Panics if the graph is not connected.
pub fn partition(net: &MultimediaNetwork, seed: u64) -> RandomizedOutcome {
    let g = net.graph();
    let n = g.node_count();
    assert!(
        traversal::is_connected(g),
        "the multimedia network model assumes a connected point-to-point graph"
    );
    let mut cost = CostAccount::new();
    if n == 0 {
        return RandomizedOutcome {
            outcome: PartitionOutcome {
                forest: SpanningForest::singletons(g),
                cost,
                phases: 0,
            },
            iterations: 0,
            centers_per_iteration: Vec::new(),
        };
    }
    let sqrt_n = (n as f64).sqrt();
    let max_depth = (4.0 * sqrt_n).ceil() as u32;
    let unfree_depth = (2.0 * sqrt_n).ceil() as u32;
    let mut rng = StdRng::seed_from_u64(seed);

    let mut label: Vec<Option<u32>> = vec![None; n];
    let mut root: Vec<Option<NodeId>> = vec![None; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut free = vec![true; n];
    // Links found internal (both endpoints labelled, not a tree link) are
    // removed for the rest of the algorithm — this is what bounds the message
    // complexity by O(m + n log* n).
    let mut removed = vec![false; g.edge_count()];

    let mut centers_per_iteration = Vec::new();
    let mut e_value = 1.0f64;
    let mut iterations = 0u32;

    loop {
        let p = (e_value / sqrt_n).min(1.0);
        iterations += 1;

        // ---- Step 1: coin flips. -----------------------------------------
        let mut new_centers: Vec<NodeId> = Vec::new();
        for v in g.nodes() {
            if free[v.index()] && rng.gen_bool(p) {
                new_centers.push(v);
                label[v.index()] = Some(0);
                root[v.index()] = Some(v);
                parent[v.index()] = None;
            }
        }
        centers_per_iteration.push(new_centers.len());
        cost.add_idle_rounds(1);

        // ---- Step 2: grow BFS trees from the new centers to depth 4√n. ----
        // The growth is synchronous: the whole network waits the allotted
        // 4√n rounds regardless of how far the waves actually reach.
        cost.add_idle_rounds(u64::from(max_depth));
        let mut frontier: VecDeque<NodeId> = new_centers.iter().copied().collect();
        while let Some(u) = frontier.pop_front() {
            let du = label[u.index()].expect("frontier nodes are labelled");
            if du >= max_depth {
                continue;
            }
            for (v, e) in g.neighbors(u) {
                if removed[e.index()] {
                    continue;
                }
                // One exploration message over the link (plus the reply below).
                cost.add_messages(1);
                let candidate = du + 1;
                let improves = match label[v.index()] {
                    None => true,
                    Some(cur) => {
                        candidate < cur
                            || (candidate == cur
                                && root[v.index()]
                                    .map(|r| {
                                        net.id_of(root[u.index()].expect("labelled")) < net.id_of(r)
                                    })
                                    .unwrap_or(true))
                    }
                };
                cost.add_messages(1); // accept / reject reply
                if improves {
                    label[v.index()] = Some(candidate);
                    root[v.index()] = root[u.index()];
                    parent[v.index()] = Some(u);
                    frontier.push_back(v);
                } else if label[v.index()].is_some()
                    && parent[v.index()] != Some(u)
                    && parent[u.index()] != Some(v)
                {
                    // Internal non-tree link: removed for the algorithm's purposes.
                    removed[e.index()] = true;
                }
            }
        }

        // ---- Step 3: decide who becomes unfree. ----------------------------
        // Trees learn whether they still have a link to an unlabelled node
        // (one exchange per link plus a broadcast-and-respond on each tree).
        cost.add_idle_rounds(2 * u64::from(max_depth) + 2);
        cost.add_messages(2 * n as u64);
        // Flat per-root flag (roots are nodes, so a vector indexed by node id
        // replaces the former hash map).
        let mut tree_has_unlabeled_link = vec![false; n];
        for u in g.nodes() {
            if let Some(r) = root[u.index()] {
                let touches_unlabeled = g
                    .neighbor_targets(u)
                    .iter()
                    .any(|&v| label[v as usize].is_none());
                tree_has_unlabeled_link[r.index()] |= touches_unlabeled;
            }
        }
        for u in g.nodes() {
            if let (Some(r), Some(d)) = (root[u.index()], label[u.index()]) {
                if !tree_has_unlabeled_link[r.index()] || d <= unfree_depth {
                    free[u.index()] = false;
                }
            }
        }

        let all_unfree = free.iter().all(|&f| !f);
        if p >= 1.0 || all_unfree {
            break;
        }
        e_value = e_value.exp();
        // Defensive cap: ln* n + 1 iterations suffice for any u64-sized n.
        if iterations > 8 {
            break;
        }
    }

    let forest =
        SpanningForest::from_parents(g, parent).expect("BFS parents form a valid spanning forest");
    RandomizedOutcome {
        outcome: PartitionOutcome {
            forest,
            cost,
            phases: iterations,
        },
        iterations,
        centers_per_iteration,
    }
}

/// Result of the Las-Vegas wrapper.
#[derive(Clone, Debug)]
pub struct LasVegasOutcome {
    /// The accepted partition (its cost includes the verification slots and
    /// all rejected attempts).
    pub outcome: PartitionOutcome,
    /// How many Monte-Carlo attempts were needed (1 = first try accepted).
    pub attempts: u32,
}

/// Runs the Monte-Carlo partition and verifies on the channel that the number
/// of trees is at most `2√n` by scheduling the roots with the Metcalfe–Boggs
/// resolution for `8√n` slots; restarts with a fresh seed on failure.
///
/// # Panics
///
/// Panics if the graph is not connected.
pub fn partition_las_vegas(net: &MultimediaNetwork, seed: u64) -> LasVegasOutcome {
    let n = net.node_count();
    let sqrt_n = (n as f64).sqrt();
    let slot_budget = (8.0 * sqrt_n).ceil() as u64 + 1;
    let root_budget = (2.0 * sqrt_n).ceil() as usize + 1;
    let mut total_cost = CostAccount::new();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let attempt_seed = seed.wrapping_add(u64::from(attempts) * 0x9e37_79b9);
        let mc = partition(net, attempt_seed);
        total_cost.absorb(&mc.outcome.cost);

        let roots: Vec<Contender> = mc
            .outcome
            .forest
            .roots()
            .iter()
            .map(|&r| Contender::new(net.id_of(r)))
            .collect();
        let sched =
            backoff::resolve_with_estimate(&roots, root_budget as u64, attempt_seed ^ 0xabcd);
        let accepted = match sched {
            Some(s) if s.slots() <= slot_budget && roots.len() <= root_budget => {
                total_cost.absorb(&s.cost);
                true
            }
            Some(s) => {
                total_cost.absorb(&s.cost);
                false
            }
            None => {
                total_cost.add_idle_rounds(slot_budget);
                false
            }
        };
        if accepted || attempts >= 32 {
            let mut outcome = mc.outcome;
            outcome.cost = total_cost;
            return LasVegasOutcome { outcome, attempts };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::{generators, partition_quality};

    fn check_partition(net: &MultimediaNetwork, out: &RandomizedOutcome) {
        let n = net.node_count();
        let forest = &out.outcome.forest;
        assert_eq!(forest.node_count(), n);
        // Radius bound of Section 4: every tree has radius at most 4√n.
        let bound = (4.0 * (n as f64).sqrt()).ceil() as u32;
        assert!(
            forest.max_radius() <= bound,
            "radius {} exceeds 4√n = {bound}",
            forest.max_radius()
        );
        // Parents must be neighbours (checked by SpanningForest) and every
        // root must be its own tree's core.
        for &r in forest.roots() {
            assert_eq!(forest.root_of(r), r);
        }
        assert!(out.iterations >= 1);
        assert_eq!(out.centers_per_iteration.len(), out.iterations as usize);
    }

    #[test]
    fn partitions_all_families() {
        for fam in generators::Family::ALL {
            let g = fam.generate(100, 17);
            let net = MultimediaNetwork::new(g);
            let out = partition(&net, 1);
            check_partition(&net, &out);
        }
    }

    #[test]
    fn expected_tree_count_is_order_sqrt_n() {
        // Average the number of trees over seeds; Theorem 1 bounds the
        // expectation by K√n for a universal constant K.
        let n = 400;
        let g = generators::Family::Grid.generate(n, 5);
        let net = MultimediaNetwork::new(g);
        let runs = 15;
        let mut total_trees = 0usize;
        for seed in 0..runs {
            let out = partition(&net, seed);
            check_partition(&net, &out);
            total_trees += out.outcome.forest.tree_count();
        }
        let avg = total_trees as f64 / runs as f64;
        let sqrt_n = (n as f64).sqrt();
        assert!(
            avg <= 6.0 * sqrt_n,
            "expected O(√n) trees, measured average {avg} vs √n = {sqrt_n}"
        );
    }

    #[test]
    fn time_is_order_sqrt_n_log_star() {
        let n = 1024;
        let g = generators::Family::Torus.generate(n, 2);
        let net = MultimediaNetwork::new(g);
        let out = partition(&net, 3);
        check_partition(&net, &out);
        let sqrt_n = (n as f64).sqrt();
        let bound = 16.0 * sqrt_n * (netsim_graph::log_star(n as u64) as f64 + 1.0);
        assert!(
            (out.outcome.cost.rounds as f64) <= bound,
            "rounds {} exceed O(√n log* n) bound {bound}",
            out.outcome.cost.rounds
        );
    }

    #[test]
    fn message_complexity_is_near_linear() {
        let n = 900;
        let g = generators::Family::RandomConnected.generate(n, 7);
        let m = g.edge_count() as f64;
        let net = MultimediaNetwork::new(g);
        let out = partition(&net, 11);
        check_partition(&net, &out);
        let bound = 6.0 * (m + n as f64 * (netsim_graph::log_star(n as u64) as f64 + 1.0));
        assert!(
            (out.outcome.cost.p2p_messages as f64) <= bound,
            "messages {} exceed O(m + n log* n) bound {bound}",
            out.outcome.cost.p2p_messages
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = generators::Family::Ring.generate(64, 1);
        let net = MultimediaNetwork::new(g);
        let a = partition(&net, 42);
        let b = partition(&net, 42);
        assert_eq!(a.outcome.forest.roots(), b.outcome.forest.roots());
        assert_eq!(a.outcome.cost, b.outcome.cost);
    }

    #[test]
    fn las_vegas_accepts_and_counts_attempts() {
        let g = generators::Family::Grid.generate(144, 9);
        let net = MultimediaNetwork::new(g);
        let lv = partition_las_vegas(&net, 5);
        assert!(lv.attempts >= 1);
        let q = partition_quality(&lv.outcome.forest);
        let sqrt_n = (144f64).sqrt();
        assert!(q.max_radius as f64 <= 4.0 * sqrt_n);
        // The verification slots are charged to the cost account.
        assert!(lv.outcome.cost.rounds > 0);
    }

    #[test]
    fn tiny_graphs() {
        for n in 1..=4 {
            let g = generators::path(n);
            let net = MultimediaNetwork::new(g);
            let out = partition(&net, 7);
            assert_eq!(out.outcome.forest.node_count(), n);
            check_partition(&net, &out);
        }
    }
}
