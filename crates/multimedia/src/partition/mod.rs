//! Network partitioning (Sections 3 and 4 of the paper).
//!
//! Both algorithms produce a spanning forest of `O(√n)` rooted trees, each of
//! radius `O(√n)` — the structure every other algorithm in the paper builds
//! on: the trees do the *local* work over the point-to-point network in
//! parallel, and their roots (cores) do the *global* work over the
//! multiaccess channel.
//!
//! * [`deterministic`] — Section 3: GHS fragment growing + GPS symmetry
//!   breaking; trees are MST subtrees of size ≥ √n and radius ≤ 8√n;
//!   `O(√n·log* n)` time, `O(m + n·log n·log* n)` messages.
//! * [`randomized`] — Section 4: random local centers + bounded BFS growth;
//!   expected `O(√n)` trees of radius ≤ 4√n; `O(√n·log* n)` time,
//!   `O(m + n·log* n)` messages, with a Las-Vegas verification wrapper.

pub mod deterministic;
pub mod randomized;

use netsim_graph::{partition_quality, PartitionQuality, SpanningForest};
use netsim_sim::CostAccount;

/// The common result type of the partitioning algorithms.
#[derive(Clone, Debug)]
pub struct PartitionOutcome {
    /// The spanning forest (one tree per fragment, rooted at its core).
    pub forest: SpanningForest,
    /// Measured cost (rounds, point-to-point messages, channel slots).
    pub cost: CostAccount,
    /// Number of phases (deterministic) or iterations (randomized) executed.
    pub phases: u32,
}

impl PartitionOutcome {
    /// Quality summary (tree count, max radius, normalised ratios).
    pub fn quality(&self) -> PartitionQuality {
        partition_quality(&self.forest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MultimediaNetwork;
    use netsim_graph::generators;

    #[test]
    fn outcome_quality_summary() {
        let g = generators::Family::Grid.generate(100, 1);
        let net = MultimediaNetwork::new(g);
        let det = deterministic::partition(&net);
        let q = det.quality();
        assert_eq!(q.trees, det.forest.tree_count());
        assert!(q.min_size >= 1);
    }

    #[test]
    fn deterministic_and_randomized_agree_on_coverage() {
        let g = generators::Family::RandomConnected.generate(120, 3);
        let net = MultimediaNetwork::new(g);
        let det = deterministic::partition(&net);
        let rnd = randomized::partition(&net, 4);
        assert_eq!(det.forest.node_count(), 120);
        assert_eq!(rnd.outcome.forest.node_count(), 120);
        // The deterministic forest is always an MST sub-forest; the randomized
        // one is a BFS forest and need not be.
        assert!(det.forest.is_mst_subforest(net.graph()));
    }
}
