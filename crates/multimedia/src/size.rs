//! Computing and estimating the network size `n` (Sections 7.3 and 7.4).
//!
//! The rest of the paper assumes `n` is known; these two procedures remove
//! that assumption:
//!
//! * [`deterministic_count`] — Section 7.3: run the deterministic partition
//!   level by level; after each level, try to schedule the fragment cores on
//!   the channel with Capetanakis' resolution under a slot budget that grows
//!   with the level.  Once all cores fit, each core's slot also carries its
//!   fragment size, so every node learns `n` exactly.  Time
//!   `O(√n·log|id|)` (improvable by balancing, as in Section 5.1).
//! * [`randomized_estimate`] — Section 7.4: the Greenberg–Ladner geometric
//!   coin-flip procedure; the estimate `2^k` is within a constant factor of
//!   `n` with high probability and takes `O(log n)` expected slots.

use crate::model::MultimediaNetwork;
use crate::partition::deterministic;
use channel_access::{capetanakis, estimate, Contender};
use netsim_sim::CostAccount;

/// Result of the deterministic size computation.
#[derive(Clone, Debug)]
pub struct SizeCount {
    /// The exact number of processors, as learned by every node.
    pub n: usize,
    /// Partition level at which the cores first fit in the slot budget.
    pub level: u32,
    /// Total measured cost (partitioning plus all scheduling attempts).
    pub cost: CostAccount,
}

/// Deterministically computes the exact network size (Section 7.3).
///
/// # Panics
///
/// Panics if the network is empty or the graph is disconnected.
pub fn deterministic_count(net: &MultimediaNetwork) -> SizeCount {
    assert!(net.node_count() > 0, "cannot count an empty network");
    let id_bits = u64::from(net.id_bits());
    let mut cost = CostAccount::new();
    let mut level = 0u32;
    loop {
        level += 1;
        // Grow fragments one more level.  (Cost of re-running lower levels is
        // a geometric series dominated by the last level; it is charged in
        // full here, keeping the measurement conservative.)
        let partition = deterministic::partition_to_level(net, level);
        cost.absorb(&partition.cost);

        // Attempt to schedule the cores for a budget of 2^level resolution
        // rounds, each of log|id| slots (the paper's budget).
        let budget = (1u64 << level) * id_bits.max(1);
        let cores = partition.forest.roots();
        let contenders: Vec<Contender> = cores
            .iter()
            .map(|&c| Contender::new(net.id_of(c)))
            .collect();
        let schedule = capetanakis::resolve(&contenders, net.id_space());
        if schedule.slots() <= budget {
            // All cores heard: each slot carried the fragment size, so every
            // node can add them up to n.
            cost.absorb(&schedule.cost);
            let n: usize = cores.iter().map(|&c| partition.forest.tree_size(c)).sum();
            return SizeCount { n, level, cost };
        }
        // Aborted attempt: only the budgeted slots were actually spent.
        cost.add_idle_rounds(budget);

        // Safety: once a single fragment spans the graph the next attempt
        // always succeeds, so this bound is never reached in practice.
        if level > 64 {
            let n = net.node_count();
            return SizeCount { n, level, cost };
        }
    }
}

/// Result of the randomized size estimation.
#[derive(Clone, Copy, Debug)]
pub struct SizeEstimate {
    /// The estimate `2^k`.
    pub estimate: u64,
    /// Number of busy rounds before the terminating idle slot.
    pub rounds: u32,
    /// Slot statistics.
    pub cost: CostAccount,
    /// `estimate / n`, for convenience in the experiments.
    pub ratio: f64,
}

/// Randomized estimation of the network size (Section 7.4, Greenberg–Ladner).
pub fn randomized_estimate(net: &MultimediaNetwork, seed: u64) -> SizeEstimate {
    let n = net.node_count() as u64;
    let e = estimate::estimate_station_count(n, seed);
    SizeEstimate {
        estimate: e.estimate,
        rounds: e.rounds,
        cost: e.cost,
        ratio: if n == 0 {
            f64::NAN
        } else {
            e.estimate as f64 / n as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_graph::generators;

    #[test]
    fn deterministic_count_is_exact() {
        for (fam, n) in [
            (generators::Family::Ring, 50),
            (generators::Family::Grid, 64),
            (generators::Family::RandomConnected, 75),
            (generators::Family::Ray, 60),
        ] {
            let g = fam.generate(n, 3);
            let real_n = g.node_count();
            let net = MultimediaNetwork::new(g);
            let count = deterministic_count(&net);
            assert_eq!(count.n, real_n, "family {fam}");
            assert!(count.level >= 1);
            assert!(count.cost.rounds > 0);
        }
    }

    #[test]
    fn deterministic_count_single_node() {
        let net = MultimediaNetwork::new(generators::path(1));
        let count = deterministic_count(&net);
        assert_eq!(count.n, 1);
    }

    #[test]
    fn deterministic_count_time_is_sublinear() {
        let n = 1600;
        let g = generators::Family::Torus.generate(n, 5);
        let real_n = g.node_count();
        let net = MultimediaNetwork::new(g);
        let count = deterministic_count(&net);
        assert_eq!(count.n, real_n);
        // O(√n log|id|) with a conservative constant, and certainly below n·log n.
        let bound = 64.0 * (real_n as f64).sqrt() * f64::from(net.id_bits());
        assert!(
            (count.cost.rounds as f64) < bound,
            "rounds {} exceed O(√n log|id|) bound {bound}",
            count.cost.rounds
        );
    }

    #[test]
    fn randomized_estimate_within_constant_factor_on_average() {
        let g = generators::Family::Grid.generate(1024, 7);
        let net = MultimediaNetwork::new(g);
        let n = net.node_count() as f64;
        let mut ratios: Vec<f64> = (0..41)
            .map(|seed| randomized_estimate(&net, seed).ratio)
            .collect();
        ratios.sort_by(f64::total_cmp);
        let median = ratios[ratios.len() / 2];
        assert!(
            (0.05..=20.0).contains(&median),
            "median estimate ratio {median} too far from 1 (n = {n})"
        );
    }

    #[test]
    fn randomized_estimate_rounds_logarithmic() {
        let g = generators::Family::Ring.generate(4096, 2);
        let net = MultimediaNetwork::new(g);
        let e = randomized_estimate(&net, 9);
        assert!(e.rounds <= 30, "rounds {} should be O(log n)", e.rounds);
        assert!(e.cost.rounds >= 1);
    }

    #[test]
    #[should_panic]
    fn empty_network_rejected() {
        let net = MultimediaNetwork::new(netsim_graph::GraphBuilder::new(0).build());
        let _ = deterministic_count(&net);
    }
}
