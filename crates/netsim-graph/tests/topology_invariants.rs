//! Quickcheck-style invariants of the structured topology generators.
//!
//! `topologies::random_geometric` and `topologies::degree_bounded_expander`
//! feed the benchmark workloads and the `engine_conformance` suite at arbitrary
//! seeds, but until now their structural guarantees — connectivity, degree
//! bounds, edge-count windows, determinism — were only exercised at a
//! handful of fixed parameters.  These property tests draw `(n, seed,
//! radius-scale / degree)` at random and assert the documented contracts.

use netsim_graph::topologies::{
    degree_bounded_expander, geometric_threshold_radius, random_geometric,
};
use netsim_graph::traversal::is_connected;
use netsim_graph::NodeId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_geometric_is_connected_with_bounded_edges(
        n in 2usize..400,
        seed in 0u64..10_000,
        scale in 1.05f64..2.0,
    ) {
        let radius = geometric_threshold_radius(n) * scale;
        let g = random_geometric(n, radius, seed);
        prop_assert_eq!(g.node_count(), n);
        // Connectivity is guaranteed by construction (union-find-gated
        // chaining across components), whatever the sample looks like.
        prop_assert!(is_connected(&g), "geometric graph disconnected at n={n} seed={seed}");
        // Edge-count window: a connected simple graph has between n - 1 and
        // n(n - 1)/2 edges; the repair chain adds at most n - 1 extras on
        // top of the disk edges.
        prop_assert!(g.edge_count() >= n - 1);
        prop_assert!(g.edge_count() <= n * (n - 1) / 2);
        // The neighbour relation is symmetric and irreflexive (CSR rows
        // contain no self-loops; every edge appears in both rows).
        for v in g.nodes() {
            for (u, _) in g.neighbors(v).iter() {
                prop_assert!(u != v, "self-loop at {v:?}");
                prop_assert!(g.has_edge(u, v));
            }
        }
        // Determinism per (n, radius, seed).
        let h = random_geometric(n, radius, seed);
        prop_assert_eq!(g.edge_count(), h.edge_count());
        for v in g.nodes() {
            prop_assert_eq!(g.neighbors(v).targets(), h.neighbors(v).targets());
        }
    }

    #[test]
    fn expander_respects_degree_bound_and_connectivity(
        n in 3usize..600,
        degree in 1usize..9,
        seed in 0u64..10_000,
    ) {
        let g = degree_bounded_expander(n, degree, seed);
        let cycles = degree.div_ceil(2);
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(is_connected(&g), "expander disconnected at n={n} seed={seed}");
        // Degree bound: every node lies on `cycles` Hamiltonian cycles, each
        // contributing at most two incident edges.
        prop_assert!(g.max_degree() <= 2 * cycles,
            "degree {} exceeds bound {}", g.max_degree(), 2 * cycles);
        // Edge-count window: one spanning cycle survives entirely (first
        // cycle is inserted into an empty graph), later cycles may retrace.
        prop_assert!(g.edge_count() >= n - 1);
        prop_assert!(g.edge_count() <= cycles * n);
        // Every node keeps degree >= 1 (n >= 3: the first cycle gives 2,
        // degenerate n < 3 is covered by the unit tests).
        for v in g.nodes() {
            prop_assert!(g.degree(v) >= 1);
        }
        // Determinism per (n, degree, seed).
        let h = degree_bounded_expander(n, degree, seed);
        prop_assert_eq!(g.edge_count(), h.edge_count());
        for v in 0..n {
            prop_assert_eq!(
                g.neighbors(NodeId(v)).targets(),
                h.neighbors(NodeId(v)).targets()
            );
        }
    }
}

/// FNV-1a digest of a graph's edge list in `EdgeId` order.
fn edge_list_digest(g: &netsim_graph::Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x100_0000_01b3);
    for e in g.edges() {
        mix(e.u.index() as u64);
        mix(e.v.index() as u64);
        mix(e.weight);
    }
    h
}

/// `GraphBuilder`'s duplicate-edge set is membership-only, so its key packing
/// and hasher must never change which edges a generator keeps or their
/// order.  The digests were recorded with the original
/// `HashSet<(usize, usize)>` + SipHash set; every family that rejects or
/// probes for duplicates (and the ones that do not) must still reproduce
/// them bit for bit.
#[test]
fn generated_edge_lists_are_pinned_per_family() {
    use netsim_graph::generators::Family;
    let pinned: [(Family, u64); 13] = [
        (Family::Path, 0xa3ffb77fe7f6f11c),
        (Family::Ring, 0xedee6725d7c00ef3),
        (Family::Grid, 0xbefc28079f5adb65),
        (Family::Torus, 0x1db4c0c340284842),
        (Family::Complete, 0xb40c5181eba8f070),
        (Family::RandomConnected, 0xd45f0cb546a1957a),
        (Family::RandomTree, 0x8fce44db5bdbb9d1),
        (Family::Ray, 0xa0544a199776b4ad),
        (Family::Star, 0x9bdeb3d1ccd59e47),
        (Family::RingOfCliques, 0x70dafcd76c7ae51f),
        (Family::Geometric, 0x2899d755a83b93c8),
        (Family::PreferentialAttachment, 0xe535ccb1942d672b),
        (Family::Expander, 0x08154fb44a57bfa1),
    ];
    assert_eq!(pinned.map(|(f, _)| f), Family::ALL);
    for (family, digest) in pinned {
        let got = edge_list_digest(&family.generate(300, 17));
        assert_eq!(got, digest, "{}: digest {got:#018x}", family.name());
    }
}
