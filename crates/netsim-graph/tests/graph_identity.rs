//! Identity pins: every graph `Family::generate` produces is a pure function
//! of `(family, n, seed)`, and the constants below were recorded **before**
//! the single-pass radix construction replaced the double-finalising
//! comparison-sort one.  A change to graph construction that alters any edge
//! list, weight, CSR offset, neighbour order or edge-id order for any seed
//! fails here; a change that only makes construction cheaper passes
//! unmodified.
//!
//! On a mismatch the test prints the whole recomputed table in source form,
//! so a PR that *means* to change the generated graphs can re-record it (and
//! must say so).

use netsim_graph::generators::Family;
use netsim_graph::Graph;

/// Folds one word into a running 64-bit digest (multiply–rotate; the order
/// of the words matters, which is the point).
fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
}

/// Digest of everything observable about a graph: `n`, `m`, the edge list
/// with weights, and the CSR `(offsets, targets, edge_ids)` triple.
fn fold_graph(mut h: u64, g: &Graph) -> u64 {
    h = fold(h, g.node_count() as u64);
    h = fold(h, g.edge_count() as u64);
    for e in g.edges() {
        h = fold(h, e.u.index() as u64);
        h = fold(h, e.v.index() as u64);
        h = fold(h, e.weight);
    }
    let (offsets, targets, edge_ids) = g.csr();
    for &o in offsets {
        h = fold(h, o as u64);
    }
    for &t in targets {
        h = fold(h, u64::from(t));
    }
    for &e in edge_ids {
        h = fold(h, u64::from(e));
    }
    h
}

const SEEDS: [u64; 3] = [1, 2, 3];
const SIZES: [usize; 2] = [64, 1000];

/// One digest per `(family, size)`, folding seeds 1, 2, 3 in order.
fn family_digest(family: Family, n: usize) -> u64 {
    SEEDS.iter().fold(0xcbf2_9ce4_8422_2325, |h, &seed| {
        fold_graph(h, &family.generate(n, seed))
    })
}

/// Recorded on the parent commit (PR 19) with the code above; columns follow
/// [`SIZES`].
const PINS: [(Family, [u64; 2]); 13] = [
    (Family::Path, [0xb579_9fe2_ca0d_49f2, 0x9c00_d86d_acea_5106]),
    (Family::Ring, [0x7bad_9c1d_f2d3_45c4, 0x5097_c5f5_c8f7_13cf]),
    (Family::Grid, [0xb8db_b394_2570_b327, 0x5261_192f_bd53_79ce]),
    (
        Family::Torus,
        [0x2801_f8ee_e682_1fbd, 0x790b_5cbb_d6d9_e499],
    ),
    (
        Family::Complete,
        [0x07c4_8988_5fbd_cb62, 0x8f27_ac0a_5b48_5dac],
    ),
    (
        Family::RandomConnected,
        [0x475a_3643_f65a_b637, 0x1722_83ec_0b0d_45e2],
    ),
    (
        Family::RandomTree,
        [0x48ca_0a77_03ac_ba37, 0x8062_f855_0d9f_9c0f],
    ),
    (Family::Ray, [0x789a_1124_1384_feff, 0x534e_3a93_e7b1_8635]),
    (Family::Star, [0xc7d0_0b06_a9e5_9973, 0x65ff_9f73_d178_5093]),
    (
        Family::RingOfCliques,
        [0xddc2_11a6_4803_ad1c, 0x2b85_aa88_74e6_bd71],
    ),
    (
        Family::Geometric,
        [0x310d_46f0_1c0c_a09e, 0xd546_4577_40ed_8558],
    ),
    (
        Family::PreferentialAttachment,
        [0x5696_b024_7b43_943e, 0x4542_dcc0_e8da_7cf2],
    ),
    (
        Family::Expander,
        [0x9dce_3452_9ec8_a347, 0x5fbf_39e8_c1d6_a387],
    ),
];

#[test]
fn every_family_generates_the_recorded_graphs() {
    assert!(
        PINS.iter().map(|p| p.0).eq(Family::ALL),
        "the pin table must cover Family::ALL in order"
    );
    let actual: Vec<(Family, [u64; 2])> = Family::ALL
        .iter()
        .map(|&f| (f, SIZES.map(|n| family_digest(f, n))))
        .collect();
    if actual != PINS {
        for (family, digests) in &actual {
            eprintln!(
                "    (Family::{family:?}, [{:#018x}, {:#018x}]),",
                digests[0], digests[1]
            );
        }
        panic!("generated graphs differ from the recorded pins (recomputed table above)");
    }
}

/// The `tokens-sparse-flat` instance itself: 2²⁰ nodes, 3 145 722 links.
/// Release only — the debug build spends most of a minute on it.
#[cfg(not(debug_assertions))]
#[test]
fn preferential_attachment_at_2_pow_20_is_the_recorded_graph() {
    let g = Family::PreferentialAttachment.generate(1 << 20, 1);
    assert_eq!(g.edge_count(), 3_145_722);
    assert_eq!(
        fold_graph(0xcbf2_9ce4_8422_2325, &g),
        0x4df5_cb8b_ebb3_a344,
        "digest of PreferentialAttachment(2^20, seed 1)"
    );
}
