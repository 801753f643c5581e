//! Golden CSR hashes of the generators.
//!
//! Every downstream artifact (reports, store records, tapes, benchmark
//! digests) depends on the exact CSR a family produces for `(n, seed)`:
//! node count, neighbor order and therefore port numbering. These hashes
//! pin that output, so a change to a generator or to `Graph::from_edges`
//! that alters a single neighbor list fails here, inside the crate.

use sleepy_graph::{Graph, GraphFamily};

/// FNV-1a 64 over `n`, then every node's degree and sorted neighbor list.
fn csr_hash(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&(g.n() as u64).to_le_bytes());
    for v in g.node_ids() {
        eat(&(g.degree(v) as u64).to_le_bytes());
        for &u in g.neighbors(v) {
            eat(&u.to_le_bytes());
        }
    }
    h
}

/// The six standard sweep families, plus the geometric corner cases (one
/// cell at n ≤ 64 with average degree 40, a fine grid with average degree
/// 0.5), an odd regular degree, and the deterministic structured families.
const FAMILIES: [GraphFamily; 12] = [
    GraphFamily::GnpAvgDeg(8.0),
    GraphFamily::GnpLogDensity(1.5),
    GraphFamily::RandomRegular(4),
    GraphFamily::GeometricAvgDeg(8.0),
    GraphFamily::BarabasiAlbert(3),
    GraphFamily::Tree,
    GraphFamily::RandomRegular(3),
    GraphFamily::GeometricAvgDeg(0.5),
    GraphFamily::GeometricAvgDeg(40.0),
    GraphFamily::Clique,
    GraphFamily::Grid2d,
    GraphFamily::Hypercube,
];
const SIZES: [usize; 5] = [0, 1, 2, 64, 1000];
const SEEDS: [u64; 3] = [1, 7, 2024];

/// `label n seed hash`, one line per case, in `FAMILIES × SIZES × SEEDS`
/// order.
const GOLDEN: &str = include_str!("golden/generators.txt");

fn actual_lines() -> Vec<String> {
    let mut out = Vec::new();
    for fam in FAMILIES {
        for n in SIZES {
            for seed in SEEDS {
                let g = fam.generate(n, seed).unwrap_or_else(|e| panic!("{fam} n={n}: {e}"));
                out.push(format!("{} {n} {seed} {:016x}", fam.label(), csr_hash(&g)));
            }
        }
    }
    out
}

#[test]
fn generator_csr_hashes_are_pinned() {
    let actual = actual_lines();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(expected.len(), actual.len(), "golden table has the wrong number of cases");
    let diffs: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| *e != a)
        .map(|(e, a)| format!("expected {e}\n     got {a}"))
        .collect();
    assert!(diffs.is_empty(), "{} generator outputs changed:\n{}", diffs.len(), diffs.join("\n"));
}

#[test]
fn csr_hash_sees_neighbor_order_and_isolated_nodes() {
    let path = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
    let star = Graph::from_edges(3, [(1, 0), (0, 2)]).unwrap();
    let padded = Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
    assert_ne!(csr_hash(&path), csr_hash(&star));
    assert_ne!(csr_hash(&path), csr_hash(&padded));
}
