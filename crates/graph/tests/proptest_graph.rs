//! Property-based tests of the graph substrate.

use proptest::prelude::*;
use sleepy_graph::{generators, io, ops, Graph, NodeId};
use std::collections::BTreeSet;

fn arb_edge_list(max_n: usize) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (1..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..3 * n);
        (
            Just(n),
            edges.prop_map(move |pairs| {
                pairs.into_iter().filter(|(u, v)| u != v).collect::<Vec<_>>()
            }),
        )
    })
}

/// Edge lists that repeat some edges, in either orientation, and come in
/// random order.
fn arb_multi_edge_list(max_n: usize) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    arb_edge_list(max_n).prop_flat_map(|(n, edges)| {
        let k = edges.len();
        let repeats = proptest::collection::vec((0..k.max(1), any::<bool>()), 0..k + 1);
        let sort_keys = proptest::collection::vec(any::<u64>(), 2 * k..2 * k + 1);
        (Just(n), Just(edges), repeats, sort_keys).prop_map(|(n, mut edges, repeats, keys)| {
            if !edges.is_empty() {
                for (i, flip) in repeats {
                    let (u, v) = edges[i];
                    edges.push(if flip { (v, u) } else { (u, v) });
                }
            }
            let mut keyed: Vec<_> = keys.into_iter().zip(edges).collect();
            keyed.sort_unstable();
            (n, keyed.into_iter().map(|(_, e)| e).collect())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn from_edges_matches_a_btreeset_model((n, edges) in arb_multi_edge_list(60)) {
        let g = Graph::from_edges(n, edges.clone()).unwrap();
        let model: BTreeSet<(NodeId, NodeId)> =
            edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        let mut lists = vec![Vec::new(); n];
        for &(u, v) in &model {
            lists[u as usize].push(v);
            lists[v as usize].push(u);
        }
        prop_assert_eq!(g.n(), n);
        prop_assert_eq!(g.m(), model.len());
        for v in g.node_ids() {
            lists[v as usize].sort_unstable();
            prop_assert_eq!(g.neighbors(v), &lists[v as usize][..]);
        }
        // The same edges through a non-`Vec` iterator give the same graph.
        prop_assert_eq!(&g, &Graph::from_edges(n, edges.iter().rev().copied()).unwrap());
    }

    #[test]
    fn construction_invariants((n, edges) in arb_edge_list(80)) {
        let g = Graph::from_edges(n, edges.clone()).unwrap();
        // Degree sum = 2m, symmetry, sortedness.
        prop_assert_eq!(g.node_ids().map(|v| g.degree(v)).sum::<usize>(), 2 * g.m());
        for v in g.node_ids() {
            prop_assert!(g.neighbors(v).windows(2).all(|w| w[0] < w[1]));
            for (p, &u) in g.neighbors(v).iter().enumerate() {
                prop_assert_eq!(g.endpoint(v, p), u);
                prop_assert_eq!(g.port_to(v, u), Some(p));
                prop_assert!(g.has_edge(u, v));
            }
        }
        // Every input edge is present.
        for (u, v) in edges {
            prop_assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn edge_order_is_irrelevant((n, mut edges) in arb_edge_list(60)) {
        let g = Graph::from_edges(n, edges.clone()).unwrap();
        edges.reverse();
        let h = Graph::from_edges(n, edges).unwrap();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn io_round_trip((n, edges) in arb_edge_list(60)) {
        let g = Graph::from_edges(n, edges).unwrap();
        let h = io::parse_edge_list(&io::to_edge_list(&g)).unwrap();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn induced_subgraph_is_consistent((n, edges) in arb_edge_list(50), mask_seed in 0u64..100) {
        let g = Graph::from_edges(n, edges).unwrap();
        let keep: Vec<bool> = (0..n)
            .map(|v| (mask_seed.wrapping_mul(v as u64 + 7) >> 3) % 2 == 0)
            .collect();
        let (sub, orig) = g.induced_subgraph(&keep);
        prop_assert_eq!(sub.n(), keep.iter().filter(|&&b| b).count());
        // Every subgraph edge maps back to an original edge between kept
        // nodes, and vice versa.
        for (a, b) in sub.edges() {
            prop_assert!(g.has_edge(orig[a as usize], orig[b as usize]));
        }
        let kept_edges = g
            .edges()
            .filter(|&(u, v)| keep[u as usize] && keep[v as usize])
            .count();
        prop_assert_eq!(sub.m(), kept_edges);
    }

    #[test]
    fn bfs_distances_satisfy_triangle_steps((n, edges) in arb_edge_list(50)) {
        let g = Graph::from_edges(n, edges).unwrap();
        let dist = ops::bfs_distances(&g, 0);
        prop_assert_eq!(dist[0], 0);
        for (u, v) in g.edges() {
            let (du, dv) = (dist[u as usize], dist[v as usize]);
            if du != usize::MAX && dv != usize::MAX {
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}): {du} vs {dv}");
            } else {
                // One endpoint unreachable implies both are.
                prop_assert_eq!(du, dv);
            }
        }
    }

    #[test]
    fn components_partition_nodes((n, edges) in arb_edge_list(50)) {
        let g = Graph::from_edges(n, edges).unwrap();
        let (labels, count) = ops::connected_components(&g);
        prop_assert_eq!(labels.len(), n);
        prop_assert!(labels.iter().all(|&l| l < count));
        // Adjacent nodes share a component.
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
        // Every label in 0..count appears.
        for c in 0..count {
            prop_assert!(labels.contains(&c));
        }
    }

    #[test]
    fn degeneracy_ordering_certificate((n, edges) in arb_edge_list(50)) {
        let g = Graph::from_edges(n, edges).unwrap();
        let (d, order) = ops::degeneracy(&g);
        let mut pos = vec![0usize; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }
        let worst = g
            .node_ids()
            .map(|v| {
                g.neighbors(v).iter().filter(|&&u| pos[u as usize] > pos[v as usize]).count()
            })
            .max()
            .unwrap_or(0);
        prop_assert_eq!(worst, d.min(worst.max(d)).min(d));
        prop_assert!(worst <= d);
        // Degeneracy is at most the maximum degree.
        prop_assert!(d <= g.max_degree());
    }

    #[test]
    fn gnp_determinism_and_bounds(n in 1usize..200, p_millis in 0u32..1000, seed in 0u64..50) {
        let p = p_millis as f64 / 1000.0;
        let g = generators::gnp(n, p, seed).unwrap();
        prop_assert_eq!(&g, &generators::gnp(n, p, seed).unwrap());
        prop_assert!(g.m() <= n * (n - 1) / 2);
    }
}
