//! Random d-regular graphs via Steger–Wormald incremental pairing.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Maximum number of full restarts before giving up.
const MAX_ATTEMPTS: usize = 200;

/// Samples a random d-regular simple graph on `n` nodes using the
/// Steger–Wormald incremental pairing heuristic: stubs are paired one edge
/// at a time, rejecting self loops and parallel edges as they arise, with a
/// full restart on the (rare) dead ends where no valid pair remains.
///
/// The distribution is asymptotically uniform for `d = O(n^{1/3})`
/// (Steger & Wormald 1999), which covers every parameterization used in
/// this repository's experiments.
///
/// # Errors
///
/// * [`GraphError::InvalidParameter`] if `d >= n` (when `n > 0`) or `n·d` is
///   odd, which make a d-regular simple graph impossible.
/// * [`GraphError::GenerationFailed`] if every restart hit a dead end
///   (practically unreachable for feasible parameters).
///
/// # Example
///
/// ```
/// use sleepy_graph::generators::random_regular;
/// let g = random_regular(20, 3, 11)?;
/// assert!(g.node_ids().all(|v| g.degree(v) == 3));
/// # Ok::<(), sleepy_graph::GraphError>(())
/// ```
pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<Graph, GraphError> {
    if n == 0 || d == 0 {
        return Graph::from_edges(n, []);
    }
    if d >= n {
        return Err(GraphError::InvalidParameter {
            reason: format!("regular degree d={d} must be < n={n}"),
        });
    }
    if n * d % 2 == 1 {
        return Err(GraphError::InvalidParameter {
            reason: format!("n*d = {} must be even for a d-regular graph", n * d),
        });
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    for _attempt in 0..MAX_ATTEMPTS {
        if let Some(edges) = try_incremental(n, d, &mut rng) {
            let g = Graph::from_edges(n, edges)?;
            debug_assert!(g.node_ids().all(|v| g.degree(v) == d));
            return Ok(g);
        }
    }
    Err(GraphError::GenerationFailed { generator: "random_regular", attempts: MAX_ATTEMPTS })
}

/// One Steger–Wormald pass; `None` on a dead end.
fn try_incremental(n: usize, d: usize, rng: &mut SmallRng) -> Option<Vec<(NodeId, NodeId)>> {
    let mut stubs: Vec<NodeId> = Vec::with_capacity(n * d);
    for v in 0..n as NodeId {
        for _ in 0..d {
            stubs.push(v);
        }
    }
    let mut present = Partners::new(n, d);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * d / 2);
    while !stubs.is_empty() {
        // Randomized picks; fall back to an exhaustive scan before declaring
        // a dead end.
        let budget = 8 + 4 * stubs.len();
        let mut accepted = false;
        for _ in 0..budget {
            let i = rng.gen_range(0..stubs.len());
            let j = rng.gen_range(0..stubs.len());
            if i == j {
                continue;
            }
            let (u, v) = (stubs[i], stubs[j]);
            if u == v {
                continue;
            }
            if present.contains(u, v) {
                continue;
            }
            present.insert(u, v);
            edges.push((u, v));
            // Remove the higher index first so the lower stays valid.
            let (hi, lo) = if i > j { (i, j) } else { (j, i) };
            stubs.swap_remove(hi);
            stubs.swap_remove(lo);
            accepted = true;
            break;
        }
        if !accepted {
            // Exhaustive scan for any valid pair.
            let found = 'scan: {
                for i in 0..stubs.len() {
                    for j in (i + 1)..stubs.len() {
                        let (u, v) = (stubs[i], stubs[j]);
                        if u == v {
                            continue;
                        }
                        if !present.contains(u, v) {
                            break 'scan Some((i, j, u, v));
                        }
                    }
                }
                None
            };
            match found {
                Some((i, j, u, v)) => {
                    present.insert(u, v);
                    edges.push((u, v));
                    stubs.swap_remove(j);
                    stubs.swap_remove(i);
                }
                None => return None, // dead end; restart
            }
        }
    }
    Some(edges)
}

/// The partners each node has been paired with so far: at most `d` per
/// node, kept in a flat `n·d` array and found by a linear scan.
struct Partners {
    d: usize,
    len: Vec<usize>,
    list: Vec<NodeId>,
}

impl Partners {
    fn new(n: usize, d: usize) -> Self {
        Partners { d, len: vec![0; n], list: vec![0; n * d] }
    }

    /// Whether `{u, v}` is already an edge; scans the shorter list.
    fn contains(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.len[u as usize] <= self.len[v as usize] { (u, v) } else { (v, u) };
        let a = a as usize;
        self.list[a * self.d..a * self.d + self.len[a]].contains(&b)
    }

    fn insert(&mut self, u: NodeId, v: NodeId) {
        for (a, b) in [(u, v), (v, u)] {
            let a = a as usize;
            self.list[a * self.d + self.len[a]] = b;
            self.len[a] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn degrees_are_regular() {
        for (n, d) in [(10, 3), (16, 4), (51, 2), (30, 7), (40, 12)] {
            let g = random_regular(n, d, 5).unwrap();
            assert_eq!(g.n(), n);
            for v in g.node_ids() {
                assert_eq!(g.degree(v), d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn rejects_infeasible() {
        assert!(random_regular(5, 5, 0).is_err()); // d >= n
        assert!(random_regular(5, 3, 0).is_err()); // n*d odd
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(random_regular(0, 3, 0).unwrap().n(), 0);
        assert_eq!(random_regular(7, 0, 0).unwrap().m(), 0);
        // 1-regular = perfect matching
        let g = random_regular(8, 1, 2).unwrap();
        assert_eq!(g.m(), 4);
    }

    #[test]
    fn near_complete_feasible() {
        // d = n - 1 forces the complete graph; the incremental pairing must
        // find it (possibly via the exhaustive-scan path).
        let g = random_regular(6, 5, 3).unwrap();
        assert_eq!(g.m(), 15);
    }

    #[test]
    fn deterministic() {
        assert_eq!(random_regular(24, 3, 9).unwrap(), random_regular(24, 3, 9).unwrap());
    }

    #[test]
    fn three_regular_usually_connected() {
        // Random 3-regular graphs are connected whp; check one instance.
        let g = random_regular(64, 3, 13).unwrap();
        assert!(ops::is_connected(&g));
    }
}
