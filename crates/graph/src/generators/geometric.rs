//! Random geometric graphs — the ad-hoc wireless / sensor-network topology.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Samples a random geometric graph: `n` points uniform on the unit square,
/// with an edge between every pair at Euclidean distance at most `radius`.
///
/// This is the standard model of an ad-hoc wireless or sensor network — the
/// setting whose energy constraints motivate the sleeping model (paper §1.1).
/// Uses a bucket grid of cell width `radius`, so the expected running time is
/// O(n + m).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `radius` is negative or not
/// finite.
///
/// # Example
///
/// ```
/// use sleepy_graph::generators::{radius_for_avg_degree, random_geometric};
/// let r = radius_for_avg_degree(200, 6.0);
/// let g = random_geometric(200, r, 7)?;
/// assert_eq!(g.n(), 200);
/// # Ok::<(), sleepy_graph::GraphError>(())
/// ```
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Result<Graph, GraphError> {
    if !radius.is_finite() || radius < 0.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("geometric radius {radius} must be a nonnegative finite number"),
        });
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
    if n == 0 || radius == 0.0 {
        return Graph::from_edges(n, []);
    }
    Graph::from_edges(n, close_pairs(pts, radius))
}

/// Every pair of `pts` at Euclidean distance at most `radius`, each once.
/// Its scratch arrays are freed before the caller builds the CSR.
fn close_pairs(pts: Vec<(f64, f64)>, radius: f64) -> Vec<(NodeId, NodeId)> {
    let n = pts.len();
    // Bucket grid with cell width >= radius: all neighbors of a point lie in
    // its own or the 8 adjacent cells. At most about n cells, so a tiny
    // radius cannot blow up the grid.
    let cells = ((1.0 / radius).floor() as usize).clamp(1, n.isqrt().max(1));
    let cell_of = |(x, y): (f64, f64)| {
        let axis = |t: f64| ((t * cells as f64) as usize).min(cells - 1);
        axis(y) * cells + axis(x)
    };
    // Counting-sort the points by cell into flat arrays, so cell `c` holds
    // `ids[start[c]..start[c + 1]]` and their coordinates in `xy`.
    let mut start = vec![0usize; cells * cells + 1];
    for &p in &pts {
        start[cell_of(p)] += 1;
    }
    let mut acc = 0usize;
    for slot in &mut start[..cells * cells] {
        acc += *slot;
        *slot = acc;
    }
    start[cells * cells] = n;
    let mut ids = vec![0 as NodeId; n];
    let mut xy = vec![(0.0, 0.0); n];
    for (i, &p) in pts.iter().enumerate().rev() {
        let c = cell_of(p);
        start[c] -= 1;
        ids[start[c]] = i as NodeId;
        xy[start[c]] = p;
    }
    drop(pts);
    // Test each unordered pair of points once: a cell against itself, then
    // against its four forward neighbors (east, and the three cells of the
    // next row). `ddx`/`ddy` may have either sign; their squares do not.
    let r2 = radius * radius;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for cy in 0..cells {
        for cx in 0..cells {
            let a = start[cy * cells + cx]..start[cy * cells + cx + 1];
            for i in a.clone() {
                let (x, y) = xy[i];
                for j in i + 1..a.end {
                    let (ddx, ddy) = (xy[j].0 - x, xy[j].1 - y);
                    if ddx * ddx + ddy * ddy <= r2 {
                        edges.push((ids[i], ids[j]));
                    }
                }
            }
            for (dx, dy) in [(1, 0), (-1, 1), (0, 1), (1, 1)] {
                let (nx, ny) = (cx as i64 + dx, cy as i64 + dy);
                if nx < 0 || nx >= cells as i64 || ny >= cells as i64 {
                    continue;
                }
                let c = ny as usize * cells + nx as usize;
                for i in a.clone() {
                    let (x, y) = xy[i];
                    for j in start[c]..start[c + 1] {
                        let (ddx, ddy) = (xy[j].0 - x, xy[j].1 - y);
                        if ddx * ddx + ddy * ddy <= r2 {
                            edges.push((ids[i], ids[j]));
                        }
                    }
                }
            }
        }
    }
    edges
}

/// The connection radius for which a random geometric graph on the unit
/// square has expected average degree approximately `avg_degree`
/// (ignoring boundary effects): `r = sqrt(avg_degree / (π·(n−1)))`, capped
/// at `sqrt(2)` (every pair connected).
pub fn radius_for_avg_degree(n: usize, avg_degree: f64) -> f64 {
    if n <= 1 || avg_degree <= 0.0 {
        return 0.0;
    }
    (avg_degree / (std::f64::consts::PI * (n - 1) as f64)).sqrt().min(std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radius_zero_is_empty() {
        let g = random_geometric(50, 0.0, 1).unwrap();
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn radius_sqrt2_is_complete() {
        let g = random_geometric(20, std::f64::consts::SQRT_2 + 0.01, 1).unwrap();
        assert_eq!(g.m(), 20 * 19 / 2);
    }

    #[test]
    fn rejects_bad_radius() {
        assert!(random_geometric(5, -1.0, 0).is_err());
        assert!(random_geometric(5, f64::NAN, 0).is_err());
    }

    #[test]
    fn bucket_grid_matches_brute_force() {
        let n = 120;
        let r = 0.17;
        let g = random_geometric(n, r, 33).unwrap();
        // Recompute points with the same RNG stream and brute-force edges.
        let mut rng = SmallRng::seed_from_u64(33);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
        let mut brute = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                if dx * dx + dy * dy <= r * r {
                    brute.push((i as NodeId, j as NodeId));
                }
            }
        }
        let h = Graph::from_edges(n, brute).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn tiny_radius_keeps_the_grid_small() {
        let g = random_geometric(100, 1e-300, 2).unwrap();
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn avg_degree_near_target() {
        let n = 2000;
        let target = 8.0;
        let g = random_geometric(n, radius_for_avg_degree(n, target), 5).unwrap();
        let mean = g.degree_stats().mean;
        // Boundary effects push the mean a bit below target.
        assert!(mean > target * 0.6 && mean < target * 1.3, "mean degree {mean}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(random_geometric(64, 0.2, 3).unwrap(), random_geometric(64, 0.2, 3).unwrap());
    }
}
