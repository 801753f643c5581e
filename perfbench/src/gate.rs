//! The correctness gates. Every run passes all of them before it reports
//! a single time; each returns an error naming what differed.

use crate::plan::Workload;
use crate::replay::Work;
use sleepy_graph::Graph;
use sleepy_mis::{depth_alg1, derive_all, ExecOutcome};
use sleepy_net::ComplexitySummary;

/// The seed whose report digests are committed in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Committed FNV-1a digests of the report bytes at [`DEFAULT_SEED`]:
/// lines of `<workload> <full|smoke> <16 hex digits>`.
const DIGESTS: &str = include_str!("../digests.txt");

/// FNV-1a 64 of the report bytes (the store's record checksum).
pub fn digest(bytes: &[u8]) -> u64 {
    sleepy_store::fnv1a64(bytes)
}

/// The report bytes equal the committed digest for this workload and size.
pub fn committed_digest(workload: Workload, size: &str, bytes: &[u8]) -> Result<(), String> {
    let want = DIGESTS
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            match (f.next(), f.next(), f.next()) {
                (Some(w), Some(s), Some(d)) if w == workload.name() && s == size => {
                    u64::from_str_radix(d, 16).ok()
                }
                _ => None,
            }
        })
        .next();
    let got = digest(bytes);
    let want = want.ok_or_else(|| {
        format!("no committed digest for {} {size} (this run's is {got:016x})", workload.name())
    })?;
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{} {size} report digest {got:016x} differs from the committed {want:016x}",
            workload.name()
        ))
    }
}

/// Every trial's output verified as a maximal independent set, except
/// Algorithm 1 outputs certified as its Monte-Carlo failure (see
/// [`rank_tie_failure`]); those count as failed trials, not as errors.
pub fn all_valid(work: &Work) -> Result<(), String> {
    if work.invalid <= work.tie_failures {
        Ok(())
    } else {
        Err(format!(
            "{} of {} trials did not verify as an MIS ({} of them certified rank ties)",
            work.invalid, work.trials, work.tie_failures
        ))
    }
}

/// Whether an Algorithm 1 output run with `seed` on `graph` fails only
/// the way the paper allows: every node is dominated, and every two
/// adjacent members drew the same full K-bit rank. Algorithm 1 is Monte
/// Carlo; at n = 64 (K = 18) such a tie makes about one trial in 10⁴
/// invalid.
pub fn rank_tie_failure(graph: &Graph, set: &[bool], seed: u64) -> bool {
    let k = depth_alg1(graph.n());
    let ranks: Vec<u128> = derive_all(seed, graph.n()).iter().map(|c| c.rank(k)).collect();
    graph.node_ids().all(|v| {
        let neighbors = graph.neighbors(v);
        if set[v as usize] {
            neighbors.iter().all(|&u| !set[u as usize] || ranks[u as usize] == ranks[v as usize])
        } else {
            neighbors.iter().any(|&u| set[u as usize])
        }
    })
}

/// Recomputes the executor's node sums in `u128` and checks them against
/// `summary()`, which sums in `u64`: a wrapped Σ(finish + 1) or Σ awake
/// (Algorithm 1's padded schedule wraps near n = 10⁵) fails here loudly.
pub fn node_sums(out: &ExecOutcome, summary: &ComplexitySummary) -> Result<(), String> {
    let n = out.in_mis.len();
    if n == 0 {
        return Ok(());
    }
    let awake: u128 = out.awake_rounds.iter().map(|&a| u128::from(a)).sum();
    let finish: u128 = out.finish_rounds.iter().map(|&r| u128::from(r) + 1).sum();
    let avg = |sum: u128| sum as f64 / n as f64;
    if summary.node_avg_awake != avg(awake) || summary.node_avg_round != avg(finish) {
        return Err(format!(
            "executor summary disagrees with its u128 node sums: node_avg_awake {} vs {}, \
             node_avg_round {} vs {} (n = {n})",
            summary.node_avg_awake,
            avg(awake),
            summary.node_avg_round,
            avg(finish)
        ));
    }
    Ok(())
}
