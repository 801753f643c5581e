//! Mergeable per-job aggregates.
//!
//! The in-process runner keeps the strongest invariant — output depends
//! only on the plan — by having its in-order collector [`push`] every
//! trial sequentially in global trial order; neither thread count nor
//! shard size can perturb a single bit. [`merge`] is the associative
//! reduction for the *multi-process sharding* follow-on (ROADMAP),
//! where each process aggregates its plan-fixed trial range and the
//! coordinator merges partials in range order; floating-point rounding
//! then depends on the (plan-fixed) split geometry, but still not on
//! scheduling. Until that lands, `merge` is exercised by unit tests and
//! `sleepy_stats::StreamingMoments`, not by [`run_plan`].
//!
//! Moments stream in O(1) memory ([`StreamingMoments`]); exact p50/p99
//! additionally retain the raw per-trial values (8 bytes per trial per
//! metric — fine at the thousands-of-trials scale).
//!
//! [`push`]: JobAggregate::push
//! [`merge`]: JobAggregate::merge
//! [`run_plan`]: crate::run_plan

use crate::measure::{ComplexityReport, DynamicReport};
use serde::{Deserialize, Serialize};
use sleepy_stats::{PhaseSeries, StreamingMoments, Summary, UpdateSeries};

/// A single metric's mergeable aggregate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricAggregate {
    /// Streaming count/mean/M2/min/max.
    pub moments: StreamingMoments,
    samples: Vec<f64>,
}

impl MetricAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one observation.
    pub fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.samples.push(x);
    }

    /// Merges another aggregate that covers the trials *after* this
    /// one's (callers merge in canonical shard order).
    pub fn merge(&mut self, other: &MetricAggregate) {
        self.moments.merge(&other.moments);
        self.samples.extend_from_slice(&other.samples);
    }

    /// The retained samples, sorted ascending (one sort feeds every
    /// quantile a caller reads).
    fn sorted_samples(&self) -> Vec<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in metrics"));
        sorted
    }

    /// Nearest-rank percentile on an already-sorted sample
    /// (numerically identical to [`Summary::percentile_of`]).
    fn rank_of(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank]
    }

    /// The p-th percentile (nearest-rank), 0 for an empty aggregate.
    pub fn percentile(&self, p: f64) -> f64 {
        Self::rank_of(&self.sorted_samples(), p)
    }

    /// The median of the retained samples.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Summary-statistics view (serializable).
    pub fn stats(&self) -> MetricStats {
        let sorted = self.sorted_samples();
        MetricStats {
            count: self.moments.count,
            mean: if self.moments.count == 0 { 0.0 } else { self.moments.mean },
            std_dev: self.moments.std_dev(),
            min: self.moments.min_or_zero(),
            max: self.moments.max_or_zero(),
            p50: Self::rank_of(&sorted, 50.0),
            p99: Self::rank_of(&sorted, 99.0),
        }
    }

    /// Converts into the harness's classic [`Summary`] shape.
    pub fn to_summary(&self) -> Summary {
        let sorted = self.sorted_samples();
        // Summary::of's median averages the middle pair for even
        // counts; reproduce that exactly.
        let c = sorted.len();
        let median = if c == 0 {
            0.0
        } else if c % 2 == 1 {
            sorted[c / 2]
        } else {
            (sorted[c / 2 - 1] + sorted[c / 2]) / 2.0
        };
        self.moments.to_summary(median)
    }
}

/// Serializable summary statistics of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricStats {
    /// Number of observations.
    pub count: u64,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

/// The mergeable aggregate of one job's trials.
#[derive(Debug, Clone, Default)]
pub struct JobAggregate {
    /// Node-averaged awake complexity per trial.
    pub node_avg_awake: MetricAggregate,
    /// Worst-case awake complexity per trial.
    pub worst_awake: MetricAggregate,
    /// Worst-case round complexity per trial.
    pub worst_round: MetricAggregate,
    /// Node-averaged round complexity per trial.
    pub node_avg_round: MetricAggregate,
    /// Total messages per trial.
    pub messages: MetricAggregate,
    /// MIS size per trial.
    pub mis_size: MetricAggregate,
    /// Trials whose output verified as an MIS.
    pub valid_trials: u64,
    /// Trials aggregated.
    pub trials: u64,
    /// Total Algorithm 2 base-case timeouts observed.
    pub base_timeouts: u64,
}

impl JobAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one trial's report.
    pub fn push(&mut self, r: &ComplexityReport) {
        self.node_avg_awake.push(r.summary.node_avg_awake);
        self.worst_awake.push(r.summary.worst_awake as f64);
        self.worst_round.push(r.summary.worst_round as f64);
        self.node_avg_round.push(r.summary.node_avg_round);
        self.messages.push(r.summary.total_messages as f64);
        self.mis_size.push(r.mis_size as f64);
        self.valid_trials += u64::from(r.valid);
        self.trials += 1;
        self.base_timeouts += r.base_timeouts as u64;
    }

    /// Merges a later shard's aggregate (canonical order: callers merge
    /// in shard-index order).
    pub fn merge(&mut self, other: &JobAggregate) {
        self.node_avg_awake.merge(&other.node_avg_awake);
        self.worst_awake.merge(&other.worst_awake);
        self.worst_round.merge(&other.worst_round);
        self.node_avg_round.merge(&other.node_avg_round);
        self.messages.merge(&other.messages);
        self.mis_size.merge(&other.mis_size);
        self.valid_trials += other.valid_trials;
        self.trials += other.trials;
        self.base_timeouts += other.base_timeouts;
    }

    /// Fraction of trials whose output verified as an MIS.
    pub fn valid_fraction(&self) -> f64 {
        self.valid_trials as f64 / (self.trials.max(1)) as f64
    }
}

/// The mergeable aggregate of one dynamic job's trials: one
/// [`JobAggregate`] per phase, repair-specific per-phase metrics, and
/// whole-trial totals.
#[derive(Debug, Clone, Default)]
pub struct DynamicJobAggregate {
    /// Per-phase aggregates across trials, indexed by phase.
    pub phases: Vec<JobAggregate>,
    /// Repair scope (nodes re-run) per phase, as a [`PhaseSeries`].
    pub repair_scope: PhaseSeries,
    /// Carried-over MIS members per phase.
    pub carried: PhaseSeries,
    /// Whole-trial total of node-averaged awake complexity summed over
    /// phases — the per-trial "awake cost of surviving the churn".
    pub total_avg_awake: MetricAggregate,
    /// Per-update cost accounting across every incremental update of
    /// every trial (empty unless the job ran
    /// [`RepairStrategy::Incremental`](crate::RepairStrategy::Incremental)).
    pub updates: UpdateSeries,
    /// Trials whose *every* phase verified as an MIS.
    pub valid_trials: u64,
    /// Trials aggregated.
    pub trials: u64,
}

impl DynamicJobAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one dynamic trial's report.
    pub fn push(&mut self, r: &DynamicReport) {
        if self.phases.len() < r.phases.len() {
            self.phases.resize_with(r.phases.len(), JobAggregate::new);
        }
        let mut total_awake = 0.0;
        for p in &r.phases {
            self.phases[p.phase].push(&p.report);
            self.repair_scope.push(p.phase, p.repair_scope as f64);
            self.carried.push(p.phase, p.carried as f64);
            for u in &p.updates {
                self.updates.push(u.awake_sum, u.scope);
            }
            total_awake += p.report.summary.node_avg_awake;
        }
        self.total_avg_awake.push(total_awake);
        self.valid_trials += u64::from(r.all_valid());
        self.trials += 1;
    }

    /// Merges a later shard's aggregate (canonical order, as with
    /// [`JobAggregate::merge`]).
    pub fn merge(&mut self, other: &DynamicJobAggregate) {
        if self.phases.len() < other.phases.len() {
            self.phases.resize_with(other.phases.len(), JobAggregate::new);
        }
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.merge(theirs);
        }
        self.repair_scope.merge(&other.repair_scope);
        self.carried.merge(&other.carried);
        self.updates.merge(&other.updates);
        self.total_avg_awake.merge(&other.total_avg_awake);
        self.valid_trials += other.valid_trials;
        self.trials += other.trials;
    }

    /// Fraction of trials valid on every phase.
    pub fn valid_fraction(&self) -> f64 {
        self.valid_trials as f64 / (self.trials.max(1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleepy_net::ComplexitySummary;

    fn report(x: f64, valid: bool) -> ComplexityReport {
        ComplexityReport {
            algo: "test".into(),
            n: 10,
            summary: ComplexitySummary {
                n: 10,
                node_avg_awake: x,
                worst_awake: (2.0 * x) as u64,
                worst_round: (3.0 * x) as u64,
                node_avg_round: 4.0 * x,
                active_rounds: 0,
                total_messages: (5.0 * x) as u64,
                dropped_messages: 0,
                lost_messages: 0,
                total_bits: 0,
            },
            mis_size: x as usize,
            valid,
            base_timeouts: usize::from(!valid),
        }
    }

    #[test]
    fn sharded_merge_matches_sequential_push() {
        let reports: Vec<ComplexityReport> =
            (0..40).map(|i| report(1.0 + (i % 7) as f64, i % 5 != 0)).collect();
        let mut whole = JobAggregate::new();
        reports.iter().for_each(|r| whole.push(r));
        // Shard into 4, merge in order.
        let mut merged = JobAggregate::new();
        for chunk in reports.chunks(10) {
            let mut shard = JobAggregate::new();
            chunk.iter().for_each(|r| shard.push(r));
            merged.merge(&shard);
        }
        assert_eq!(merged.trials, whole.trials);
        assert_eq!(merged.valid_trials, whole.valid_trials);
        assert_eq!(merged.base_timeouts, whole.base_timeouts);
        assert_eq!(merged.node_avg_awake.stats().p50, whole.node_avg_awake.stats().p50);
        assert_eq!(merged.node_avg_awake.stats().p99, whole.node_avg_awake.stats().p99);
        assert!(
            (merged.node_avg_awake.moments.mean - whole.node_avg_awake.moments.mean).abs() < 1e-12
        );
    }

    #[test]
    fn to_summary_matches_batch_summary() {
        let values = [2.0, 9.0, 4.0, 4.0, 5.0, 7.0, 5.0, 4.0];
        let mut agg = MetricAggregate::new();
        values.iter().for_each(|&x| agg.push(x));
        let batch = Summary::of(&values);
        let s = agg.to_summary();
        assert_eq!(s.count, batch.count);
        assert!((s.mean - batch.mean).abs() < 1e-12);
        assert!((s.std_dev - batch.std_dev).abs() < 1e-9);
        assert_eq!(s.min, batch.min);
        assert_eq!(s.max, batch.max);
        assert_eq!(s.median, batch.median);
    }

    #[test]
    fn dynamic_aggregate_merge_matches_sequential_push() {
        use crate::measure::{DynamicReport, PhaseReport, UpdateKind, UpdateRecord};
        let trial = |t: usize| DynamicReport {
            phases: (0..3)
                .map(|phase| PhaseReport {
                    phase,
                    report: report(1.0 + ((t + phase) % 5) as f64, !(t + phase).is_multiple_of(7)),
                    m: 20 + phase,
                    repair_scope: if phase == 0 { 10 } else { 2 + t % 3 },
                    carried: if phase == 0 { 0 } else { 5 },
                    updates: if phase == 0 {
                        Vec::new()
                    } else {
                        vec![UpdateRecord {
                            kind: UpdateKind::EdgeInsert,
                            scope: t % 3,
                            awake_sum: (t % 3) as f64 * 1.5,
                        }]
                    },
                })
                .collect(),
        };
        let reports: Vec<DynamicReport> = (0..30).map(trial).collect();
        let mut whole = DynamicJobAggregate::new();
        reports.iter().for_each(|r| whole.push(r));
        let mut merged = DynamicJobAggregate::new();
        for chunk in reports.chunks(7) {
            let mut shard = DynamicJobAggregate::new();
            chunk.iter().for_each(|r| shard.push(r));
            merged.merge(&shard);
        }
        assert_eq!(merged.trials, whole.trials);
        assert_eq!(merged.valid_trials, whole.valid_trials);
        assert_eq!(merged.phases.len(), 3);
        for (m, w) in merged.phases.iter().zip(&whole.phases) {
            assert_eq!(m.trials, w.trials);
            assert_eq!(m.node_avg_awake.stats().p50, w.node_avg_awake.stats().p50);
        }
        assert_eq!(merged.repair_scope.means(), whole.repair_scope.means());
        assert_eq!(merged.carried.phase(1).unwrap().mean, 5.0);
        assert_eq!(merged.updates.count(), whole.updates.count());
        assert_eq!(merged.updates.count(), 60, "one update per churn phase per trial");
        assert_eq!(merged.updates.zero_scope, whole.updates.zero_scope);
        assert!((merged.updates.amortized_awake() - whole.updates.amortized_awake()).abs() < 1e-12);
        assert!(
            (merged.total_avg_awake.moments.mean - whole.total_avg_awake.moments.mean).abs()
                < 1e-12
        );
        assert!(whole.valid_fraction() < 1.0);
    }

    #[test]
    fn empty_aggregate_is_all_zero() {
        let agg = MetricAggregate::new();
        let s = agg.stats();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(JobAggregate::new().valid_fraction(), 0.0);
    }
}
