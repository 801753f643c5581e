//! The three workloads: which plan each one runs, at full and smoke size.
//!
//! Why each workload exists, and which layer metric should move which
//! end-to-end metric on it, is written down in `perfbench/README.md`.

use sleepy_baselines::BaselineKind;
use sleepy_fleet::{
    standard_families, AlgoKind, DynamicPlan, Execution, RepairStrategy, TrialPlan, SLEEPING_ALGOS,
};
use sleepy_graph::{ChurnModel, ChurnSpec, GraphFamily};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Algorithms 1 and 2 on the combinatorial executor, JSONL sink on.
    ExecSweep,
    /// Every algorithm but Algorithm 1 at tiny n: a cold pass fills a
    /// store, a warm pass reopens it and serves every trial as a hit.
    CacheReplay,
    /// Algorithm 2 under per-event incremental repair of seeded churn.
    ChurnIncremental,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 3] =
    [Workload::ExecSweep, Workload::CacheReplay, Workload::ChurnIncremental];

/// Node count and trials per job.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub n: usize,
    pub trials: usize,
}

/// What a workload runs: a static or a dynamic plan.
pub enum Plan {
    Static(TrialPlan),
    Dynamic(DynamicPlan),
}

impl Plan {
    /// Trials the plan runs.
    pub fn trials(&self) -> u64 {
        match self {
            Plan::Static(p) => p.total_trials(),
            Plan::Dynamic(p) => p.total_trials(),
        }
    }

    /// Every job's content key, which the runner derives before its
    /// first trial.
    pub fn job_keys(&self) -> Vec<String> {
        match self {
            Plan::Static(p) => p.jobs.iter().map(|j| j.key(p.base_seed)).collect(),
            Plan::Dynamic(p) => p.jobs.iter().map(|j| j.key(p.base_seed)).collect(),
        }
    }
}

/// The dynamic plans' churn: the `fleet --dynamic` defaults (5% edge and
/// 2% node churn per phase, arrivals of degree 3, uniform targets).
fn default_churn() -> ChurnSpec {
    ChurnSpec {
        edge_delete_frac: 0.05,
        edge_insert_frac: 0.05,
        node_delete_frac: 0.02,
        node_insert_frac: 0.02,
        arrival_degree: 3,
        model: ChurnModel::Uniform,
    }
}

/// `cache-replay`'s algorithms: all but Algorithm 1, whose Monte-Carlo
/// rank ties make about one trial in 10⁴ invalid at n = 64 (the paper's
/// guarantee holds with high probability in n, so tiny n shows it). The
/// other five always output an MIS, so no operation of the workload
/// fails; Algorithm 1 is measured on `exec-sweep`.
const CACHE_ALGOS: [AlgoKind; 5] = [
    AlgoKind::FastSleepingMis,
    AlgoKind::Baseline(BaselineKind::LubyA),
    AlgoKind::Baseline(BaselineKind::LubyB),
    AlgoKind::Baseline(BaselineKind::GreedyCrt),
    AlgoKind::Baseline(BaselineKind::Ghaffari),
];

/// Phases per dynamic trial (phase 0 is the initial full run).
const CHURN_PHASES: usize = 8;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExecSweep => "exec-sweep",
            Workload::CacheReplay => "cache-replay",
            Workload::ChurnIncremental => "churn-incremental",
        }
    }

    /// The measured size. Every run measures repeated passes of this plan,
    /// so a pass is kept short enough to repeat several times a run.
    pub fn full(self) -> Size {
        match self {
            Workload::ExecSweep => Size { n: 16384, trials: 16 },
            Workload::CacheReplay => Size { n: 64, trials: 720 },
            Workload::ChurnIncremental => Size { n: 4096, trials: 32 },
        }
    }

    /// The gates-only smoke size.
    pub fn smoke(self) -> Size {
        match self {
            Workload::ExecSweep => Size { n: 256, trials: 2 },
            Workload::CacheReplay => Size { n: 32, trials: 16 },
            Workload::ChurnIncremental => Size { n: 256, trials: 2 },
        }
    }

    /// The plan this workload runs at `size` with base seed `seed`.
    pub fn plan(self, size: Size, seed: u64) -> Plan {
        let families = standard_families();
        match self {
            Workload::ExecSweep => Plan::Static(TrialPlan::sweep(
                &families,
                &[size.n],
                &SLEEPING_ALGOS,
                size.trials,
                seed,
                Execution::Auto,
            )),
            Workload::CacheReplay => Plan::Static(TrialPlan::sweep(
                &families,
                &[size.n],
                &CACHE_ALGOS,
                size.trials,
                seed,
                Execution::Auto,
            )),
            Workload::ChurnIncremental => Plan::Dynamic(DynamicPlan::sweep(
                &[GraphFamily::GnpAvgDeg(8.0), GraphFamily::GeometricAvgDeg(8.0)],
                &[size.n],
                &[AlgoKind::FastSleepingMis],
                &[RepairStrategy::Incremental],
                CHURN_PHASES,
                default_churn(),
                size.trials,
                seed,
                Execution::Auto,
            )),
        }
    }
}
