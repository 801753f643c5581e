//! The layer-by-layer replay: the same trials `run_plan` runs, in the same
//! global order, but as direct calls into each layer's public functions,
//! each call timed on its own. The replay rebuilds the workload's report
//! and sink bytes from those calls alone; the gates require them to equal
//! the runner's bytes, so the per-layer times describe the program the
//! end-to-end numbers measure.

use crate::gate;
use sleepy_fleet::cache;
use sleepy_fleet::seed::{phase_seed, update_seed};
use sleepy_fleet::sink::{
    JsonlSink, PhaseJsonlSink, PhaseRecord, PhaseSink, TrialRecord, TrialSink,
};
use sleepy_fleet::{
    AlgoKind, CacheStats, ComplexityReport, DynamicFleetOutput, DynamicJobAggregate, DynamicPlan,
    DynamicReport, DynamicWorkload, Execution, FleetOutput, IncrementalRepairer, JobAggregate,
    PhaseReport, RepairStrategy, SeedStream, TrialPlan, UpdateRecord, Workload as Instance,
    STORE_FLUSH_BATCH,
};
use sleepy_graph::Graph;
use sleepy_mis::{execute_sleeping_mis, run_sleeping_mis, MisConfig};
use sleepy_net::{ComplexitySummary, EngineConfig};
use sleepy_store::Store;
use sleepy_verify::verify_mis;
use std::fs::File;
use std::io::{BufWriter, Read};
use std::path::Path;
use std::time::{Duration, Instant};

/// A layer whose public calls the replay times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Graph,
    Executor,
    Engine,
    Verify,
    Agg,
    Sink,
    StoreOpen,
    StoreGet,
    StoreAppend,
    Churn,
    Repair,
}

const LAYER_COUNT: usize = 11;

/// Every layer, in report order.
pub const LAYERS: [Layer; LAYER_COUNT] = [
    Layer::Graph,
    Layer::Executor,
    Layer::Engine,
    Layer::Verify,
    Layer::Agg,
    Layer::Sink,
    Layer::StoreOpen,
    Layer::StoreGet,
    Layer::StoreAppend,
    Layer::Churn,
    Layer::Repair,
];

/// The benchmark's one clock read: every timing starts here.
pub fn now() -> Instant {
    // sleepy-lint: allow(no-wall-clock): timing is this benchmark's purpose;
    // no clock value reaches a report, only the printed measurements.
    Instant::now()
}

/// Adds up the time spent inside each layer's calls when on; when off,
/// calls straight through without reading the clock.
pub struct Tracer {
    on: bool,
    busy: [Duration; LAYER_COUNT],
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, busy: [Duration::ZERO; LAYER_COUNT] }
    }

    /// Runs `f` as one call into `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = now();
        let out = f();
        self.busy[layer as usize] += start.elapsed();
        out
    }

    /// Seconds spent inside `layer`'s calls since the last reset.
    pub fn busy(&self, layer: Layer) -> f64 {
        self.busy[layer as usize].as_secs_f64()
    }

    /// Seconds spent inside all layer calls since the last reset.
    pub fn busy_total(&self) -> f64 {
        LAYERS.iter().map(|&l| self.busy(l)).sum()
    }

    /// Drops the busy times.
    pub fn reset(&mut self) {
        self.busy = [Duration::ZERO; LAYER_COUNT];
    }
}

/// Exact work counts of a replay (identical on every pass of one plan).
#[derive(Debug, Default, Clone)]
pub struct Work {
    pub trials: u64,
    pub invalid: u64,
    /// Invalid Algorithm 1 outputs certified as rank ties.
    pub tie_failures: u64,
    pub graph_edges: u64,
    pub executor_nodes: u64,
    pub engine_messages: u64,
    pub engine_active_rounds: u64,
    pub engine_dropped: u64,
    pub verify_edges: u64,
    pub agg_pushes: u64,
    pub sink_bytes: u64,
    pub store_open_records: u64,
    pub store_hits: u64,
    pub store_appended: u64,
    pub churn_events: u64,
    pub updates: u64,
    pub free_updates: u64,
    pub absorb_rebuilds: u64,
}

impl Work {
    /// Counts one finished trial, and whether its output verified.
    pub fn count_trial(&mut self, valid: bool) {
        self.trials += 1;
        self.invalid += u64::from(!valid);
    }
}

/// How a static pass uses the result store.
pub enum StoreUse<'s> {
    None,
    /// A fresh store: every lookup must miss, every result is appended.
    Cold(&'s mut Store),
    /// A filled store: every trial must be served from it.
    Warm(&'s Store),
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Opens a JSONL sink file the way the `fleet` CLI does.
pub fn open_sink(path: &Path) -> Result<BufWriter<File>, String> {
    File::create(path).map(BufWriter::new).map_err(|e| format!("{}: {e}", path.display()))
}

/// The report JSON followed by the sink's bytes: what the gates compare.
pub fn render(report_json: &str, sink: &Path) -> Result<Vec<u8>, String> {
    let mut bytes = report_json.as_bytes().to_vec();
    bytes.push(b'\n');
    bytes.extend(std::fs::read(sink).map_err(|e| format!("{}: {e}", sink.display()))?);
    Ok(bytes)
}

/// Checks that a pass renders `want` (see [`render`]), reading the sink
/// file in chunks so that no second copy of the bytes is held.
pub fn check(what: &str, want: &[u8], report_json: &str, sink: &Path) -> Result<(), String> {
    let mut len = 0;
    let mut differ = None;
    let mut feed = |chunk: &[u8]| {
        if differ.is_none() {
            let have = want.get(len..).unwrap_or_default();
            differ = match chunk.iter().zip(have).position(|(a, b)| a != b) {
                Some(at) => Some(len + at),
                None if have.len() < chunk.len() => Some(len + have.len()),
                None => None,
            };
        }
        len += chunk.len();
    };
    feed(report_json.as_bytes());
    feed(b"\n");
    let io = |e: std::io::Error| format!("{}: {e}", sink.display());
    let mut file = File::open(sink).map_err(io)?;
    let mut buf = vec![0; 1 << 16];
    loop {
        match file.read(&mut buf).map_err(io)? {
            0 => break,
            k => feed(&buf[..k]),
        }
    }
    match differ.or((len != want.len()).then_some(len.min(want.len()))) {
        None => Ok(()),
        Some(at) => Err(format!(
            "{what}: report bytes differ at byte {at} (lengths {} and {len})",
            want.len()
        )),
    }
}

/// Replays a static plan; returns its report JSON (the sink file holds
/// the rest of its report bytes).
pub fn replay_static(
    plan: &TrialPlan,
    sink_path: &Path,
    mut store: StoreUse<'_>,
    tr: &mut Tracer,
    work: &mut Work,
) -> Result<String, String> {
    let seeds = SeedStream::new(plan.base_seed);
    let keys: Vec<String> = plan.jobs.iter().map(|j| j.key(plan.base_seed)).collect();
    let mut aggregates = vec![JobAggregate::new(); plan.jobs.len()];
    let mut sink = JsonlSink::new(open_sink(sink_path)?);
    let mut pending = Vec::new();
    let mut trials = 0u64;
    for (j, job) in plan.jobs.iter().enumerate() {
        for t in 0..job.trials {
            let seed = seeds.trial_seed(j as u64, t as u64);
            trials += 1;
            let key = cache::trial_key(&keys[j], seed);
            let report = match &mut store {
                StoreUse::None => measure(tr, work, &job.workload, job.algo, seed, job.execution)?,
                StoreUse::Warm(s) => {
                    let hit =
                        tr.time(Layer::StoreGet, || s.get(&key).and_then(cache::report_from_value));
                    work.store_hits += 1;
                    let report =
                        hit.ok_or_else(|| format!("warm pass missed trial {t} of job {j}"))?;
                    // Served reports must equal the cold pass's (checked
                    // after this pass), where each invalid one was certified.
                    work.tie_failures += u64::from(!report.valid);
                    report
                }
                StoreUse::Cold(s) => {
                    let hit =
                        tr.time(Layer::StoreGet, || s.get(&key).and_then(cache::report_from_value));
                    if hit.is_some() {
                        return Err(format!("cold pass hit trial {t} of job {j}"));
                    }
                    let report = measure(tr, work, &job.workload, job.algo, seed, job.execution)?;
                    tr.time(Layer::StoreAppend, || {
                        pending.push((key, cache::report_to_value(&report)))
                    });
                    if pending.len() >= STORE_FLUSH_BATCH {
                        let chunk = std::mem::take(&mut pending);
                        work.store_appended +=
                            tr.time(Layer::StoreAppend, || s.append(chunk)).map_err(err)?;
                    }
                    report
                }
            };
            tr.time(Layer::Agg, || aggregates[j].push(&report));
            work.agg_pushes += 1;
            let record = TrialRecord { job_index: j, job, trial: t, seed, report: &report };
            tr.time(Layer::Sink, || sink.record(&record)).map_err(err)?;
            work.count_trial(report.valid);
        }
    }
    if let StoreUse::Cold(s) = store {
        work.store_appended += tr.time(Layer::StoreAppend, || s.append(pending)).map_err(err)?;
    }
    tr.time(Layer::Sink, || sink.finish()).map_err(err)?;
    drop(sink);
    let out = FleetOutput {
        aggregates,
        total_trials: trials,
        cache: CacheStats::default(),
        elapsed: Duration::ZERO,
    };
    work.sink_bytes += std::fs::metadata(sink_path).map_or(0, |m| m.len());
    serde_json::to_string_pretty(&out.report(plan)).map_err(err)
}

/// Replays a dynamic plan (incremental repair only); returns its report
/// JSON, as [`replay_static`] does.
pub fn replay_dynamic(
    plan: &DynamicPlan,
    sink_path: &Path,
    tr: &mut Tracer,
    work: &mut Work,
) -> Result<String, String> {
    let seeds = SeedStream::new(plan.base_seed);
    let mut aggregates = vec![DynamicJobAggregate::new(); plan.jobs.len()];
    let mut sink = PhaseJsonlSink::new(open_sink(sink_path)?);
    let mut trials = 0u64;
    for (j, job) in plan.jobs.iter().enumerate() {
        if job.strategy != RepairStrategy::Incremental {
            return Err(format!("the replay covers incremental repair only, not {}", job.strategy));
        }
        for t in 0..job.trials {
            let seed = seeds.trial_seed(j as u64, t as u64);
            trials += 1;
            let report =
                measure_incremental(tr, work, &job.workload, job.algo, seed, job.execution)?;
            tr.time(Layer::Agg, || aggregates[j].push(&report));
            work.agg_pushes += 1;
            for phase in &report.phases {
                let record = PhaseRecord { job_index: j, job, trial: t, seed, report: phase };
                tr.time(Layer::Sink, || sink.record(&record)).map_err(err)?;
            }
            work.count_trial(report.all_valid());
        }
    }
    tr.time(Layer::Sink, || sink.finish()).map_err(err)?;
    drop(sink);
    let out = DynamicFleetOutput {
        aggregates,
        total_trials: trials,
        cache: CacheStats::default(),
        elapsed: Duration::ZERO,
    };
    work.sink_bytes += std::fs::metadata(sink_path).map_or(0, |m| m.len());
    serde_json::to_string_pretty(&out.report(plan)).map_err(err)
}

/// One static trial: generate, run, verify (the body of `measure_once`).
fn measure(
    tr: &mut Tracer,
    work: &mut Work,
    instance: &Instance,
    algo: AlgoKind,
    seed: u64,
    execution: Execution,
) -> Result<ComplexityReport, String> {
    let graph = tr.time(Layer::Graph, || instance.instance(seed)).map_err(err)?;
    work.graph_edges += graph.m() as u64;
    let (in_mis, summary, base_timeouts) = run_algo(tr, work, &graph, algo, seed, execution)?;
    let report = report(tr, work, &graph, algo, &in_mis, summary, base_timeouts);
    certify_tie(work, algo, report.valid, &graph, &in_mis, seed);
    Ok(report)
}

/// Counts an invalid Algorithm 1 output `set` of a run with `seed` that
/// [`gate::rank_tie_failure`] certifies.
pub fn certify_tie(
    work: &mut Work,
    algo: AlgoKind,
    valid: bool,
    graph: &Graph,
    set: &[bool],
    seed: u64,
) {
    if !valid && algo == AlgoKind::SleepingMis && gate::rank_tie_failure(graph, set, seed) {
        work.tie_failures += 1;
    }
}

/// Verifies `set` on `graph` and assembles the report.
fn report(
    tr: &mut Tracer,
    work: &mut Work,
    graph: &Graph,
    algo: AlgoKind,
    set: &[bool],
    summary: ComplexitySummary,
    base_timeouts: usize,
) -> ComplexityReport {
    let valid = tr.time(Layer::Verify, || verify_mis(graph, set).is_ok());
    work.verify_edges += graph.m() as u64;
    ComplexityReport {
        algo: algo.to_string(),
        n: graph.n(),
        summary,
        mis_size: set.iter().filter(|&&b| b).count(),
        valid,
        base_timeouts,
    }
}

fn mis_config(algo: AlgoKind, seed: u64) -> MisConfig {
    if algo == AlgoKind::SleepingMis {
        MisConfig::alg1(seed)
    } else {
        MisConfig::alg2(seed)
    }
}

/// Runs `algo` on the executor or the engine, as the fleet's trial body
/// routes it.
fn run_algo(
    tr: &mut Tracer,
    work: &mut Work,
    graph: &Graph,
    algo: AlgoKind,
    seed: u64,
    execution: Execution,
) -> Result<(Vec<bool>, ComplexitySummary, usize), String> {
    let engine = EngineConfig::default();
    match (algo, execution) {
        (AlgoKind::SleepingMis | AlgoKind::FastSleepingMis, Execution::Auto) => {
            let (out, summary) = tr
                .time(Layer::Executor, || {
                    execute_sleeping_mis(graph, mis_config(algo, seed)).map(|out| {
                        let summary = out.summary();
                        (out, summary)
                    })
                })
                .map_err(err)?;
            gate::node_sums(&out, &summary)?;
            work.executor_nodes += graph.n() as u64;
            let timeouts = out.base_timeout.iter().filter(|&&t| t).count();
            Ok((out.in_mis, summary, timeouts))
        }
        (AlgoKind::SleepingMis | AlgoKind::FastSleepingMis, Execution::ForceEngine) => {
            let (run, summary) = tr
                .time(Layer::Engine, || {
                    run_sleeping_mis(graph, mis_config(algo, seed), &engine).map(|run| {
                        let summary = run.metrics.summary();
                        (run, summary)
                    })
                })
                .map_err(err)?;
            count_engine(work, &summary);
            Ok((run.in_mis, summary, run.base_timeouts.len()))
        }
        (AlgoKind::Baseline(kind), _) => {
            let (run, summary) = tr
                .time(Layer::Engine, || {
                    sleepy_baselines::run_baseline(graph, kind, seed, &engine).map(|run| {
                        let summary = run.metrics.summary();
                        (run, summary)
                    })
                })
                .map_err(err)?;
            count_engine(work, &summary);
            Ok((run.in_mis, summary, 0))
        }
    }
}

fn count_engine(work: &mut Work, s: &ComplexitySummary) {
    work.engine_messages += s.total_messages;
    work.engine_active_rounds += s.active_rounds;
    work.engine_dropped += s.dropped_messages;
}

/// One dynamic trial under incremental repair (the body of
/// `measure_dynamic` for `RepairStrategy::Incremental`).
fn measure_incremental(
    tr: &mut Tracer,
    work: &mut Work,
    workload: &DynamicWorkload,
    algo: AlgoKind,
    seed: u64,
    execution: Execution,
) -> Result<DynamicReport, String> {
    let mut graph = tr.time(Layer::Graph, || workload.initial_instance(seed)).map_err(err)?;
    work.graph_edges += graph.m() as u64;
    let seed0 = phase_seed(seed, 0);
    let (mut in_mis, summary, timeouts) = run_algo(tr, work, &graph, algo, seed0, execution)?;
    let first = report(tr, work, &graph, algo, &in_mis, summary, timeouts);
    certify_tie(work, algo, first.valid, &graph, &in_mis, seed0);
    let mut phases = vec![PhaseReport {
        phase: 0,
        report: first,
        m: graph.m(),
        repair_scope: graph.n(),
        carried: 0,
        updates: Vec::new(),
    }];
    for phase in 1..workload.phases {
        let events = tr
            .time(Layer::Churn, || {
                workload.churn_batch(&graph, seed, phase, Some(&in_mis)).map(|d| d.events())
            })
            .map_err(err)?;
        work.churn_events += events.len() as u64;
        let ps = phase_seed(seed, phase as u64);
        let (done, updates, rebuilds) = tr
            .time(Layer::Repair, || {
                let mut repairer = IncrementalRepairer::new(graph, in_mis, algo, execution);
                let updates = events
                    .into_iter()
                    .enumerate()
                    .map(|(k, event)| repairer.absorb(event, update_seed(ps, k as u64)))
                    .collect::<Result<Vec<UpdateRecord>, _>>()?;
                let rebuilds = repairer.rebuild_count();
                Ok::<_, sleepy_fleet::FleetError>((repairer.finish(), updates, rebuilds))
            })
            .map_err(err)?;
        work.updates += updates.len() as u64;
        work.free_updates += updates.iter().filter(|u| u.scope == 0).count() as u64;
        work.absorb_rebuilds += rebuilds;
        // A repaired set is no single run's output, so no tie certifies it.
        let phase_report =
            report(tr, work, &done.graph, algo, &done.set, done.summary, done.base_timeouts);
        phases.push(PhaseReport {
            phase,
            report: phase_report,
            m: done.graph.m(),
            repair_scope: done.scope,
            carried: done.carried,
            updates,
        });
        graph = done.graph;
        in_mis = done.set;
    }
    Ok(DynamicReport { phases })
}
