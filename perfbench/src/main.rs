//! `perfbench`: the repository's equivalence-gated sweep benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke                        gates only, at tiny sizes
//! perfbench --self-test                     shows that broken output fails the gates
//! ```
//!
//! A measuring run first passes every gate (see [`gates`]), then repeats
//! the workload's sweep for `--seconds`. With `--trace 0` it times whole
//! `run_plan` sweeps at `nproc` threads and prints the end-to-end metrics;
//! with `--trace 1` it replays the same trials one layer call at a time
//! and prints the per-layer metrics. The last stdout line is the result
//! object; the line before it is the environment fingerprint. Run it from
//! the repository root (see `perfbench/README.md`).

mod env;
mod gate;
mod plan;
mod replay;

use plan::{Plan, Size, Workload};
use replay::{Layer, StoreUse, Tracer, Work};
use sleepy_fleet::sink::{JsonlSink, PhaseJsonlSink, PhaseSink, TrialSink};
use sleepy_fleet::{run_dynamic_plan_cached, run_plan_cached, FleetConfig};
use sleepy_store::Store;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where runs keep their stores, sink files, traces and results.
const WORK_ROOT: &str = ".perfbench_work";

/// Fewest timed passes a measuring run makes, however short `--seconds`.
const MIN_PASSES: usize = 2;

/// A measuring run starts no new pass after this long, so that a run ends
/// within three minutes.
const MAX_RUN_SECS: f64 = 120.0;

/// `setup_s` on the workloads without a store: per pass, this many blocks
/// of `SETUP_BLOCK` plan constructions (with the job keys the runner
/// derives before its first trial), each block timed as a whole.
const SETUP_BLOCKS: usize = 4;
const SETUP_BLOCK: usize = 64;

/// Per `cache-replay` cycle: store reopenings timed for `setup_s`, and
/// warm passes timed for `warm_trials_per_s` (a warm pass is short, so
/// one cycle times several).
const OPENS: usize = 2;
const WARM_PASSES: usize = 20;

enum Mode {
    Measure { workload: Workload, seed: u64, seconds: f64, trace: bool },
    Smoke,
    SelfTest,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut self_test) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= MAX_RUN_SECS) {
                    return Err(format!("--seconds must be in (0, {MAX_RUN_SECS}]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--smoke" => smoke = true,
            "--self-test" => self_test = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if self_test {
        return Ok(Mode::SelfTest);
    }
    if smoke {
        if workload.is_some() {
            return Err("--smoke runs every workload; it takes no --workload".into());
        }
        return Ok(Mode::Smoke);
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Ok(Mode::Measure { workload, seed, seconds, trace })
        }
        _ => Err("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | --smoke | --self-test"
            .into()),
    }
}

/// One workload at one size and seed, with a private scratch directory
/// (removed when the context drops).
struct Ctx {
    workload: Workload,
    size: Size,
    seed: u64,
    plan: Plan,
    dir: PathBuf,
}

impl Ctx {
    fn new(workload: Workload, size: Size, seed: u64, tag: &str) -> Result<Ctx, String> {
        let dir =
            Path::new(WORK_ROOT).join(format!("{}-{tag}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Ctx { workload, size, seed, plan: workload.plan(size, seed), dir })
    }

    fn sink(&self) -> PathBuf {
        self.dir.join("sink.jsonl")
    }

    /// A fresh, empty store directory.
    fn fresh_store(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.dir.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        Ok(dir)
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is harmless.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn open_store(dir: &Path) -> Result<Store, String> {
    Store::open(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// One sweep through the fleet runner, its bytes checked.
struct Pass {
    secs: f64,
    trials: u64,
    invalid: u64,
    hits: u64,
    executed: u64,
    updates: u64,
}

/// Runs the plan once through `run_plan_cached`/`run_dynamic_plan_cached`,
/// timing only the runner call, and checks that it renders `want`.
fn run_pass(
    ctx: &Ctx,
    threads: usize,
    store: Option<&mut Store>,
    want: &[u8],
    what: &str,
) -> Result<Pass, String> {
    let config = FleetConfig::with_threads(threads);
    let sink_path = ctx.sink();
    let file = replay::open_sink(&sink_path)?;
    let err = |e: sleepy_fleet::FleetError| e.to_string();
    let (json, secs, trials, invalid, cache, updates) = match &ctx.plan {
        Plan::Static(plan) => {
            let mut sink = JsonlSink::new(file);
            let mut sinks: Vec<&mut dyn TrialSink> = vec![&mut sink];
            let start = replay::now();
            let out = run_plan_cached(plan, &config, &mut sinks, store, true).map_err(err)?;
            let secs = start.elapsed().as_secs_f64();
            let invalid = out.aggregates.iter().map(|a| a.trials - a.valid_trials).sum();
            let report = out.report(plan);
            (serde_json::to_string_pretty(&report), secs, out.total_trials, invalid, out.cache, 0)
        }
        Plan::Dynamic(plan) => {
            let mut sink = PhaseJsonlSink::new(file);
            let mut sinks: Vec<&mut dyn PhaseSink> = vec![&mut sink];
            let start = replay::now();
            let out =
                run_dynamic_plan_cached(plan, &config, &mut sinks, store, true).map_err(err)?;
            let secs = start.elapsed().as_secs_f64();
            let invalid = out.aggregates.iter().map(|a| a.trials - a.valid_trials).sum();
            let report = out.report(plan);
            let updates = report.jobs.iter().map(|j| j.updates.count).sum();
            (
                serde_json::to_string_pretty(&report),
                secs,
                out.total_trials,
                invalid,
                out.cache,
                updates,
            )
        }
    };
    replay::check(what, want, &json.map_err(|e| e.to_string())?, &sink_path)?;
    Ok(Pass { secs, trials, invalid, hits: cache.hits, executed: cache.executed, updates })
}

/// A cold pass into a fresh store, then `opens` reopenings of it and
/// `warms` warm passes from the last one, each pass checked against
/// `want` (so warm bytes equal cold bytes). Returns the cold pass, each
/// reopening's seconds and the warm passes.
fn cached_cycle(
    ctx: &Ctx,
    threads: usize,
    opens: usize,
    warms: usize,
    want: &[u8],
) -> Result<(Pass, Vec<f64>, Vec<Pass>), String> {
    let dir = ctx.fresh_store("store")?;
    let mut store = open_store(&dir)?;
    let cold = run_pass(ctx, threads, Some(&mut store), want, "cold pass vs gated bytes")?;
    let trials = ctx.plan.trials();
    if (cold.hits, cold.executed) != (0, trials) {
        return Err(format!(
            "cold pass: {} hits / {} executed, want 0 / {trials}",
            cold.hits, cold.executed
        ));
    }
    let mut open_secs = Vec::with_capacity(opens);
    for _ in 0..opens {
        drop(store);
        let start = replay::now();
        store = open_store(&dir)?;
        open_secs.push(start.elapsed().as_secs_f64());
    }
    let mut warm = Vec::with_capacity(warms);
    for _ in 0..warms {
        let pass = run_pass(ctx, threads, Some(&mut store), want, "warm pass vs gated bytes")?;
        if (pass.hits, pass.executed) != (trials, 0) {
            return Err(format!(
                "warm pass: {} hits / {} executed, want {trials} / 0",
                pass.hits, pass.executed
            ));
        }
        warm.push(pass);
    }
    Ok((cold, open_secs, warm))
}

/// What one replay produced besides its tracer's busy times.
struct Replayed {
    /// The rendered report bytes, when the replay had none to check against.
    bytes: Option<Vec<u8>>,
    secs: f64,
    /// Layer-call seconds of the pass `run_pass` at one thread repeats
    /// (the cold pass on `cache-replay`, else the whole replay).
    first_pass_busy: f64,
    /// Seconds in `Store::get` during the warm pass.
    warm_get_secs: f64,
    /// Store size on disk after the cold pass.
    store_bytes: u64,
}

/// Checks a replayed pass against `want`, or renders it when there is
/// nothing to check against yet (the gates' first replay).
fn settle(
    what: &str,
    want: Option<&[u8]>,
    json: &str,
    sink: &Path,
) -> Result<Option<Vec<u8>>, String> {
    match want {
        Some(want) => replay::check(what, want, json, sink).map(|()| None),
        None => replay::render(json, sink).map(Some),
    }
}

/// Replays the workload's plan one layer call at a time, checking its
/// bytes against `want` (rendering them when `want` is `None`).
fn replay(
    ctx: &Ctx,
    tr: &mut Tracer,
    work: &mut Work,
    want: Option<&[u8]>,
) -> Result<Replayed, String> {
    let start = replay::now();
    let sink = ctx.sink();
    let sink = sink.as_path();
    let mut out = Replayed {
        bytes: None,
        secs: 0.0,
        first_pass_busy: 0.0,
        warm_get_secs: 0.0,
        store_bytes: 0,
    };
    match (&ctx.plan, ctx.workload) {
        (Plan::Static(plan), Workload::CacheReplay) => {
            let dir = ctx.fresh_store("replay-store")?;
            let mut store = open_store(&dir)?;
            let cold = replay::replay_static(plan, sink, StoreUse::Cold(&mut store), tr, work)?;
            drop(store);
            out.first_pass_busy = tr.busy_total();
            let cold_get = tr.busy(Layer::StoreGet);
            out.store_bytes = dir_bytes(&dir);
            out.bytes = settle("replayed cold pass vs gated bytes", want, &cold, sink)?;
            let store = tr.time(Layer::StoreOpen, || open_store(&dir))?;
            work.store_open_records += store.len() as u64;
            let warm = replay::replay_static(plan, sink, StoreUse::Warm(&store), tr, work)?;
            out.warm_get_secs = tr.busy(Layer::StoreGet) - cold_get;
            let cold = want.or(out.bytes.as_deref()).unwrap_or_default();
            replay::check("replayed warm pass vs replayed cold pass", cold, &warm, sink)?;
        }
        (Plan::Static(plan), _) => {
            let json = replay::replay_static(plan, sink, StoreUse::None, tr, work)?;
            out.first_pass_busy = tr.busy_total();
            out.bytes = settle("replay vs gated bytes", want, &json, sink)?;
        }
        (Plan::Dynamic(plan), _) => {
            let json = replay::replay_dynamic(plan, sink, tr, work)?;
            out.first_pass_busy = tr.busy_total();
            out.bytes = settle("replay vs gated bytes", want, &json, sink)?;
        }
    }
    out.secs = start.elapsed().as_secs_f64();
    Ok(out)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// Runs the plan at `threads` threads, into a fresh store on
/// `cache-replay` (a cold pass).
fn fresh_pass(ctx: &Ctx, threads: usize, want: &[u8], what: &str) -> Result<Pass, String> {
    if ctx.workload == Workload::CacheReplay {
        let dir = ctx.fresh_store(&format!("store-{threads}t"))?;
        run_pass(ctx, threads, Some(&mut open_store(&dir)?), want, what)
    } else {
        run_pass(ctx, threads, None, want, what)
    }
}

/// Every gate, before any timing: the layer-by-layer replay, the runner at
/// one thread and at `nproc` threads (cold then warm on `cache-replay`)
/// must all render the same bytes, and every trial must verify as an MIS.
/// Returns the canonical bytes.
fn gates(ctx: &Ctx, threads: usize) -> Result<Vec<u8>, String> {
    let mut work = Work::default();
    let replayed = replay(ctx, &mut Tracer::new(false), &mut work, None)?;
    gate::all_valid(&work)?;
    let canonical = replayed.bytes.unwrap_or_default();
    fresh_pass(ctx, 1, &canonical, "runner at 1 thread vs layer-by-layer replay")?;
    if ctx.workload == Workload::CacheReplay {
        cached_cycle(ctx, threads, 1, 1, &canonical)?;
    } else {
        let what = format!("runner at {threads} threads vs layer-by-layer replay");
        run_pass(ctx, threads, None, &canonical, &what)?;
    }
    Ok(canonical)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Named metric samples, one per timed pass, in first-pushed order;
/// reported as medians.
#[derive(Default)]
struct Samples(Vec<(&'static str, &'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, ..)| *n == name) {
            Some((.., values)) => values.push(value),
            None => self.0.push((name, unit, vec![value])),
        }
    }

    fn medians(self) -> Vec<(&'static str, &'static str, f64)> {
        self.0
            .into_iter()
            .map(|(name, unit, mut values)| (name, unit, median(&mut values)))
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result of a measuring run.
struct Measured {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// `--trace 0`: repeated `run_plan` sweeps at `nproc` threads.
fn measure_end_to_end(ctx: &Ctx, canonical: &[u8], seconds: f64) -> Result<Measured, String> {
    let threads = env::nproc();
    let mut s = Samples::default();
    let (mut attempted, mut failed) = (0, 0);
    let start = replay::now();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        if start.elapsed().as_secs_f64() > MAX_RUN_SECS {
            break;
        }
        passes += 1;
        if ctx.workload == Workload::CacheReplay {
            let (cold, open_secs, warm) =
                cached_cycle(ctx, threads, OPENS, WARM_PASSES, canonical)?;
            s.push("trials_per_s", "1/s", cold.trials as f64 / cold.secs);
            for secs in open_secs {
                s.push("setup_s", "s", secs);
            }
            for pass in &warm {
                s.push("warm_trials_per_s", "1/s", pass.trials as f64 / pass.secs);
            }
            for pass in warm.iter().chain([&cold]) {
                attempted += pass.trials;
                failed += pass.invalid;
            }
        } else {
            // Sampled between passes, so that one run's samples span its
            // whole length: a sample's cost depends on which vCPU it runs
            // on and when, by up to twofold on a shared host.
            for _ in 0..SETUP_BLOCKS {
                let t = replay::now();
                for _ in 0..SETUP_BLOCK {
                    let plan = ctx.workload.plan(ctx.size, ctx.seed);
                    let keys = plan.job_keys();
                    std::hint::black_box((plan, keys));
                }
                s.push("setup_s", "s", t.elapsed().as_secs_f64() / SETUP_BLOCK as f64);
            }
            let pass = run_pass(ctx, threads, None, canonical, "timed pass vs gated bytes")?;
            let rate = pass.trials as f64 / pass.secs;
            s.push("trials_per_s", "1/s", rate);
            // No store: a repeat of the sweep recomputes every trial.
            s.push("warm_trials_per_s", "1/s", rate);
            attempted += pass.trials;
            failed += pass.invalid;
        }
    }
    let mut metrics = s.medians();
    metrics.push(("peak_rss_mb", "MB", env::peak_rss_mb()));
    Ok(Measured { attempted, failed, metrics })
}

/// `--trace 1`: the traced layer-by-layer replay, the same replay with
/// timing off, and the runner at one and at `nproc` threads, repeated.
fn measure_layers(ctx: &Ctx, canonical: &[u8], seconds: f64) -> Result<Measured, String> {
    let threads = env::nproc();
    let mut s = Samples::default();
    let mut tr = Tracer::new(true);
    let (mut attempted, mut failed) = (0, 0);
    let start = replay::now();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        if start.elapsed().as_secs_f64() > MAX_RUN_SECS {
            break;
        }
        passes += 1;
        tr.reset();
        let mut work = Work::default();
        let traced = replay(ctx, &mut tr, &mut work, Some(canonical))?;
        let plain = replay(ctx, &mut Tracer::new(false), &mut Work::default(), Some(canonical))?;
        let one = fresh_pass(ctx, 1, canonical, "runner at 1 thread vs gated bytes")?;
        let many = fresh_pass(ctx, threads, canonical, "runner at nproc threads vs gated bytes")?;
        attempted += work.trials + one.trials + many.trials;
        failed += work.invalid + one.invalid + many.invalid;

        let wall = traced.secs;
        let busy = |l: Layer| tr.busy(l);
        for (layer, busy_s, share, work_done, rate, unit) in [
            (
                Layer::Graph,
                "graph.busy_s",
                "graph.share",
                work.graph_edges,
                "graph.edges_per_s",
                "edges/s",
            ),
            (
                Layer::Executor,
                "executor.busy_s",
                "executor.share",
                work.executor_nodes,
                "executor.nodes_per_s",
                "nodes/s",
            ),
            (
                Layer::Engine,
                "engine.busy_s",
                "engine.share",
                work.engine_messages,
                "engine.msgs_per_s",
                "msgs/s",
            ),
            (
                Layer::Verify,
                "verify.busy_s",
                "verify.share",
                work.verify_edges,
                "verify.edges_per_s",
                "edges/s",
            ),
        ] {
            s.push(busy_s, "s", busy(layer));
            s.push(rate, unit, ratio(work_done as f64, busy(layer)));
            s.push(share, "ratio", ratio(busy(layer), wall));
        }
        s.push(
            "engine.rounds_per_s",
            "rounds/s",
            ratio(work.engine_active_rounds as f64, busy(Layer::Engine)),
        );
        s.push("engine.messages", "count", work.engine_messages as f64);
        s.push("engine.active_rounds", "count", work.engine_active_rounds as f64);
        s.push(
            "engine.dropped_frac",
            "ratio",
            ratio(work.engine_dropped as f64, work.engine_messages as f64),
        );
        s.push("agg.busy_s", "s", busy(Layer::Agg));
        s.push("agg.pushes_per_s", "1/s", ratio(work.agg_pushes as f64, busy(Layer::Agg)));
        s.push("sink.busy_s", "s", busy(Layer::Sink));
        s.push("sink.bytes", "B", work.sink_bytes as f64);
        s.push("sink.mb_per_s", "MB/s", ratio(work.sink_bytes as f64 / 1e6, busy(Layer::Sink)));
        s.push("store.open_s", "s", busy(Layer::StoreOpen));
        s.push(
            "store.open_records_per_s",
            "1/s",
            ratio(work.store_open_records as f64, busy(Layer::StoreOpen)),
        );
        s.push("store.get_per_s", "1/s", ratio(work.store_hits as f64, traced.warm_get_secs));
        s.push(
            "store.append_records_per_s",
            "1/s",
            ratio(work.store_appended as f64, busy(Layer::StoreAppend)),
        );
        s.push(
            "store.bytes_per_record",
            "B",
            ratio(traced.store_bytes as f64, work.store_appended as f64),
        );
        s.push("store.hit_rate", "ratio", ratio(work.store_hits as f64, ctx.plan.trials() as f64));
        s.push("churn.busy_s", "s", busy(Layer::Churn));
        s.push("churn.events_per_s", "1/s", ratio(work.churn_events as f64, busy(Layer::Churn)));
        s.push("repair.busy_s", "s", busy(Layer::Repair));
        s.push("repair.absorb_per_s", "1/s", ratio(work.updates as f64, busy(Layer::Repair)));
        s.push("repair.free_frac", "ratio", ratio(work.free_updates as f64, work.updates as f64));
        s.push("repair.rebuilds", "count", work.absorb_rebuilds as f64);
        s.push("pool.speedup", "ratio", ratio(one.secs, many.secs));
        s.push("pool.overhead_frac", "ratio", ratio(one.secs - traced.first_pass_busy, one.secs));
        s.push("trace.overhead_frac", "ratio", ratio(traced.secs - plain.secs, plain.secs));
        s.push("updates_per_s", "1/s", ratio(many.updates as f64, many.secs));
        s.push(
            "failed_frac",
            "ratio",
            ratio(
                (work.invalid + one.invalid + many.invalid) as f64,
                (work.trials + one.trials + many.trials) as f64,
            ),
        );
    }
    Ok(Measured { attempted, failed, metrics: s.medians() })
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Measured, serde::Value), String> {
    std::fs::create_dir_all(WORK_ROOT).map_err(|e| format!("{WORK_ROOT}: {e}"))?;
    let threads = env::nproc();
    // A smoke-size sweep at the default seed checks the committed digest on
    // every run, whatever seed the run measures.
    let smoke = Ctx::new(workload, workload.smoke(), gate::DEFAULT_SEED, "smoke")?;
    gate::committed_digest(workload, "smoke", &gates(&smoke, threads)?)?;
    drop(smoke);
    let ctx = Ctx::new(workload, workload.full(), seed, "full")?;
    let canonical = gates(&ctx, threads)?;
    if seed == gate::DEFAULT_SEED {
        gate::committed_digest(workload, "full", &canonical)?;
    }
    let fingerprint = env::fingerprint(&ctx.dir);
    let measured = if trace {
        measure_layers(&ctx, &canonical, seconds)?
    } else {
        measure_end_to_end(&ctx, &canonical, seconds)?
    };
    Ok((measured, fingerprint))
}

/// `--smoke`: every gate of every workload at smoke size, at the default
/// seed (with the committed digest) and at a second seed.
fn smoke() -> Result<(), String> {
    std::fs::create_dir_all(WORK_ROOT).map_err(|e| format!("{WORK_ROOT}: {e}"))?;
    for w in plan::ALL {
        for seed in [gate::DEFAULT_SEED, gate::DEFAULT_SEED + 0x5EED] {
            let ctx = Ctx::new(w, w.smoke(), seed, "smoke")?;
            let bytes = gates(&ctx, env::nproc())?;
            if seed == gate::DEFAULT_SEED {
                gate::committed_digest(w, "smoke", &bytes)?;
            }
            println!(
                "smoke {} seed {seed}: gates pass (digest {:016x})",
                w.name(),
                gate::digest(&bytes)
            );
        }
    }
    Ok(())
}

/// `--self-test`: a corrupted report, an invalid MIS and a wrapped node
/// sum each fail their gate.
fn self_test() -> Result<(), String> {
    use sleepy_fleet::AlgoKind;
    use sleepy_mis::{execute_sleeping_mis, MisConfig};
    let expect_fail = |what: &str, r: Result<(), String>| match r {
        Ok(()) => Err(format!("self-test: {what} passed its gate")),
        Err(e) => {
            println!("self-test: {what} fails its gate: {e}");
            Ok(())
        }
    };
    std::fs::create_dir_all(WORK_ROOT).map_err(|e| format!("{WORK_ROOT}: {e}"))?;
    let w = Workload::ExecSweep;
    let ctx = Ctx::new(w, w.smoke(), gate::DEFAULT_SEED, "selftest")?;
    let good = gates(&ctx, env::nproc())?;
    gate::committed_digest(w, "smoke", &good)?;
    let mut bad = good.clone();
    let at = bad.iter().position(u8::is_ascii_digit).ok_or("report has no digit")?;
    bad[at] = if bad[at] == b'9' { b'0' } else { bad[at] + 1 };
    expect_fail(
        "a report with one digit changed (digest)",
        gate::committed_digest(w, "smoke", &bad),
    )?;
    // The equivalence check every pass goes through, on a sink file with
    // one digit changed.
    let sink = ctx.sink();
    let io = |e: std::io::Error| format!("{}: {e}", sink.display());
    let mut lines = std::fs::read(&sink).map_err(io)?;
    let json =
        std::str::from_utf8(&good[..good.len() - lines.len() - 1]).map_err(|e| e.to_string())?;
    replay::check("self-test", &good, json, &sink)?;
    let at = lines.iter().rposition(u8::is_ascii_digit).ok_or("sink has no digit")?;
    lines[at] = if lines[at] == b'9' { b'0' } else { lines[at] + 1 };
    std::fs::write(&sink, &lines).map_err(io)?;
    expect_fail(
        "a sink file with one digit changed (equivalence)",
        replay::check("self-test", &good, json, &sink),
    )?;

    // The replay's validity accounting: an invalid Algorithm 1 output
    // passes only with a rank-tie certificate, which a dropped member
    // (leaving a node undominated) cannot have.
    let graph = sleepy_fleet::Workload::new(sleepy_graph::GraphFamily::GnpAvgDeg(8.0), 256)
        .instance(7)
        .map_err(|e| e.to_string())?;
    let out = execute_sleeping_mis(&graph, MisConfig::alg1(7)).map_err(|e| e.to_string())?;
    let mut work = Work::default();
    let mut count = |set: &[bool]| {
        let valid = sleepy_verify::verify_mis(&graph, set).is_ok();
        work.count_trial(valid);
        replay::certify_tie(&mut work, AlgoKind::SleepingMis, valid, &graph, set, 7);
        gate::all_valid(&work)
    };
    count(&out.in_mis)?;
    let mut set = out.in_mis.clone();
    let member = set.iter().position(|&b| b).ok_or("empty MIS")?;
    set[member] = false;
    expect_fail("an Algorithm 1 MIS with one member removed", count(&set))?;

    gate::node_sums(&out, &out.summary())?;
    let mut wrapped = out.clone();
    wrapped.finish_rounds[0] = u64::MAX - 1;
    wrapped.finish_rounds[1] = u64::MAX - 1;
    // With overflow checks on, `summary()` itself panics on the wrap.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let summary = std::panic::catch_unwind(|| wrapped.summary());
    std::panic::set_hook(hook);
    match summary {
        Ok(summary) => {
            expect_fail("a wrapped u64 node-round sum", gate::node_sums(&wrapped, &summary))?
        }
        Err(_) => println!("self-test: a wrapped u64 node-round sum panics (overflow checks on)"),
    }
    println!("self-test OK");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::SelfTest => match self_test() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        Mode::Smoke => match smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: smoke: {e}");
                ExitCode::FAILURE
            }
        },
        Mode::Measure { workload, seed, seconds, trace } => {
            match measure(workload, seed, seconds, trace) {
                Ok((m, fingerprint)) => {
                    let result = result_json(true, m.attempted, m.failed, &m.metrics);
                    let record = format!(
                        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \
                         \"fingerprint\": {}, \"result\": {result}}}",
                        workload.name(),
                        u8::from(trace),
                        serde_json::to_string(&fingerprint).unwrap_or_default(),
                    );
                    let path = Path::new(WORK_ROOT).join(format!(
                        "result-{}-trace{}.json",
                        workload.name(),
                        u8::from(trace)
                    ));
                    if let Err(e) = std::fs::write(&path, format!("{record}\n")) {
                        eprintln!("perfbench: {}: {e}", path.display());
                    }
                    println!(
                        "{{\"fingerprint\": {}}}",
                        serde_json::to_string(&fingerprint).unwrap_or_default()
                    );
                    println!("{result}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", workload.name());
                    println!("{}", result_json(false, 0, 0, &[]));
                    ExitCode::FAILURE
                }
            }
        }
    }
}
