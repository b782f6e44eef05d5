//! The traced run: re-does one repetition of a workload as a sequence of
//! calls into each layer's public functions, timed from the outside, and
//! reads the solver counters the shipped path discards. Nothing here
//! instruments the program itself.

use crate::roles;
use crate::util::{self, BoxError, Digest};
use aoi_cache::persist::{read_artifact, Artifact, ArtifactWriter, PersistError};
use aoi_cache::presets::{fig1a_ensemble, fig1a_scenario, fig1b_policies, fig1b_scenario};
use aoi_cache::{
    headline_channel_for, run_service, write_service_artifact_with, CachePolicyKind,
    CacheSimulation, CompiledRsuMdp, Compression, ExperimentGrid,
};
use aoi_serve::ServeEngine;
use mdp::solver::{RelativeValueIteration, ValueIteration};
use simkit::{executor, CurveAccumulator, Stopwatch, TimeSeries};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use vanet::RequestTrace;

/// Every per-layer metric: name, unit, which direction is better, and
/// the end-to-end metric (per workload) it should move. A layer a
/// workload bypasses reports 0.
pub const LAYER_METRICS: &[(&str, &str, &str, &str)] = &[
    (
        "mdp.compile_s",
        "s",
        "lower",
        "fig1a-ensemble/wall_s, serve-stream/setup_s, campaign/wall_s",
    ),
    (
        "mdp.solve_vi_s",
        "s",
        "lower",
        "fig1a-ensemble/wall_s, serve-stream/setup_s, campaign/wall_s",
    ),
    (
        "mdp.solve_rvi_s",
        "s",
        "lower",
        "fig1a-ensemble/wall_s, campaign/wall_s",
    ),
    (
        "mdp.vi_sweeps",
        "count",
        "lower",
        "fig1a-ensemble/wall_s, serve-stream/setup_s, campaign/wall_s",
    ),
    (
        "mdp.rvi_sweeps",
        "count",
        "lower",
        "fig1a-ensemble/wall_s, campaign/wall_s",
    ),
    (
        "mdp.vi_residual",
        "1",
        "lower",
        "solution quality of the VI policies",
    ),
    (
        "mdp.solves",
        "count",
        "lower",
        "fig1a-ensemble/wall_s (solver calls per repetition)",
    ),
    (
        "mdp.unconverged",
        "count",
        "lower",
        "correctness: must be 0",
    ),
    (
        "mdp.states",
        "count",
        "lower",
        "fig1a-ensemble/wall_s (model size)",
    ),
    (
        "mdp.transitions",
        "count",
        "lower",
        "fig1a-ensemble/wall_s (model size)",
    ),
    (
        "mdp.wall_share",
        "1",
        "lower",
        "fig1a-ensemble/wall_s (solver share of the traced wall)",
    ),
    (
        "core.scenario_build_s",
        "s",
        "lower",
        "campaign/wall_s; fig1a-ensemble: no visible change",
    ),
    (
        "core.slot_loop_s",
        "s",
        "lower",
        "campaign/wall_s; fig1a-ensemble: no visible change",
    ),
    (
        "experiment.fold_s",
        "s",
        "lower",
        "campaign/wall_s, campaign-resume/wall_s",
    ),
    ("service.run_s", "s", "lower", "campaign/wall_s"),
    (
        "persist.write_s",
        "s",
        "lower",
        "campaign/wall_s (write side, traced on campaign-resume)",
    ),
    (
        "persist.bytes",
        "B",
        "lower",
        "campaign/wall_s, campaign-resume/wall_s",
    ),
    (
        "persist.compress_ratio",
        "1",
        "higher",
        "campaign/wall_s, campaign-resume/wall_s",
    ),
    (
        "persist.read_s",
        "s",
        "lower",
        "campaign-resume/wall_s, campaign/wall_s",
    ),
    ("persist.verify_s", "s", "lower", "campaign-resume/wall_s"),
    (
        "lease.claims",
        "count",
        "lower",
        "campaign/wall_s (journals of the campaign-resume input)",
    ),
    (
        "lease.steals",
        "count",
        "lower",
        "campaign/wall_s (journals of the campaign-resume input)",
    ),
    (
        "supervise.retries",
        "count",
        "lower",
        "campaign/wall_s, failed",
    ),
    (
        "supervise.backoff_ms",
        "ms",
        "lower",
        "campaign/wall_s (journals of the campaign-resume input)",
    ),
    (
        "campaign.claim_skew",
        "1",
        "lower",
        "campaign/wall_s (the slowest worker sets it)",
    ),
    ("vanet.trace_read_s", "s", "lower", "serve-stream/setup_s"),
    ("serve.engine_new_s", "s", "lower", "serve-stream/setup_s"),
    (
        "serve.call_serial_s",
        "s",
        "lower",
        "serve-stream/wall_s, serve-stream/work_per_s",
    ),
    (
        "serve.call_bulk_s",
        "s",
        "lower",
        "serve-stream/wall_s, serve-stream/work_per_s",
    ),
    (
        "serve.window_p50_ms",
        "ms",
        "lower",
        "serve-stream/wall_s, serve-stream/work_per_s",
    ),
    ("serve.window_p99_ms", "ms", "lower", "serve-stream/wall_s"),
    (
        "serve.fresh_rate",
        "1",
        "higher",
        "serve-stream output quality (deterministic)",
    ),
    (
        "trace.traced_wall_s",
        "s",
        "lower",
        "tracing overhead, beside trace.untraced_wall_s",
    ),
    (
        "trace.untraced_wall_s",
        "s",
        "lower",
        "the traced workload/wall_s, untraced",
    ),
];

/// Metric values keyed by name.
pub type Layers = BTreeMap<String, f64>;

fn add(m: &mut Layers, name: &str, v: f64) {
    *m.entry(name.to_string()).or_insert(0.0) += v;
}

fn max(m: &mut Layers, name: &str, v: f64) {
    let slot = m.entry(name.to_string()).or_insert(0.0);
    *slot = slot.max(v);
}

/// Times `f`, adding its seconds to metric `name`.
fn timed<R>(m: &mut Layers, name: &str, f: impl FnOnce() -> R) -> R {
    let watch = Stopwatch::start();
    let out = f();
    add(m, name, watch.elapsed_seconds());
    out
}

/// The Fig. 1a policy menu, read from the preset itself.
fn fig1a_policies() -> Vec<CachePolicyKind> {
    match fig1a_ensemble(1).grid {
        ExperimentGrid::Cache { policies, .. } => policies,
        _ => Vec::new(),
    }
}

/// Solver counters: solves each kernel again with the exact solvers the
/// policies use, keeping what `policy.rs` drops (sweeps, residual,
/// converged). RVI reports non-convergence as an error, counted here.
fn solver_counters(m: &mut Layers, compiled: &[CompiledRsuMdp], kinds: &[CachePolicyKind]) {
    for c in compiled {
        max(m, "mdp.states", c.kernel.n_states() as f64);
        max(m, "mdp.transitions", c.kernel.n_transitions() as f64);
        for kind in kinds.iter().filter(|k| k.uses_mdp()) {
            add(m, "mdp.solves", 1.0);
            match kind {
                CachePolicyKind::ValueIteration { gamma } => {
                    match ValueIteration::new(*gamma).solve_compiled(&c.kernel) {
                        Ok(o) => {
                            add(m, "mdp.vi_sweeps", o.sweeps as f64);
                            max(m, "mdp.vi_residual", o.residual);
                            if !o.converged {
                                add(m, "mdp.unconverged", 1.0);
                            }
                        }
                        Err(_) => add(m, "mdp.unconverged", 1.0),
                    }
                }
                CachePolicyKind::AverageReward => {
                    match RelativeValueIteration::new()
                        .tolerance(1e-10)
                        .solve_compiled(&c.kernel)
                    {
                        Ok(o) => add(m, "mdp.rvi_sweeps", o.sweeps as f64),
                        Err(_) => add(m, "mdp.unconverged", 1.0),
                    }
                }
                _ => {}
            }
        }
    }
}

/// Folds each group's headline curve (one replicate per group) exactly as
/// the experiment engine does and digests the result like `ensemble`.
fn fold(
    m: &mut Layers,
    digest: &mut Digest,
    groups: &[(String, TimeSeries)],
) -> Result<(), BoxError> {
    let watch = Stopwatch::start();
    for (label, curve) in groups {
        let mut acc = CurveAccumulator::new(label.clone());
        acc.push_curve(curve);
        let summary = acc.finish()?;
        digest.bytes(label.as_bytes());
        digest.f64(summary.final_mean());
        digest.f64(summary.final_ci_half_width());
        digest.u64(summary.replicates as u64);
        digest.u64(0);
    }
    add(m, "experiment.fold_s", watch.elapsed_seconds());
    Ok(())
}

/// Where building a policy of `kind` is booked: the MDP kinds solve, the
/// baselines only construct a rule (booked with the slot loop).
fn solve_metric(kind: CachePolicyKind) -> &'static str {
    match kind {
        CachePolicyKind::ValueIteration { .. } => "mdp.solve_vi_s",
        CachePolicyKind::AverageReward => "mdp.solve_rvi_s",
        _ => "core.slot_loop_s",
    }
}

/// One cache cell the way claim mode runs it: scenario build, compile (MDP
/// kinds), policy solve, slot loop. The cell then runs once more through
/// `run_artifact_with` into `artifact`; its extra time over solve + slot
/// loop is the persist layer's write cost.
fn cache_cell(
    m: &mut Layers,
    rep_seed: u64,
    horizon: usize,
    kind: CachePolicyKind,
    artifact: &Path,
) -> Result<(), BoxError> {
    let mut scenario = fig1a_scenario();
    scenario.seed = rep_seed;
    scenario.horizon = horizon;
    let sim = timed(m, "core.scenario_build_s", || {
        CacheSimulation::new(scenario)
    })?;
    if kind.uses_mdp() {
        timed(m, "mdp.compile_s", || sim.compiled().map(|_| ()))?;
    }
    let watch = Stopwatch::start();
    let policies = sim.build_policies(kind)?;
    let solve = watch.elapsed_seconds();
    add(m, solve_metric(kind), solve);
    let watch = Stopwatch::start();
    sim.run_with(policies, kind.label().to_string())?;
    let run = watch.elapsed_seconds();
    add(m, "core.slot_loop_s", run);
    let watch = Stopwatch::start();
    sim.run_artifact_with(kind, artifact, Compression::Deflate)?;
    add(
        m,
        "persist.write_s",
        (watch.elapsed_seconds() - solve - run).max(0.0),
    );
    Ok(())
}

/// The Fig. 1b service cells.
fn service_cells(
    m: &mut Layers,
    rep_seed: u64,
    horizon: Option<usize>,
    dir: Option<&Path>,
) -> Result<Vec<(String, TimeSeries)>, BoxError> {
    let mut groups = Vec::new();
    let mut scenario = fig1b_scenario();
    scenario.seed = rep_seed;
    if let Some(h) = horizon {
        scenario.horizon = h;
    }
    for (p, kind) in fig1b_policies().into_iter().enumerate() {
        let report = timed(m, "service.run_s", || run_service(&scenario, kind))?;
        if let Some(dir) = dir {
            let path =
                Compression::Deflate.apply_to(&dir.join(format!("cell-s0-r0-p{p}.trace.jsonl")));
            timed(m, "persist.write_s", || {
                write_service_artifact_with(&scenario, &report, &path, Compression::Deflate)
            })?;
        }
        groups.push((kind.label().to_string(), report.queue));
    }
    Ok(groups)
}

/// `fig1a-ensemble`, layer by layer (fully serial, like the workload).
fn fig1a(m: &mut Layers, rep_seed: u64) -> Result<String, BoxError> {
    executor::serialized(|| {
        let watch = Stopwatch::start();
        let mut digest = Digest::new();
        // One shared simulation per replicate, as the in-memory grid does.
        let mut scenario = fig1a_scenario();
        scenario.seed = rep_seed;
        let sim = timed(m, "core.scenario_build_s", || {
            CacheSimulation::new(scenario)
        })?;
        timed(m, "mdp.compile_s", || sim.compiled().map(|_| ()))?;
        let kinds = fig1a_policies();
        let mut groups = Vec::new();
        for kind in &kinds {
            let policies = timed(m, solve_metric(*kind), || sim.build_policies(*kind))?;
            let report = timed(m, "core.slot_loop_s", || {
                sim.run_with(policies, kind.label().to_string())
            })?;
            groups.push((kind.label().to_string(), report.cumulative_reward));
        }
        fold(m, &mut digest, &groups)?;
        let service = service_cells(m, rep_seed, None, None)?;
        fold(m, &mut digest, &service)?;
        add(m, "trace.traced_wall_s", watch.elapsed_seconds());
        solver_counters(m, sim.compiled()?, &kinds);
        Ok(digest.hex())
    })
}

/// The write side of a campaign, layer by layer: every cell computed
/// alone (as claim mode does) and written through the compressing
/// artifact writer into `dir`.
fn write_campaign(
    m: &mut Layers,
    rep_seed: u64,
    horizon: usize,
    dir: &Path,
) -> Result<(), BoxError> {
    let kinds = fig1a_policies();
    let cache_dir = dir.join("fig1a");
    let service_dir = dir.join("fig1b");
    std::fs::create_dir_all(&cache_dir)?;
    std::fs::create_dir_all(&service_dir)?;
    for (p, kind) in kinds.iter().enumerate() {
        let path =
            Compression::Deflate.apply_to(&cache_dir.join(format!("cell-s0-r0-p{p}.trace.jsonl")));
        cache_cell(m, rep_seed, horizon, *kind, &path)?;
    }
    service_cells(m, rep_seed, Some(horizon), Some(&service_dir))?;
    let mut scenario = fig1a_scenario();
    scenario.seed = rep_seed;
    solver_counters(m, CacheSimulation::new(scenario)?.compiled()?, &kinds);
    Ok(())
}

/// The read side, layer by layer: every cell artifact of a campaign
/// directory read and folded (timed as the traced wall), then verified.
fn read_campaign(m: &mut Layers, dir: &Path, scratch: &Path) -> Result<String, BoxError> {
    let watch = Stopwatch::start();
    let grids = [dir.join("fig1a"), dir.join("fig1b")];
    let digest = read_and_fold(
        m,
        &[
            (grids[0].clone(), "cache", labels(&fig1a_policies())),
            (grids[1].clone(), "service", service_labels()),
        ],
    )?;
    add(m, "trace.traced_wall_s", watch.elapsed_seconds());
    verify_dirs(m, &grids, scratch)?;
    Ok(digest)
}

/// `campaign`: the write side into `dir`, then its read side.
fn campaign(
    m: &mut Layers,
    rep_seed: u64,
    horizon: usize,
    dir: &Path,
    scratch: &Path,
) -> Result<String, BoxError> {
    executor::serialized(|| {
        let watch = Stopwatch::start();
        write_campaign(m, rep_seed, horizon, dir)?;
        let write_s = watch.elapsed_seconds();
        let digest = read_campaign(m, dir, scratch)?;
        add(m, "trace.traced_wall_s", write_s);
        Ok(digest)
    })
}

/// `campaign-resume`: the read side over the finished campaign directory
/// `dir`. The write side that produced such a directory is measured too
/// (into `scratch`, outside the traced wall), so the persist layer's write
/// and read costs come from one run.
fn resume(
    m: &mut Layers,
    rep_seed: u64,
    horizon: usize,
    dir: &Path,
    scratch: &Path,
) -> Result<String, BoxError> {
    executor::serialized(|| {
        write_campaign(m, rep_seed, horizon, &scratch.join("write"))?;
        read_campaign(m, dir, scratch)
    })
}

fn labels(kinds: &[CachePolicyKind]) -> Vec<String> {
    kinds.iter().map(|k| k.label().to_string()).collect()
}

fn service_labels() -> Vec<String> {
    fig1b_policies()
        .iter()
        .map(|k| k.label().to_string())
        .collect()
}

/// The cell artifacts of one grid directory, in policy order.
pub fn cell_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                        n.starts_with("cell-")
                            && (n.ends_with(".jsonl") || n.ends_with(".jsonl.z"))
                            && !n.ends_with(".quarantine.jsonl")
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// Reads every cell artifact (persist read layer) and folds the headline
/// channels (experiment fold layer).
fn read_and_fold(
    m: &mut Layers,
    grids: &[(PathBuf, &str, Vec<String>)],
) -> Result<String, BoxError> {
    let mut digest = Digest::new();
    for (dir, family, labels) in grids {
        let channel = headline_channel_for(family).ok_or("unknown grid family")?;
        let files = cell_files(dir);
        if files.len() != labels.len() {
            return Err(format!(
                "{}: {} cell artifacts, expected {}",
                dir.display(),
                files.len(),
                labels.len()
            )
            .into());
        }
        let mut groups = Vec::new();
        for (path, label) in files.iter().zip(labels) {
            let artifact = timed(m, "persist.read_s", || read_artifact(path))?;
            let curve = artifact
                .channel(channel)
                .ok_or("cell artifact lacks its headline channel")?
                .series
                .clone();
            groups.push((label.clone(), curve));
        }
        fold(m, &mut digest, &groups)?;
    }
    Ok(digest.hex())
}

/// `aoi-artifacts verify`: a full read, a plain re-serialization and a
/// re-read that must be bit-identical. Returns (verified, failed).
pub fn verify_artifact(path: &Path, scratch: &Path, plain_bytes: &mut u64) -> bool {
    let Ok(artifact) = read_artifact(path) else {
        return false;
    };
    let tmp = scratch.join(format!("verify-{}.jsonl", std::process::id()));
    let ok = rewrite(&artifact, &tmp).is_ok()
        && read_artifact(&tmp).is_ok_and(|reread| reread == artifact);
    *plain_bytes += std::fs::metadata(&tmp).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&tmp);
    ok
}

fn rewrite(artifact: &Artifact, path: &Path) -> Result<(), PersistError> {
    let mut writer = ArtifactWriter::create(path, &artifact.manifest)?;
    let mut ids = Vec::with_capacity(artifact.channels.len());
    for ch in &artifact.channels {
        let id = writer.channel(&ch.name, ch.mode)?;
        for p in ch.series.iter() {
            writer.sample(id, p.slot, p.value)?;
        }
        if let Some(summary) = &ch.summary {
            writer.summary(id, summary)?;
        }
        ids.push(id);
    }
    for curve in &artifact.curves {
        writer.curve_ref(
            &curve.label,
            curve.scenario,
            curve.policy,
            curve.curve.replicates,
            [
                ids[curve.bands[0]],
                ids[curve.bands[1]],
                ids[curve.bands[2]],
            ],
        )?;
    }
    writer.finish()
}

fn verify_dirs(m: &mut Layers, dirs: &[PathBuf], scratch: &Path) -> Result<(), BoxError> {
    let watch = Stopwatch::start();
    let (mut stored, mut plain) = (0u64, 0u64);
    for dir in dirs {
        for path in cell_files(dir) {
            stored += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            if !verify_artifact(&path, scratch, &mut plain) {
                return Err(format!("{} failed verification", path.display()).into());
            }
        }
    }
    add(m, "persist.verify_s", watch.elapsed_seconds());
    add(m, "persist.bytes", stored as f64);
    add(
        m,
        "persist.compress_ratio",
        plain as f64 / stored.max(1) as f64,
    );
    Ok(())
}

/// `serve-stream`, layer by layer.
fn serve(m: &mut Layers, trace_path: &Path, seed: u64) -> Result<String, BoxError> {
    let trace = timed(m, "vanet.trace_read_s", || roles::read_trace(trace_path))?;
    let windows: Vec<RequestTrace> = trace
        .iter()
        .map(|slot| RequestTrace::from_slots(vec![slot.to_vec()]))
        .collect();
    let mut engine = timed(m, "serve.engine_new_s", || {
        ServeEngine::new(roles::serve_config(seed, 0))
    })?;
    // The solver work inside `ServeEngine::new`, on its own.
    let config = roles::serve_config(seed, 0);
    let sim = timed(m, "core.scenario_build_s", || {
        CacheSimulation::new(config.scenario)
    })?;
    timed(m, "mdp.compile_s", || sim.compiled().map(|_| ()))?;
    timed(m, "mdp.solve_vi_s", || {
        sim.build_policies(config.cache_policy)
    })?;
    solver_counters(m, sim.compiled()?, &[config.cache_policy]);
    // The per-slot replay with per-call spans kept in memory.
    let watch = Stopwatch::start();
    let mut spans = Vec::with_capacity(windows.len());
    let mut digest = Digest::new();
    for window in &windows {
        let call = Stopwatch::start();
        let outcome = engine.serve(window)?;
        spans.push(call.elapsed_seconds());
        roles::refresh_digest(&mut digest, &outcome.refreshes);
    }
    add(m, "trace.traced_wall_s", watch.elapsed_seconds());
    // The same replay with no executor dispatch, then in a single call.
    let mut serial = ServeEngine::new(roles::serve_config(seed, 1))?;
    timed(m, "serve.call_serial_s", || -> Result<(), BoxError> {
        for window in &windows {
            serial.serve(window)?;
        }
        Ok(())
    })?;
    let mut bulk = ServeEngine::new(roles::serve_config(seed, 0))?;
    timed(m, "serve.call_bulk_s", || bulk.serve(&trace))?;
    Ok(digest.hex())
}

/// The `layers` child role: runs the workload's probe and reports every
/// metric it measured plus the digest of its outputs.
pub fn probe(
    workload: &str,
    rep_seed: u64,
    horizon: usize,
    dir: &Path,
    trace: &Path,
    scratch: &Path,
    seed: u64,
) -> Result<(), BoxError> {
    let mut m = Layers::new();
    util::ready_and_wait()?;
    let digest = match workload {
        "fig1a-ensemble" => fig1a(&mut m, rep_seed)?,
        "campaign" => campaign(&mut m, rep_seed, horizon, dir, scratch)?,
        "campaign-resume" => resume(&mut m, rep_seed, horizon, dir, scratch)?,
        "serve-stream" => serve(&mut m, trace, seed)?,
        other => return Err(format!("unknown workload {other}").into()),
    };
    let mut pairs: Vec<(&str, String)> = m
        .iter()
        .map(|(k, v)| (k.as_str(), format!("{v:?}")))
        .collect();
    pairs.push(("digest", digest));
    util::report_done(&pairs)
}
