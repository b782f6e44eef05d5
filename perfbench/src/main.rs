//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig1a-ensemble|campaign|campaign-resume|serve-stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every repetition runs in fresh child processes (this binary re-executed
//! in a worker role): a child sets up, reports `ready`, and starts the
//! timed work only when the harness says `go`, so set-up time, wall time
//! and peak memory all belong to the processes doing the work. After one
//! untimed warm-up repetition the harness repeats, in whole cycles over
//! the workload's inputs, until `--seconds` have passed; it reports the
//! mean wall time and the medians of set-up time and peak memory. The
//! last stdout line is one JSON object: `{"correct", "attempted",
//! "failed", "metrics"}`; with `--trace 1` the metrics are the per-layer
//! ones of `layers.rs` instead of the end-to-end ones. A failed
//! correctness check makes the exit status 1.

mod layers;
mod pins;
mod roles;
mod util;

use simkit::supervise::{self, EventKind};
use simkit::Stopwatch;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use util::{field, json_num, json_str, median, BoxError, Digest, Record, Worker};

const WORKLOADS: &[&str] = &[
    "fig1a-ensemble",
    "campaign",
    "campaign-resume",
    "serve-stream",
];

/// The end-to-end metrics every workload reports: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Replicate seeds of the grid workloads come from a pool (1..=n) whose
/// output digests are pinned in `pins.rs`. Every run makes several passes
/// over its workload's whole pool, so its figures do not depend on which
/// seeds `--seed` happened to pick; `--seed` sets the order.
/// `fig1a-ensemble`: 2 seeds, 4 passes; `campaign`: 4 seeds, 2 passes.
const ENSEMBLE_POOL: (u64, usize) = (2, 4);
const CAMPAIGN_POOL: (u64, usize) = (4, 2);
/// Slots per cell of the `campaign` workloads: long enough that writing
/// and reading artifacts is a major layer.
const CAMPAIGN_HORIZON: usize = 5000;
/// Slots of the recorded `serve-stream` trace, and its load per RSU.
const SERVE_SLOTS: usize = 5_000;
const SERVE_RATE: f64 = 4.0;
/// Timed repetitions per run of the workloads with a single input.
const MIN_REPS: usize = 8;

fn rep_seed(seed: u64, rep: usize, pool: u64) -> u64 {
    1 + seed.wrapping_add(rep as u64) % pool
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("child") => match child(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                println!("error {e}");
                ExitCode::FAILURE
            }
        },
        Some("pins") => match pins::print_table(CAMPAIGN_POOL.0, CAMPAIGN_HORIZON) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench pins: {e}");
                ExitCode::from(2)
            }
        },
        _ => match harness(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
    }
}

/// `--flag value` pairs (a flag without a value maps to `"1"`).
fn flags(args: &[String]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].trim_start_matches("--").to_string();
        match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(value) => {
                out.insert(key, value.clone());
                i += 2;
            }
            None => {
                out.insert(key, "1".to_string());
                i += 1;
            }
        }
    }
    out
}

fn flag<T: std::str::FromStr>(flags: &BTreeMap<String, String>, key: &str) -> Result<T, BoxError> {
    flags
        .get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("missing or invalid --{key}").into())
}

fn child(args: &[String]) -> Result<(), BoxError> {
    let role = args.first().ok_or("child: missing role")?;
    let f = flags(&args[1..]);
    let path = |key: &str| flag::<String>(&f, key).map(PathBuf::from);
    match role.as_str() {
        "ensemble" => roles::ensemble(flag(&f, "rep-seed")?),
        "campaign-worker" => roles::campaign_worker(
            flag(&f, "rep-seed")?,
            flag(&f, "horizon")?,
            &path("dir")?,
            &flag::<String>(&f, "worker-id")?,
        ),
        "resume" => roles::resume(flag(&f, "rep-seed")?, flag(&f, "horizon")?, &path("dir")?),
        "serve" => roles::serve(
            &path("trace")?,
            flag(&f, "seed")?,
            f.contains_key("check-bulk"),
        ),
        "layers" => layers::probe(
            &flag::<String>(&f, "workload")?,
            flag(&f, "rep-seed")?,
            flag(&f, "horizon")?,
            &path("dir")?,
            &path("trace")?,
            &path("scratch")?,
            flag(&f, "seed")?,
        ),
        other => Err(format!("unknown child role {other}").into()),
    }
}

fn child_args(role: &str, pairs: &[(&str, String)]) -> Vec<String> {
    let mut args = vec!["child".to_string(), role.to_string()];
    for (k, v) in pairs {
        args.push(format!("--{k}"));
        args.push(v.clone());
    }
    args
}

/// Starts one repetition's children (a single child bound to CPU `pin`
/// when given), waits until every one is set up, releases them together
/// and waits for every `done`. Returns (set-up seconds, wall seconds, the
/// `done` records, the still-open children).
fn run_children(
    args: &[Vec<String>],
    pin: Option<usize>,
) -> Result<(f64, f64, Vec<Record>, Vec<Worker>), BoxError> {
    let setup = Stopwatch::start();
    let mut workers = args
        .iter()
        .map(|a| Worker::launch(a, pin))
        .collect::<Result<Vec<_>, _>>()?;
    for w in &mut workers {
        w.expect("ready")?;
    }
    let setup_s = setup.elapsed_seconds();
    for w in &mut workers {
        w.go()?;
    }
    let wall = Stopwatch::start();
    let mut records = Vec::with_capacity(workers.len());
    for w in &mut workers {
        records.push(util::parse_record(&w.expect("done")?));
    }
    Ok((setup_s, wall.elapsed_seconds(), records, workers))
}

fn finish(workers: Vec<Worker>) -> Result<(), BoxError> {
    workers.into_iter().try_for_each(Worker::finish)
}

/// One timed repetition.
#[derive(Default)]
struct Rep {
    wall_s: f64,
    setup_s: f64,
    /// Work items finished: grid cells, or requests served.
    work: f64,
    peak_rss_kb: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digest: String,
    extra: BTreeMap<String, f64>,
    /// Which input of the workload's pool this repetition ran.
    input: u64,
}

impl Rep {
    fn check(&mut self, ok: bool, problem: String) {
        if !ok {
            self.failed += 1;
            self.problems.push(problem);
        }
    }
}

/// Everything the run observed.
#[derive(Default)]
struct Tally {
    timed: Vec<Rep>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, rep: Result<Rep, BoxError>, timed: bool) -> Option<&Rep> {
        match rep {
            Ok(rep) => {
                self.attempted += rep.attempted;
                self.failed += rep.failed;
                self.problems.extend(rep.problems.iter().cloned());
                if timed {
                    self.timed.push(rep);
                    self.timed.last()
                } else {
                    None
                }
            }
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.problems.push(e.to_string());
                None
            }
        }
    }
}

/// One untimed warm-up repetition (index 0), then timed ones in whole
/// cycles of `cycle` until `seconds` have passed and at least `min_reps`
/// ran. Repetition `i` of a pool workload uses pool entry `i mod cycle`.
/// With `pinned`, each cycle (pass) runs on the next CPU, so best-of-passes
/// does not depend on which core the host happens to slow down.
fn measure(
    seconds: f64,
    cycle: usize,
    min_reps: usize,
    pinned: bool,
    mut rep: impl FnMut(usize, Option<usize>) -> Result<Rep, BoxError>,
) -> Tally {
    let pin = |i: usize| pinned.then_some(i / cycle);
    let mut tally = Tally::default();
    tally.absorb(rep(0, pin(0)), false);
    let watch = Stopwatch::start();
    let mut i = 1;
    while i <= min_reps || watch.elapsed_seconds() < seconds || (i - 1) % cycle != 0 {
        tally.absorb(rep(i, pin(i)), true);
        i += 1;
        // A workload whose repetitions cannot run at all stops early.
        if tally.timed.is_empty() && i > min_reps {
            break;
        }
    }
    tally
}

struct Ctx {
    work: PathBuf,
    scratch: PathBuf,
    seed: u64,
}

// --- the workloads -----------------------------------------------------------

fn ensemble_rep(rs: u64, pin: Option<usize>) -> Result<Rep, BoxError> {
    let args = child_args("ensemble", &[("rep-seed", rs.to_string())]);
    let (setup_s, wall_s, records, workers) = run_children(&[args], pin)?;
    finish(workers)?;
    let r = &records[0];
    let cells: u64 = field(r, "cells")?;
    let mut rep = Rep {
        wall_s,
        setup_s,
        work: cells as f64,
        peak_rss_kb: field(r, "peak_rss_kb")?,
        attempted: cells,
        digest: field(r, "digest")?,
        input: rs,
        ..Rep::default()
    };
    rep.check(
        field::<u8>(r, "quality")? == 1,
        format!("replicate {rs}: mdp-vi/mdp-avg do not beat myopic and never"),
    );
    let want = pins::ensemble(rs);
    rep.check(
        rep.digest == want,
        format!(
            "replicate {rs}: ensemble digest {} != pinned {want}",
            rep.digest
        ),
    );
    Ok(rep)
}

/// Two claim-mode workers on a fresh `dir`, then the untimed checks of
/// `aoi-artifacts health` (and with `verify`, of `aoi-artifacts verify`)
/// on what they left behind. Worker ids (which seed each worker's backoff
/// jitter) derive from `seed`.
fn campaign_rep(
    rs: u64,
    seed: u64,
    dir: &Path,
    scratch: &Path,
    verify: bool,
) -> Result<Rep, BoxError> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let args: Vec<Vec<String>> = ["a", "b"]
        .iter()
        .map(|tag| {
            let id = format!("w{seed}{tag}");
            child_args(
                "campaign-worker",
                &[
                    ("rep-seed", rs.to_string()),
                    ("horizon", CAMPAIGN_HORIZON.to_string()),
                    ("dir", dir.display().to_string()),
                    ("worker-id", id.to_string()),
                ],
            )
        })
        .collect();
    let (setup_s, wall_s, records, workers) = run_children(&args, None)?;
    finish(workers)?;
    let cells: u64 = field(&records[0], "cells")?;
    let mut rep = Rep {
        wall_s,
        setup_s,
        work: cells as f64,
        attempted: cells,
        digest: field(&records[0], "digest")?,
        input: rs,
        ..Rep::default()
    };
    for r in &records {
        rep.peak_rss_kb = rep.peak_rss_kb.max(field(r, "peak_rss_kb")?);
        rep.failed += field::<u64>(r, "failed")?;
        let digest: String = field(r, "digest")?;
        rep.check(
            digest == rep.digest,
            format!(
                "replicate {rs}: workers folded different ensembles ({digest} vs {})",
                rep.digest
            ),
        );
    }
    let want = pins::campaign(rs);
    rep.check(
        rep.digest == want,
        format!(
            "replicate {rs}: campaign digest {} != pinned {want}",
            rep.digest
        ),
    );
    let grids = [dir.join("fig1a"), dir.join("fig1b")];
    // `aoi-artifacts verify`: every artifact re-reads bit-identically.
    let mut plain = 0u64;
    let to_verify = if verify {
        grids.iter().flat_map(|g| artifacts(g)).collect()
    } else {
        Vec::new()
    };
    for path in to_verify {
        rep.attempted += 1;
        let ok = layers::verify_artifact(&path, scratch, &mut plain);
        rep.check(ok, format!("{} failed verification", path.display()));
    }
    // No lease may outlive a finished campaign.
    let leases = grids
        .iter()
        .flat_map(|g| files_with_suffix(g, ".lease"))
        .count();
    rep.check(leases == 0, format!("{leases} lease file(s) left behind"));
    journal_counters(&grids, &mut rep);
    Ok(rep)
}

/// `aoi-artifacts health` over a campaign's grid directories: every
/// journal parses and no cell is quarantined. Adds the lease and
/// supervision counters of the journals to `rep.extra`.
fn journal_counters(grids: &[PathBuf], rep: &mut Rep) {
    let mut claims: BTreeMap<String, f64> = BTreeMap::new();
    for path in grids.iter().flat_map(|g| files_with_suffix(g, ".jsonl")) {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        rep.check(
            !supervise::is_quarantine_name(&name),
            format!("quarantined: {name}"),
        );
        if !supervise::is_journal_name(&name) {
            continue;
        }
        match supervise::read_journal(&path) {
            Ok(log) => {
                let worker = claims.entry(log.worker.clone()).or_insert(0.0);
                for event in &log.events {
                    let (key, v) = match event.kind {
                        EventKind::Claim => ("lease.claims", 1.0),
                        EventKind::Steal => ("lease.steals", 1.0),
                        EventKind::Retry => ("supervise.retries", 1.0),
                        EventKind::Backoff => (
                            "supervise.backoff_ms",
                            event.detail.trim_end_matches(" ms").parse().unwrap_or(0.0),
                        ),
                        _ => continue,
                    };
                    if event.kind == EventKind::Claim {
                        *worker += 1.0;
                    }
                    *rep.extra.entry(key.to_string()).or_insert(0.0) += v;
                }
            }
            Err(e) => rep.check(false, format!("{name}: unreadable journal: {e}")),
        }
    }
    let most = claims.values().copied().fold(0.0, f64::max);
    let least = claims.values().copied().fold(f64::INFINITY, f64::min);
    rep.extra.insert(
        "campaign.claim_skew".to_string(),
        most / least.clamp(1.0, f64::MAX),
    );
}

/// A finished campaign directory for `rs`, built once per checkout and
/// renamed into place only after it passed every check.
fn resume_fixture(ctx: &Ctx, rs: u64) -> Result<PathBuf, BoxError> {
    let dir = ctx.work.join(format!("resume-r{rs}-h{CAMPAIGN_HORIZON}"));
    if dir.is_dir() {
        return Ok(dir);
    }
    let tmp = ctx.scratch.join("resume-fixture");
    let rep = campaign_rep(rs, ctx.seed, &tmp, &ctx.scratch, true)?;
    if !rep.problems.is_empty() {
        return Err(format!(
            "campaign-resume input failed its checks: {}",
            rep.problems.join("; ")
        )
        .into());
    }
    std::fs::rename(&tmp, &dir)?;
    Ok(dir)
}

fn resume_rep(rs: u64, dir: &Path, pin: Option<usize>) -> Result<Rep, BoxError> {
    let args = child_args(
        "resume",
        &[
            ("rep-seed", rs.to_string()),
            ("horizon", CAMPAIGN_HORIZON.to_string()),
            ("dir", dir.display().to_string()),
        ],
    );
    let (setup_s, wall_s, records, workers) = run_children(&[args], pin)?;
    finish(workers)?;
    let r = &records[0];
    let cells: u64 = field(r, "cells")?;
    let skipped: u64 = field(r, "skipped")?;
    let mut rep = Rep {
        wall_s,
        setup_s,
        work: cells as f64,
        peak_rss_kb: field(r, "peak_rss_kb")?,
        attempted: cells,
        failed: field(r, "failed")?,
        digest: field(r, "digest")?,
        ..Rep::default()
    };
    rep.check(
        skipped == cells,
        format!("resume skipped {skipped} of {cells} cells"),
    );
    let want = pins::campaign(rs);
    rep.check(
        rep.digest == want,
        format!(
            "replicate {rs}: resumed digest {} != pinned {want}",
            rep.digest
        ),
    );
    Ok(rep)
}

/// The recorded request trace for `seed`, generated once per checkout.
fn serve_fixture(ctx: &Ctx) -> Result<PathBuf, BoxError> {
    let path = ctx
        .work
        .join(format!("serve-s{}-n{SERVE_SLOTS}.trace", ctx.seed));
    if !path.is_file() {
        let trace = roles::generate_trace(ctx.seed, SERVE_SLOTS, SERVE_RATE)?;
        roles::write_trace(&trace, &path)?;
    }
    Ok(path)
}

/// One closed-loop replay; `reference` is the refresh-log digest every
/// replay must reproduce (`None` on the first, which instead checks
/// itself against a one-call replay and becomes the reference).
fn serve_rep(trace: &Path, seed: u64, reference: &mut Option<String>) -> Result<Rep, BoxError> {
    let check_bulk = reference.is_none();
    let mut args = child_args(
        "serve",
        &[
            ("trace", trace.display().to_string()),
            ("seed", seed.to_string()),
        ],
    );
    if check_bulk {
        args.push("--check-bulk".to_string());
    }
    let (setup_s, wall_s, records, mut workers) = run_children(&[args], None)?;
    let bulk = if check_bulk {
        Some(util::parse_record(&workers[0].expect("bulk")?))
    } else {
        None
    };
    finish(workers)?;
    let r = &records[0];
    let calls: u64 = field(r, "calls")?;
    let refreshes: u64 = field(r, "refreshes")?;
    let expected: u64 = field(r, "expected_refreshes")?;
    let mut rep = Rep {
        wall_s,
        setup_s,
        work: field(r, "requests")?,
        peak_rss_kb: field(r, "peak_rss_kb")?,
        attempted: calls,
        failed: field(r, "failed")?,
        digest: field(r, "digest")?,
        ..Rep::default()
    };
    for key in ["p50_ms", "p99_ms", "fresh_rate"] {
        rep.extra.insert(key.to_string(), field(r, key)?);
    }
    rep.check(
        refreshes == expected,
        format!("{refreshes} refreshes, expected n_rsus x slots = {expected}"),
    );
    if let Some(bulk) = bulk {
        let one_call: String = field(&bulk, "digest")?;
        rep.check(
            one_call == rep.digest,
            format!(
                "per-slot refresh log {} != one-call replay {one_call}",
                rep.digest
            ),
        );
        *reference = Some(rep.digest.clone());
    } else if let Some(want) = reference.as_deref() {
        rep.check(
            rep.digest == want,
            format!("refresh log {} != first replay {want}", rep.digest),
        );
    }
    Ok(rep)
}

// --- artifact-directory helpers ----------------------------------------------

fn files_with_suffix(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.to_string_lossy().ends_with(suffix))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// What `aoi-artifacts verify DIR` checks: every `.jsonl` / `.jsonl.z`
/// that is not a health journal or quarantine marker.
fn artifacts(dir: &Path) -> Vec<PathBuf> {
    let mut files = files_with_suffix(dir, ".jsonl");
    files.extend(files_with_suffix(dir, ".jsonl.z"));
    files.retain(|p| {
        let name = p
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        !supervise::is_journal_name(&name) && !supervise::is_quarantine_name(&name)
    });
    files.sort();
    files
}

/// Content digest of a campaign directory's cell artifacts.
fn cells_digest(dir: &Path) -> Result<String, BoxError> {
    let mut digest = Digest::new();
    for grid in ["fig1a", "fig1b"] {
        for path in layers::cell_files(&dir.join(grid)) {
            digest.bytes(path.to_string_lossy().as_bytes());
            digest.bytes(&std::fs::read(&path)?);
        }
    }
    Ok(digest.hex())
}

// --- the harness -------------------------------------------------------------

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, BoxError> {
    let f = flags(args);
    let workload: String = flag(&f, "workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        )
        .into());
    }
    Ok(Opts {
        workload,
        seed: flag(&f, "seed")?,
        seconds: flag(&f, "seconds")?,
        trace: flag::<u8>(&f, "trace")? == 1,
    })
}

/// Where fixtures and run scratch live: beside the build output.
fn work_dir() -> Result<PathBuf, BoxError> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the build directory")?;
    Ok(target.join("perfbench-work"))
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn harness(args: &[String]) -> Result<bool, BoxError> {
    let opts = parse_opts(args)?;
    let work = work_dir()?;
    let scratch = Scratch(work.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)?;
    let ctx = Ctx {
        work,
        scratch: scratch.0.clone(),
        seed: opts.seed,
    };
    println!("{}", environment(&opts));
    let (tally, metrics) = if opts.trace {
        traced(&opts, &ctx)?
    } else {
        let tally = untraced(&opts, &ctx)?;
        let metrics = end_to_end(&tally);
        (tally, metrics)
    };
    for problem in &tally.problems {
        println!("# check failed: {problem}");
    }
    let correct = tally.failed == 0 && tally.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn untraced(opts: &Opts, ctx: &Ctx) -> Result<Tally, BoxError> {
    let seed = opts.seed;
    Ok(match opts.workload.as_str() {
        "fig1a-ensemble" => {
            let (pool, passes) = ENSEMBLE_POOL;
            measure(
                opts.seconds,
                pool as usize,
                passes * pool as usize,
                true,
                |i, pin| ensemble_rep(rep_seed(seed, i, pool), pin),
            )
        }
        "campaign" => {
            let dir = ctx.scratch.join("campaign");
            let (pool, passes) = CAMPAIGN_POOL;
            measure(
                opts.seconds,
                pool as usize,
                passes * pool as usize,
                false,
                |i, _| campaign_rep(rep_seed(seed, i, pool), seed, &dir, &ctx.scratch, i == 0),
            )
        }
        "campaign-resume" => {
            let rs = rep_seed(seed, 0, CAMPAIGN_POOL.0);
            let dir = resume_fixture(ctx, rs)?;
            let before = cells_digest(&dir)?;
            let mut tally = measure(opts.seconds, 1, MIN_REPS, true, |_, pin| {
                resume_rep(rs, &dir, pin)
            });
            let after = cells_digest(&dir)?;
            tally.attempted += 1;
            if before != after {
                tally.failed += 1;
                tally
                    .problems
                    .push("resume runs changed the input cell files".to_string());
            }
            tally
        }
        _ => {
            let trace = serve_fixture(ctx)?;
            let mut reference = None;
            measure(opts.seconds, 1, MIN_REPS, false, |_, _| {
                serve_rep(&trace, seed, &mut reference)
            })
        }
    })
}

fn end_to_end(tally: &Tally) -> Vec<(&'static str, &'static str, f64)> {
    let of = |f: fn(&Rep) -> f64| tally.timed.iter().map(f).collect::<Vec<f64>>();
    for (i, r) in tally.timed.iter().enumerate() {
        let extra: Vec<String> = r.extra.iter().map(|(k, v)| format!("{k} {v:.4}")).collect();
        println!(
            "# rep {i}: input {} wall_s {:.4} setup_s {:.5} work {} peak_rss_mb {:.1} {}",
            r.input,
            r.wall_s,
            r.setup_s,
            r.work,
            r.peak_rss_kb / 1024.0,
            extra.join(" ")
        );
    }
    // Best of the passes over each input (contention on a shared host only
    // ever slows a repetition down), then the mean over the inputs.
    let mut best: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for r in &tally.timed {
        let slot = best.entry(r.input).or_insert((f64::INFINITY, r.work));
        if r.wall_s < slot.0 {
            *slot = (r.wall_s, r.work);
        }
    }
    let busy: f64 = best.values().map(|b| b.0).sum();
    let work: f64 = best.values().map(|b| b.1).sum();
    let values = [
        busy / best.len().max(1) as f64,
        median(&of(|r| r.setup_s)),
        work / busy.max(f64::MIN_POSITIVE),
        median(&of(|r| r.peak_rss_kb)) / 1024.0,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// The traced run: one untimed repetition for reference and the layer
/// probe, whose spans come from calls into each layer's public API.
fn traced(
    opts: &Opts,
    ctx: &Ctx,
) -> Result<(Tally, Vec<(&'static str, &'static str, f64)>), BoxError> {
    let pool = match opts.workload.as_str() {
        "fig1a-ensemble" => ENSEMBLE_POOL.0,
        _ => CAMPAIGN_POOL.0,
    };
    let rs = rep_seed(opts.seed, 0, pool);
    let mut tally = Tally::default();
    let mut dir = ctx.scratch.join("probe");
    let mut trace = ctx.scratch.clone();
    let (rep, want) = match opts.workload.as_str() {
        "fig1a-ensemble" => (ensemble_rep(rs, None), pins::ensemble(rs).to_string()),
        "campaign" => (
            campaign_rep(
                rs,
                opts.seed,
                &ctx.scratch.join("campaign"),
                &ctx.scratch,
                false,
            ),
            pins::campaign(rs).to_string(),
        ),
        "campaign-resume" => {
            dir = resume_fixture(ctx, rs)?;
            // The input campaign's journals give the lease and supervision
            // counters of the campaign that wrote it.
            let rep = resume_rep(rs, &dir, None).map(|mut rep| {
                journal_counters(&[dir.join("fig1a"), dir.join("fig1b")], &mut rep);
                rep
            });
            (rep, pins::campaign(rs).to_string())
        }
        _ => {
            trace = serve_fixture(ctx)?;
            let rep = serve_rep(&trace, opts.seed, &mut None);
            let digest = rep.as_ref().map(|r| r.digest.clone()).unwrap_or_default();
            (rep, digest)
        }
    };
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    if let Some(rep) = tally.absorb(rep, true) {
        m.insert("trace.untraced_wall_s".to_string(), rep.wall_s);
        for (k, v) in &rep.extra {
            let name = match k.as_str() {
                "p50_ms" => "serve.window_p50_ms",
                "p99_ms" => "serve.window_p99_ms",
                "fresh_rate" => "serve.fresh_rate",
                other => other,
            };
            m.insert(name.to_string(), *v);
        }
    }
    let args = child_args(
        "layers",
        &[
            ("workload", opts.workload.clone()),
            ("rep-seed", rs.to_string()),
            ("horizon", CAMPAIGN_HORIZON.to_string()),
            ("dir", dir.display().to_string()),
            ("trace", trace.display().to_string()),
            ("scratch", ctx.scratch.display().to_string()),
            ("seed", opts.seed.to_string()),
        ],
    );
    let probe = run_children(&[args], None).and_then(|(_, _, records, workers)| {
        finish(workers)?;
        Ok(records.into_iter().next().unwrap_or_default())
    });
    tally.attempted += 1;
    match probe {
        Ok(record) => {
            for (k, v) in &record {
                if let Ok(v) = v.parse::<f64>() {
                    m.insert(k.clone(), v);
                }
            }
            let digest = record.get("digest").cloned().unwrap_or_default();
            if digest != want {
                tally.failed += 1;
                tally
                    .problems
                    .push(format!("layer probe digest {digest} != {want}"));
            }
        }
        Err(e) => {
            tally.failed += 1;
            tally.problems.push(format!("layer probe: {e}"));
        }
    }
    let unconverged = m.get("mdp.unconverged").copied().unwrap_or(0.0);
    if unconverged > 0.0 {
        tally.failed += 1;
        tally
            .problems
            .push(format!("{unconverged} MDP solve(s) did not converge"));
    }
    let traced_wall = m.get("trace.traced_wall_s").copied().unwrap_or(0.0);
    if matches!(opts.workload.as_str(), "fig1a-ensemble" | "campaign") && traced_wall > 0.0 {
        let solver: f64 = ["mdp.compile_s", "mdp.solve_vi_s", "mdp.solve_rvi_s"]
            .iter()
            .map(|k| m.get(*k).copied().unwrap_or(0.0))
            .sum();
        m.insert("mdp.wall_share".to_string(), solver / traced_wall);
    }
    for &(name, unit, _, moves) in layers::LAYER_METRICS {
        let v = m.get(name).copied().unwrap_or(0.0);
        println!("# {name:24} {v:>14.6} {unit:6} moves {moves}");
    }
    let metrics = layers::LAYER_METRICS
        .iter()
        .map(|&(name, unit, _, _)| (name, unit, m.get(name).copied().unwrap_or(0.0)))
        .collect();
    Ok((tally, metrics))
}

/// The run's context line: host, load, code version and build features.
fn environment(opts: &Opts) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default();
    // Only a checkout that is itself a git work tree names a commit; git is
    // not asked to search the directories above it.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .flatten()
        .unwrap_or_else(|| "none".to_string());
    format!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"loadavg\": {}, \"commit\": {}, \"source_digest\": {}, \"features\": \"parallel\"}}}}",
        json_str(&opts.workload),
        opts.seed,
        opts.seconds,
        opts.trace,
        json_str(&loadavg),
        json_str(&commit),
        json_str(&source_digest()),
    )
}

/// Digest of the sources the benchmark builds from, so a result names its
/// code even in a checkout without version control.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut digest = Digest::new();
    for path in files {
        if let Ok(bytes) = std::fs::read(&path) {
            digest.bytes(path.to_string_lossy().as_bytes());
            digest.bytes(&bytes);
        }
    }
    digest.hex()
}
