//! `aoi-artifacts` — offline toolbox for `simkit::persist` run artifacts.
//!
//! Every `--out` directory the experiment binaries produce is a set of
//! self-describing JSONL artifacts (plain or compressed — readers detect
//! the encoding from the file's first bytes). This tool works on those
//! files **without re-running anything**:
//!
//! * `inspect PATH...` — manifest, channel and footer summary per artifact;
//! * `render DIR` — re-create the Fig. 1a / Fig. 1b style plots offline
//!   from the artifacts under `DIR`;
//! * `verify PATH... [--config-hash HEX]` — full structural check (intact
//!   footer / compressed end marker and checksum), optional config-hash
//!   match, and a **re-read bit-identity** check: the artifact is
//!   re-serialized and read back, and both in-memory forms must be equal
//!   (this exercises the shortest-round-trip float encoding end to end);
//! * `diff DIR_A DIR_B` — compare two artifact directories record by
//!   record (pairing `x.jsonl` with `x.jsonl.z`, so a compressed and a
//!   plain run of the same grid diff as equal);
//! * `health DIR` — campaign post-mortem from the supervision telemetry
//!   under `DIR`: folds every worker's `events-*.jsonl` health journal
//!   into a per-worker event-count table (claims, steals, retries,
//!   backoffs, quarantines, lost heartbeats) and lists every
//!   `cell-*.quarantine.jsonl` marker with its worker, attempt count and
//!   failure message — exiting 1 when any cell is quarantined, so
//!   orchestration can gate on a degraded campaign;
//! * `merge OUT_DIR SRC_DIR...` — fuse the partial artifact directories of
//!   a distributed campaign into one: every **verified** cell artifact is
//!   copied into `OUT_DIR` (conflicts between sources are resolved by the
//!   rule *verified wins*; two verified copies must be identical, and a
//!   config-hash or seed mismatch is an error), then every `(scenario,
//!   policy)` ensemble artifact is **recomputed from the merged cells**
//!   through the engine's own [`EnsembleFold`], so it holds the bytes the
//!   experiment engine writes.
//!
//! `verify`, `diff` and `merge` exit non-zero on any
//! failure/difference/conflict, so CI can assert round trips, resume
//! bit-identity and campaign merges end to end.
//!
//! ```sh
//! cargo run --release -p aoi-bench --bin aoi-artifacts -- inspect out/fig1a
//! cargo run --release -p aoi-bench --bin aoi-artifacts -- render out
//! cargo run --release -p aoi-bench --bin aoi-artifacts -- verify out --config-hash 1a2b…
//! cargo run --release -p aoi-bench --bin aoi-artifacts -- diff out-cold out-resumed
//! cargo run --release -p aoi-bench --bin aoi-artifacts -- health out
//! cargo run --release -p aoi-bench --bin aoi-artifacts -- merge out out-worker1 out-worker2
//! ```

use aoi_cache::persist::{read_artifact, Artifact, ArtifactKind, ArtifactWriter, PersistError};
use aoi_cache::{headline_channel_for, Compression, EnsembleFold, ExperimentPlan, RecordingMode};
use simkit::plot::AsciiPlot;
use simkit::supervise::{self, EventKind};
use simkit::table::{fmt_f64, Table};
use simkit::TimeSeries;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "aoi-artifacts — offline toolbox for simkit::persist run artifacts

Usage:
  aoi-artifacts inspect PATH...                 manifest/channel/footer summary
  aoi-artifacts render DIR                      re-create figure plots offline
  aoi-artifacts verify PATH... [--config-hash HEX]
                                                footer + hash + re-read bit-identity
  aoi-artifacts diff DIR_A DIR_B                compare two artifact directories
  aoi-artifacts health DIR                      campaign post-mortem: per-worker
                                                event counts from the health
                                                journals plus every quarantined
                                                cell's marker
  aoi-artifacts merge OUT_DIR SRC_DIR...        fuse partial campaign directories
                                                (verified cells win; ensembles
                                                recomputed from the merged cells)

PATH may be an artifact file or a directory (searched recursively for
*.jsonl / *.jsonl.z; health journals and quarantine markers are
telemetry, not artifacts, and are skipped). verify, diff and merge exit
1 on failure/difference/conflict; health exits 1 when any cell is
quarantined.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("health") => cmd_health(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!(
            "aoi-artifacts: unknown subcommand '{other}'\n\n{USAGE}"
        )),
        None => Err(format!(
            "aoi-artifacts: a subcommand is required\n\n{USAGE}"
        )),
    };
    match result {
        Ok(clean) if clean => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Expands each argument into artifact files: a file stands for itself, a
/// directory for every `*.jsonl` / `*.jsonl.z` under it (recursively),
/// sorted for deterministic output.
fn discover(paths: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for arg in paths {
        let path = PathBuf::from(arg);
        if path.is_dir() {
            walk(&path, is_artifact_name, &mut files)?;
        } else if path.is_file() {
            files.push(path);
        } else {
            return Err(format!("no such file or directory: {arg}"));
        }
    }
    files.sort();
    if files.is_empty() {
        return Err("no artifact files found".to_string());
    }
    Ok(files)
}

/// Collects every file under `dir` (recursively) whose name `keep`
/// accepts.
fn walk(dir: &Path, keep: fn(&str) -> bool, into: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            walk(&path, keep, into)?;
        } else if keep(path.file_name().and_then(|n| n.to_str()).unwrap_or("")) {
            into.push(path);
        }
    }
    Ok(())
}

fn is_artifact_name(name: &str) -> bool {
    // Health journals and quarantine markers also end in .jsonl, but they
    // are worker telemetry (see `health`), not persist artifacts.
    (name.ends_with(".jsonl") || name.ends_with(".jsonl.z"))
        && !supervise::is_journal_name(name)
        && !supervise::is_quarantine_name(name)
}

/// The encoding-independent name diffs pair files by (`.z` stripped).
fn logical_name(path: &Path) -> String {
    let name = path.to_string_lossy();
    name.strip_suffix(".z").unwrap_or(&name).to_string()
}

fn encoding_of(path: &Path) -> &'static str {
    let mut prefix = [0u8; 4];
    let read = std::fs::File::open(path)
        .and_then(|mut f| std::io::Read::read(&mut f, &mut prefix))
        .unwrap_or(0);
    if aoi_cache::persist::compress::is_compressed(&prefix[..read]) {
        "compressed"
    } else {
        "plain"
    }
}

// --- inspect ---------------------------------------------------------------

fn cmd_inspect(args: &[String]) -> Result<bool, String> {
    if args.is_empty() {
        return Err("inspect: needs at least one PATH".to_string());
    }
    for path in discover(args)? {
        let artifact = read_artifact(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let samples: usize = artifact.channels.iter().map(|c| c.series.len()).sum();
        let m = &artifact.manifest;
        println!(
            "{} ({} bytes, {})",
            path.display(),
            bytes,
            encoding_of(&path)
        );
        println!(
            "  {:?} artifact | scenario {} | policy {} | seed {} | recording {:?} | config {:016x}",
            m.artifact,
            m.scenario,
            m.policy,
            m.seed.map_or("-".to_string(), |s| s.to_string()),
            m.recording,
            m.config_hash
        );
        println!(
            "  {} channels, {samples} samples, {} curves",
            artifact.channels.len(),
            artifact.curves.len()
        );
        let mut table = Table::new(["channel", "mode", "samples", "mean", "min", "max"]);
        for ch in &artifact.channels {
            let (mean, min, max) = match &ch.summary {
                Some(s) => (
                    fmt_f64(s.mean),
                    s.min.map_or("n/a".into(), fmt_f64),
                    s.max.map_or("n/a".into(), fmt_f64),
                ),
                None => ("-".into(), "-".into(), "-".into()),
            };
            table.row([
                ch.name.clone(),
                format!("{:?}", ch.mode),
                ch.series.len().to_string(),
                mean,
                min,
                max,
            ]);
        }
        println!("{}", indent(&table.render()));
        for curve in &artifact.curves {
            println!(
                "  curve {} (s{} p{}): {} replicates, {} slots, final mean {}",
                curve.label,
                curve.scenario,
                curve.policy,
                curve.curve.replicates,
                curve.curve.mean.len(),
                fmt_f64(curve.curve.final_mean())
            );
        }
        println!();
    }
    Ok(true)
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

// --- render ----------------------------------------------------------------

fn cmd_render(args: &[String]) -> Result<bool, String> {
    let [dir] = args else {
        return Err("render: needs exactly one DIR".to_string());
    };
    let mut ensembles: Vec<(PathBuf, Artifact)> = Vec::new();
    let mut traces: Vec<(PathBuf, Artifact)> = Vec::new();
    for path in discover(std::slice::from_ref(dir))? {
        let artifact = read_artifact(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        match artifact.manifest.artifact {
            ArtifactKind::Ensemble => ensembles.push((path, artifact)),
            ArtifactKind::Trace => traces.push((path, artifact)),
        }
    }

    // Ensemble artifacts: one mean-curve plot per directory, every
    // policy's curve as a series — the offline twin of the ensemble bin.
    let mut by_dir: BTreeMap<PathBuf, Vec<&Artifact>> = BTreeMap::new();
    for (path, artifact) in &ensembles {
        let parent = path.parent().unwrap_or(Path::new(".")).to_path_buf();
        by_dir.entry(parent).or_default().push(artifact);
    }
    for (parent, group) in by_dir {
        let mut table = Table::new(["policy", "final mean", "± 95% CI", "replicates"]);
        let mut plot = AsciiPlot::new(format!("ensemble means — {}", parent.display()), 72, 16)
            .x_label("slot");
        let mut series = Vec::new();
        for artifact in &group {
            for curve in &artifact.curves {
                table.row([
                    curve.label.clone(),
                    fmt_f64(curve.curve.final_mean()),
                    fmt_f64(curve.curve.final_ci_half_width()),
                    curve.curve.replicates.to_string(),
                ]);
                series.push(aoi_bench::rename(
                    curve.curve.mean.downsample(120),
                    curve.label.clone(),
                ));
            }
        }
        for s in &series {
            plot = plot.series(s);
        }
        println!("{}", table.render());
        println!("{}", plot.render());
    }

    // Service traces (Fig. 1b): one latency plot per directory, the queue
    // channel of every policy's artifact as a series.
    let mut service_dirs: BTreeMap<PathBuf, Vec<&Artifact>> = BTreeMap::new();
    for (path, artifact) in &traces {
        if artifact.manifest.scenario == "service" {
            let parent = path.parent().unwrap_or(Path::new(".")).to_path_buf();
            service_dirs.entry(parent).or_default().push(artifact);
        }
    }
    for (parent, group) in service_dirs {
        let mut plot = AsciiPlot::new(format!("UV latency Q[t] — {}", parent.display()), 72, 14)
            .y_label("queue length");
        let series: Vec<TimeSeries> = group
            .iter()
            .filter_map(|a| {
                let ch = a.channel("queue")?;
                Some(aoi_bench::rename(
                    ch.series.downsample(72),
                    a.manifest.policy.clone(),
                ))
            })
            .collect();
        for s in &series {
            plot = plot.series(s);
        }
        println!("{}", plot.render());
    }

    // Cache/joint traces (Fig. 1a): per artifact, the AoI sawtooth of the
    // two liveliest channels plus the cumulative reward curve.
    for (path, artifact) in &traces {
        if artifact.manifest.scenario == "service" {
            continue;
        }
        render_trace(path, artifact);
    }
    Ok(true)
}

/// Renders one cache/joint trace artifact: AoI/backlog window of the two
/// largest-amplitude channels (the visually informative sawtooths, as the
/// fig1a bin selects) and the cumulative curve.
fn render_trace(path: &Path, artifact: &Artifact) {
    let m = &artifact.manifest;
    println!(
        "{} — scenario {}, policy {}, seed {}",
        path.display(),
        m.scenario,
        m.policy,
        m.seed.map_or("-".to_string(), |s| s.to_string())
    );
    let cumulative = artifact
        .channels
        .iter()
        .find(|c| c.name.contains("(cumulative)"));
    let mut lively: Vec<(&str, &TimeSeries, f64)> = artifact
        .channels
        .iter()
        .filter(|c| !c.name.contains("reward") && !c.series.is_empty())
        .map(|c| {
            let max = c.series.max().unwrap_or(0.0);
            let min = c.series.min().unwrap_or(0.0);
            (c.name.as_str(), &c.series, max - min)
        })
        .collect();
    lively.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite amplitudes"));
    if !lively.is_empty() {
        let horizon = lively[0].1.len();
        let (warmup, window) = aoi_bench::figure_window(horizon);
        let mut plot = AsciiPlot::new(
            format!("per-slot traces, slots {warmup}..{}", warmup + window),
            72,
            12,
        );
        let series: Vec<TimeSeries> = lively
            .iter()
            .take(2)
            .map(|(name, s, _)| aoi_bench::window_of(s, warmup, window, *name))
            .collect();
        for s in &series {
            plot = plot.series(s);
        }
        println!("{}", plot.render());
    }
    if let Some(ch) = cumulative {
        let plot = AsciiPlot::new("cumulative reward", 72, 10)
            .series(&aoi_bench::rename(
                ch.series.downsample(72),
                ch.name.clone(),
            ))
            .y_label("reward");
        println!("{}", plot.render());
    }
}

// --- verify ----------------------------------------------------------------

fn cmd_verify(args: &[String]) -> Result<bool, String> {
    let mut paths: Vec<String> = Vec::new();
    let mut want_hash: Option<u64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--config-hash" {
            let hex = iter
                .next()
                .ok_or_else(|| "verify: --config-hash needs a hex value".to_string())?;
            want_hash = Some(
                u64::from_str_radix(hex, 16)
                    .map_err(|_| format!("verify: invalid config hash '{hex}'"))?,
            );
        } else {
            paths.push(arg.clone());
        }
    }
    if paths.is_empty() {
        return Err("verify: needs at least one PATH".to_string());
    }
    let mut failures = 0usize;
    let files = discover(&paths)?;
    for (i, path) in files.iter().enumerate() {
        match verify_one(path, want_hash, i) {
            Ok(summary) => println!("OK   {}: {summary}", path.display()),
            Err(why) => {
                println!("FAIL {}: {why}", path.display());
                failures += 1;
            }
        }
    }
    println!(
        "{} artifacts verified, {failures} failed",
        files.len() - failures
    );
    Ok(failures == 0)
}

/// Structural + bit-identity verification of one artifact (see the module
/// docs). Returns a one-line summary on success.
fn verify_one(path: &Path, want_hash: Option<u64>, nonce: usize) -> Result<String, String> {
    // 1. A full read validates structure: manifest, record consistency,
    //    footer counts, and (for compressed files) end marker + checksum.
    let artifact = read_artifact(path).map_err(|e| e.to_string())?;
    // 2. Optional configuration pin.
    if let Some(want) = want_hash {
        if artifact.manifest.config_hash != want {
            return Err(format!(
                "config hash {:016x} does not match required {want:016x}",
                artifact.manifest.config_hash
            ));
        }
    }
    // 3. Re-read bit-identity: serialize the reconstruction and read it
    //    back; both in-memory forms must be equal.
    let tmp = std::env::temp_dir().join(format!(
        "aoi-artifacts-verify-{}-{nonce}.jsonl",
        std::process::id()
    ));
    let result = rewrite(&artifact, &tmp)
        .map_err(|e| format!("re-serialization failed: {e}"))
        .and_then(|()| {
            let reread = read_artifact(&tmp).map_err(|e| format!("re-read failed: {e}"))?;
            if reread != artifact {
                return Err("re-read artifact is not bit-identical".to_string());
            }
            Ok(())
        });
    let _ = std::fs::remove_file(&tmp);
    result?;
    let samples: usize = artifact.channels.iter().map(|c| c.series.len()).sum();
    Ok(format!(
        "{:?}, {} channels, {samples} samples, {} curves, config {:016x}, re-read bit-identical",
        artifact.manifest.artifact,
        artifact.channels.len(),
        artifact.curves.len(),
        artifact.manifest.config_hash
    ))
}

/// Re-serializes a reconstructed artifact with its original channel
/// layout: channels in id order (samples, then the summary if one was
/// written), then each curve record referencing its original band
/// channels.
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

// --- diff ------------------------------------------------------------------

fn cmd_diff(args: &[String]) -> Result<bool, String> {
    let [a_root, b_root] = args else {
        return Err("diff: needs exactly DIR_A DIR_B".to_string());
    };
    let index = |root: &String| -> Result<BTreeMap<String, PathBuf>, String> {
        let files = discover(std::slice::from_ref(root))?;
        Ok(files
            .into_iter()
            .map(|path| {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .to_string();
                (logical_name(Path::new(&rel)), path)
            })
            .collect())
    };
    let a_files = index(a_root)?;
    let b_files = index(b_root)?;
    let names: Vec<&String> = a_files.keys().chain(b_files.keys()).collect();
    let mut names: Vec<&String> = names;
    names.sort();
    names.dedup();

    let mut differences = 0usize;
    let mut compared = 0usize;
    for name in names {
        match (a_files.get(name), b_files.get(name)) {
            (Some(_), None) => {
                println!("DIFF {name}: only in {a_root}");
                differences += 1;
            }
            (None, Some(_)) => {
                println!("DIFF {name}: only in {b_root}");
                differences += 1;
            }
            (Some(a_path), Some(b_path)) => {
                compared += 1;
                match (read_artifact(a_path), read_artifact(b_path)) {
                    (Ok(a), Ok(b)) => match describe_difference(&a, &b) {
                        None => println!("same {name}"),
                        Some(why) => {
                            println!("DIFF {name}: {why}");
                            differences += 1;
                        }
                    },
                    (Err(e), _) => {
                        println!("DIFF {name}: unreadable in {a_root}: {e}");
                        differences += 1;
                    }
                    (_, Err(e)) => {
                        println!("DIFF {name}: unreadable in {b_root}: {e}");
                        differences += 1;
                    }
                }
            }
            (None, None) => unreachable!("name came from one of the indexes"),
        }
    }
    println!("{compared} artifacts compared, {differences} differences");
    Ok(differences == 0)
}

/// First meaningful difference between two reconstructed artifacts, or
/// `None` when they are bit-identical.
fn describe_difference(a: &Artifact, b: &Artifact) -> Option<String> {
    if a == b {
        return None;
    }
    if a.manifest != b.manifest {
        return Some(format!(
            "manifests differ ({:?} vs {:?})",
            a.manifest, b.manifest
        ));
    }
    if a.channels.len() != b.channels.len() {
        return Some(format!(
            "channel counts differ ({} vs {})",
            a.channels.len(),
            b.channels.len()
        ));
    }
    for (i, (ca, cb)) in a.channels.iter().zip(&b.channels).enumerate() {
        if ca == cb {
            continue;
        }
        if ca.name != cb.name || ca.mode != cb.mode {
            return Some(format!(
                "channel {i} declaration differs ({}/{:?} vs {}/{:?})",
                ca.name, ca.mode, cb.name, cb.mode
            ));
        }
        if ca.summary != cb.summary {
            return Some(format!("channel {i} ({}) summaries differ", ca.name));
        }
        if ca.series.len() != cb.series.len() {
            return Some(format!(
                "channel {i} ({}) lengths differ ({} vs {})",
                ca.name,
                ca.series.len(),
                cb.series.len()
            ));
        }
        for (j, (pa, pb)) in ca.series.iter().zip(cb.series.iter()).enumerate() {
            if pa != pb {
                return Some(format!(
                    "channel {i} ({}) sample {j} differs ({:?}@{} vs {:?}@{})",
                    ca.name,
                    pa.value,
                    pa.slot.index(),
                    pb.value,
                    pb.slot.index()
                ));
            }
        }
    }
    if a.curves.len() != b.curves.len() {
        return Some(format!(
            "curve counts differ ({} vs {})",
            a.curves.len(),
            b.curves.len()
        ));
    }
    for (i, (ca, cb)) in a.curves.iter().zip(&b.curves).enumerate() {
        if ca != cb {
            return Some(format!("curve {i} ({}) differs", ca.label));
        }
    }
    Some("artifacts differ".to_string())
}

// --- health ----------------------------------------------------------------

/// Campaign post-mortem from the supervision telemetry under `DIR`: one
/// event-count row per worker (journals from every subdirectory fold into
/// the same row) and one row per quarantined cell. Returns `Ok(false)` —
/// exit 1 — when any quarantine marker exists.
fn cmd_health(args: &[String]) -> Result<bool, String> {
    let [root] = args else {
        return Err("health: needs exactly one DIR".to_string());
    };
    let root = PathBuf::from(root);
    if !root.is_dir() {
        return Err(format!("no such directory: {}", root.display()));
    }
    let (mut journals, mut markers) = (Vec::new(), Vec::new());
    walk(&root, supervise::is_journal_name, &mut journals)?;
    walk(&root, supervise::is_quarantine_name, &mut markers)?;
    journals.sort();
    markers.sort();

    const N_KINDS: usize = EventKind::ALL.len();
    let mut by_worker: BTreeMap<String, [usize; N_KINDS]> = BTreeMap::new();
    for path in &journals {
        let log = supervise::read_journal(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let counts = by_worker.entry(log.worker.clone()).or_default();
        for event in &log.events {
            let slot = EventKind::ALL
                .iter()
                .position(|k| *k == event.kind)
                .expect("EventKind::ALL is exhaustive");
            counts[slot] += 1;
        }
    }
    if by_worker.is_empty() {
        println!(
            "no health journals under {} (supervised campaigns write events-<worker>.jsonl)",
            root.display()
        );
    } else {
        let mut table =
            Table::new(std::iter::once("worker").chain(EventKind::ALL.iter().map(|k| k.as_str())));
        for (worker, counts) in &by_worker {
            table.row(std::iter::once(worker.clone()).chain(counts.iter().map(usize::to_string)));
        }
        println!("{}", table.render());
    }

    if markers.is_empty() {
        println!("no quarantined cells");
        return Ok(true);
    }
    let mut table = Table::new(["quarantined cell", "worker", "attempts", "error"]);
    for path in &markers {
        let marker =
            supervise::Quarantine::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = path
            .parent()
            .and_then(|p| p.strip_prefix(&root).ok())
            .filter(|p| !p.as_os_str().is_empty())
            .map(|p| format!("{}/{}", p.display(), marker.item))
            .unwrap_or_else(|| marker.item.clone());
        table.row([
            rel,
            marker.worker.clone(),
            marker.attempts.to_string(),
            marker.error.clone(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "{} quarantined cell(s) — their replicates are missing from the folded ensembles",
        markers.len()
    );
    Ok(false)
}

// --- merge -----------------------------------------------------------------

/// What the ensemble recompute keeps of one merged cell artifact.
struct MergedCell {
    replicate: usize,
    headline: TimeSeries,
    config_hash: u64,
}

/// One `(directory, scenario, policy)` group of merged cells, with the
/// policy label, recording mode and encoding of the first of its cells by
/// file name.
struct MergedGroup {
    label: String,
    recording: RecordingMode,
    compression: Compression,
    cells: Vec<MergedCell>,
}

fn cmd_merge(args: &[String]) -> Result<bool, String> {
    let [out_root, srcs @ ..] = args else {
        return Err("merge: needs OUT_DIR SRC_DIR...".to_string());
    };
    if srcs.is_empty() {
        return Err("merge: needs at least one SRC_DIR".to_string());
    }
    let out_path = Path::new(out_root);
    for src in srcs {
        if Path::new(src) == out_path {
            return Err(format!("merge: OUT_DIR {src} is also a source"));
        }
    }

    // Index every artifact of every source by its encoding-independent
    // path relative to its source root, so the same cell from different
    // workers' directories lands on one key.
    let mut by_name: BTreeMap<String, Vec<PathBuf>> = BTreeMap::new();
    for src in srcs {
        for path in discover(std::slice::from_ref(src))? {
            let rel = path
                .strip_prefix(src)
                .unwrap_or(&path)
                .to_string_lossy()
                .to_string();
            by_name
                .entry(logical_name(Path::new(&rel)))
                .or_default()
                .push(path);
        }
    }

    let mut groups: BTreeMap<(PathBuf, usize, usize), MergedGroup> = BTreeMap::new();
    let mut copied = 0usize;
    let mut unmerged = 0usize;
    for (name, candidates) in &by_name {
        // A full read is the verification: structure, footer counts and
        // (for compressed files) end marker + checksum.
        let mut verified: Vec<(&PathBuf, Artifact)> = Vec::new();
        let mut broken: Vec<String> = Vec::new();
        for path in candidates {
            match read_artifact(path) {
                Ok(a) => verified.push((path, a)),
                Err(e) => broken.push(format!("{}: {e}", path.display())),
            }
        }
        let Some((winner_path, winner)) = verified.first() else {
            let file_name = Path::new(name).file_name().unwrap_or_default();
            if file_name.to_string_lossy().starts_with("ensemble-") {
                // Ensembles are recomputed from the merged cells below, so
                // a torn per-worker ensemble copy costs nothing.
                println!(
                    "note {name}: dropped unreadable ensemble copies: {}",
                    broken.join("; ")
                );
            } else {
                println!("FAIL {name}: no verified candidate ({})", broken.join("; "));
                unmerged += 1;
            }
            continue;
        };
        if winner.manifest.artifact == ArtifactKind::Ensemble {
            // Ensemble artifacts are recomputed from the merged cells, so
            // stale per-worker copies never leak into the merged view.
            continue;
        }
        // Conflict rules: every verified copy of a cell must describe the
        // same configuration and carry identical content — the cells are
        // deterministic, so anything else means the sources belong to
        // different campaigns.
        for (path, other) in &verified[1..] {
            if other.manifest.config_hash != winner.manifest.config_hash
                || other.manifest.seed != winner.manifest.seed
            {
                return Err(format!(
                    "merge: {name}: config mismatch between {} (config {:016x}, seed {:?}) \
                     and {} (config {:016x}, seed {:?})",
                    winner_path.display(),
                    winner.manifest.config_hash,
                    winner.manifest.seed,
                    path.display(),
                    other.manifest.config_hash,
                    other.manifest.seed
                ));
            }
            if other != winner {
                return Err(format!(
                    "merge: {name}: verified copies {} and {} are not identical",
                    winner_path.display(),
                    path.display()
                ));
            }
        }
        if !broken.is_empty() {
            println!(
                "note {name}: dropped unreadable copies: {}",
                broken.join("; ")
            );
        }
        // Copy the winner's raw bytes (bit-identity by construction).
        let rel: PathBuf = winner_path
            .strip_prefix(srcs.iter().find(|s| winner_path.starts_with(s)).unwrap())
            .map(Path::to_path_buf)
            .map_err(|e| e.to_string())?;
        let dest = out_path.join(&rel);
        if let Some(parent) = dest.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("merge: cannot create {}: {e}", parent.display()))?;
        }
        std::fs::copy(winner_path, &dest)
            .map_err(|e| format!("merge: cannot copy {}: {e}", winner_path.display()))?;
        copied += 1;
        let rel_name = rel.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(((scenario, replicate, policy), compression)) =
            ExperimentPlan::parse_cell_artifact_name(rel_name)
        else {
            continue;
        };
        let winner = verified.swap_remove(0).1;
        let manifest = winner.manifest;
        let channel = headline_channel_for(&manifest.scenario).ok_or_else(|| {
            format!(
                "merge: {name}: unknown scenario family {:?}",
                manifest.scenario
            )
        })?;
        let headline = winner
            .channels
            .into_iter()
            .find(|c| c.name == channel)
            .ok_or_else(|| format!("merge: {name}: missing headline channel {channel:?}"))?
            .series;
        let rel_dir = rel.parent().unwrap_or(Path::new("")).to_path_buf();
        groups
            .entry((rel_dir, scenario, policy))
            .or_insert_with(|| MergedGroup {
                label: manifest.policy,
                recording: manifest.recording,
                compression,
                cells: Vec::new(),
            })
            .cells
            .push(MergedCell {
                replicate,
                headline,
                config_hash: manifest.config_hash,
            });
    }

    // Recompute one ensemble artifact per (directory, scenario, policy)
    // group through the engine's own fold, in replicate order, so the
    // result is byte-identical to an engine-written ensemble.
    let mut ensembles = 0usize;
    for ((rel_dir, scenario, policy), mut group) in groups {
        group.cells.sort_by_key(|c| c.replicate);
        let mut fold = EnsembleFold::new(scenario, policy, group.label);
        for cell in &group.cells {
            fold.push(&cell.headline, cell.config_hash);
        }
        let curve = fold
            .finish()
            .map_err(|e| format!("merge: ensemble s{scenario}-p{policy}: {e}"))?;
        let dir = out_path.join(&rel_dir);
        fold.write(&curve, &dir, group.recording, group.compression)
            .map_err(|e| format!("merge: ensemble s{scenario}-p{policy}: {e}"))?;
        ensembles += 1;
    }
    println!(
        "{copied} cell artifacts merged into {out_root}, {ensembles} ensembles recomputed, \
         {unmerged} unmerged"
    );
    Ok(unmerged == 0)
}
