//! Ensemble figures — the paper's curves as multi-seed means with 95% CI
//! bands, produced by the experiment engine.
//!
//! Runs the Fig. 1a cache grid (policy menu × seed replicates, cells
//! concurrent on the shared executor, one compiled MDP kernel per RSU per
//! replicate) and the Fig. 1b service grid **streamed**
//! ([`ExperimentPlan::run_ensembles`]: one replicate wave at a time), then
//! renders the mean cumulative-reward / backlog curves with their
//! confidence bands and a per-policy summary table.
//!
//! ```sh
//! cargo run --release -p aoi-bench --bin ensemble -- \
//!     [n_seeds] [--workers N] [--out DIR] [--compress] [--resume] [--horizon N] \
//!     [--claim] [--worker-id ID] [--lease-ttl-ms N] [--max-attempts N]
//! ```
//!
//! `--workers N` pins the cell fan-out to exactly `N` workers (`1` runs
//! fully serial); without it the executor sizes itself from the host's
//! available parallelism. Reports are bit-identical either way.
//!
//! `--out DIR` persists run artifacts into `DIR`: every cell spills its
//! traces to `cell-s<scenario>-r<replicate>-p<policy>.trace.jsonl` *as it
//! runs* — so the grid's peak memory stays O(contents) even in `Full`
//! recording mode — and each `(scenario, policy)` group writes its mean/CI
//! curve to `ensemble-s<scenario>-p<policy>.jsonl`. Artifacts re-read
//! bit-identically (`simkit::persist`); the rendered figures are identical
//! with or without the flag. `--compress` writes every artifact through
//! the streaming codec (`.z` files, typically 3–6× smaller); `--resume`
//! skips any cell whose artifact from a previous run still verifies
//! (intact footer, matching configuration) and recomputes the rest — the
//! final figures are bit-identical to a cold run. Ensemble files are
//! written only when their bytes would change: one that already holds
//! exactly this run's content (for `.z`, the decoded stream, end marker
//! and checksum) is left in place, in every mode, and the closing
//! `artifacts:` line counts the ensembles left unchanged and written (a
//! fully warm `--resume` prints `9 unchanged, 0 written`).
//!
//! `--claim` (with `--resume`) turns the run into **one worker of a
//! distributed campaign**: before recomputing a cell the worker claims
//! the cell's lease file beside its artifact, so K `ensemble --resume
//! --claim` processes sharing one `--out` directory partition the grid
//! with no coordinator. A SIGKILLed worker's leases expire after
//! `--lease-ttl-ms` (default 30000) and its unfinished cells are taken
//! over; every worker's final figures are bit-identical to a cold
//! single-process run. Campaigns are **supervised**: a cell that panics
//! or errors is retried up to `--max-attempts` times (default 3, with
//! deterministic jittered backoff) and then *quarantined* — a
//! `cell-….quarantine.jsonl` marker lands beside its missing artifact,
//! the campaign continues, and this bin exits with status **3** so
//! orchestration can tell a degraded campaign from a clean one (0) or a
//! hard failure (1). Every claim/retry/quarantine is appended to the
//! worker's `events-<id>.jsonl` health journal (`aoi-artifacts health`
//! folds them into a post-mortem). See the README's "Distributed
//! campaigns" section.
//!
//! All of these modes run the one grid engine behind
//! [`ExperimentPlan::run_ensembles_resumable`]; `--claim` only switches
//! on its leasing part (leases, journal, retries, quarantine). Without
//! `--claim` the first failing cell aborts the run.

use aoi_cache::presets::{fig1a_ensemble, fig1b_ensemble};
use aoi_cache::{EnsembleSummary, ExperimentPlan, ResumeReport};
use simkit::plot::AsciiPlot;
use simkit::table::{fmt_f64, Table};
use simkit::TimeSeries;

/// Applies the shared command-line overrides to a preset plan.
fn configure(plan: ExperimentPlan, args: &aoi_bench::CliArgs, tag: &str) -> ExperimentPlan {
    let plan = match args.workers {
        Some(n) => plan.workers(n),
        None => plan,
    };
    let plan = match args.horizon {
        Some(h) => plan.horizon(h),
        None => plan,
    };
    match &args.out {
        Some(dir) => {
            let plan = plan
                .artifact_dir(dir.join(tag))
                .compress(args.compression)
                .resume(args.resume)
                .claim(args.claim);
            let plan = match &args.worker_id {
                Some(id) => plan.worker_id(id.clone()),
                None => plan,
            };
            let plan = match args.lease_ttl_ms {
                Some(ttl) => plan.lease_ttl_ms(ttl),
                None => plan,
            };
            match args.max_attempts {
                Some(n) => plan.max_attempts(n),
                None => plan,
            }
        }
        None => plan,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Test-only fault injection (SIMKIT_FAULT=kill:N / fail-writes:N /
    // delay:N:MS / corrupt-tail:N): lets the crash-safety suite interrupt
    // this bin mid-grid. Unset in normal use — and a no-op then.
    simkit::faults::arm_from_env()?;
    let args = aoi_bench::CliSpec {
        bin: "ensemble",
        about: "Figs. 1a/1b as multi-seed mean ± CI ensembles (streamed experiment engine)",
        workers: true,
        out: true,
        resume: true,
        claim: true,
        horizon: true,
        positional: Some(aoi_bench::Positional {
            name: "n_seeds",
            help: "seed replicates per policy (default 5)",
        }),
        extras: &[],
    }
    .parse()?;
    let n_seeds: u64 = match &args.positional {
        Some(arg) => arg
            .parse()
            .map_err(|_| format!("unrecognized argument: {arg}"))?,
        None => 5,
    };

    // --- Fig. 1a ensemble: cache policies × seeds -----------------------
    let plan = configure(fig1a_ensemble(n_seeds), &args, "fig1a");
    println!(
        "Fig. 1a ensemble: {} cells ({} policies x {} seeds)\n",
        plan.n_cells(),
        plan.n_cells() / plan.n_replicates(),
        plan.n_replicates()
    );
    let (cache, resume) = plan.run_ensembles_resumable()?;
    let mut quarantined = resume.quarantined.len();
    let mut ensembles = (resume.ensembles_unchanged, resume.ensembles_written);
    print_resume(&resume, args.resume);
    print_summary(&cache, "final cumulative reward");
    plot_means(
        &cache,
        "cumulative MBS reward (ensemble mean over seeds)",
        120,
    );

    // --- Fig. 1b ensemble: service policies × arrival traces ------------
    let plan = configure(fig1b_ensemble(n_seeds), &args, "fig1b");
    println!(
        "\nFig. 1b ensemble: {} cells ({} policies x {} arrival traces)\n",
        plan.n_cells(),
        plan.n_cells() / plan.n_replicates(),
        plan.n_replicates()
    );
    let (service, resume) = plan.run_ensembles_resumable()?;
    quarantined += resume.quarantined.len();
    ensembles.0 += resume.ensembles_unchanged;
    ensembles.1 += resume.ensembles_written;
    print_resume(&resume, args.resume);
    print_summary(&service, "final backlog");
    plot_means(&service, "request backlog (ensemble mean over traces)", 120);

    if let Some(dir) = &args.out {
        println!(
            "\nartifacts: per-cell traces and per-group ensemble curves under {} \
             (ensembles: {} unchanged, {} written)",
            dir.display(),
            ensembles.0,
            ensembles.1
        );
    }
    if quarantined > 0 {
        // Exit 3 distinguishes "finished, but degraded" from a clean run
        // (0) and a hard failure (1): the figures above fold only the
        // surviving replicates, and the quarantine markers say why.
        eprintln!(
            "warning: {quarantined} cell(s) quarantined after exhausting their retry budget \
             — see the cell-*.quarantine.jsonl markers and `aoi-artifacts health`"
        );
        std::process::exit(3);
    }
    Ok(())
}

fn print_resume(resume: &ResumeReport, resuming: bool) {
    if resuming {
        println!("resume: {resume}\n");
    }
}

fn print_summary(ensembles: &[EnsembleSummary], what: &str) {
    let mut table = Table::new(["policy", what, "± 95% CI", "replicates"]);
    for ensemble in ensembles {
        table.row([
            ensemble.label.clone(),
            fmt_f64(ensemble.curve.final_mean()),
            fmt_f64(ensemble.curve.final_ci_half_width()),
            ensemble.curve.replicates.to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn plot_means(ensembles: &[EnsembleSummary], title: &str, max_points: usize) {
    let renamed: Vec<TimeSeries> = ensembles
        .iter()
        .map(|e| aoi_bench::rename(e.curve.mean.downsample(max_points), e.label.clone()))
        .collect();
    let mut plot = AsciiPlot::new(title, 72, 16).x_label("slot");
    for series in &renamed {
        plot = plot.series(series);
    }
    println!("{}", plot.render());
}
