//! Shared helpers for the experiment binaries: one command-line parser
//! for the flags every bin repeats, plus the series-shaping helpers the
//! figure renderers share.
//!
//! Each binary declares a [`CliSpec`] — which of the common flags it
//! accepts (`--workers`, `--out`, `--compress`, `--resume`, `--horizon`)
//! and at most one positional argument — and calls
//! [`CliSpec::parse`]. The spec renders one consistent `--help` text per
//! bin and produces one consistent error-message style, instead of the
//! hand-rolled per-bin loops the flags used to be parsed with.

#![forbid(unsafe_code)]

use aoi_cache::persist::Compression;
use simkit::TimeSeries;
use std::path::PathBuf;

/// Returns `series` re-labeled `name` (a [`TimeSeries`] name is fixed at
/// construction; the figure bins re-label downsampled or windowed series
/// for plot legends).
pub fn rename(series: TimeSeries, name: impl Into<String>) -> TimeSeries {
    let mut out = TimeSeries::with_capacity(name, series.len());
    for p in series.iter() {
        out.push(p.slot, p.value);
    }
    out
}

/// Extracts `len` consecutive full-resolution points starting at `start`,
/// labeled `name` (stride-downsampling would alias the periodic AoI
/// sawtooths the figures plot into flat lines).
pub fn window_of(
    series: &TimeSeries,
    start: usize,
    len: usize,
    name: impl Into<String>,
) -> TimeSeries {
    let mut out = TimeSeries::with_capacity(name, len);
    for p in series.iter().skip(start).take(len) {
        out.push(p.slot, p.value);
    }
    out
}

/// The Fig. 1a-style rendering window at a given horizon: `(warmup,
/// window)` — nominally slots 100..220, clamped so a shrunk `--horizon`
/// still leaves a non-empty window. Shared by the live `fig1a` bin and
/// the offline `aoi-artifacts render` so the two figures cannot diverge.
pub fn figure_window(horizon: usize) -> (usize, usize) {
    let warmup = 100usize.min(horizon / 2);
    (warmup, 120usize.min(horizon - warmup))
}

/// One optional positional argument of a binary.
#[derive(Debug, Clone, Copy)]
pub struct Positional {
    /// Display name in the usage line (e.g. `"n_seeds"`).
    pub name: &'static str,
    /// One-line description for `--help`.
    pub help: &'static str,
}

/// One bin-specific flag beyond the shared set — parsed, validated and
/// listed in `--help` with the same style as the shared flags.
#[derive(Debug, Clone, Copy)]
pub struct ExtraFlag {
    /// The flag itself, with leading dashes (e.g. `"--rate"`).
    pub name: &'static str,
    /// Display name of the flag's value (e.g. `"R"`); `None` for a
    /// boolean flag.
    pub value: Option<&'static str>,
    /// One-line description for `--help`.
    pub help: &'static str,
}

/// Which of the shared command-line flags a binary accepts.
///
/// ```no_run
/// let args = aoi_bench::CliSpec {
///     bin: "ensemble",
///     about: "ensemble figures",
///     workers: true,
///     out: true,
///     resume: true,
///     claim: true,
///     horizon: true,
///     positional: Some(aoi_bench::Positional {
///         name: "n_seeds",
///         help: "seed replicates per policy (default 5)",
///     }),
///     extras: &[],
/// }
/// .parse()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CliSpec {
    /// Binary name shown in usage/error text.
    pub bin: &'static str,
    /// One-line description shown by `--help`.
    pub about: &'static str,
    /// Accept `--workers N` (executor fan-out override; `1` = serial).
    pub workers: bool,
    /// Accept `--out DIR` (persist run artifacts into `DIR`) and, with
    /// it, `--compress` (write the artifacts through the
    /// `simkit::persist::compress` codec, `.z` files).
    pub out: bool,
    /// Accept `--resume` (skip cells whose `--out` artifact verifies).
    pub resume: bool,
    /// Accept `--claim` (run as one worker of a multi-process campaign:
    /// claim cells via lease files beside the `--out` artifacts) and, with
    /// it, `--worker-id ID`, `--lease-ttl-ms N` and `--max-attempts N`
    /// (retry budget before a failing cell is quarantined).
    pub claim: bool,
    /// Accept `--horizon N` (override every scenario's horizon).
    pub horizon: bool,
    /// At most one positional argument.
    pub positional: Option<Positional>,
    /// Bin-specific flags beyond the shared set (read back with
    /// [`CliArgs::extra`] / [`CliArgs::extra_flag`]).
    pub extras: &'static [ExtraFlag],
}

impl CliSpec {
    /// A spec accepting no flag at all (every bin still gets `--help`).
    pub const fn bare(bin: &'static str, about: &'static str) -> Self {
        CliSpec {
            bin,
            about,
            workers: false,
            out: false,
            resume: false,
            claim: false,
            horizon: false,
            positional: None,
            extras: &[],
        }
    }

    /// Parses the process arguments against this spec. `--help`/`-h`
    /// prints the usage text and exits. The `--out` directory is created.
    ///
    /// # Errors
    ///
    /// Returns one-line messages (shared style across every bin) for
    /// unknown flags, missing or invalid values, flag combinations
    /// (`--compress`/`--resume` without `--out`), or a surplus positional.
    pub fn parse(&self) -> Result<CliArgs, String> {
        match self.parse_from(std::env::args().skip(1).collect()) {
            // `--help` surfaces from parse_from as the usage text.
            Err(text) if text == self.usage() => {
                println!("{text}");
                std::process::exit(0);
            }
            other => other,
        }
    }

    /// [`parse`](CliSpec::parse) over an explicit argument vector
    /// (testable; no `--help` side effect — the caller sees it as an
    /// error listing the usage).
    pub fn parse_from(&self, args: Vec<String>) -> Result<CliArgs, String> {
        let mut parsed = CliArgs {
            workers: None,
            out: None,
            compression: Compression::None,
            resume: false,
            claim: false,
            worker_id: None,
            lease_ttl_ms: None,
            max_attempts: None,
            horizon: None,
            positional: None,
            extras: Vec::new(),
        };
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(self.usage()),
                "--workers" if self.workers => {
                    let n: usize = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| self.error("--workers needs a positive integer"))?;
                    parsed.workers = Some(n);
                }
                "--out" if self.out => {
                    let dir = iter
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| self.error("--out needs a directory path"))?;
                    parsed.out = Some(PathBuf::from(dir));
                }
                "--compress" if self.out => parsed.compression = Compression::Deflate,
                "--resume" if self.resume => parsed.resume = true,
                "--claim" if self.claim => parsed.claim = true,
                "--worker-id" if self.claim => {
                    let id = iter
                        .next()
                        .filter(|v| !v.is_empty() && !v.starts_with("--"))
                        .ok_or_else(|| self.error("--worker-id needs a non-empty id"))?;
                    parsed.worker_id = Some(id);
                }
                "--lease-ttl-ms" if self.claim => {
                    let n: u64 = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| self.error("--lease-ttl-ms needs a positive integer"))?;
                    parsed.lease_ttl_ms = Some(n);
                }
                "--max-attempts" if self.claim => {
                    let n: u32 = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| self.error("--max-attempts needs a positive integer"))?;
                    parsed.max_attempts = Some(n);
                }
                "--horizon" if self.horizon => {
                    let n: usize = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| self.error("--horizon needs a positive integer"))?;
                    parsed.horizon = Some(n);
                }
                other => {
                    if let Some(flag) = self.extras.iter().find(|f| f.name == other) {
                        let value =
                            match flag.value {
                                Some(what) => {
                                    iter.next().filter(|v| !v.starts_with("--")).ok_or_else(
                                        || self.error(&format!("{} needs a {what}", flag.name)),
                                    )?
                                }
                                None => String::new(),
                            };
                        parsed.extras.push((flag.name, value));
                    } else if other.starts_with('-') {
                        return Err(self.error(&format!("unrecognized flag '{arg}'")));
                    } else {
                        match (self.positional, &parsed.positional) {
                            (Some(_), None) => parsed.positional = Some(arg),
                            _ => return Err(self.error(&format!("unrecognized argument '{arg}'"))),
                        }
                    }
                }
            }
        }
        if parsed.compression == Compression::Deflate && parsed.out.is_none() {
            return Err(self.error("--compress needs --out DIR"));
        }
        if parsed.resume && parsed.out.is_none() {
            return Err(self.error("--resume needs --out DIR"));
        }
        if parsed.claim && !(parsed.resume && parsed.out.is_some()) {
            return Err(self.error("--claim needs --resume and --out DIR"));
        }
        if !parsed.claim
            && (parsed.worker_id.is_some()
                || parsed.lease_ttl_ms.is_some()
                || parsed.max_attempts.is_some())
        {
            return Err(self.error("--worker-id/--lease-ttl-ms/--max-attempts need --claim"));
        }
        if let Some(dir) = &parsed.out {
            std::fs::create_dir_all(dir).map_err(|e| {
                self.error(&format!(
                    "cannot create --out directory {}: {e}",
                    dir.display()
                ))
            })?;
        }
        Ok(parsed)
    }

    fn error(&self, why: &str) -> String {
        format!("{}: {why} (try --help)", self.bin)
    }

    /// The `--help` text: usage line plus one row per accepted flag.
    pub fn usage(&self) -> String {
        let mut text = format!("{} — {}\n\nUsage: {}", self.bin, self.about, self.bin);
        if let Some(p) = self.positional {
            text.push_str(&format!(" [{}]", p.name));
        }
        text.push_str(" [FLAGS]\n\nFlags:\n");
        if let Some(p) = self.positional {
            text.push_str(&format!("  {:<14} {}\n", p.name, p.help));
        }
        for flag in self.extras {
            let head = match flag.value {
                Some(what) => format!("{} {what}", flag.name),
                None => flag.name.to_string(),
            };
            text.push_str(&format!("  {head:<14} {}\n", flag.help));
        }
        if self.workers {
            text.push_str("  --workers N    pin the executor fan-out to N workers (1 = serial)\n");
        }
        if self.out {
            text.push_str(
                "  --out DIR      persist run artifacts (simkit::persist JSONL) into DIR\n",
            );
            text.push_str("  --compress     write --out artifacts compressed (.z files)\n");
        }
        if self.resume {
            text.push_str("  --resume       skip cells whose --out artifact already verifies\n");
        }
        if self.claim {
            text.push_str(
                "  --claim        run as one worker of a multi-process campaign: claim cells\n                 via lease files beside the --out artifacts (needs --resume)\n",
            );
            text.push_str("  --worker-id ID    lease owner id (default: derived from the pid)\n");
            text.push_str(
                "  --lease-ttl-ms N  lease time-to-live before a dead worker's cells are\n                    taken over (default 30000)\n",
            );
            text.push_str(
                "  --max-attempts N  attempts before a failing cell is quarantined and the\n                    campaign continues without it (default 3)\n",
            );
        }
        if self.horizon {
            text.push_str("  --horizon N    override every scenario's horizon (quick runs/CI)\n");
        }
        text.push_str("  --help         show this text\n");
        text
    }
}

/// The parsed shared flags of a binary.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// `--workers N`, when accepted and given.
    pub workers: Option<usize>,
    /// `--out DIR`, when accepted and given (the directory exists).
    pub out: Option<PathBuf>,
    /// [`Compression::Deflate`] when `--compress` was given.
    pub compression: Compression,
    /// Whether `--resume` was given.
    pub resume: bool,
    /// Whether `--claim` was given (implies `--resume` and `--out`).
    pub claim: bool,
    /// `--worker-id ID`, when accepted and given.
    pub worker_id: Option<String>,
    /// `--lease-ttl-ms N`, when accepted and given.
    pub lease_ttl_ms: Option<u64>,
    /// `--max-attempts N`, when accepted and given.
    pub max_attempts: Option<u32>,
    /// `--horizon N`, when accepted and given.
    pub horizon: Option<usize>,
    /// The positional argument, when accepted and given.
    pub positional: Option<String>,
    /// Values of the spec's bin-specific [`ExtraFlag`]s, in occurrence
    /// order (boolean flags record an empty value).
    pub extras: Vec<(&'static str, String)>,
}

impl CliArgs {
    /// The value of a value-taking [`ExtraFlag`] (last occurrence wins),
    /// if given.
    pub fn extra(&self, name: &str) -> Option<&str> {
        self.extras
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether a boolean [`ExtraFlag`] was given.
    pub fn extra_flag(&self, name: &str) -> bool {
        self.extras.iter().any(|(n, _)| *n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CliSpec {
        CliSpec {
            bin: "demo",
            about: "test spec",
            workers: true,
            out: true,
            resume: true,
            claim: true,
            horizon: true,
            positional: Some(Positional {
                name: "n",
                help: "a number",
            }),
            extras: &[
                ExtraFlag {
                    name: "--rate",
                    value: Some("R"),
                    help: "a number flag",
                },
                ExtraFlag {
                    name: "--fast",
                    value: None,
                    help: "a boolean flag",
                },
            ],
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_args_parse_to_defaults() {
        let parsed = spec().parse_from(Vec::new()).unwrap();
        assert_eq!(parsed.workers, None);
        assert_eq!(parsed.out, None);
        assert_eq!(parsed.compression, Compression::None);
        assert!(!parsed.resume);
        assert_eq!(parsed.horizon, None);
        assert_eq!(parsed.positional, None);
    }

    #[test]
    fn flags_parse_in_any_order() {
        let dir = std::env::temp_dir().join(format!("aoi-bench-cli-{}", std::process::id()));
        let dir_str = dir.display().to_string();
        let parsed = spec()
            .parse_from(args(&[
                "7",
                "--workers",
                "4",
                "--out",
                &dir_str,
                "--compress",
                "--resume",
                "--horizon",
                "200",
            ]))
            .unwrap();
        assert_eq!(parsed.workers, Some(4));
        assert_eq!(parsed.out.as_deref(), Some(dir.as_path()));
        assert!(dir.is_dir(), "--out must create the directory");
        assert_eq!(parsed.compression, Compression::Deflate);
        assert!(parsed.resume);
        assert_eq!(parsed.horizon, Some(200));
        assert_eq!(parsed.positional.as_deref(), Some("7"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_share_one_style() {
        for bad in [
            args(&["--workers"]),
            args(&["--workers", "0"]),
            args(&["--workers", "many"]),
            args(&["--horizon", "0"]),
            args(&["--out"]),
            args(&["--nope"]),
            args(&["1", "2"]),
            args(&["--compress"]),
            args(&["--resume"]),
            args(&["--claim"]),
            args(&["--worker-id", "w1"]),
            args(&["--lease-ttl-ms", "0"]),
            args(&["--max-attempts", "3"]),
            args(&["--max-attempts", "0"]),
        ] {
            let err = spec().parse_from(bad.clone()).unwrap_err();
            assert!(
                err.starts_with("demo: ") && err.contains("(try --help)"),
                "style of {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn claim_flags_parse_and_validate() {
        let dir = std::env::temp_dir().join(format!("aoi-bench-claim-{}", std::process::id()));
        let dir_str = dir.display().to_string();
        let parsed = spec()
            .parse_from(args(&[
                "--out",
                &dir_str,
                "--resume",
                "--claim",
                "--worker-id",
                "w-test",
                "--lease-ttl-ms",
                "2500",
                "--max-attempts",
                "2",
            ]))
            .unwrap();
        assert!(parsed.claim);
        assert_eq!(parsed.worker_id.as_deref(), Some("w-test"));
        assert_eq!(parsed.lease_ttl_ms, Some(2500));
        assert_eq!(parsed.max_attempts, Some(2));
        // --claim without --resume is rejected.
        assert!(spec()
            .parse_from(args(&["--out", &dir_str, "--claim"]))
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unaccepted_flags_are_rejected() {
        let bare = CliSpec::bare("bare", "no flags");
        for flag in [
            "--workers",
            "--out",
            "--compress",
            "--resume",
            "--claim",
            "--horizon",
        ] {
            assert!(
                bare.parse_from(args(&[flag, "1"])).is_err(),
                "{flag} must be rejected by a bare spec"
            );
        }
        assert!(bare.parse_from(args(&["extra"])).is_err());
        assert!(bare.parse_from(Vec::new()).is_ok());
    }

    #[test]
    fn extras_parse_and_render() {
        let parsed = spec()
            .parse_from(args(&["--rate", "3.5", "--fast"]))
            .unwrap();
        assert_eq!(parsed.extra("--rate"), Some("3.5"));
        assert!(parsed.extra_flag("--fast"));
        assert_eq!(parsed.extra("--missing"), None);
        // The last occurrence of a value flag wins.
        let parsed = spec()
            .parse_from(args(&["--rate", "1", "--rate", "2"]))
            .unwrap();
        assert_eq!(parsed.extra("--rate"), Some("2"));
        // A value flag without its value fails in the shared style.
        let err = spec().parse_from(args(&["--rate"])).unwrap_err();
        assert!(err.starts_with("demo: ") && err.contains("--rate"));
        // Help lists extras; specs without them reject them.
        let usage = spec().usage();
        assert!(usage.contains("--rate R") && usage.contains("--fast"));
        assert!(CliSpec::bare("bare", "x")
            .parse_from(args(&["--rate", "1"]))
            .is_err());
    }

    #[test]
    fn help_lists_exactly_the_accepted_flags() {
        let full = spec().usage();
        for needle in [
            "--workers",
            "--out",
            "--compress",
            "--resume",
            "--claim",
            "--worker-id",
            "--lease-ttl-ms",
            "--max-attempts",
            "--horizon",
        ] {
            assert!(full.contains(needle), "{needle} missing from {full}");
        }
        let bare = CliSpec::bare("bare", "no flags").usage();
        for needle in [
            "--workers",
            "--out",
            "--compress",
            "--resume",
            "--claim",
            "--horizon",
        ] {
            assert!(!bare.contains(needle), "{needle} leaked into {bare}");
        }
        assert!(bare.contains("--help"));
        // --help surfaces as an Err carrying the usage text.
        assert_eq!(spec().parse_from(args(&["--help"])).unwrap_err(), full);
    }
}
