//! # Supervision — panic capture, retry backoff, health journals
//!
//! Crash-*safe* campaigns (leases + atomic artifacts) survive a worker
//! dying; crash-*survivable* campaigns also need the worker itself to
//! outlive a failing work item.  This module holds the domain-free
//! supervision primitives the experiment engine builds that on:
//!
//! * [`panic_message`] — render a caught panic payload as a structured,
//!   reportable error string instead of unwinding through the harness,
//! * [`Backoff`] — deterministic jittered exponential retry delays,
//!   seeded from the worker id via [`SeedSequence`] so a campaign's retry
//!   schedule is reproducible run-to-run,
//! * [`EventJournal`] — an append-only per-worker `events-*.jsonl` health
//!   journal (versioned header + one JSON record per event, allocation-free
//!   write path) with [`read_journal`] for post-mortem folding,
//! * [`Quarantine`] — the `*.quarantine.jsonl` diagnostic marker written
//!   beside a work item that exhausted its retry budget, so the campaign
//!   can continue with an explicit, machine-readable gap.
//!
//! Nothing here knows about cells or grids: items are free-form strings,
//! and the experiment layer maps its cell coordinates onto them.

use crate::lease::wall_ms;
use crate::persist::{parse_json, write_json_str};
use crate::rng::SeedSequence;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Render a panic payload as text: `&str` / `String` payloads (the ones
/// `panic!` produces) are reproduced verbatim, anything else becomes a
/// placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Namespace seed under which per-worker backoff streams are derived, so
/// they never collide with experiment seed derivations.
const BACKOFF_NAMESPACE: u64 = 0x42_4143_4b4f_4646; // "BACKOFF"

/// Deterministic jittered exponential backoff.
///
/// The `k`-th delay (0-based, since the last [`reset`](Self::reset)) is
/// drawn uniformly from `[d/2, d]` with `d = min(cap, base * 2^k)` — full
/// exponential growth with enough jitter to de-synchronize workers that
/// fail in lockstep.  The jitter stream comes from a seeded
/// [`StdRng`], so a fixed seed (or worker id) reproduces the exact same
/// schedule; [`reset`](Self::reset) rewinds the exponent but deliberately
/// not the jitter stream (successive bursts stay de-correlated while the
/// whole sequence remains a pure function of the seed and call pattern).
#[derive(Debug)]
pub struct Backoff {
    rng: StdRng,
    base_ms: u64,
    cap_ms: u64,
    step: u32,
}

impl Backoff {
    /// A backoff schedule from an explicit seed.
    pub fn new(seed: u64, base: Duration, cap: Duration) -> Backoff {
        Backoff {
            rng: StdRng::seed_from_u64(seed),
            base_ms: (base.as_millis() as u64).max(1),
            cap_ms: (cap.as_millis() as u64).max(1),
            step: 0,
        }
    }

    /// A backoff schedule seeded from a free-form worker id (the id is
    /// hashed through [`SeedSequence`], so any string works).
    pub fn for_worker(worker: &str, base: Duration, cap: Duration) -> Backoff {
        Backoff::new(
            SeedSequence::new(BACKOFF_NAMESPACE).derive(worker),
            base,
            cap,
        )
    }

    /// The next delay in the schedule (and advance it).
    pub fn next_delay(&mut self) -> Duration {
        let full = self
            .base_ms
            .saturating_mul(1u64 << self.step.min(16))
            .min(self.cap_ms)
            .max(1);
        self.step = self.step.saturating_add(1);
        let half = (full / 2).max(1);
        Duration::from_millis(self.rng.gen_range(half..=full))
    }

    /// Rewind the exponent to the base delay (call after forward
    /// progress); the jitter stream keeps advancing.
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

/// Format tag of the journal header line.
const JOURNAL_FORMAT: &str = "simkit.events.v1";
/// Format tag of the quarantine marker header line.
const QUARANTINE_FORMAT: &str = "simkit.quarantine.v1";

/// What happened, from the supervising worker's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A fresh (unheld) item was claimed.
    Claim,
    /// An expired lease was taken over from a presumed-dead worker.
    Steal,
    /// A finished item's lease was released.
    Release,
    /// A failed item is being retried (attempt counter in the event).
    Retry,
    /// The worker slept a backoff delay (milliseconds in `detail`).
    Backoff,
    /// An item exhausted its retry budget and was quarantined.
    Quarantine,
    /// A held lease was lost to takeover mid-compute.
    HeartbeatLost,
}

impl EventKind {
    /// Stable wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Claim => "claim",
            EventKind::Steal => "steal",
            EventKind::Release => "release",
            EventKind::Retry => "retry",
            EventKind::Backoff => "backoff",
            EventKind::Quarantine => "quarantine",
            EventKind::HeartbeatLost => "heartbeat-lost",
        }
    }

    /// Parse a wire name back into the kind.
    pub fn parse(name: &str) -> Option<EventKind> {
        Some(match name {
            "claim" => EventKind::Claim,
            "steal" => EventKind::Steal,
            "release" => EventKind::Release,
            "retry" => EventKind::Retry,
            "backoff" => EventKind::Backoff,
            "quarantine" => EventKind::Quarantine,
            "heartbeat-lost" => EventKind::HeartbeatLost,
            _ => return None,
        })
    }

    /// Every kind, in journal-table display order.
    pub const ALL: [EventKind; 7] = [
        EventKind::Claim,
        EventKind::Steal,
        EventKind::Release,
        EventKind::Retry,
        EventKind::Backoff,
        EventKind::Quarantine,
        EventKind::HeartbeatLost,
    ];
}

/// One journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// The item involved (free-form; empty for worker-level events such
    /// as a backoff sleep).
    pub item: String,
    /// Attempt number the event refers to (0 when not applicable).
    pub attempt: u32,
    /// Free-form detail (an error message, a backoff delay, ...).
    pub detail: String,
    /// Wall-clock milliseconds since the Unix epoch when recorded.
    pub wall_ms: u64,
}

/// Append-only per-worker health journal: a versioned header line
/// followed by one JSON record per event.
///
/// The write path reuses one line buffer (allocation-free after warmup)
/// and flushes after every record, so the journal survives a worker that
/// dies right after reporting.  Opening an existing journal appends to it
/// — a relaunched worker extends its own history.
#[derive(Debug)]
pub struct EventJournal {
    file: fs::File,
    line: Vec<u8>,
    worker: String,
    path: PathBuf,
}

/// The canonical journal file name for a worker id: non-portable
/// characters in the id are mapped to `-` so any free-form owner string
/// yields a valid file name.
pub fn journal_file_name(worker: &str) -> String {
    let sanitized: String = worker
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    format!("events-{sanitized}.jsonl")
}

/// Whether `name` is a per-worker health journal file name.
pub fn is_journal_name(name: &str) -> bool {
    name.starts_with("events-") && name.ends_with(".jsonl")
}

/// Whether `name` is a quarantine marker file name.
pub fn is_quarantine_name(name: &str) -> bool {
    name.ends_with(".quarantine.jsonl")
}

impl EventJournal {
    /// Open (or create) the journal at `path`, appending; a brand-new
    /// file gets the versioned header line.
    pub fn open(path: &Path, worker: &str) -> io::Result<EventJournal> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut journal = EventJournal {
            file,
            line: Vec::with_capacity(256),
            worker: worker.to_string(),
            path: path.to_path_buf(),
        };
        if journal.file.metadata()?.len() == 0 {
            journal.line.clear();
            journal.line.extend_from_slice(b"{\"format\":");
            write_json_str(&mut journal.line, JOURNAL_FORMAT)?;
            journal.line.extend_from_slice(b",\"worker\":");
            write_json_str(&mut journal.line, worker)?;
            journal.line.extend_from_slice(b"}\n");
            journal.file.write_all(&journal.line)?;
            journal.file.flush()?;
        }
        Ok(journal)
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Worker id this journal reports for.
    pub fn worker(&self) -> &str {
        &self.worker
    }

    /// Append one event (stamped with the current wall clock) and flush.
    pub fn record(
        &mut self,
        kind: EventKind,
        item: &str,
        attempt: u32,
        detail: &str,
    ) -> io::Result<()> {
        self.line.clear();
        self.line.extend_from_slice(b"{\"event\":");
        write_json_str(&mut self.line, kind.as_str())?;
        self.line.extend_from_slice(b",\"item\":");
        write_json_str(&mut self.line, item)?;
        write!(
            self.line,
            ",\"attempt\":{attempt},\"wall_ms\":{}",
            wall_ms()
        )?;
        self.line.extend_from_slice(b",\"detail\":");
        write_json_str(&mut self.line, detail)?;
        self.line.extend_from_slice(b"}\n");
        self.file.write_all(&self.line)?;
        self.file.flush()
    }
}

/// A fully parsed health journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog {
    /// Worker id from the journal header.
    pub worker: String,
    /// Every recorded event, in append order.
    pub events: Vec<Event>,
}

/// Read a journal written by [`EventJournal`] back.
///
/// Tolerates repeated header lines (a relaunched worker re-opening its
/// journal) but rejects unknown formats and malformed records.
pub fn read_journal(path: &Path) -> Result<EventLog, String> {
    let text = read_text(path)?;
    let mut worker = None;
    let mut events = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = parse_json(line).map_err(|e| format!("journal line {}: {e}", n + 1))?;
        if let Some(format) = record.get("format") {
            if format.as_str() != Some(JOURNAL_FORMAT) {
                return Err(format!(
                    "journal line {}: unknown format {:?}",
                    n + 1,
                    format.as_str().unwrap_or("<non-string>")
                ));
            }
            let w = record
                .get("worker")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("journal line {}: header missing worker", n + 1))?;
            if worker.is_none() {
                worker = Some(w.to_string());
            }
            continue;
        }
        let field = |key: &str| {
            record
                .get(key)
                .ok_or_else(|| format!("journal line {}: missing {key:?}", n + 1))
        };
        let kind_name = field("event")?
            .as_str()
            .ok_or_else(|| format!("journal line {}: non-string event", n + 1))?;
        let kind = EventKind::parse(kind_name)
            .ok_or_else(|| format!("journal line {}: unknown event {kind_name:?}", n + 1))?;
        events.push(Event {
            kind,
            item: field("item")?.as_str().unwrap_or_default().to_string(),
            attempt: field("attempt")?.as_u64().unwrap_or(0) as u32,
            detail: field("detail")?.as_str().unwrap_or_default().to_string(),
            wall_ms: field("wall_ms")?.as_u64().unwrap_or(0),
        });
    }
    let worker = worker.ok_or_else(|| format!("{}: no journal header line", path.display()))?;
    Ok(EventLog { worker, events })
}

/// Diagnostic record for a work item that exhausted its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// The quarantined item (free-form; the experiment layer uses its
    /// cell coordinates, e.g. `s0-r1-p2`).
    pub item: String,
    /// Worker that gave up on the item.
    pub worker: String,
    /// How many attempts were made before quarantining.
    pub attempts: u32,
    /// The final attempt's failure (panic message or error display).
    pub error: String,
    /// Wall-clock milliseconds since the Unix epoch when quarantined.
    pub wall_ms: u64,
}

impl Quarantine {
    /// Write the marker to `path` atomically (unique temporary + rename),
    /// so observers never see a torn marker.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut body = Vec::with_capacity(256);
        body.extend_from_slice(b"{\"format\":");
        write_json_str(&mut body, QUARANTINE_FORMAT)?;
        body.extend_from_slice(b"}\n{\"item\":");
        write_json_str(&mut body, &self.item)?;
        body.extend_from_slice(b",\"worker\":");
        write_json_str(&mut body, &self.worker)?;
        write!(
            body,
            ",\"attempts\":{},\"wall_ms\":{}",
            self.attempts, self.wall_ms
        )?;
        body.extend_from_slice(b",\"error\":");
        write_json_str(&mut body, &self.error)?;
        body.extend_from_slice(b"}\n");
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "quarantine".to_string());
        let tmp = path.with_file_name(format!("{name}.tmp-{}", std::process::id()));
        let write = || -> io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&body)?;
            f.sync_data()?;
            Ok(())
        };
        if let Err(e) = write() {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, path).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }

    /// Read a marker written by [`write`](Self::write) back.
    pub fn read(path: &Path) -> Result<Quarantine, String> {
        let text = read_text(path)?;
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| format!("{}: empty quarantine marker", path.display()))?;
        let header = parse_json(header).map_err(|e| format!("quarantine header: {e}"))?;
        if header.get("format").and_then(|v| v.as_str()) != Some(QUARANTINE_FORMAT) {
            return Err(format!("{}: not a quarantine marker", path.display()));
        }
        let body = lines
            .next()
            .ok_or_else(|| format!("{}: marker missing its record", path.display()))?;
        let record = parse_json(body).map_err(|e| format!("quarantine record: {e}"))?;
        let str_field = |key: &str| {
            record
                .get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("{}: missing {key:?}", path.display()))
        };
        Ok(Quarantine {
            item: str_field("item")?,
            worker: str_field("worker")?,
            attempts: record
                .get("attempts")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("{}: missing \"attempts\"", path.display()))?
                as u32,
            error: str_field("error")?,
            wall_ms: record.get("wall_ms").and_then(|v| v.as_u64()).unwrap_or(0),
        })
    }
}

fn read_text(path: &Path) -> Result<String, String> {
    let mut text = String::new();
    fs::File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("simkit-supervise-{}-{tag}-{n}", std::process::id()))
    }

    #[test]
    fn backoff_is_deterministic_per_worker_and_grows_to_the_cap() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        let a: Vec<_> = {
            let mut b = Backoff::for_worker("w1", base, cap);
            (0..10).map(|_| b.next_delay()).collect()
        };
        let b: Vec<_> = {
            let mut b = Backoff::for_worker("w1", base, cap);
            (0..10).map(|_| b.next_delay()).collect()
        };
        assert_eq!(a, b, "fixed worker seed must reproduce the schedule");
        let c: Vec<_> = {
            let mut b = Backoff::for_worker("w2", base, cap);
            (0..10).map(|_| b.next_delay()).collect()
        };
        assert_ne!(a, c, "different workers must not back off in lockstep");
        for (k, d) in a.iter().enumerate() {
            let full = (10u64 << k.min(16)).min(500);
            assert!(d.as_millis() as u64 <= full, "delay {k} above envelope");
            assert!(
                d.as_millis() as u64 >= (full / 2).max(1),
                "delay {k} below half envelope"
            );
        }
        assert!(
            a[9] >= Duration::from_millis(250),
            "late delays must have grown to the cap region"
        );
    }

    #[test]
    fn backoff_reset_rewinds_the_envelope() {
        let mut b = Backoff::new(99, Duration::from_millis(8), Duration::from_secs(1));
        for _ in 0..6 {
            b.next_delay();
        }
        b.reset();
        let d = b.next_delay();
        assert!(
            d <= Duration::from_millis(8),
            "post-reset delay {d:?} must be base-sized"
        );
    }

    #[test]
    fn journal_roundtrips_and_appends_across_reopens() {
        let path = scratch("journal");
        {
            let mut j = EventJournal::open(&path, "w one").unwrap();
            j.record(EventKind::Claim, "s0-r1-p2", 1, "").unwrap();
            j.record(EventKind::Retry, "s0-r1-p2", 2, "boom \"quoted\"\n")
                .unwrap();
        }
        {
            let mut j = EventJournal::open(&path, "w one").unwrap();
            j.record(EventKind::Quarantine, "s0-r1-p2", 3, "gave up")
                .unwrap();
        }
        let log = read_journal(&path).unwrap();
        assert_eq!(log.worker, "w one");
        let kinds: Vec<_> = log.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Claim, EventKind::Retry, EventKind::Quarantine]
        );
        assert_eq!(log.events[1].detail, "boom \"quoted\"\n");
        assert_eq!(log.events[2].attempt, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn quarantine_marker_roundtrips() {
        let dir = scratch("quarantine");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cell-s0-r1-p2.quarantine.jsonl");
        let marker = Quarantine {
            item: "s0-r1-p2".to_string(),
            worker: "w1".to_string(),
            attempts: 3,
            error: "panicked: \"poison\"".to_string(),
            wall_ms: 17,
        };
        marker.write(&path).unwrap();
        assert_eq!(Quarantine::read(&path).unwrap(), marker);
        assert!(is_quarantine_name(
            path.file_name().unwrap().to_str().unwrap()
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_names_are_sanitized_and_recognizable() {
        let name = journal_file_name("host/a b:9");
        assert_eq!(name, "events-host-a-b-9.jsonl");
        assert!(is_journal_name(&name));
        assert!(!is_journal_name("cell-s0-r0-p0.trace.jsonl"));
        assert!(!is_quarantine_name("events-w1.jsonl"));
    }
}
