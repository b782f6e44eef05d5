//! # Lease files — coordinator-free cell claims
//!
//! A *lease* is a small text file written beside a work item (in this
//! workspace: beside a cell artifact in an experiment directory) that marks
//! the item as claimed by one worker.  K independent processes sharing one
//! directory use leases to partition a grid with no coordinator:
//!
//! * **Claim** — [`claim`] creates the lease with `create_new` (`O_EXCL`),
//!   so the filesystem arbitrates races: exactly one claimant wins, all
//!   others observe [`Claim::Held`].
//! * **Heartbeat** — the holder periodically calls
//!   [`LeaseGuard::refresh`] (or runs a [`Heartbeat`] keeper thread) to
//!   bump a monotonically increasing heartbeat counter and wall-clock
//!   stamp inside the file.
//! * **Expiry** — a lease whose stamp is older than its TTL is *expired*:
//!   the worker that wrote it is presumed dead (SIGKILL, power loss) and
//!   any other worker may take the cell over.  Takeover renames the stale
//!   lease to a claimant-unique tombstone before re-claiming, so even if
//!   several workers notice expiry at once, the atomic rename ensures only
//!   one of them proceeds.
//! * **Release** — on completion the holder deletes the lease
//!   ([`LeaseGuard::release`]); the finished artifact beside it is the
//!   durable record of the work.
//!
//! ## File format
//!
//! One line of ASCII text:
//!
//! ```text
//! v1 {heartbeat} {stamp_ms} {ttl_ms} {owner}
//! ```
//!
//! `heartbeat` is a monotone counter (starts at 0, +1 per refresh),
//! `stamp_ms` is wall-clock milliseconds since the Unix epoch at the last
//! refresh, `ttl_ms` is the time-to-live granted by the holder, and
//! `owner` is a free-form id (it may contain spaces; it is the remainder
//! of the line).
//!
//! ## Race windows and why they are safe
//!
//! `create_new` followed by a write is not atomic as a pair: a reader can
//! observe an empty or partial lease file.  Readers therefore treat an
//! unparsable lease as *young* as long as the file's mtime is within the
//! grace window, only declaring it abandoned after the grace elapses.
//!
//! Wall clocks are not trusted on their own.  A holder's refresh never
//! writes a stamp smaller than the one already on disk (a backwards
//! wall-clock step must not make a live lease look instantly expired),
//! and a claimant that observes an expired-by-stamp lease confirms the
//! holder is really gone before stealing: it re-reads after a grace longer
//! than a keeper's refresh period ([`heartbeat_interval`]) and treats an
//! advanced heartbeat counter — clock-free liveness evidence — as *live*,
//! only tombstoning a lease whose counter stalled.
//!
//! A slow-but-alive holder can also lose its lease: if it stalls past the
//! TTL, another worker takes the cell over, and both then compute it.
//! [`LeaseGuard::refresh`] detects this (the on-disk owner no longer
//! matches) and reports [`LeaseError::Lost`], letting the original holder
//! abandon the duplicate work.  Even unnoticed, a double-compute is
//! harmless when the protected work is deterministic and its output is
//! finalized with an atomic rename — both workers produce bit-identical
//! artifacts.  Pick a TTL several times the heartbeat interval so this
//! only happens under genuine stalls.

use std::fmt;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Format-version tag written as the first token of every lease file.
const VERSION: &str = "v1";

/// Grace window granted to an unparsable (empty / partially written) lease
/// before it may be treated as abandoned, measured from the file's mtime.
const PARTIAL_GRACE: Duration = Duration::from_secs(5);

/// Process-wide counter used to make tombstone names unique per takeover.
static TOMBSTONE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Errors returned by the lease protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseError {
    /// An underlying filesystem operation failed.
    Io {
        /// The operation that failed (`"create"`, `"rename"`, ...).
        op: &'static str,
        /// The path involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The lease was taken over by another worker: the on-disk owner no
    /// longer matches the guard's owner (or the file vanished).
    Lost {
        /// Owner found on disk, if a lease file still existed.
        current_owner: Option<String>,
    },
    /// A takeover attempt lost the race to another claimant.
    Contended,
}

impl fmt::Display for LeaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaseError::Io { op, path, message } => {
                write!(f, "lease {op} failed for {path}: {message}")
            }
            LeaseError::Lost { current_owner } => match current_owner {
                Some(owner) => write!(f, "lease lost: now held by {owner:?}"),
                None => write!(f, "lease lost: file vanished"),
            },
            LeaseError::Contended => write!(f, "lease takeover lost the race"),
        }
    }
}

impl std::error::Error for LeaseError {}

fn io_err(op: &'static str, path: &Path, err: &io::Error) -> LeaseError {
    LeaseError::Io {
        op,
        path: path.display().to_string(),
        message: err.to_string(),
    }
}

/// Snapshot of a lease file's contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Free-form id of the worker holding the lease.
    pub owner: String,
    /// Monotone refresh counter (0 on claim, +1 per refresh).
    pub heartbeat: u64,
    /// Wall-clock milliseconds since the Unix epoch at the last refresh.
    pub stamp_ms: u64,
    /// Time-to-live in milliseconds granted by the holder.
    pub ttl_ms: u64,
}

impl LeaseInfo {
    /// Whether the lease has outlived its TTL relative to `now_ms`.
    ///
    /// A stamp in the future (clock skew between workers) is treated as
    /// fresh, never expired.
    pub fn expired_at(&self, now_ms: u64) -> bool {
        now_ms.saturating_sub(self.stamp_ms) > self.ttl_ms
    }

    /// Age of the lease in milliseconds relative to `now_ms` (0 if the
    /// stamp is in the future).
    pub fn age_ms(&self, now_ms: u64) -> u64 {
        now_ms.saturating_sub(self.stamp_ms)
    }

    fn render(&self) -> String {
        format!(
            "{VERSION} {} {} {} {}\n",
            self.heartbeat, self.stamp_ms, self.ttl_ms, self.owner
        )
    }

    fn parse(text: &str) -> Option<LeaseInfo> {
        let line = text.lines().next()?;
        let mut parts = line.splitn(5, ' ');
        if parts.next()? != VERSION {
            return None;
        }
        let heartbeat = parts.next()?.parse().ok()?;
        let stamp_ms = parts.next()?.parse().ok()?;
        let ttl_ms = parts.next()?.parse().ok()?;
        let owner = parts.next()?.to_string();
        if owner.is_empty() {
            return None;
        }
        Some(LeaseInfo {
            owner,
            heartbeat,
            stamp_ms,
            ttl_ms,
        })
    }
}

/// Outcome of a [`claim`] attempt.
#[derive(Debug)]
pub enum Claim {
    /// This worker now holds the lease.
    Acquired(LeaseGuard),
    /// A live (unexpired) lease is held by another worker.
    Held {
        /// Owner recorded in the live lease, if readable.
        owner: Option<String>,
        /// Milliseconds since the live lease's last refresh (0 when the
        /// lease was unreadable and is inside its partial-write grace).
        age_ms: u64,
    },
}

/// Current wall-clock time in milliseconds since the Unix epoch.
///
/// Exposed so callers (and tests) can feed a consistent `now` into
/// [`claim_at`] / [`LeaseGuard::refresh_at`].
pub fn wall_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Read and parse the lease at `path`, if one exists.
///
/// Returns `Ok(None)` when no lease file exists *or* when an existing file
/// is unparsable (empty / partially written); an unparsable file is not an
/// error because the claim protocol handles it via the mtime grace window.
pub fn inspect(path: &Path) -> Result<Option<LeaseInfo>, LeaseError> {
    let mut file = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("open", path, &e)),
    };
    let mut text = String::new();
    if let Err(e) = file.read_to_string(&mut text) {
        return Err(io_err("read", path, &e));
    }
    Ok(LeaseInfo::parse(&text))
}

/// Attempt to claim the lease at `path` for `owner` with the given TTL,
/// using the current wall clock. See [`claim_at`].
pub fn claim(path: &Path, owner: &str, ttl: Duration) -> Result<Claim, LeaseError> {
    claim_at(path, owner, ttl, wall_ms())
}

/// Attempt to claim the lease at `path` for `owner`, evaluating expiry
/// against the supplied `now_ms` (tests use this to simulate the passage
/// of time without sleeping).
///
/// * No lease file → create it with `create_new`; the filesystem
///   arbitrates concurrent claims.
/// * Live lease (within TTL) → [`Claim::Held`].
/// * Expired lease → atomically rename it to a tombstone and claim; if the
///   rename loses a race to another stealer, returns
///   [`LeaseError::Contended`] (the caller should simply re-check later).
/// * Unparsable lease → treated as live while the file's mtime is within a
///   short grace window, abandoned after.
pub fn claim_at(path: &Path, owner: &str, ttl: Duration, now_ms: u64) -> Result<Claim, LeaseError> {
    assert!(!owner.is_empty(), "lease owner id must be non-empty");
    let ttl_ms = ttl.as_millis() as u64;
    loop {
        if let Some(guard) = try_create(path, owner, ttl_ms, now_ms)? {
            return Ok(Claim::Acquired(guard));
        }
        // Someone holds (or held) the lease. Decide live vs abandoned.
        match inspect(path)? {
            Some(info) => {
                if !info.expired_at(now_ms) {
                    let age_ms = info.age_ms(now_ms);
                    return Ok(Claim::Held {
                        owner: Some(info.owner),
                        age_ms,
                    });
                }
                // Expired by wall-clock stamp — but the stamp alone can
                // lie when this claimant's clock runs ahead of the
                // holder's. Confirm with the monotone heartbeat counter:
                // re-read after a keeper refresh period, and treat an advanced
                // counter (or a new owner) as clock-free proof of life.
                std::thread::sleep(confirm_grace(info.ttl_ms));
                match inspect(path)? {
                    Some(again)
                        if again.owner == info.owner && again.heartbeat == info.heartbeat =>
                    {
                        // No progress across the grace: genuinely dead.
                        // Tombstone-steal, then loop to re-create.
                        take_over(path)?;
                        // Loop: the next try_create should win unless
                        // another claimant slipped in, in which case we
                        // re-evaluate.
                    }
                    Some(again) => {
                        return Ok(Claim::Held {
                            age_ms: again.age_ms(now_ms),
                            owner: Some(again.owner),
                        });
                    }
                    None => {
                        // Vanished (released) or unparsable mid-rewrite:
                        // loop to re-evaluate from scratch.
                    }
                }
            }
            None => {
                // File vanished (released between create and inspect) or
                // is unparsable. If unparsable but young, report Held; if
                // old, tombstone it; if vanished, just retry the create.
                match fs::metadata(path) {
                    Ok(meta) => {
                        let young = meta
                            .modified()
                            .ok()
                            .and_then(|m| SystemTime::now().duration_since(m).ok())
                            .map(|age| age <= PARTIAL_GRACE)
                            .unwrap_or(true);
                        if young {
                            return Ok(Claim::Held {
                                owner: None,
                                age_ms: 0,
                            });
                        }
                        take_over(path)?;
                    }
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(io_err("stat", path, &e)),
                }
            }
        }
    }
}

/// Create the lease file with `create_new`, returning a guard on success
/// and `None` when the file already exists.
fn try_create(
    path: &Path,
    owner: &str,
    ttl_ms: u64,
    now_ms: u64,
) -> Result<Option<LeaseGuard>, LeaseError> {
    let mut file = match fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)
    {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => return Ok(None),
        Err(e) => return Err(io_err("create", path, &e)),
    };
    let info = LeaseInfo {
        owner: owner.to_string(),
        heartbeat: 0,
        stamp_ms: now_ms,
        ttl_ms,
    };
    file.write_all(info.render().as_bytes())
        .and_then(|_| file.sync_data())
        .map_err(|e| io_err("write", path, &e))?;
    Ok(Some(LeaseGuard {
        path: path.to_path_buf(),
        owner: owner.to_string(),
        heartbeat: 0,
        stamp_ms: now_ms,
        ttl_ms,
        released: false,
    }))
}

/// How long a claimant waits between the two reads of an expired-by-stamp
/// lease before trusting the expiry. A live holder's [`Heartbeat`] keeper
/// must get to advance the counter inside it, so the grace outlasts the
/// keeper's longest gap between refreshes — its
/// [`heartbeat_interval`] rounded up to a whole tick — plus slack for the
/// refresh write itself (inspect, temporary write, `sync_data`, rename).
/// A dead worker's lease is taken over after TTL plus this grace.
fn confirm_grace(ttl_ms: u64) -> Duration {
    let every = heartbeat_interval(ttl_ms);
    every + keeper_tick(every) + Duration::from_millis((ttl_ms / 6).max(10))
}

/// Atomically move an abandoned lease out of the way so exactly one
/// claimant can proceed to re-create it.
fn take_over(path: &Path) -> Result<(), LeaseError> {
    let seq = TOMBSTONE_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "lease".to_string());
    let tombstone = path.with_file_name(format!("{name}.stale-{}-{seq}", std::process::id()));
    match fs::rename(path, &tombstone) {
        Ok(()) => {
            let _ = fs::remove_file(&tombstone);
            Ok(())
        }
        // Another claimant renamed it first; the caller loops and
        // re-evaluates (most likely observing the winner's fresh lease).
        Err(e) if e.kind() == io::ErrorKind::NotFound => Err(LeaseError::Contended),
        Err(e) => Err(io_err("rename", path, &e)),
    }
}

/// An acquired lease. Refresh it while working; release it when done.
///
/// Dropping a guard without releasing performs a best-effort release
/// (owner-checked delete, errors swallowed) — prefer calling
/// [`release`](Self::release) explicitly so errors surface. When a worker
/// dies outright, the file simply stays behind and expires.
#[derive(Debug)]
pub struct LeaseGuard {
    path: PathBuf,
    owner: String,
    heartbeat: u64,
    stamp_ms: u64,
    ttl_ms: u64,
    released: bool,
}

impl LeaseGuard {
    /// Path of the lease file this guard holds.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Owner id this guard claims under.
    pub fn owner(&self) -> &str {
        &self.owner
    }

    /// Number of refreshes performed so far.
    pub fn heartbeat(&self) -> u64 {
        self.heartbeat
    }

    /// Re-stamp the lease with the current wall clock. See
    /// [`refresh_at`](Self::refresh_at).
    pub fn refresh(&mut self) -> Result<(), LeaseError> {
        self.refresh_at(wall_ms())
    }

    /// Re-stamp the lease at the supplied wall-clock time, bumping the
    /// heartbeat counter.
    ///
    /// The written stamp is monotone: a backwards wall-clock step never
    /// rewinds the on-disk stamp, so a live lease cannot be made to look
    /// instantly expired by clock skew (the heartbeat counter still
    /// advances every refresh and serves observers as the clock-free
    /// liveness signal).
    ///
    /// Verifies the on-disk owner first: if the lease was taken over (or
    /// vanished), returns [`LeaseError::Lost`] and marks the guard
    /// released so `Drop` will not delete the new holder's file.
    pub fn refresh_at(&mut self, now_ms: u64) -> Result<(), LeaseError> {
        match inspect(&self.path)? {
            Some(info) if info.owner == self.owner => {}
            Some(info) => {
                self.released = true;
                return Err(LeaseError::Lost {
                    current_owner: Some(info.owner),
                });
            }
            None => {
                self.released = true;
                return Err(LeaseError::Lost {
                    current_owner: None,
                });
            }
        }
        self.heartbeat += 1;
        self.stamp_ms = self.stamp_ms.max(now_ms);
        let info = LeaseInfo {
            owner: self.owner.clone(),
            heartbeat: self.heartbeat,
            stamp_ms: self.stamp_ms,
            ttl_ms: self.ttl_ms,
        };
        // Write-to-unique-tmp + rename keeps the lease readable at every
        // instant (a plain truncate-and-write would expose an empty file).
        let name = self
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "lease".to_string());
        let tmp = self.path.with_file_name(format!(
            "{name}.hb-{}-{}",
            std::process::id(),
            self.heartbeat
        ));
        let write = || -> io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(info.render().as_bytes())?;
            f.sync_data()?;
            Ok(())
        };
        if let Err(e) = write() {
            let _ = fs::remove_file(&tmp);
            return Err(io_err("write", &tmp, &e));
        }
        if let Err(e) = fs::rename(&tmp, &self.path) {
            let _ = fs::remove_file(&tmp);
            return Err(io_err("rename", &self.path, &e));
        }
        Ok(())
    }

    /// Delete the lease file, completing the protocol.
    ///
    /// Verifies ownership first; returns [`LeaseError::Lost`] if another
    /// worker took the lease over in the meantime (their file is left
    /// untouched).
    pub fn release(mut self) -> Result<(), LeaseError> {
        self.release_inner()
    }

    /// Forget the lease without deleting the file, leaving it to expire.
    ///
    /// Used by tests to simulate a SIGKILLed worker's stale lease, and by
    /// workers that learn they lost the lease mid-work.
    pub fn abandon(mut self) {
        self.released = true;
    }

    fn release_inner(&mut self) -> Result<(), LeaseError> {
        if self.released {
            return Ok(());
        }
        self.released = true;
        match inspect(&self.path)? {
            Some(info) if info.owner == self.owner => {}
            Some(info) => {
                return Err(LeaseError::Lost {
                    current_owner: Some(info.owner),
                })
            }
            None => {
                return Err(LeaseError::Lost {
                    current_owner: None,
                })
            }
        }
        match fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", &self.path, &e)),
        }
    }
}

impl Drop for LeaseGuard {
    fn drop(&mut self) {
        if !self.released {
            let _ = self.release_inner();
        }
    }
}

/// Background keeper thread that refreshes a batch of leases on a fixed
/// interval while the owning worker computes.
///
/// ```no_run
/// # use simkit::lease::{claim, Claim, Heartbeat};
/// # use std::time::Duration;
/// # let path = std::path::Path::new("cell.lease");
/// let guard = match claim(path, "w1", Duration::from_secs(30))? {
///     Claim::Acquired(g) => g,
///     Claim::Held { .. } => return Ok(()),
/// };
/// let keeper = Heartbeat::keep(vec![guard], Duration::from_secs(5));
/// // ... long computation ...
/// for guard in keeper.stop() {
///     guard.release()?;
/// }
/// # Ok::<(), simkit::lease::LeaseError>(())
/// ```
pub struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<LeaseGuard>>,
}

/// Smallest refresh interval [`Heartbeat::keep`] will run at.
///
/// A `TTL/3`-derived interval degenerates to zero for sub-3 ms TTLs,
/// which would turn the keeper's `sleep(tick)` loop into a busy spin;
/// intervals below this floor are clamped up to it.
pub const MIN_REFRESH_INTERVAL: Duration = Duration::from_millis(1);

/// The interval a [`Heartbeat`] keeper actually runs at for a requested
/// `every`: never below [`MIN_REFRESH_INTERVAL`].
pub fn keeper_interval(every: Duration) -> Duration {
    every.max(MIN_REFRESH_INTERVAL)
}

/// The refresh cadence a holder's [`Heartbeat`] keeper runs at for a
/// lease of `ttl_ms`: every TTL/3 (see [`keeper_interval`]), so a live
/// lease survives two missed refreshes. The takeover confirmation grace
/// is derived from it.
pub fn heartbeat_interval(ttl_ms: u64) -> Duration {
    keeper_interval(Duration::from_millis(ttl_ms / 3))
}

/// The keeper's sleep granularity at refresh interval `every`: it wakes
/// every tick and refreshes once a whole interval of ticks has passed.
fn keeper_tick(every: Duration) -> Duration {
    Duration::from_millis(25).min(every)
}

impl Heartbeat {
    /// Spawn the keeper. Each lease in `guards` is refreshed every
    /// `every` (clamped up to [`MIN_REFRESH_INTERVAL`] — a zero interval
    /// must not busy-spin) until [`stop`](Self::stop) is called. A lease
    /// whose refresh reports [`LeaseError::Lost`] is dropped from the
    /// batch (the guard is consumed; the new holder's file is untouched);
    /// other refresh errors are retried on the next tick.
    pub fn keep(guards: Vec<LeaseGuard>, every: Duration) -> Heartbeat {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut guards = guards;
            let every = keeper_interval(every);
            let tick = keeper_tick(every);
            let mut since_refresh = Duration::ZERO;
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(tick);
                since_refresh += tick;
                if since_refresh < every {
                    continue;
                }
                since_refresh = Duration::ZERO;
                let mut kept = Vec::with_capacity(guards.len());
                for mut guard in guards {
                    match guard.refresh() {
                        Ok(()) | Err(LeaseError::Io { .. }) => kept.push(guard),
                        Err(LeaseError::Lost { .. }) | Err(LeaseError::Contended) => {
                            // Guard already marked released by refresh.
                        }
                    }
                }
                guards = kept;
            }
            guards
        });
        Heartbeat { stop, handle }
    }

    /// Stop the keeper and get the surviving guards back (leases that
    /// were lost to takeover are absent).
    pub fn stop(self) -> Vec<LeaseGuard> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confirm_grace_outlasts_the_keeper_refresh_period() {
        for ttl_ms in [
            0, 1, 2, 3, 10, 30, 75, 100, 300, 1_000, 2_000, 30_000, 600_000,
        ] {
            let every = heartbeat_interval(ttl_ms);
            assert!(
                confirm_grace(ttl_ms) > keeper_interval(Duration::from_millis(ttl_ms / 3)),
                "ttl {ttl_ms} ms"
            );
            assert!(
                confirm_grace(ttl_ms) > every + keeper_tick(every),
                "ttl {ttl_ms} ms: a keeper wakes on whole ticks"
            );
        }
    }
}
