//! # simkit — slotted-simulation substrate
//!
//! Shared infrastructure for the AoI-caching reproduction: every other crate
//! in the workspace (the MDP toolkit, the Lyapunov controller, the vehicular
//! network model and the paper's core algorithms) runs on top of the
//! primitives defined here.
//!
//! The crate deliberately contains **no domain logic**; it provides
//!
//! * [`TimeSlot`] / [`SlotClock`] — discrete time in slots,
//! * [`SeedSequence`] — deterministic fan-out of independent RNG streams so
//!   that experiments are reproducible under a single `u64` seed,
//! * [`TimeSeries`] — per-slot sample recorder with downsampling,
//! * [`TraceRecorder`] / [`RecordingMode`] / [`TraceSink`] — pluggable
//!   trace retention (full, decimated, or summary-only) with exact
//!   streaming statistics in every mode, recording to memory or straight
//!   to a disk artifact,
//! * [`persist`] — streaming run-artifact files (versioned JSONL with a
//!   manifest, written slot-by-slot, re-read bit-identically),
//! * [`lease`] — coordinator-free work claims via lock/lease files with
//!   TTL expiry and heartbeat refresh, so independent processes sharing a
//!   directory partition a campaign and survive worker crashes,
//! * [`faults`] — test-only fault injection (kill / failed / delayed
//!   writes, tail corruption; single plans or programmable
//!   [`FaultSchedule`](faults::FaultSchedule)s) driving the crash-safety
//!   suites and the exhaustive crash-point sweep,
//! * [`supervise`] — supervision primitives for self-healing campaigns:
//!   panic capture, deterministic jittered retry [`Backoff`](supervise::Backoff),
//!   append-only per-worker health journals and quarantine markers,
//! * [`RunningStats`], [`Histogram`], [`Summary`] — streaming statistics,
//! * [`CurveSummary`] / [`summarize_curves`] / [`CurveAccumulator`] —
//!   mean/CI aggregation of replicate curves (experiment ensembles),
//!   batch or streamed one curve at a time,
//! * [`executor`] — the workspace's only thread pool: a persistent
//!   barrier-synchronized round pool for fixed-point solvers and a one-shot
//!   ordered [`parallel_map`](executor::parallel_map) for coarse jobs, both
//!   gated behind the `parallel` feature and bit-for-bit deterministic,
//! * [`AsciiPlot`](plot::AsciiPlot) and [`Table`](table::Table) — terminal
//!   "figures" and CSV export used by the benchmark harness.
//!
//! ## Example
//!
//! ```
//! use simkit::{SeedSequence, SlotClock, TimeSeries, RunningStats};
//! use rand::Rng;
//!
//! let mut seeds = SeedSequence::new(42);
//! let mut rng = seeds.rng("arrivals");
//! let mut clock = SlotClock::new();
//! let mut series = TimeSeries::new("queue");
//! let mut stats = RunningStats::new();
//!
//! for _ in 0..100 {
//!     let sample: f64 = rng.gen_range(0.0..10.0);
//!     series.push(clock.now(), sample);
//!     stats.push(sample);
//!     clock.tick();
//! }
//! assert_eq!(series.len(), 100);
//! assert!(stats.mean() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod executor;
pub mod faults;
pub mod lease;
pub mod persist;
pub mod plot;
pub mod recorder;
mod rng;
mod series;
mod stats;
pub mod supervise;
pub mod table;
mod time;

pub use error::SimkitError;
pub use recorder::{RecordingMode, TraceRecorder, TraceSink};
pub use rng::{sample_poisson, SeedSequence};
pub use series::{SeriesPoint, TimeSeries};
pub use stats::{
    percentile, summarize_curves, CurveAccumulator, CurveSummary, Histogram, RunningStats, Summary,
};
pub use time::{SlotClock, Stopwatch, TimeSlot};
