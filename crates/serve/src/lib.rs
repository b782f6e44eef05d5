//! # aoi-serve — online request serving over the engine cores
//!
//! The simulators in `aoi-cache` *generate* their own workload; this
//! crate answers an **external** one. A [`ServeEngine`] holds one shard
//! per RSU — each shard the same clock-agnostic
//! [`RsuCacheEngine`](aoi_cache::RsuCacheEngine) /
//! [`RsuServiceEngine`](aoi_cache::RsuServiceEngine) pair the simulators
//! drive — and ingests windows of timestamped requests (a live feed, a
//! recorded `vanet::RequestTrace`, or a load generator). Per slot and per
//! shard it:
//!
//! 1. folds the slot's requests into the shard's popularity estimate,
//! 2. asks the precompiled stage-1 policy for an MBS refresh decision,
//! 3. answers each request from cache — fresh hit, stale hit, or miss,
//! 4. picks a stage-2 service level and runs the queue dynamics.
//!
//! Shards run as one `simkit::executor` job each; small windows (a
//! one-slot call, say) run them in turn on the calling thread, since
//! spawning workers would cost far more than the serving. Stage-1
//! decisions merge into a slot-major, RSU-ordered hand-off log, and
//! telemetry streams to per-shard `simkit::persist` artifacts. Because
//! every shard owns its RNG stream and its slice of the window, the
//! outcome is bit-identical for any worker count.
//!
//! ## Quickstart
//!
//! ```
//! use aoi_cache::CacheScenario;
//! use aoi_serve::{ServeConfig, ServeEngine};
//! use vanet::{RegionId, Request, RequestTrace, RsuId, VehicleId};
//!
//! let config = ServeConfig {
//!     scenario: CacheScenario {
//!         n_rsus: 2,
//!         regions_per_rsu: 2,
//!         age_cap: 6,
//!         max_age_min: 3,
//!         max_age_max: 5,
//!         ..CacheScenario::default()
//!     },
//!     ..ServeConfig::default()
//! };
//! let mut engine = ServeEngine::new(config)?;
//! // Two slots of external requests. RSU 0 covers regions 0–1, RSU 1
//! // covers regions 2–3; region 1 at RSU 1 is out of coverage (a miss).
//! let request = |v: u64, rsu: usize, region: usize| Request {
//!     vehicle: VehicleId(v),
//!     rsu: RsuId(rsu),
//!     region: RegionId(region),
//! };
//! let trace = RequestTrace::from_slots(vec![
//!     vec![request(0, 0, 0), request(1, 1, 3)],
//!     vec![request(2, 1, 1)],
//! ]);
//! let outcome = engine.serve(&trace)?;
//! assert_eq!(outcome.requests, 3);
//! assert_eq!(outcome.misses, 1);
//! assert_eq!(outcome.fresh_hits + outcome.stale_hits, 2);
//! # Ok::<(), aoi_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod report;

pub use engine::{ServeConfig, ServeEngine, TelemetrySpec, MIN_WORK_PER_WORKER};
pub use error::ServeError;
pub use report::{MbsRefresh, ServeOutcome, ShardStats};
