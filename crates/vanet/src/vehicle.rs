//! User vehicles and the highway mobility model.

use crate::road::Road;
use crate::VanetError;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique identifier of a user vehicle (monotonically assigned).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct VehicleId(pub u64);

impl fmt::Display for VehicleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uv#{}", self.0)
    }
}

/// A connected user vehicle on the road.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vehicle {
    /// Stable identifier.
    pub id: VehicleId,
    /// Position along the road in meters.
    pub position_m: f64,
    /// Speed in meters per slot (vehicles move one way, toward increasing
    /// positions).
    pub speed_mps: f64,
}

/// Configuration of the highway entry/mobility process.
///
/// Vehicles enter at position 0 following a Bernoulli process (the
/// discrete-slot analogue of Poisson arrivals), draw a constant speed
/// uniformly from `[speed_min, speed_max]` and leave when they pass the end
/// of the road.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobilityConfig {
    /// Probability that a new vehicle enters in a slot.
    pub entry_probability: f64,
    /// Minimum vehicle speed (m/slot).
    pub speed_min: f64,
    /// Maximum vehicle speed (m/slot).
    pub speed_max: f64,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            entry_probability: 0.6,
            speed_min: 8.0,
            speed_max: 20.0,
        }
    }
}

impl MobilityConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`VanetError::BadParameter`] for probabilities outside
    /// `[0, 1]` or non-positive/inverted speed ranges.
    pub fn validate(&self) -> Result<(), VanetError> {
        if !(0.0..=1.0).contains(&self.entry_probability) {
            return Err(VanetError::BadParameter {
                what: "entry_probability",
                valid: "[0, 1]",
            });
        }
        if !self.speed_min.is_finite() || self.speed_min <= 0.0 {
            return Err(VanetError::BadParameter {
                what: "speed_min",
                valid: "> 0",
            });
        }
        if !self.speed_max.is_finite() || self.speed_max < self.speed_min {
            return Err(VanetError::BadParameter {
                what: "speed_max",
                valid: ">= speed_min",
            });
        }
        Ok(())
    }
}

/// The set of vehicles currently on the road plus the entry process.
///
/// ```
/// use vanet::{Road, Traffic, MobilityConfig};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let road = Road::new(1000.0, 10)?;
/// let mut traffic = Traffic::new(road, MobilityConfig::default())?;
/// let mut rng = StdRng::seed_from_u64(7);
/// for _ in 0..100 {
///     traffic.step(&mut rng);
/// }
/// // Every vehicle is on the road.
/// assert!(traffic.vehicles().iter().all(|v| v.position_m >= 0.0 && v.position_m < 1000.0));
/// # Ok::<(), vanet::VanetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Traffic {
    road: Road,
    config: MobilityConfig,
    vehicles: Vec<Vehicle>,
    next_id: u64,
    total_entered: u64,
    total_exited: u64,
}

/// What happened during one mobility slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobilitySlot {
    /// Vehicles that entered this slot.
    pub entered: Vec<VehicleId>,
    /// Vehicles that left the road this slot.
    pub exited: Vec<VehicleId>,
}

impl Traffic {
    /// Creates an empty road with the given mobility process.
    ///
    /// # Errors
    ///
    /// Returns [`VanetError::BadParameter`] if the config is invalid.
    pub fn new(road: Road, config: MobilityConfig) -> Result<Self, VanetError> {
        config.validate()?;
        Ok(Traffic {
            road,
            config,
            vehicles: Vec::new(),
            next_id: 0,
            total_entered: 0,
            total_exited: 0,
        })
    }

    /// The road the traffic flows on.
    pub fn road(&self) -> &Road {
        &self.road
    }

    /// Vehicles currently on the road, in entry order.
    pub fn vehicles(&self) -> &[Vehicle] {
        &self.vehicles
    }

    /// Number of vehicles currently on the road.
    pub fn n_vehicles(&self) -> usize {
        self.vehicles.len()
    }

    /// Total vehicles that ever entered.
    pub fn total_entered(&self) -> u64 {
        self.total_entered
    }

    /// Total vehicles that drove off the end.
    pub fn total_exited(&self) -> u64 {
        self.total_exited
    }

    /// Advances one slot: move everyone, remove vehicles past the end,
    /// then admit at most one new vehicle at position 0.
    pub fn step(&mut self, rng: &mut dyn RngCore) -> MobilitySlot {
        let mut exited = Vec::new();
        let length = self.road.length_m();
        self.vehicles.retain_mut(|v| {
            v.position_m += v.speed_mps;
            if v.position_m >= length {
                exited.push(v.id);
                false
            } else {
                true
            }
        });
        self.total_exited += exited.len() as u64;

        let mut entered = Vec::new();
        if rng.gen::<f64>() < self.config.entry_probability {
            let id = VehicleId(self.next_id);
            self.next_id += 1;
            let speed = if (self.config.speed_max - self.config.speed_min).abs() < f64::EPSILON {
                self.config.speed_min
            } else {
                rng.gen_range(self.config.speed_min..self.config.speed_max)
            };
            self.vehicles.push(Vehicle {
                id,
                position_m: 0.0,
                speed_mps: speed,
            });
            self.total_entered += 1;
            entered.push(id);
        }
        MobilitySlot { entered, exited }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Traffic, StdRng) {
        let road = Road::new(500.0, 5).unwrap();
        let traffic = Traffic::new(road, MobilityConfig::default()).unwrap();
        (traffic, StdRng::seed_from_u64(3))
    }

    #[test]
    fn vehicles_stay_on_road() {
        let (mut traffic, mut rng) = setup();
        for _ in 0..500 {
            traffic.step(&mut rng);
            for v in traffic.vehicles() {
                assert!(v.position_m >= 0.0 && v.position_m < 500.0);
            }
        }
    }

    #[test]
    fn conservation_of_vehicles() {
        let (mut traffic, mut rng) = setup();
        for _ in 0..1000 {
            traffic.step(&mut rng);
        }
        assert_eq!(
            traffic.total_entered(),
            traffic.total_exited() + traffic.n_vehicles() as u64
        );
        assert!(traffic.total_entered() > 0);
        assert!(traffic.total_exited() > 0);
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let (mut traffic, mut rng) = setup();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let slot = traffic.step(&mut rng);
            for id in slot.entered {
                assert!(seen.insert(id), "duplicate id {id}");
            }
        }
    }

    #[test]
    fn entry_rate_matches_probability() {
        let road = Road::new(10_000.0, 10).unwrap();
        let cfg = MobilityConfig {
            entry_probability: 0.3,
            ..MobilityConfig::default()
        };
        let mut traffic = Traffic::new(road, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let slots = 20_000;
        for _ in 0..slots {
            traffic.step(&mut rng);
        }
        let rate = traffic.total_entered() as f64 / slots as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn zero_entry_probability_keeps_road_empty() {
        let road = Road::new(100.0, 2).unwrap();
        let cfg = MobilityConfig {
            entry_probability: 0.0,
            ..MobilityConfig::default()
        };
        let mut traffic = Traffic::new(road, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            traffic.step(&mut rng);
        }
        assert_eq!(traffic.n_vehicles(), 0);
    }

    #[test]
    fn config_validation() {
        assert!(MobilityConfig {
            entry_probability: 1.5,
            ..MobilityConfig::default()
        }
        .validate()
        .is_err());
        assert!(MobilityConfig {
            speed_min: 0.0,
            ..MobilityConfig::default()
        }
        .validate()
        .is_err());
        assert!(MobilityConfig {
            speed_min: 10.0,
            speed_max: 5.0,
            ..MobilityConfig::default()
        }
        .validate()
        .is_err());
        assert!(MobilityConfig::default().validate().is_ok());
    }

    #[test]
    fn display() {
        assert_eq!(VehicleId(4).to_string(), "uv#4");
    }
}
