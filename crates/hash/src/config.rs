use core::fmt;

/// The elastic-cuckoo knobs every table in the workspace shares: the
/// library's [`ElasticCuckooTable`](crate::ElasticCuckooTable), ECPT's
/// per-page-size tables (whose whole configuration this is) and ME-HPT's.
///
/// Defaults are Table III's parameters: 3 ways of 128 entries (8KB per way
/// of 64-byte page-table entries), upsize above 0.6 occupancy, downsize
/// below 0.2.
#[derive(Clone, Debug, PartialEq)]
pub struct CuckooConfig {
    /// Number of ways (hash functions). At least 2.
    pub ways: usize,
    /// Entries per way at creation (a power of two). Also the floor below
    /// which downsizing stops.
    pub initial_entries_per_way: usize,
    /// Occupancy fraction that triggers an upsize.
    pub upsize_threshold: f64,
    /// Occupancy fraction that triggers a downsize.
    pub downsize_threshold: f64,
    /// Entries migrated from each resizing way per insert ("the OS uses the
    /// opportunity to rehash one element"; 2 guarantees a resize finishes
    /// before the next one triggers).
    pub migrate_per_insert: usize,
    /// Cuckoo kicks before an insert forces an upsize.
    pub max_kicks: usize,
    /// Seed for the hash functions and the random way choice.
    pub seed: u64,
}

impl Default for CuckooConfig {
    fn default() -> CuckooConfig {
        CuckooConfig {
            ways: 3,
            initial_entries_per_way: 128,
            upsize_threshold: 0.6,
            downsize_threshold: 0.2,
            migrate_per_insert: 2,
            max_kicks: 128,
            seed: 0xec9_7ab1e,
        }
    }
}

impl CuckooConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ways < 2 {
            return Err(ConfigError::TooFewWays(self.ways));
        }
        if !self.initial_entries_per_way.is_power_of_two() {
            return Err(ConfigError::InitialSizeNotPowerOfTwo(
                self.initial_entries_per_way,
            ));
        }
        if !(0.0..1.0).contains(&self.upsize_threshold)
            || !(0.0..1.0).contains(&self.downsize_threshold)
            || self.downsize_threshold >= self.upsize_threshold
        {
            return Err(ConfigError::BadThresholds {
                upsize: self.upsize_threshold,
                downsize: self.downsize_threshold,
            });
        }
        if self.migrate_per_insert == 0 {
            return Err(ConfigError::ZeroMigrationRate);
        }
        Ok(())
    }
}

/// How a table (or way) grows and shrinks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ResizeMode {
    /// The ECPT baseline (Section II-B): allocate a fresh table of the new
    /// size and gradually migrate entries; old and new coexist until the
    /// migration finishes, so peak memory is `old + new`.
    #[default]
    OutOfPlace,
    /// The paper's contribution (Section IV-C): the new table shares the
    /// old table's memory. Upsizing consumes one extra bit of the same hash
    /// key, so each migrated entry either stays in place or moves to the
    /// same offset in the new upper half; peak memory is `max(old, new)`.
    InPlace,
}

/// Which ways participate in a resize.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum WaySizing {
    /// The ECPT baseline: all W ways double (or halve) together.
    #[default]
    AllWay,
    /// The paper's per-way resizing (Section IV-D): one way resizes at a
    /// time, gated so no way grows beyond double another, with
    /// weighted-random insertion proportional to per-way free slots.
    PerWay,
}

/// Configuration of the elastic-cuckoo core and of an
/// [`ElasticCuckooTable`](crate::ElasticCuckooTable): the shared knobs plus
/// the two resize techniques.
///
/// The default is the ECPT baseline: out-of-place, all-way resizing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Config {
    /// The shared knobs.
    pub base: CuckooConfig,
    /// Out-of-place (ECPT baseline) or in-place (ME-HPT) resizing.
    pub resize_mode: ResizeMode,
    /// All-way (ECPT baseline) or per-way (ME-HPT) resizing.
    pub sizing: WaySizing,
}

impl Config {
    /// The ECPT-baseline configuration: out-of-place, all-way resizing.
    pub fn ecpt_baseline() -> Config {
        Config::default()
    }

    /// The ME-HPT configuration: in-place, per-way resizing.
    pub fn mehpt() -> Config {
        Config {
            resize_mode: ResizeMode::InPlace,
            sizing: WaySizing::PerWay,
            ..Config::default()
        }
    }
}

/// An invalid [`CuckooConfig`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// Cuckoo hashing needs at least two ways.
    TooFewWays(usize),
    /// Way sizes must be powers of two (in-place resizing consumes hash-key
    /// bits one at a time).
    InitialSizeNotPowerOfTwo(usize),
    /// Thresholds must satisfy `0 ≤ downsize < upsize < 1`.
    BadThresholds {
        /// The configured upsize threshold.
        upsize: f64,
        /// The configured downsize threshold.
        downsize: f64,
    },
    /// At least one entry must migrate per insert or resizes never finish.
    ZeroMigrationRate,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::TooFewWays(w) => {
                write!(f, "cuckoo hashing needs at least 2 ways, got {w}")
            }
            ConfigError::InitialSizeNotPowerOfTwo(n) => {
                write!(f, "initial entries per way must be a power of two, got {n}")
            }
            ConfigError::BadThresholds { upsize, downsize } => write!(
                f,
                "thresholds must satisfy 0 <= downsize < upsize < 1, got downsize {downsize} and upsize {upsize}"
            ),
            ConfigError::ZeroMigrationRate => {
                write!(f, "migrate_per_insert must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_table_iii() {
        let c = CuckooConfig::default();
        c.validate().unwrap();
        assert_eq!(c.ways, 3);
        assert_eq!(c.initial_entries_per_way, 128);
        assert_eq!(c.upsize_threshold, 0.6);
        assert_eq!(c.downsize_threshold, 0.2);
    }

    #[test]
    fn presets_differ_in_techniques() {
        let ecpt = Config::ecpt_baseline();
        let mehpt = Config::mehpt();
        assert_eq!(ecpt.resize_mode, ResizeMode::OutOfPlace);
        assert_eq!(ecpt.sizing, WaySizing::AllWay);
        assert_eq!(mehpt.resize_mode, ResizeMode::InPlace);
        assert_eq!(mehpt.sizing, WaySizing::PerWay);
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = CuckooConfig {
            ways: 1,
            ..CuckooConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::TooFewWays(1)));
        c.ways = 3;
        c.initial_entries_per_way = 100;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InitialSizeNotPowerOfTwo(100))
        ));
        c.initial_entries_per_way = 128;
        c.downsize_threshold = 0.7;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadThresholds { .. })
        ));
        c.downsize_threshold = 0.2;
        c.migrate_per_insert = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroMigrationRate));
    }

    #[test]
    fn errors_display() {
        assert!(ConfigError::TooFewWays(1).to_string().contains("2 ways"));
        assert!(ConfigError::ZeroMigrationRate
            .to_string()
            .contains("at least 1"));
    }
}
