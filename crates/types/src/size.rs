use core::fmt;

/// One kibibyte (1024 bytes).
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;
/// One tebibyte.
pub const TIB: u64 = 1024 * GIB;

/// A byte quantity with human-readable `Display` formatting.
///
/// Used by the benchmark harness to print the paper's tables with the same
/// units the paper uses (KB / MB / GB / TB / PB).
///
/// # Examples
///
/// ```
/// use mehpt_types::ByteSize;
///
/// assert_eq!(ByteSize(64 * 1024 * 1024).to_string(), "64MB");
/// assert_eq!(ByteSize(1536).to_string(), "1.50KB");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Constructs a size from a count of kibibytes.
    pub const fn from_kib(kib: u64) -> ByteSize {
        ByteSize(kib * KIB)
    }

    /// Constructs a size from a count of mebibytes.
    pub const fn from_mib(mib: u64) -> ByteSize {
        ByteSize(mib * MIB)
    }

    /// Constructs a size from a count of gibibytes.
    pub const fn from_gib(gib: u64) -> ByteSize {
        ByteSize(gib * GIB)
    }

    /// The quantity in bytes.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// The quantity in mebibytes, as a float (for table output).
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / MIB as f64
    }

    /// The quantity in kibibytes, as a float (for table output).
    pub fn as_kib_f64(self) -> f64 {
        self.0 as f64 / KIB as f64
    }
}

impl From<u64> for ByteSize {
    fn from(bytes: u64) -> ByteSize {
        ByteSize(bytes)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const UNITS: [(u64, &str); 5] = [
            (TIB * 1024, "PB"),
            (TIB, "TB"),
            (GIB, "GB"),
            (MIB, "MB"),
            (KIB, "KB"),
        ];
        for (unit, suffix) in UNITS {
            if self.0 >= unit {
                return if self.0.is_multiple_of(unit) {
                    write!(f, "{}{}", self.0 / unit, suffix)
                } else {
                    write!(f, "{:.2}{}", self.0 as f64 / unit as f64, suffix)
                };
            }
        }
        write!(f, "{}B", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_units_print_without_decimals() {
        assert_eq!(ByteSize(8 * KIB).to_string(), "8KB");
        assert_eq!(ByteSize(MIB).to_string(), "1MB");
        assert_eq!(ByteSize(3 * GIB).to_string(), "3GB");
        assert_eq!(ByteSize(6 * TIB).to_string(), "6TB");
        assert_eq!(ByteSize(3 * 1024 * TIB).to_string(), "3PB");
    }

    #[test]
    fn inexact_units_print_two_decimals() {
        assert_eq!(ByteSize(1536).to_string(), "1.50KB");
        assert_eq!(ByteSize(MIB + MIB / 2).to_string(), "1.50MB");
    }

    #[test]
    fn tiny_sizes_print_bytes() {
        assert_eq!(ByteSize(0).to_string(), "0B");
        assert_eq!(ByteSize(512).to_string(), "512B");
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(ByteSize::from_kib(8), ByteSize(8192));
        assert_eq!(ByteSize::from_mib(1), ByteSize(MIB));
        assert_eq!(ByteSize::from_gib(2), ByteSize(2 * GIB));
    }

    #[test]
    fn float_views() {
        assert_eq!(ByteSize(MIB).as_mib_f64(), 1.0);
        assert_eq!(ByteSize(512).as_kib_f64(), 0.5);
    }
}
