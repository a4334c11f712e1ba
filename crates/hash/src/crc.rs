use std::hash::{Hash, Hasher};

/// The CRC-64/ECMA-182 polynomial (normal form).
const CRC64_POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// The slicing-by-8 CRC-64 lookup tables, computed at compile time.
///
/// `CRC64_TABLES[0]` is the classic byte-at-a-time table: the CRC of one
/// byte `i` from a zero state. `CRC64_TABLES[n][i]` is that CRC followed by
/// `n` zero bytes, so eight independent lookups (one per byte of a 64-bit
/// word) fold a whole word into the state at once.
static CRC64_TABLES: [[u64; 256]; 8] = crc64_tables();

const fn crc64_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u64) << 56;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & (1 << 63) != 0 {
                (crc << 1) ^ CRC64_POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut n = 1;
    while n < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[n - 1][i];
            tables[n][i] = tables[0][(prev >> 56) as usize] ^ (prev << 8);
            i += 1;
        }
        n += 1;
    }
    tables
}

/// Computes the CRC-64/ECMA checksum of `bytes` starting from `init`.
///
/// This is the hash primitive the modeled MMU implements in hardware
/// (Table III: "Hash functions: CRC, latency 2 cycles").
///
/// # Examples
///
/// ```
/// use mehpt_hash::crc64;
///
/// assert_ne!(crc64(0, b"abc"), crc64(0, b"abd"));
/// assert_ne!(crc64(0, b"abc"), crc64(1, b"abc"));
/// ```
pub fn crc64(init: u64, bytes: &[u8]) -> u64 {
    let table = &CRC64_TABLES[0];
    let mut crc = init;
    for &b in bytes {
        crc = table[(((crc >> 56) as u8) ^ b) as usize] ^ (crc << 8);
    }
    crc
}

/// A [`Hasher`] computing CRC-64 with a nonlinear finalizer.
///
/// CRC is linear over GF(2): two hash functions that differ only in their
/// initial value would collide on exactly the same key pairs, which would
/// make the ways of a cuckoo table collide together and defeat the purpose
/// of multiple hash functions. The splitmix64 finalizer applied in
/// [`Hasher::finish`] breaks that linearity while keeping the hardware cost
/// model (a couple of cycles) realistic.
#[derive(Clone, Debug)]
pub struct Crc64Hasher {
    state: u64,
}

impl Crc64Hasher {
    /// Creates a hasher starting from the given initial CRC value.
    pub fn new(init: u64) -> Crc64Hasher {
        Crc64Hasher { state: init }
    }
}

impl Hasher for Crc64Hasher {
    fn finish(&self) -> u64 {
        // splitmix64 finalizer: decorrelates CRC's linear structure.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.state = crc64(self.state, bytes);
    }

    /// Folds all eight bytes of `k` at once (slicing-by-8), bit-identical
    /// to `write(&k.to_ne_bytes())`. Every hashed page-table key is a
    /// `u64`, so this is the path every cuckoo probe takes.
    fn write_u64(&mut self, k: u64) {
        let t = &CRC64_TABLES;
        // The first byte fed in meets the state's top byte.
        let x = self.state ^ u64::from_be_bytes(k.to_ne_bytes());
        self.state = t[7][(x >> 56) as usize]
            ^ t[6][(x >> 48) as u8 as usize]
            ^ t[5][(x >> 40) as u8 as usize]
            ^ t[4][(x >> 32) as u8 as usize]
            ^ t[3][(x >> 24) as u8 as usize]
            ^ t[2][(x >> 16) as u8 as usize]
            ^ t[1][(x >> 8) as u8 as usize]
            ^ t[0][x as u8 as usize];
    }
}

/// A family of per-way hash functions for a W-way cuckoo table.
///
/// Way `i` hashes with CRC-64 from a distinct initial value and a distinct
/// nonlinear finalizer input, so the ways behave as independent functions.
///
/// # Examples
///
/// ```
/// use mehpt_hash::HashFamily;
///
/// let family = HashFamily::new(3, 42);
/// let h0 = family.hash(0, &123u64);
/// let h1 = family.hash(1, &123u64);
/// assert_ne!(h0, h1);
/// ```
#[derive(Clone, Debug)]
pub struct HashFamily {
    inits: Vec<u64>,
}

impl HashFamily {
    /// Creates a family of `ways` hash functions derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`.
    pub fn new(ways: usize, seed: u64) -> HashFamily {
        assert!(ways > 0, "hash family needs at least one way");
        let mut state = seed ^ 0x6a09_e667_f3bc_c908;
        let inits = (0..ways)
            .map(|_| mehpt_types::rng::splitmix64(&mut state))
            .collect();
        HashFamily { inits }
    }

    /// The number of ways (hash functions) in the family.
    pub fn ways(&self) -> usize {
        self.inits.len()
    }

    /// Hashes `key` with way `way`'s function, returning a full 64-bit key.
    ///
    /// Table indices are produced by masking low bits of this value; an
    /// in-place resize consumes one more (or one fewer) bit of the same
    /// value, which is what makes the paper's in-place rehash work.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn hash<K: Hash + ?Sized>(&self, way: usize, key: &K) -> u64 {
        let mut hasher = Crc64Hasher::new(self.inits[way]);
        key.hash(&mut hasher);
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_distinguishes_inputs() {
        assert_ne!(crc64(0, b"hello"), crc64(0, b"hellp"));
        assert_ne!(crc64(0, b"a"), crc64(0, b"ab"));
    }

    #[test]
    fn crc_depends_on_init() {
        assert_ne!(crc64(1, b"x"), crc64(2, b"x"));
    }

    #[test]
    fn hasher_is_deterministic() {
        let h = |k: u64| {
            let mut hasher = Crc64Hasher::new(7);
            k.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(99), h(99));
        assert_ne!(h(99), h(100));
    }

    #[test]
    fn family_ways_decorrelated() {
        // The ways must not collide on the same pairs: check that keys
        // colliding in the low bits of way 0 do not also collide in way 1.
        let family = HashFamily::new(2, 1);
        let mask = 0xff;
        let mut joint_collisions = 0;
        let mut w0_collisions = 0;
        for a in 0..2000u64 {
            let b = a + 5000;
            if family.hash(0, &a) & mask == family.hash(0, &b) & mask {
                w0_collisions += 1;
                if family.hash(1, &a) & mask == family.hash(1, &b) & mask {
                    joint_collisions += 1;
                }
            }
        }
        assert!(w0_collisions > 0, "test needs some way-0 collisions");
        // If ways were linear shifts of each other, every way-0 collision
        // would also be a way-1 collision.
        assert!(
            joint_collisions * 16 <= w0_collisions,
            "{joint_collisions}/{w0_collisions} joint collisions — ways correlated"
        );
    }

    #[test]
    fn low_bits_look_uniform() {
        let family = HashFamily::new(1, 3);
        let mut buckets = [0u32; 16];
        for k in 0..16_000u64 {
            buckets[(family.hash(0, &k) & 0xf) as usize] += 1;
        }
        for b in buckets {
            assert!((800..1200).contains(&b), "bucket {b}");
        }
    }

    #[test]
    fn seeds_produce_different_families() {
        let f1 = HashFamily::new(1, 1);
        let f2 = HashFamily::new(1, 2);
        assert_ne!(f1.hash(0, &42u64), f2.hash(0, &42u64));
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        HashFamily::new(0, 0);
    }
}
