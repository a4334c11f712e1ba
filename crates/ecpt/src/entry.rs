use mehpt_types::{Ppn, Vpn};

/// Translations per clustered entry (one 64-byte cache line).
pub const CLUSTER_PTES: usize = 8;

/// A clustered page-table entry: the translations of 8 contiguous virtual
/// pages in one cache-line-sized entry.
///
/// This is Yaniv & Tsafrir's *page table entry clustering* as adopted by
/// ECPT (Section II-B): placing 8 contiguous PTEs together restores the
/// spatial locality that plain hashing destroys, and the hash tag
/// (`VPN >> 3`) is stored compactly (*page table entry compaction* models
/// the tag inside otherwise-unused PTE bits, so the entry still fits one
/// 64-byte line — which is why sizing math throughout uses
/// [`ClusterEntry::BYTES`] = 64).
///
/// That 64-byte line is the *modeled* layout: way and chunk sizes count 64
/// bytes per entry. On the host, a table's slot is one 8-byte word,
/// `tag << 31 | (row + 1)` (0 when empty), holding the cluster's tag
/// (below 2^33) and the index of its row (below 2^31 − 1); the
/// [`CLUSTER_PTES`] PTEs of each stored cluster live in that row of a
/// dense per-table arena, so host memory grows with the clusters stored,
/// not with the ways' capacity. A `ClusterEntry` is the entry as a
/// standalone value: its tag and its PTEs.
///
/// # Examples
///
/// ```
/// use mehpt_ecpt::ClusterEntry;
/// use mehpt_types::{Ppn, Vpn};
///
/// let vpn = Vpn(0x1234);
/// let mut e = ClusterEntry::new(ClusterEntry::tag_of(vpn));
/// e.set(vpn, Ppn(55));
/// assert_eq!(e.get(vpn), Some(Ppn(55)));
/// assert_eq!(e.get(Vpn(0x1235)), None); // same cluster, different slot
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterEntry {
    tag: u64,
    /// `0` marks an invalid translation; otherwise `ppn + 1`.
    ptes: [u64; CLUSTER_PTES],
}

impl ClusterEntry {
    /// The modeled size of one entry: a 64-byte cache line.
    pub const BYTES: u64 = 64;

    /// Creates an empty cluster with the given tag.
    pub fn new(tag: u64) -> ClusterEntry {
        ClusterEntry {
            tag,
            ptes: [0; CLUSTER_PTES],
        }
    }

    /// The cluster tag (hash key) of a VPN.
    #[inline]
    pub fn tag_of(vpn: Vpn) -> u64 {
        vpn.0 / CLUSTER_PTES as u64
    }

    /// The PTE slot of a VPN within its cluster.
    #[inline]
    pub fn slot_of(vpn: Vpn) -> usize {
        (vpn.0 % CLUSTER_PTES as u64) as usize
    }

    /// This cluster's tag.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Whether this cluster holds `vpn`'s translation slot.
    pub fn covers(&self, vpn: Vpn) -> bool {
        self.tag == Self::tag_of(vpn)
    }

    /// Reads the translation for `vpn`, if valid.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `vpn` belongs to a different cluster.
    pub fn get(&self, vpn: Vpn) -> Option<Ppn> {
        debug_assert!(self.covers(vpn));
        pte_get(&self.ptes, vpn)
    }

    /// Writes the translation for `vpn`; returns the previous one.
    pub fn set(&mut self, vpn: Vpn, ppn: Ppn) -> Option<Ppn> {
        debug_assert!(self.covers(vpn));
        pte_set(&mut self.ptes, vpn, ppn)
    }

    /// Invalidates the translation for `vpn`; returns it.
    pub fn clear(&mut self, vpn: Vpn) -> Option<Ppn> {
        debug_assert!(self.covers(vpn));
        pte_clear(&mut self.ptes, vpn)
    }

    /// The number of valid translations in the cluster.
    pub fn valid_count(&self) -> usize {
        self.ptes.iter().filter(|&&p| p != 0).count()
    }

    /// Whether no translation is valid.
    pub fn is_empty(&self) -> bool {
        self.valid_count() == 0
    }
}

// A PTE row holds `0` for an invalid translation, otherwise `ppn + 1`.

/// Reads `vpn`'s translation from its cluster's PTE row.
#[inline]
pub(crate) fn pte_get(row: &[u64; CLUSTER_PTES], vpn: Vpn) -> Option<Ppn> {
    row[ClusterEntry::slot_of(vpn)].checked_sub(1).map(Ppn)
}

/// Writes `vpn`'s translation into its cluster's PTE row; returns the
/// previous one.
#[inline]
pub(crate) fn pte_set(row: &mut [u64; CLUSTER_PTES], vpn: Vpn, ppn: Ppn) -> Option<Ppn> {
    let prev = pte_get(row, vpn);
    row[ClusterEntry::slot_of(vpn)] = ppn.0 + 1;
    prev
}

/// Invalidates `vpn`'s translation in its cluster's PTE row; returns it.
#[inline]
pub(crate) fn pte_clear(row: &mut [u64; CLUSTER_PTES], vpn: Vpn) -> Option<Ppn> {
    let prev = pte_get(row, vpn);
    row[ClusterEntry::slot_of(vpn)] = 0;
    prev
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_contiguous_vpns_share_a_cluster() {
        let base = Vpn(0x1000);
        let tag = ClusterEntry::tag_of(base);
        for i in 0..8 {
            assert_eq!(ClusterEntry::tag_of(Vpn(base.0 + i)), tag);
            assert_eq!(ClusterEntry::slot_of(Vpn(base.0 + i)), i as usize);
        }
        assert_ne!(ClusterEntry::tag_of(Vpn(base.0 + 8)), tag);
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let vpn = Vpn(42);
        let mut e = ClusterEntry::new(ClusterEntry::tag_of(vpn));
        assert_eq!(e.get(vpn), None);
        assert_eq!(e.set(vpn, Ppn(7)), None);
        assert_eq!(e.get(vpn), Some(Ppn(7)));
        assert_eq!(e.set(vpn, Ppn(8)), Some(Ppn(7)));
        assert_eq!(e.clear(vpn), Some(Ppn(8)));
        assert!(e.is_empty());
    }

    #[test]
    fn ppn_zero_is_representable() {
        let vpn = Vpn(0);
        let mut e = ClusterEntry::new(0);
        e.set(vpn, Ppn(0));
        assert_eq!(e.get(vpn), Some(Ppn(0)));
        assert_eq!(e.valid_count(), 1);
    }

    #[test]
    fn valid_count_tracks_slots() {
        let mut e = ClusterEntry::new(0);
        for i in 0..8u64 {
            e.set(Vpn(i), Ppn(i + 100));
        }
        assert_eq!(e.valid_count(), 8);
        e.clear(Vpn(3));
        assert_eq!(e.valid_count(), 7);
        assert!(!e.is_empty());
    }
}
