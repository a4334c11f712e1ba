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
/// not with the ways' capacity. `ClusterEntry` carries the entry's
/// constants and key math: its modeled size and a VPN's tag and slot.
///
/// # Examples
///
/// ```
/// use mehpt_ecpt::ClusterEntry;
/// use mehpt_types::Vpn;
///
/// let vpn = Vpn(0x1234);
/// assert_eq!(ClusterEntry::tag_of(vpn), 0x246);
/// assert_eq!(ClusterEntry::slot_of(vpn), 4);
/// assert_eq!(ClusterEntry::tag_of(Vpn(0x1235)), 0x246); // same cluster
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterEntry;

impl ClusterEntry {
    /// The modeled size of one entry: a 64-byte cache line.
    pub const BYTES: u64 = 64;

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
    fn pte_rows_set_get_and_clear() {
        let mut row = [0; CLUSTER_PTES];
        let vpn = Vpn(42);
        assert_eq!(pte_get(&row, vpn), None);
        assert_eq!(
            pte_set(&mut row, vpn, Ppn(0)),
            None,
            "PPN 0 is representable"
        );
        assert_eq!(pte_set(&mut row, vpn, Ppn(8)), Some(Ppn(0)));
        assert_eq!(pte_get(&row, Vpn(43)), None, "same cluster, different slot");
        assert_eq!(pte_clear(&mut row, vpn), Some(Ppn(8)));
        assert_eq!(row, [0; CLUSTER_PTES]);
    }
}
