use crate::CacheStats;

/// The latency seen by page-walk memory references: Table III's 200-cycle
/// average round trip to memory, for every reference.
///
/// The paper compares radix and HPT walks by how many dependent memory
/// accesses each makes ("up to four memory accesses in sequence" vs "only
/// one memory access", Figure 7). The dedicated translation caches (PWC for
/// radix, CWC for HPTs) are modeled by the walkers, and page-table lines
/// see little reuse in the data hierarchy of a busy 8-core machine. So the
/// model is a counter of accesses and cycles. Its one latency rule,
/// [`MemoryModel::round_trip`], also times the walkers' timing walks,
/// which charge no model: the simulator's record is the walkers' counters.
///
/// # Examples
///
/// ```
/// use mehpt_tlb::MemoryModel;
///
/// let mut mem = MemoryModel::paper_default();
/// assert_eq!(mem.charge(3), MemoryModel::LATENCY); // one parallel round trip
/// assert_eq!(mem.charge(0), 0);
/// assert_eq!(MemoryModel::round_trip(3), MemoryModel::LATENCY);
/// assert_eq!((mem.accesses(), mem.total_cycles()), (3, 600));
/// ```
#[derive(Clone, Debug)]
pub struct MemoryModel {
    accesses: u64,
    total_cycles: u64,
}

impl MemoryModel {
    /// Table III's average round trip to memory, in cycles.
    pub const LATENCY: u64 = 200;

    /// Creates the model with no accesses charged.
    pub fn paper_default() -> MemoryModel {
        MemoryModel {
            accesses: 0,
            total_cycles: 0,
        }
    }

    /// The latency of `n` accesses issued in parallel: one round trip, or
    /// 0 for no access.
    ///
    /// HPT lookups probe all W ways in parallel (Section II-B); a radix
    /// walk's dependent accesses are one round trip each.
    #[inline]
    pub const fn round_trip(n: u32) -> u64 {
        if n == 0 {
            0
        } else {
            Self::LATENCY
        }
    }

    /// Charges `n` accesses issued in parallel and returns their latency,
    /// [`MemoryModel::round_trip`]. Each access still counts in
    /// [`MemoryModel::accesses`] and [`MemoryModel::total_cycles`].
    #[inline]
    pub fn charge(&mut self, n: u32) -> u64 {
        self.accesses += u64::from(n);
        self.total_cycles += u64::from(n) * Self::LATENCY;
        Self::round_trip(n)
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total cycles across all accesses.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// L2 hit/miss counters: always zero, since the model has no caches.
    /// Kept for speedbench's per-layer report, which reads them.
    pub fn l2_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// L3 hit/miss counters: always zero, like [`MemoryModel::l2_stats`].
    pub fn l3_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_accesses_cost_one_round_trip() {
        let mut m = MemoryModel::paper_default();
        assert_eq!(m.charge(1), 200);
        assert_eq!(m.charge(1), 200, "no warm path");
        assert_eq!(m.charge(3), 200, "the slowest probe dominates");
        assert_eq!(m.charge(0), 0);
        assert_eq!((m.accesses(), m.total_cycles()), (5, 1000));
        assert_eq!(m.l2_stats(), CacheStats::default());
        assert_eq!(m.l3_stats(), CacheStats::default());
    }
}
