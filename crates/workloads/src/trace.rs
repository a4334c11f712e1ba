use mehpt_types::rng::Xoshiro256;
use mehpt_types::VirtAddr;

/// A virtual-memory region (VMA) of a workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// Human-readable name ("props", "edges", "table", …).
    pub name: &'static str,
    /// Base virtual address (2MB-aligned).
    pub base: VirtAddr,
    /// Region length in bytes.
    pub bytes: u64,
    /// Whether the OS may back this region with transparent huge pages.
    ///
    /// Models the paper's observation that GUPS/SysBench benefit from THP
    /// while the graph applications' allocation patterns do not.
    pub thp_eligible: bool,
}

impl Region {
    /// Whether `va` falls inside the region.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va.0 >= self.base.0 && va.0 < self.base.0 + self.bytes
    }

    /// 4KB pages spanned.
    pub fn pages_4k(&self) -> u64 {
        self.bytes / 4096
    }
}

/// One phase of a workload's access program.
#[derive(Clone, Debug)]
pub enum Phase {
    /// Scan `pages` pages of a region sequentially from its start,
    /// issuing `reps_per_page` accesses within each page (512B stride).
    SeqScan {
        /// Index into the workload's region list.
        region: usize,
        /// Number of 4KB pages to touch.
        pages: u64,
        /// Accesses issued per page (models intra-page locality).
        reps_per_page: u32,
    },
    /// `count` accesses at uniformly random pages within the first
    /// `span_pages` pages of a region.
    RandPages {
        /// Index into the workload's region list.
        region: usize,
        /// Total accesses to issue.
        count: u64,
        /// The number of pages the random accesses spread over.
        span_pages: u64,
    },
    /// `count` accesses at random *clusters* (32KB / 8-page groups),
    /// touching one fixed page per cluster — the sparse pattern of GUPS and
    /// SysBench. Sparse touches are what blow up clustered HPTs: every
    /// touched page occupies its own cluster entry, so 1.5M touched pages
    /// need 1.5M entries and the ECPT way grows to 64MB.
    SparseRand {
        /// Index into the workload's region list.
        region: usize,
        /// Total accesses to issue.
        count: u64,
        /// The number of 8-page clusters the accesses spread over.
        clusters_span: u64,
    },
    /// `count` accesses mixing a wrapping sequential stream over one
    /// region with random accesses into another — the steady state of the
    /// graph workloads (edge scan + property gather).
    Mixed {
        /// Region scanned sequentially (wrapping).
        seq_region: usize,
        /// Pages of the sequential window.
        seq_pages: u64,
        /// Accesses per sequential page before advancing.
        seq_reps: u32,
        /// Region accessed randomly.
        rand_region: usize,
        /// Pages the random accesses spread over.
        rand_span_pages: u64,
        /// Probability an access is random rather than sequential.
        rand_ratio: f64,
        /// Total accesses to issue.
        count: u64,
    },
}

impl Phase {
    /// The number of accesses this phase will produce.
    pub fn len(&self) -> u64 {
        match *self {
            Phase::SeqScan {
                pages,
                reps_per_page,
                ..
            } => pages * reps_per_page as u64,
            Phase::RandPages { count, .. } => count,
            Phase::SparseRand { count, .. } => count,
            Phase::Mixed { count, .. } => count,
        }
    }

    /// Whether the phase produces no accesses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A workload: a set of regions plus a program of phases producing the
/// virtual-address trace — or a recorded trace replayed verbatim.
///
/// Implements [`Iterator`] over [`VirtAddr`]; deterministic for a given
/// seed.
#[derive(Clone, Debug)]
pub struct Workload {
    name: &'static str,
    nominal_data_bytes: u64,
    regions: Vec<Region>,
    phases: Vec<Phase>,
    rng: Xoshiro256,
    /// A verbatim recorded trace; when set, phases are ignored.
    recorded: Vec<VirtAddr>,
    // Cursor state.
    phase_idx: usize,
    emitted_in_phase: u64,
    seq_cursor: u64,
}

impl Workload {
    /// Assembles a workload.
    ///
    /// # Panics
    ///
    /// Panics if a phase references a region out of range or spans more
    /// pages than its region holds.
    pub fn new(
        name: &'static str,
        nominal_data_bytes: u64,
        regions: Vec<Region>,
        phases: Vec<Phase>,
        seed: u64,
    ) -> Workload {
        for phase in &phases {
            let check = |region: usize, pages: u64| {
                assert!(
                    region < regions.len(),
                    "{name}: region {region} out of range"
                );
                assert!(
                    pages <= regions[region].pages_4k(),
                    "{name}: phase spans {pages} pages but region {region} has {}",
                    regions[region].pages_4k()
                );
            };
            match *phase {
                Phase::SeqScan { region, pages, .. } => check(region, pages),
                Phase::RandPages {
                    region, span_pages, ..
                } => check(region, span_pages),
                Phase::SparseRand {
                    region,
                    clusters_span,
                    ..
                } => check(region, clusters_span * 8),
                Phase::Mixed {
                    seq_region,
                    seq_pages,
                    rand_region,
                    rand_span_pages,
                    ..
                } => {
                    check(seq_region, seq_pages);
                    check(rand_region, rand_span_pages);
                }
            }
        }
        Workload {
            name,
            nominal_data_bytes,
            regions,
            phases,
            rng: Xoshiro256::seed_from_u64(seed),
            recorded: Vec::new(),
            phase_idx: 0,
            emitted_in_phase: 0,
            seq_cursor: 0,
        }
    }

    /// Wraps a recorded access sequence (e.g. loaded from a trace file) as
    /// a replayable workload.
    ///
    /// Every access must lie inside one of `regions`: the simulated OS
    /// maps pages only inside regions, and the simulator aborts a run at
    /// the first access outside them. [`FileTrace::parse`] refuses such a
    /// trace up front.
    ///
    /// [`FileTrace::parse`]: crate::FileTrace::parse
    pub fn from_recorded(
        name: &'static str,
        regions: Vec<Region>,
        accesses: Vec<VirtAddr>,
    ) -> Workload {
        let bytes: u64 = regions.iter().map(|r| r.bytes).sum();
        Workload {
            name,
            nominal_data_bytes: bytes,
            regions,
            phases: Vec::new(),
            rng: Xoshiro256::seed_from_u64(0),
            recorded: accesses,
            phase_idx: 0,
            emitted_in_phase: 0,
            seq_cursor: 0,
        }
    }

    /// The workload's name (e.g. `"BFS"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The application's nominal data footprint (Table I column 2), for
    /// reporting; the *touched* footprint emerges from the trace.
    pub fn nominal_data_bytes(&self) -> u64 {
        self.nominal_data_bytes
    }

    /// The workload's memory regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total accesses the full trace will produce.
    pub fn total_accesses(&self) -> u64 {
        if !self.recorded.is_empty() {
            return self.recorded.len() as u64;
        }
        self.phases.iter().map(Phase::len).sum()
    }

    fn page_addr(&mut self, region: usize, page: u64, offset_slots: u64) -> VirtAddr {
        let r = &self.regions[region];
        let off = (self.rng.next_below(offset_slots)) * 512;
        VirtAddr::new(r.base.0 + page * 4096 + off)
    }
}

impl Iterator for Workload {
    type Item = VirtAddr;

    fn next(&mut self) -> Option<VirtAddr> {
        if !self.recorded.is_empty() {
            let i = self.seq_cursor as usize;
            self.seq_cursor += 1;
            return self.recorded.get(i).copied();
        }
        loop {
            let phase = self.phases.get(self.phase_idx)?.clone();
            if self.emitted_in_phase >= phase.len() {
                self.phase_idx += 1;
                self.emitted_in_phase = 0;
                self.seq_cursor = 0;
                continue;
            }
            let i = self.emitted_in_phase;
            self.emitted_in_phase += 1;
            let va = match phase {
                Phase::SeqScan {
                    region,
                    reps_per_page,
                    ..
                } => {
                    let page = i / reps_per_page as u64;
                    self.page_addr(region, page, 8)
                }
                Phase::RandPages {
                    region, span_pages, ..
                } => {
                    let page = self.rng.next_below(span_pages);
                    self.page_addr(region, page, 8)
                }
                Phase::SparseRand {
                    region,
                    clusters_span,
                    ..
                } => {
                    let cluster = self.rng.next_below(clusters_span);
                    // A stable pseudo-random page within the cluster, so
                    // revisits hit the same page (one page per cluster).
                    let mut h = cluster ^ 0x9e37_79b9_7f4a_7c15;
                    let offset = mehpt_types::rng::splitmix64(&mut h) & 7;
                    self.page_addr(region, cluster * 8 + offset, 8)
                }
                Phase::Mixed {
                    seq_region,
                    seq_pages,
                    seq_reps,
                    rand_region,
                    rand_span_pages,
                    rand_ratio,
                    ..
                } => {
                    if self.rng.next_bool(rand_ratio) {
                        let page = self.rng.next_below(rand_span_pages);
                        self.page_addr(rand_region, page, 8)
                    } else {
                        let step = self.seq_cursor;
                        self.seq_cursor += 1;
                        let page = (step / seq_reps as u64) % seq_pages;
                        self.page_addr(seq_region, page, 8)
                    }
                }
            };
            return Some(va);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(bytes: u64) -> Region {
        Region {
            name: "r",
            base: VirtAddr::new(0x10_0000_0000),
            bytes,
            thp_eligible: false,
        }
    }

    #[test]
    fn seq_scan_touches_every_page_in_order() {
        let mut w = Workload::new(
            "t",
            0,
            vec![region(16 * 4096)],
            vec![Phase::SeqScan {
                region: 0,
                pages: 16,
                reps_per_page: 2,
            }],
            1,
        );
        let pages: Vec<u64> = (&mut w).map(|va| (va.0 - 0x10_0000_0000) / 4096).collect();
        assert_eq!(pages.len(), 32);
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(*p, (i / 2) as u64);
        }
    }

    #[test]
    fn rand_pages_stay_in_span() {
        let mut w = Workload::new(
            "t",
            0,
            vec![region(1 << 24)],
            vec![Phase::RandPages {
                region: 0,
                count: 1000,
                span_pages: 7,
            }],
            2,
        );
        for va in &mut w {
            let page = (va.0 - 0x10_0000_0000) / 4096;
            assert!(page < 7);
        }
    }

    #[test]
    fn mixed_produces_both_streams() {
        let far = Region {
            name: "far",
            base: VirtAddr::new(0x20_0000_0000),
            bytes: 1 << 22,
            thp_eligible: false,
        };
        let mut w = Workload::new(
            "t",
            0,
            vec![region(1 << 22), far],
            vec![Phase::Mixed {
                seq_region: 0,
                seq_pages: 64,
                seq_reps: 1,
                rand_region: 1,
                rand_span_pages: 1024,
                rand_ratio: 0.5,
                count: 10_000,
            }],
            3,
        );
        let r1_base = w.regions()[1].base.0;
        let (mut seq, mut rand) = (0, 0);
        for va in &mut w {
            if va.0 >= r1_base {
                rand += 1;
            } else {
                seq += 1;
            }
        }
        assert!(seq > 4000 && rand > 4000, "seq {seq} rand {rand}");
    }

    #[test]
    fn trace_is_deterministic() {
        let build = || {
            Workload::new(
                "t",
                0,
                vec![region(1 << 24)],
                vec![Phase::RandPages {
                    region: 0,
                    count: 100,
                    span_pages: 4096,
                }],
                7,
            )
            .collect::<Vec<VirtAddr>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn total_accesses_matches_iteration() {
        let w = Workload::new(
            "t",
            0,
            vec![region(1 << 22)],
            vec![
                Phase::SeqScan {
                    region: 0,
                    pages: 10,
                    reps_per_page: 3,
                },
                Phase::RandPages {
                    region: 0,
                    count: 55,
                    span_pages: 10,
                },
            ],
            4,
        );
        assert_eq!(w.total_accesses(), 85);
        assert_eq!(w.count(), 85);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_region_rejected() {
        Workload::new(
            "t",
            0,
            vec![region(4096)],
            vec![Phase::SeqScan {
                region: 1,
                pages: 1,
                reps_per_page: 1,
            }],
            0,
        );
    }
}
