use mehpt_core::L2pTable;
use mehpt_mem::AllocTag;
use mehpt_workloads::Workload;

use crate::runner::run_slices;
use crate::{SimConfig, SimReport};

/// Fixed OS cost of a context switch (register state, scheduler).
pub(crate) const SWITCH_CYCLES: u64 = 1_000;
/// Cycles per 8 bytes of L2P state saved or restored on a switch
/// (streaming MMU register I/O).
const L2P_QWORD_CYCLES: u64 = 4;

/// Cycles to save an L2P table with `entries` live entries on a switch out
/// and restore it on the switch back in (Section V-C): its
/// [`L2pTable::ENTRY_BITS`]-bit entries, rounded up to whole bytes and then
/// to whole 8-byte words, at `L2P_QWORD_CYCLES` each way.
pub fn l2p_save_restore_cycles(entries: u64) -> u64 {
    let bytes = (entries * L2pTable::ENTRY_BITS).div_ceil(8);
    2 * L2P_QWORD_CYCLES * bytes.div_ceil(8)
}

/// Configuration of a multiprogrammed run.
#[derive(Clone, Debug)]
pub struct MultiConfig {
    /// The per-process simulation configuration (page-table kind, THP,
    /// seed). Memory size and fragmentation apply machine-wide.
    pub base: SimConfig,
    /// Accesses per scheduling slice before the next process runs.
    pub time_slice: u64,
}

impl MultiConfig {
    /// Paper-flavored defaults: 50K-access slices.
    pub fn paper(base: SimConfig) -> MultiConfig {
        MultiConfig {
            base,
            time_slice: 50_000,
        }
    }
}

/// The outcome of a multiprogrammed run.
#[derive(Clone, Debug)]
pub struct MultiReport {
    /// Per-process reports (same shape as single-process runs).
    pub processes: Vec<SimReport>,
    /// Context switches performed.
    pub switches: u64,
    /// Cycles spent switching (including L2P save/restore).
    pub switch_cycles: u64,
    /// Peak page-table memory across *all* processes simultaneously —
    /// the multiprogrammed pressure the paper warns about (Section IV-C:
    /// "there may potentially be several HPT resizings occurring
    /// concurrently, consuming substantial memory").
    pub peak_pt_bytes: u64,
    /// Largest contiguous page-table allocation machine-wide.
    pub max_contiguous: u64,
}

impl MultiReport {
    /// Total cycles across processes plus switching.
    pub fn total_cycles(&self) -> u64 {
        self.processes
            .iter()
            .map(|p| p.metrics.total_cycles)
            .sum::<u64>()
            + self.switch_cycles
    }
}

/// Runs several workloads round-robin on one core with a shared TLB and
/// shared physical memory — each process with its own page table of the
/// configured kind.
///
/// On every context switch the TLB and the incoming/outgoing process's
/// walker caches are flushed, and the switch costs `SWITCH_CYCLES` plus,
/// for ME-HPT, [`l2p_save_restore_cycles`] of the L2P table's live
/// entries. When compaction during one process's slice moves another
/// process's data pages, the owner's page table is rewritten at the end of
/// the slice.
///
/// # Panics
///
/// Panics if `workloads` is empty or the initial page tables cannot be
/// allocated.
pub fn run_multi(workloads: Vec<Workload>, cfg: MultiConfig) -> MultiReport {
    let m = run_slices(workloads, &cfg);
    let pt = m.mem.stats().tag(AllocTag::PageTable);
    let (peak_pt_bytes, max_contiguous) = (pt.peak_bytes, pt.max_contiguous_bytes);
    let processes = m
        .procs
        .into_iter()
        .map(|p| p.into_report(&cfg.base, &m.mem))
        .collect();
    MultiReport {
        processes,
        switches: m.switches,
        switch_cycles: m.switch_cycles,
        peak_pt_bytes,
        max_contiguous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PtKind;
    use mehpt_types::GIB;
    use mehpt_workloads::{App, WorkloadCfg};

    fn wl(app: App) -> Workload {
        app.build(&WorkloadCfg {
            scale: 0.005,
            ..WorkloadCfg::default()
        })
    }

    fn cfg(kind: PtKind) -> MultiConfig {
        let mut base = SimConfig::paper(kind, false);
        base.mem_bytes = 2 * GIB;
        MultiConfig::paper(base)
    }

    #[test]
    fn two_processes_complete_and_account() {
        let r = run_multi(vec![wl(App::Mummer), wl(App::Tc)], cfg(PtKind::MeHpt));
        assert_eq!(r.processes.len(), 2);
        for p in &r.processes {
            assert!(p.aborted.is_none(), "{:?}", p.aborted);
            assert!(p.metrics.accesses > 0);
            assert!(p.metrics.faults > 0);
        }
        assert!(r.switches >= 2);
        assert!(r.switch_cycles > 0);
        assert!(r.peak_pt_bytes > 0);
        assert!(r.total_cycles() > r.switch_cycles);
    }

    #[test]
    fn multiprogrammed_peak_exceeds_any_single_process() {
        let r = run_multi(
            vec![wl(App::Bfs), wl(App::Pr), wl(App::Cc)],
            cfg(PtKind::MeHpt),
        );
        let max_single = r
            .processes
            .iter()
            .map(|p| p.metrics.pt_peak_bytes)
            .max()
            .unwrap();
        assert!(
            r.peak_pt_bytes > max_single,
            "combined {} vs single {}",
            r.peak_pt_bytes,
            max_single
        );
    }

    #[test]
    fn mehpt_contiguity_holds_under_multiprogramming() {
        let ecpt = run_multi(vec![wl(App::Bfs), wl(App::Pr)], cfg(PtKind::Ecpt));
        let mehpt = run_multi(vec![wl(App::Bfs), wl(App::Pr)], cfg(PtKind::MeHpt));
        assert!(
            mehpt.max_contiguous <= ecpt.max_contiguous,
            "mehpt {} vs ecpt {}",
            mehpt.max_contiguous,
            ecpt.max_contiguous
        );
    }

    #[test]
    fn max_accesses_caps_every_process() {
        // The cap falls inside each process's fourth slice, short of both
        // traces' ends.
        let mut cfg = cfg(PtKind::Ecpt);
        cfg.time_slice = 3_000;
        cfg.base.max_accesses = Some(10_000);
        let r = run_multi(vec![wl(App::Mummer), wl(App::Tc)], cfg);
        for p in &r.processes {
            assert_eq!(p.metrics.accesses, 10_000, "{}", p.app);
        }
    }

    #[test]
    fn l2p_save_restore_rounds_up_to_whole_words() {
        assert_eq!(l2p_save_restore_cycles(0), 0);
        // 53 entries: 1749 bits -> 219 bytes -> 28 words, saved and restored.
        assert_eq!(l2p_save_restore_cycles(53), 2 * 4 * 28);
        // The full 288-entry table: 1188 bytes -> 149 words.
        assert_eq!(l2p_save_restore_cycles(288), 2 * 4 * 149);
    }

    /// Two GUPS processes with ECPT on a small, fragmented machine: the
    /// way doublings compact memory and move data pages of both processes,
    /// most of them during the other process's slice. Afterwards every
    /// page of every process still translates to a live data block of its
    /// size, and no block is mapped twice.
    #[test]
    fn data_moves_reach_the_owning_process() {
        let wls = [1, 2]
            .iter()
            .map(|&seed| {
                App::Gups.build(&WorkloadCfg {
                    scale: 0.02,
                    seed,
                    ..WorkloadCfg::default()
                })
            })
            .collect();
        let mut cfg = cfg(PtKind::Ecpt);
        cfg.base.mem_bytes = 256 << 20;
        cfg.base.fragmentation = 0.99;
        cfg.time_slice = 2_000;
        let m = run_slices(wls, &cfg);
        assert!(m.moves_handed_over > 0, "no move crossed processes");
        let mut frames = std::collections::HashSet::new();
        for proc in &m.procs {
            let mut pages = 0;
            for (va, ps, frame) in proc.mapped_pages() {
                let order = (ps.shift() - 12) as u8;
                assert_eq!(
                    m.mem.buddy().allocated_in(frame, frame + 1).next(),
                    Some((frame, order, AllocTag::Data)),
                    "{va:?} maps no live data block"
                );
                assert!(frames.insert(frame), "frame {frame} is mapped twice");
                pages += 1;
            }
            assert!(pages > 0);
        }
    }

    #[test]
    fn deterministic() {
        let a = run_multi(vec![wl(App::Mummer), wl(App::Tc)], cfg(PtKind::Ecpt));
        let b = run_multi(vec![wl(App::Mummer), wl(App::Tc)], cfg(PtKind::Ecpt));
        assert_eq!(a.total_cycles(), b.total_cycles());
        assert_eq!(a.switches, b.switches);
    }
}
