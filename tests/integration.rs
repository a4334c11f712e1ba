//! Workspace-level integration tests: the three page-table organizations
//! must agree functionally on identical workloads, and the simulator's
//! accounting must be internally consistent.

use mehpt::core::MeHpt;
use mehpt::ecpt::Ecpt;
use mehpt::mem::{AllocCostModel, PhysMem};
use mehpt::radix::RadixPageTable;
use mehpt::sim::{PtKind, SimConfig, SimReport, Simulator};
use mehpt::types::rng::Xoshiro256;
use mehpt::types::{PageSize, Ppn, VirtAddr, Vpn, GIB};
use mehpt::workloads::{App, WorkloadCfg};

fn mem() -> PhysMem {
    PhysMem::with_cost_model(GIB, AllocCostModel::zero_cost())
}

/// All three organizations store and return exactly the same translations.
#[test]
fn all_page_tables_agree_functionally() {
    let mut m1 = mem();
    let mut m2 = mem();
    let mut m3 = mem();
    let mut radix = RadixPageTable::new(&mut m1).unwrap();
    let mut ecpt = Ecpt::new(&mut m2).unwrap();
    let mut mehpt = MeHpt::new(&mut m3).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(99);
    let mut mappings = Vec::new();
    for i in 0..30_000u64 {
        let vpn = Vpn(rng.next_below(1 << 24));
        let ppn = Ppn(i);
        // Skip duplicate VPNs (radix rejects remaps via `map`).
        if radix.translate(vpn.base_addr(PageSize::Base4K)).is_some() {
            continue;
        }
        radix.map(vpn, PageSize::Base4K, ppn, &mut m1).unwrap();
        ecpt.map(vpn, PageSize::Base4K, ppn, &mut m2).unwrap();
        mehpt.map(vpn, PageSize::Base4K, ppn, &mut m3).unwrap();
        mappings.push((vpn, ppn));
    }
    for &(vpn, ppn) in &mappings {
        let va = vpn.base_addr(PageSize::Base4K) + 123;
        let expected = Some((ppn, PageSize::Base4K));
        assert_eq!(radix.translate(va), expected, "radix at {vpn}");
        assert_eq!(ecpt.translate(va), expected, "ecpt at {vpn}");
        assert_eq!(mehpt.translate(va), expected, "mehpt at {vpn}");
    }
    // Unmapped addresses agree too.
    for _ in 0..1000 {
        let va = VirtAddr::new(rng.next_below(1 << 40) | (1 << 45));
        assert_eq!(radix.translate(va), None);
        assert_eq!(ecpt.translate(va), None);
        assert_eq!(mehpt.translate(va), None);
    }
}

fn small_run(kind: PtKind, thp: bool) -> SimReport {
    let wl = App::Mummer.build(&WorkloadCfg {
        scale: 0.01,
        ..WorkloadCfg::default()
    });
    let mut cfg = SimConfig::paper(kind, thp);
    cfg.mem_bytes = 2 * GIB;
    Simulator::run(wl, cfg)
}

/// Cycle components must sum to the total.
#[test]
fn sim_accounting_is_consistent() {
    for kind in [PtKind::Radix, PtKind::Ecpt, PtKind::MeHpt] {
        let r = small_run(kind, false);
        assert!(r.aborted.is_none());
        let r = r.metrics;
        let parts =
            r.base_cycles + r.translation_cycles + r.fault_cycles + r.alloc_cycles + r.os_pt_cycles;
        assert_eq!(parts, r.total_cycles, "{kind:?}: components must sum");
        assert!(r.faults <= r.accesses);
        assert!(r.walks >= r.faults, "every fault implies a walk");
        assert!(r.pages_4k > 0);
    }
}

/// The same workload, same config, twice: bit-identical reports.
#[test]
fn sim_runs_are_reproducible() {
    let a = small_run(PtKind::MeHpt, true).metrics;
    let b = small_run(PtKind::MeHpt, true).metrics;
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.pt_peak_bytes, b.pt_peak_bytes);
    assert_eq!(a.kicks_histogram, b.kicks_histogram);
}

/// THP maps the eligible region with huge pages and shrinks the 4KB table.
#[test]
fn thp_changes_page_size_mix_not_correctness() {
    let plain = small_run(PtKind::MeHpt, false).metrics;
    let thp = small_run(PtKind::MeHpt, true).metrics;
    assert_eq!(plain.pages_2m, 0);
    assert!(
        thp.pages_2m > 0,
        "MUMmer's reference region is THP-eligible"
    );
    assert!(thp.pages_4k < plain.pages_4k);
    // Fewer faults overall: one 2MB fault replaces 512 4KB faults.
    assert!(thp.faults < plain.faults);
}

/// Identical access counts across kinds on the same workload (no aborts).
#[test]
fn kinds_simulate_the_same_trace() {
    let radix = small_run(PtKind::Radix, false).metrics;
    let ecpt = small_run(PtKind::Ecpt, false).metrics;
    let mehpt = small_run(PtKind::MeHpt, false).metrics;
    assert_eq!(radix.accesses, ecpt.accesses);
    assert_eq!(ecpt.accesses, mehpt.accesses);
    // Same pages mapped by the end.
    assert_eq!(radix.pages_4k, ecpt.pages_4k);
    assert_eq!(ecpt.pages_4k, mehpt.pages_4k);
}

/// The facade re-exports compose: build everything through `mehpt::*`.
#[test]
fn facade_paths_work_end_to_end() {
    let mut m = mehpt::mem::PhysMem::new(64 << 20);
    let mut pt = mehpt::core::MeHpt::new(&mut m).unwrap();
    let va = mehpt::types::VirtAddr::new(0xabc_d000);
    pt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(5), &mut m)
        .unwrap();
    let mut walker = mehpt::ecpt::EcptWalker::paper_default();
    let mut dram = mehpt::tlb::MemoryModel::paper_default();
    let walk = walker.walk(&pt, va, &mut dram);
    assert_eq!(walk.translation, Some((Ppn(5), PageSize::Base4K)));
}
