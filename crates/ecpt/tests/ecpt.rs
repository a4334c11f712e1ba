//! Integration tests of the ECPT baseline: table mechanics, contiguity
//! behaviour, walker timing and the fragmentation failure mode.

use mehpt_ecpt::{ClusterEntry, CuckooConfig, Ecpt, EcptTable, EcptWalker};
use mehpt_mem::{AllocCostModel, AllocError, AllocTag, Fragmenter, PhysMem};
use mehpt_tlb::MemoryModel;
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PageSize, Ppn, VirtAddr, Vpn, GIB, KIB, MIB};

fn mem(bytes: u64) -> PhysMem {
    PhysMem::with_cost_model(bytes, AllocCostModel::zero_cost())
}

/// A default-configured 4KB ECPT table.
fn table(m: &mut PhysMem) -> EcptTable {
    EcptTable::new(PageSize::Base4K, CuckooConfig::default(), m, &mut ()).unwrap()
}

#[test]
fn table_insert_lookup_remove_roundtrip() {
    let mut m = mem(GIB);
    let mut t = table(&mut m);
    for i in 0..20_000u64 {
        t.insert(Vpn(i * 3), Ppn(i), &mut m, &mut ()).unwrap();
    }
    assert_eq!(t.pages(), 20_000);
    for i in 0..20_000u64 {
        assert_eq!(t.lookup(Vpn(i * 3)), Some(Ppn(i)), "lookup {i}");
    }
    assert_eq!(t.lookup(Vpn(1)), None);
    for i in 0..20_000u64 {
        assert_eq!(t.remove(Vpn(i * 3), &mut m, &mut ()), Some(Ppn(i)));
    }
    assert_eq!(t.pages(), 0);
}

#[test]
fn clustering_keeps_contiguous_pages_together() {
    let mut m = mem(GIB);
    let mut t = table(&mut m);
    // 8 contiguous VPNs consume exactly one cluster entry.
    for i in 0..8u64 {
        t.insert(Vpn(0x100 + i), Ppn(i), &mut m, &mut ()).unwrap();
    }
    assert_eq!(t.clusters(), 1);
    assert_eq!(t.pages(), 8);
    // One probe of the three ways finds each of the eight.
    for i in 0..8u64 {
        assert_eq!(t.probe(Vpn(0x100 + i)), (Some(Ppn(i)), 3));
    }
}

#[test]
fn ways_grow_as_contiguous_chunks() {
    let mut m = mem(GIB);
    let mut t = table(&mut m);
    // Initial ways are 128 entries = 8KB.
    assert_eq!(t.way_sizes(), vec![8192, 8192, 8192]);
    // Scatter enough clusters to force several upsizes.
    for i in 0..30_000u64 {
        t.insert(Vpn(i * 8), Ppn(i), &mut m, &mut ()).unwrap();
    }
    let max_way = t.way_sizes().into_iter().max().unwrap();
    assert!(max_way >= MIB, "ways should have grown past 1MB: {max_way}");
    // The ECPT contiguity requirement: the allocator had to produce a
    // single chunk as large as a full way.
    assert_eq!(
        m.stats().tag(AllocTag::PageTable).max_contiguous_bytes,
        max_way
    );
    // All ways resize together (all-way sizing).
    let sizes = t.way_sizes();
    assert!(sizes.iter().all(|&s| s == sizes[0]), "{sizes:?}");
}

#[test]
fn resize_fails_on_fragmented_memory() {
    // The paper: above 0.7 FMFI the 64MB allocation fails and the ECPT run
    // cannot finish. Reproduce at small scale: fragment a small memory so
    // the next way doubling cannot be satisfied.
    let mut m = mem(64 * MIB);
    let mut rng = Xoshiro256::seed_from_u64(3);
    Fragmenter::fragment(&mut m, 0.9, &mut rng);
    let mut t = table(&mut m);
    let mut failed = None;
    for i in 0..200_000u64 {
        if let Err(e) = t.insert(Vpn(i * 8), Ppn(i), &mut m, &mut ()) {
            failed = Some(e);
            break;
        }
    }
    let err = failed.expect("fragmentation must eventually kill an upsize");
    assert!(matches!(err, AllocError::TooFragmented { .. }), "{err}");
}

/// An upsize that gets some ways' new chunks but not all fails the insert
/// and loses no mapping; once memory frees up, the table grows on.
#[test]
fn failed_upsize_keeps_every_mapping() {
    let mut m = mem(128 * KIB);
    let mut t = table(&mut m);
    // Hold every free 16KB block but one: the first upsize can allocate
    // one new 16KB way and fails on the second.
    let mut ballast = Vec::new();
    while let Ok(c) = m.alloc(16 * KIB, AllocTag::PageTable) {
        ballast.push(c);
    }
    m.free(ballast.pop().expect("room for one 16KB block"));
    let mut i = 0;
    let err = loop {
        match t.insert(Vpn(i * 8), Ppn(i), &mut m, &mut ()) {
            Ok(_) => i += 1,
            Err(e) => break e,
        }
    };
    assert!(matches!(err, AllocError::OutOfMemory { .. }), "{err}");
    assert_eq!(t.lookup(Vpn(i * 8)), None);
    for j in 0..i {
        assert_eq!(t.lookup(Vpn(j * 8)), Some(Ppn(j)));
    }
    for c in ballast {
        m.free(c);
    }
    let n = 2 * i;
    for j in i..n {
        t.insert(Vpn(j * 8), Ppn(j), &mut m, &mut ()).unwrap();
    }
    for j in 0..n {
        assert_eq!(t.lookup(Vpn(j * 8)), Some(Ppn(j)));
    }
    assert!(t.way_sizes().iter().all(|&s| s > 128 * 64));
}

/// Without per-way resizing, reaching the kick limit upsizes every way, so
/// ECPT's ways stay equal.
#[test]
fn kick_limit_upsizes_every_way() {
    let mut m = mem(GIB);
    let cfg = CuckooConfig {
        max_kicks: 2,
        ..CuckooConfig::default()
    };
    let mut t = EcptTable::new(PageSize::Base4K, cfg, &mut m, &mut ()).unwrap();
    for i in 0..5_000u64 {
        t.insert(Vpn(i * 8), Ppn(i), &mut m, &mut ()).unwrap();
        let sizes = t.way_sizes();
        assert!(sizes.iter().all(|&s| s == sizes[0]), "{sizes:?} at {i}");
    }
    let hist = &t.stats().kicks_histogram;
    assert!(hist.len() > 2, "the kick limit was never reached: {hist:?}");
}

#[test]
fn gradual_resize_keeps_lookups_correct() {
    let mut m = mem(GIB);
    let mut t = table(&mut m);
    for i in 0..50_000u64 {
        t.insert(Vpn(i), Ppn(i + 7), &mut m, &mut ()).unwrap();
        if i % 13 == 0 {
            let probe = i / 2;
            assert_eq!(t.lookup(Vpn(probe)), Some(Ppn(probe + 7)), "at i={i}");
        }
    }
    assert!(!t.stats().resizes.is_empty());
    // Out-of-place migration moves every entry it touches.
    for e in &t.stats().resizes {
        assert_eq!(e.kept, 0);
    }
}

#[test]
fn peak_memory_includes_old_and_new() {
    let mut m = mem(GIB);
    let mut t = table(&mut m);
    for i in 0..50_000u64 {
        t.insert(Vpn(i * 8), Ppn(i), &mut m, &mut ()).unwrap();
    }
    // During each resize old+new coexist: peak ≥ 1.5 × the largest steady
    // state the table reached at that point.
    let steady: u64 = t.way_sizes().iter().sum();
    assert!(
        t.stats().peak_bytes >= steady + steady / 4,
        "peak {} vs steady {steady}",
        t.stats().peak_bytes
    );
}

#[test]
fn process_ecpt_multiple_page_sizes() {
    let mut m = mem(GIB);
    let mut ecpt = Ecpt::new(&mut m).unwrap();
    let va4k = VirtAddr::new(0x1000_0000);
    let va2m = VirtAddr::new(0x8000_0000);
    let va1g = VirtAddr::new(0x40_0000_0000);
    ecpt.map(va4k.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(1), &mut m)
        .unwrap();
    ecpt.map(va2m.vpn(PageSize::Huge2M), PageSize::Huge2M, Ppn(2), &mut m)
        .unwrap();
    ecpt.map(
        va1g.vpn(PageSize::Giant1G),
        PageSize::Giant1G,
        Ppn(3),
        &mut m,
    )
    .unwrap();
    assert_eq!(ecpt.translate(va4k), Some((Ppn(1), PageSize::Base4K)));
    assert_eq!(
        ecpt.translate(va2m + 0x1234),
        Some((Ppn(2), PageSize::Huge2M))
    );
    assert_eq!(
        ecpt.translate(va1g + 123 * MIB),
        Some((Ppn(3), PageSize::Giant1G))
    );
    assert_eq!(ecpt.translate(VirtAddr::new(0x777_0000)), None);
    assert_eq!(ecpt.pages(), 3);
}

#[test]
fn cwt_masks_track_mappings() {
    let mut m = mem(GIB);
    let mut ecpt = Ecpt::new(&mut m).unwrap();
    let va = VirtAddr::new(0x1234_5000);
    assert_eq!(ecpt.pmd_mask(va), None);
    ecpt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(9), &mut m)
        .unwrap();
    assert_eq!(ecpt.pmd_mask(va), Some(0b001));
    assert_eq!(ecpt.pud_mask(va), Some(0b001));
    ecpt.unmap(va.vpn(PageSize::Base4K), PageSize::Base4K, &mut m);
    assert_eq!(ecpt.pmd_mask(va), None);
    assert_eq!(ecpt.pud_mask(va), None);
}

#[test]
fn walker_parallel_probe_beats_radix_chain() {
    let mut m = mem(GIB);
    let mut ecpt = Ecpt::new(&mut m).unwrap();
    let mut walker = EcptWalker::paper_default();
    let mut dram = MemoryModel::paper_default();
    let va = VirtAddr::new(0x5000_2000);
    ecpt.map(va.vpn(PageSize::Base4K), PageSize::Base4K, Ppn(5), &mut m)
        .unwrap();
    // Cold walk: CWT walks + parallel probes.
    let cold = walker.walk(&ecpt, va, &mut dram);
    assert_eq!(cold.translation, Some((Ppn(5), PageSize::Base4K)));
    // Warm walk: CWCs hit, one parallel probe group — a single memory
    // round trip regardless of how many ways are probed.
    let warm = walker.walk(&ecpt, va, &mut dram);
    assert_eq!(warm.memory_accesses, 3, "3 ways probed in parallel");
    assert!(
        warm.cycles <= 4 + 200,
        "warm HPT walk must cost one parallel memory round trip: {} cycles",
        warm.cycles
    );
    // Latency is one parallel round trip either way; warmth shows up as
    // fewer probes (the speculative CWT fetches and page-size probes are
    // gone).
    assert!(warm.cycles <= cold.cycles);
    assert!(
        warm.memory_accesses < cold.memory_accesses,
        "warm ({}) must probe fewer lines than cold ({})",
        warm.memory_accesses,
        cold.memory_accesses
    );
    assert_eq!(warm.translation, Some((Ppn(5), PageSize::Base4K)));
}

#[test]
fn walker_faults_report_none() {
    let mut m = mem(GIB);
    let ecpt = Ecpt::new(&mut m).unwrap();
    let mut walker = EcptWalker::paper_default();
    let mut dram = MemoryModel::paper_default();
    let r = walker.walk(&ecpt, VirtAddr::new(0xabc_d000), &mut dram);
    assert_eq!(r.translation, None);
}

#[test]
fn walker_probes_only_present_page_sizes() {
    let mut m = mem(GIB);
    let mut ecpt = Ecpt::new(&mut m).unwrap();
    let mut walker = EcptWalker::paper_default();
    let mut dram = MemoryModel::paper_default();
    let va = VirtAddr::new(0x6000_0000);
    ecpt.map(va.vpn(PageSize::Huge2M), PageSize::Huge2M, Ppn(4), &mut m)
        .unwrap();
    walker.walk(&ecpt, va, &mut dram); // cold: fills CWCs
    let warm = walker.walk(&ecpt, va, &mut dram);
    assert_eq!(
        warm.memory_accesses, 3,
        "only the 2MB table's 3 ways are probed"
    );
}

#[test]
fn kick_distribution_mostly_zero() {
    let mut m = mem(GIB);
    let mut t = table(&mut m);
    for i in 0..100_000u64 {
        t.insert(Vpn(i * 8), Ppn(i), &mut m, &mut ()).unwrap();
    }
    let hist = &t.stats().kicks_histogram;
    let total: u64 = hist.iter().sum();
    assert!(hist[0] as f64 / total as f64 > 0.5, "{hist:?}");
}

#[test]
fn insert_is_idempotent_update() {
    let mut m = mem(GIB);
    let mut t = table(&mut m);
    t.insert(Vpn(5), Ppn(1), &mut m, &mut ()).unwrap();
    t.insert(Vpn(5), Ppn(2), &mut m, &mut ()).unwrap();
    assert_eq!(t.pages(), 1);
    assert_eq!(t.lookup(Vpn(5)), Some(Ppn(2)));
}

#[test]
fn destroy_returns_all_memory() {
    let mut m = mem(GIB);
    let before = m.stats().tag(AllocTag::PageTable).current_bytes;
    let mut ecpt = Ecpt::new(&mut m).unwrap();
    for i in 0..10_000u64 {
        ecpt.map(Vpn(i), PageSize::Base4K, Ppn(i), &mut m).unwrap();
    }
    ecpt.destroy(&mut m);
    assert_eq!(m.stats().tag(AllocTag::PageTable).current_bytes, before);
}

#[test]
fn cluster_entry_is_cache_line_sized_in_the_model() {
    assert_eq!(ClusterEntry::BYTES, 64);
    // 128 entries × 64B = the paper's 8KB initial way.
    assert_eq!(128 * ClusterEntry::BYTES, 8192);
}

#[test]
fn custom_config_is_respected() {
    let mut m = mem(GIB);
    let cfg = CuckooConfig {
        ways: 4,
        initial_entries_per_way: 256,
        ..CuckooConfig::default()
    };
    let t = EcptTable::new(PageSize::Base4K, cfg, &mut m, &mut ()).unwrap();
    assert_eq!(t.way_sizes().len(), 4);
    assert_eq!(t.capacity(), 1024);
}

#[test]
fn remap_then_unmap_leaves_no_cwt_entry() {
    let mut m = mem(GIB);
    let mut ecpt = Ecpt::new(&mut m).unwrap();
    let va = VirtAddr::new(0x7000_2000);
    let vpn = va.vpn(PageSize::Base4K);
    assert!(
        ecpt.map(vpn, PageSize::Base4K, Ppn(1), &mut m)
            .unwrap()
            .added
    );
    // A compaction-style remap rewrites the PPN in place.
    let remap = ecpt.map(vpn, PageSize::Base4K, Ppn(2), &mut m).unwrap();
    assert!(!remap.added);
    assert_eq!(ecpt.translate(va), Some((Ppn(2), PageSize::Base4K)));
    assert_eq!(ecpt.unmap(vpn, PageSize::Base4K, &mut m), Some(Ppn(2)));
    assert_eq!(ecpt.pmd_mask(va), None);
    assert_eq!(ecpt.pud_mask(va), None);
    let tables = ecpt.table(PageSize::Base4K).unwrap().memory_bytes();
    assert_eq!(ecpt.memory_bytes(), tables, "no CWT bytes left");
}

#[test]
#[should_panic(expected = "beyond the 4KB pages of 48-bit virtual addresses")]
fn a_vpn_beyond_48_bit_addresses_is_refused() {
    let mut m = mem(64 * MIB);
    let mut hpt = Ecpt::new(&mut m).unwrap();
    let last = Vpn((1 << 36) - 1);
    hpt.map(last, PageSize::Base4K, Ppn(1), &mut m).unwrap();
    assert_eq!(
        hpt.translate(last.base_addr(PageSize::Base4K)),
        Some((Ppn(1), PageSize::Base4K))
    );
    let _ = hpt.map(Vpn(1 << 36), PageSize::Base4K, Ppn(2), &mut m);
}
