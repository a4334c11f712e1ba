//! Failure injection: allocation failures mid-operation must leave the
//! page table consistent (the paper's whole point is graceful behaviour on
//! hostile memory).

use mehpt_core::{ChunkSizePolicy, MeHpt, MeHptConfig};
use mehpt_mem::{AllocCostModel, AllocError, AllocTag, Fragmenter, PhysMem};
use mehpt_types::rng::Xoshiro256;
use mehpt_types::{PageSize, Ppn, Vpn, KIB, MIB};

fn tiny_mem(bytes: u64) -> PhysMem {
    PhysMem::with_cost_model(bytes, AllocCostModel::zero_cost())
}

/// Fill memory until a chunk allocation must fail; the failing insert
/// reports an error and the table stays fully usable and consistent.
#[test]
fn insert_failure_leaves_table_consistent() {
    let mut mem = tiny_mem(2 * MIB);
    let mut hpt = MeHpt::new(&mut mem).unwrap();
    // Consume almost all memory with data so a chunk allocation fails soon.
    let mut ballast = Vec::new();
    while let Ok(c) = mem.alloc(64 * KIB, AllocTag::Data) {
        ballast.push(c);
    }
    // Leave a little room, then insert until failure.
    mem.free(ballast.pop().unwrap());
    let mut inserted = Vec::new();
    let mut failed_at = None;
    for i in 0..200_000u64 {
        match hpt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut mem) {
            Ok(_) => inserted.push(i),
            Err(e) => {
                assert!(matches!(e, AllocError::OutOfMemory { .. }), "{e}");
                failed_at = Some(i);
                break;
            }
        }
    }
    let failed_at = failed_at.expect("memory must run out");
    assert!(failed_at > 0, "some inserts must succeed first");
    // Every previously inserted translation is still intact.
    for &i in &inserted {
        assert_eq!(
            hpt.translate(Vpn(i * 8).base_addr(PageSize::Base4K)),
            Some((Ppn(i), PageSize::Base4K)),
            "translation {i} lost after failed insert"
        );
    }
    assert_eq!(hpt.pages(), inserted.len() as u64);
    // Freeing memory lets the same insert succeed afterwards.
    for c in ballast {
        mem.free(c);
    }
    hpt.map(
        Vpn(failed_at * 8),
        PageSize::Base4K,
        Ppn(failed_at),
        &mut mem,
    )
    .unwrap();
}

/// A failed *chunk switch* (no room for the next-size chunks) must not
/// corrupt the table either.
#[test]
fn chunk_switch_failure_is_clean() {
    // Tiny L2P so switches trigger early; tiny memory so they can fail.
    let cfg = MeHptConfig {
        l2p_entries_per_subtable: 2,
        chunk_policy: ChunkSizePolicy::new(vec![8 * KIB, 512 * KIB]),
        ..MeHptConfig::default()
    };
    let mut mem = tiny_mem(MIB + 512 * KIB);
    let mut hpt = MeHpt::with_config(cfg, &mut mem).unwrap();
    let mut ok = 0u64;
    let mut failed = false;
    for i in 0..100_000u64 {
        match hpt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut mem) {
            Ok(_) => ok += 1,
            Err(_) => {
                failed = true;
                break;
            }
        }
    }
    assert!(failed, "the 512KB chunk switch must eventually fail");
    for i in 0..ok {
        assert_eq!(
            hpt.translate(Vpn(i * 8).base_addr(PageSize::Base4K)),
            Some((Ppn(i), PageSize::Base4K))
        );
    }
}

/// Unmovable fragmentation: ME-HPT on 8KB chunks survives memory that
/// refuses every allocation above 4KB... almost: 8KB chunks need order-1
/// blocks, which a half-movable fragmenter still leaves available.
#[test]
fn works_at_extreme_fragmentation() {
    let mut mem = tiny_mem(256 * MIB);
    let mut rng = Xoshiro256::seed_from_u64(3);
    Fragmenter::fragment(&mut mem, 0.95, &mut rng);
    let mut hpt = MeHpt::new(&mut mem).unwrap();
    for i in 0..50_000u64 {
        hpt.map(Vpn(i * 8), PageSize::Base4K, Ppn(i), &mut mem)
            .unwrap_or_else(|e| panic!("insert {i} failed: {e}"));
    }
    assert_eq!(hpt.pages(), 50_000);
}

/// Construction failure: if even the first chunk cannot be allocated, the
/// error propagates and nothing leaks.
#[test]
fn construction_oom_propagates() {
    let mut mem = tiny_mem(16 * KIB);
    let mut ballast = Vec::new();
    while let Ok(c) = mem.alloc(4 * KIB, AllocTag::Data) {
        ballast.push(c);
    }
    let mut hpt = MeHpt::new(&mut mem).unwrap(); // lazy: no chunks yet
    let err = hpt
        .map(Vpn(1), PageSize::Base4K, Ppn(1), &mut mem)
        .unwrap_err();
    assert!(matches!(err, AllocError::OutOfMemory { .. }));
    assert_eq!(hpt.pages(), 0);
    assert_eq!(hpt.l2p_entries_used(), 0, "no L2P entries may leak");
}
