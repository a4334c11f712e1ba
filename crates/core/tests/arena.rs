//! Property test for the hashed page tables' PTE-row arena: random map,
//! update and unmap sequences on ECPT and ME-HPT must agree with a
//! `BTreeMap` oracle, and after every operation each table's slots and
//! arena must be consistent (`HptTable::check_invariants`). Half the cases
//! run on a small machine with a pinned frame in every 32KB, where upsizes
//! fail part-way, forced upsizes included, so failed inserts must give
//! their rows back.

use std::cell::Cell;
use std::collections::BTreeMap;

use mehpt_core::{MeHpt, MeHptConfig};
use mehpt_ecpt::{Backing, CuckooConfig, Ecpt, Hpt};
use mehpt_mem::{AllocCostModel, AllocTag, PhysMem};
use mehpt_types::proptest_lite::{check, Gen};
use mehpt_types::{PageSize, Ppn, Vpn, GIB, KIB, PAGE_SIZES};

#[derive(Clone, Copy, Debug)]
enum Op {
    Map(PageSize, u64, u64),
    Unmap(PageSize, u64),
}

/// 4KB pages over 1024 clusters, so clusters fill, share and empty; a few
/// 2MB pages exercise a second table.
fn gen_ops(g: &mut Gen) -> Vec<Op> {
    g.vec_of(1500, |g| {
        let (ps, vpn) = if g.below(8) == 0 {
            (PageSize::Huge2M, g.below(64))
        } else {
            (PageSize::Base4K, g.below(8192))
        };
        match g.weighted(&[3, 1]) {
            0 => Op::Map(ps, vpn, g.below(1 << 30)),
            _ => Op::Unmap(ps, vpn),
        }
    })
}

/// `total` bytes with one unmovable 4KB frame pinned at the start of
/// every 32KB, so no free block is larger than 16KB.
fn fragmented(total: u64) -> PhysMem {
    let mut mem = PhysMem::with_cost_model(total, AllocCostModel::zero_cost());
    let frames: Vec<_> = (0..total / 4096)
        .map(|_| mem.alloc(4096, AllocTag::PinnedUnmovable).unwrap())
        .collect();
    for c in frames {
        if c.base().0 / 4096 % 8 != 0 {
            mem.free(c);
        }
    }
    mem
}

/// Runs `ops` against the oracle; returns how many maps failed.
fn run<B: Backing>(mut hpt: Hpt<B>, mem: &mut PhysMem, ops: &[Op]) -> usize {
    let mut oracle: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    let mut failed = 0;
    for &op in ops {
        let (ps, vpn) = match op {
            Op::Map(ps, vpn, ppn) => {
                let key = (ps.index(), vpn);
                match hpt.map(Vpn(vpn), ps, Ppn(ppn), mem) {
                    Ok(report) => assert_eq!(report.added, oracle.insert(key, ppn).is_none()),
                    Err(_) => {
                        failed += 1;
                        assert!(!oracle.contains_key(&key), "an update failed");
                    }
                }
                (ps, vpn)
            }
            Op::Unmap(ps, vpn) => {
                let expected = oracle.remove(&(ps.index(), vpn)).map(Ppn);
                assert_eq!(hpt.unmap(Vpn(vpn), ps, mem), expected);
                (ps, vpn)
            }
        };
        let table = hpt.table(ps);
        let got = table.and_then(|t| t.lookup(Vpn(vpn)));
        assert_eq!(got, oracle.get(&(ps.index(), vpn)).copied().map(Ppn));
        for t in PAGE_SIZES.iter().filter_map(|&ps| hpt.table(ps)) {
            t.check_invariants();
        }
    }
    for (&(ps, vpn), &ppn) in &oracle {
        let table = hpt.table(PageSize::from_index(ps)).unwrap();
        assert_eq!(table.lookup(Vpn(vpn)), Some(Ppn(ppn)), "final check");
    }
    assert_eq!(hpt.pages(), oracle.len() as u64);
    hpt.destroy(mem);
    failed
}

/// Either the default thresholds, or a table that upsizes only when
/// nearly full and forces an upsize after two kicks.
fn cuckoo(g: &mut Gen) -> CuckooConfig {
    let base = CuckooConfig {
        seed: g.u64(),
        ..CuckooConfig::default()
    };
    if g.bool() {
        return base;
    }
    CuckooConfig {
        upsize_threshold: 0.95,
        max_kicks: 2,
        ..base
    }
}

/// Half the cases on ample memory, half on the fragmented 512KB machine;
/// returns the memory and whether it is the fragmented one.
fn machine(g: &mut Gen) -> (PhysMem, bool) {
    if g.bool() {
        (fragmented(512 * KIB), true)
    } else {
        let mem = PhysMem::with_cost_model(GIB, AllocCostModel::zero_cost());
        (mem, false)
    }
}

/// Runs the property over `cases`, asserting that some fragmented case
/// saw a map fail.
fn check_with_failures(name: &str, body: impl Fn(&mut Gen) -> (usize, bool)) {
    let failures = Cell::new(0);
    check(name, 48, |g| {
        let (failed, fragmented) = body(g);
        assert!(failed == 0 || fragmented, "a map failed on ample memory");
        failures.set(failures.get() + failed);
    });
    assert!(failures.get() > 0, "no case exercised a failed insert");
}

#[test]
fn ecpt_arena_matches_oracle() {
    check_with_failures("ecpt_arena_matches_oracle", |g| {
        let cfg = cuckoo(g);
        let (mut mem, fragmented) = machine(g);
        let hpt = Ecpt::with_config(cfg, &mut mem).unwrap();
        (run(hpt, &mut mem, &gen_ops(g)), fragmented)
    });
}

#[test]
fn mehpt_arena_matches_oracle() {
    check_with_failures("mehpt_arena_matches_oracle", |g| {
        let cfg = MeHptConfig {
            base: cuckoo(g),
            ..MeHptConfig::default()
        };
        let (mut mem, fragmented) = machine(g);
        let hpt = MeHpt::with_config(cfg, &mut mem).unwrap();
        (run(hpt, &mut mem, &gen_ops(g)), fragmented)
    });
}
