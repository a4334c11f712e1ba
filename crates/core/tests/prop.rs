//! Property tests: ME-HPT must agree with a `HashMap` model under random
//! map/unmap/translate sequences, across ablation configurations, while the
//! resize machinery (in-place rehash, chunk switches, per-way balancing)
//! churns underneath.

use std::collections::HashMap;

use mehpt_core::{ChunkSizePolicy, MeHpt, MeHptConfig};
use mehpt_hash::{ResizeMode, WaySizing};
use mehpt_mem::{AllocCostModel, PhysMem};
use mehpt_types::proptest_lite::{check, Gen};
use mehpt_types::{PageSize, Ppn, Vpn, GIB, KIB};

#[derive(Clone, Debug)]
enum Op {
    Map(u32, u32),
    Unmap(u32),
    Translate(u32),
}

fn gen_ops(g: &mut Gen, max_len: usize) -> Vec<Op> {
    g.vec_of(max_len, |g| match g.weighted(&[4, 1, 1]) {
        0 => Op::Map(g.u32() % 50_000, g.u32()),
        1 => Op::Unmap(g.u32() % 50_000),
        _ => Op::Translate(g.u32() % 50_000),
    })
}

fn run_model(cfg: MeHptConfig, ops: &[Op]) {
    let mut mem = PhysMem::with_cost_model(GIB, AllocCostModel::zero_cost());
    let mut hpt = MeHpt::with_config(cfg, &mut mem).unwrap();
    let mut model: HashMap<u32, u32> = HashMap::new();
    for op in ops {
        match *op {
            Op::Map(k, v) => {
                hpt.map(Vpn(k as u64), PageSize::Base4K, Ppn(v as u64), &mut mem)
                    .unwrap();
                model.insert(k, v);
            }
            Op::Unmap(k) => {
                let got = hpt.unmap(Vpn(k as u64), PageSize::Base4K, &mut mem);
                assert_eq!(got, model.remove(&k).map(|v| Ppn(v as u64)));
            }
            Op::Translate(k) => {
                let got = hpt
                    .translate(Vpn(k as u64).base_addr(PageSize::Base4K))
                    .map(|(p, _)| p);
                assert_eq!(got, model.get(&k).map(|&v| Ppn(v as u64)));
            }
        }
        assert_eq!(hpt.pages(), model.len() as u64);
    }
    for (&k, &v) in &model {
        let got = hpt
            .translate(Vpn(k as u64).base_addr(PageSize::Base4K))
            .map(|(p, _)| p);
        assert_eq!(got, Some(Ppn(v as u64)), "final check for key {k}");
    }
}

#[test]
fn full_design_matches_hashmap() {
    check("full_design_matches_hashmap", 24, |g| {
        let ops = gen_ops(g, 1200);
        // Tiny L2P subtables so chunk switches and stealing trigger even
        // with modest inputs.
        run_model(
            MeHptConfig {
                l2p_entries_per_subtable: 2,
                chunk_policy: ChunkSizePolicy::new(vec![8 * KIB, 64 * KIB, 512 * KIB]),
                ..MeHptConfig::default()
            },
            &ops,
        );
    });
}

#[test]
fn ablation_out_of_place_matches_hashmap() {
    check("ablation_out_of_place_matches_hashmap", 24, |g| {
        let ops = gen_ops(g, 1000);
        run_model(
            MeHptConfig {
                resize_mode: ResizeMode::OutOfPlace,
                l2p_entries_per_subtable: 4,
                chunk_policy: ChunkSizePolicy::new(vec![8 * KIB, 64 * KIB, 512 * KIB]),
                ..MeHptConfig::default()
            },
            &ops,
        );
    });
}

#[test]
fn ablation_all_way_matches_hashmap() {
    check("ablation_all_way_matches_hashmap", 24, |g| {
        let ops = gen_ops(g, 1000);
        run_model(
            MeHptConfig {
                sizing: WaySizing::AllWay,
                l2p_entries_per_subtable: 2,
                chunk_policy: ChunkSizePolicy::new(vec![8 * KIB, 64 * KIB, 512 * KIB]),
                ..MeHptConfig::default()
            },
            &ops,
        );
    });
}

#[test]
fn way_balance_holds_under_any_workload() {
    check("way_balance_holds_under_any_workload", 24, |g| {
        let ops = gen_ops(g, 1500);
        let mut mem = PhysMem::with_cost_model(GIB, AllocCostModel::zero_cost());
        let mut hpt = MeHpt::new(&mut mem).unwrap();
        for op in &ops {
            match *op {
                Op::Map(k, v) => {
                    hpt.map(Vpn(k as u64), PageSize::Base4K, Ppn(v as u64), &mut mem)
                        .unwrap();
                }
                Op::Unmap(k) => {
                    hpt.unmap(Vpn(k as u64), PageSize::Base4K, &mut mem);
                }
                Op::Translate(_) => {}
            }
            if let Some(t) = hpt.table(PageSize::Base4K) {
                let sizes = t.way_sizes();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max <= 2 * min, "imbalanced ways: {sizes:?}");
            }
        }
    });
}
