//! Property tests: the radix table (4- and 5-level) must agree with a
//! `HashMap` model under arbitrary map/unmap/translate sequences, and must
//! return every page-table frame when destroyed.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use mehpt_mem::{AllocCostModel, AllocTag, PhysMem};
use mehpt_radix::RadixPageTable;
use mehpt_types::proptest_lite::{check, Gen};
use mehpt_types::{PageSize, Ppn, Vpn, GIB};

#[derive(Clone, Debug)]
enum Op {
    Map(u32, u32),
    Unmap(u32),
    Translate(u32),
    Remap(u32, u32),
}

fn gen_ops(g: &mut Gen) -> Vec<Op> {
    g.vec_of(600, |g| match g.weighted(&[4, 2, 2, 1]) {
        0 => Op::Map(g.u32() % 100_000, g.u32()),
        1 => Op::Unmap(g.u32() % 100_000),
        2 => Op::Translate(g.u32() % 100_000),
        _ => Op::Remap(g.u32() % 100_000, g.u32()),
    })
}

fn run_model(levels: usize, ops: Vec<Op>) {
    let mut mem = PhysMem::with_cost_model(GIB, AllocCostModel::zero_cost());
    let before = mem.stats().tag(AllocTag::PageTable).current_bytes;
    let mut pt = RadixPageTable::with_levels(levels, &mut mem).unwrap();
    let mut model: HashMap<u32, u32> = HashMap::new();
    for op in ops {
        match op {
            Op::Map(k, v) => {
                let vpn = Vpn(k as u64);
                let res = pt.map(vpn, PageSize::Base4K, Ppn(v as u64), &mut mem);
                match model.entry(k) {
                    Entry::Occupied(_) => assert!(res.is_err(), "double map must conflict"),
                    Entry::Vacant(slot) => {
                        res.unwrap();
                        slot.insert(v);
                    }
                }
            }
            Op::Unmap(k) => {
                let got = pt.unmap(Vpn(k as u64), PageSize::Base4K, &mut mem);
                assert_eq!(got, model.remove(&k).map(|v| Ppn(v as u64)));
            }
            Op::Translate(k) => {
                let got = pt
                    .translate(Vpn(k as u64).base_addr(PageSize::Base4K))
                    .map(|(p, _)| p);
                assert_eq!(got, model.get(&k).map(|&v| Ppn(v as u64)));
            }
            Op::Remap(k, v) => {
                let ok = pt.remap(Vpn(k as u64), PageSize::Base4K, Ppn(v as u64));
                assert_eq!(ok, model.contains_key(&k));
                if ok {
                    model.insert(k, v);
                }
            }
        }
        assert_eq!(pt.mapped_pages(), model.len() as u64);
    }
    for (&k, &v) in &model {
        let got = pt
            .translate(Vpn(k as u64).base_addr(PageSize::Base4K))
            .map(|(p, _)| p);
        assert_eq!(got, Some(Ppn(v as u64)));
    }
    pt.destroy(&mut mem);
    assert_eq!(
        mem.stats().tag(AllocTag::PageTable).current_bytes,
        before,
        "destroy must return every node frame"
    );
}

#[test]
fn four_level_matches_hashmap() {
    check("four_level_matches_hashmap", 32, |g| {
        run_model(4, gen_ops(g));
    });
}

#[test]
fn five_level_matches_hashmap() {
    check("five_level_matches_hashmap", 32, |g| {
        run_model(5, gen_ops(g));
    });
}
