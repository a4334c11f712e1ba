//! Property tests: the elastic cuckoo table must behave exactly like a
//! `HashMap` under arbitrary operation sequences, in every combination of
//! the paper's resize techniques, including mid-resize states.

use std::collections::HashMap;

use std::hash::Hasher;

use mehpt_hash::{
    crc64, Config, Crc64Hasher, CuckooConfig, ElasticCuckooTable, LevelHashTable, ResizeMode,
    WaySizing,
};
use mehpt_types::proptest_lite::{check, Gen};

#[derive(Clone, Debug)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
}

fn gen_op(g: &mut Gen) -> Op {
    match g.weighted(&[3, 1, 1]) {
        0 => Op::Insert(g.u16(), g.u32()),
        1 => Op::Remove(g.u16()),
        _ => Op::Get(g.u16()),
    }
}

fn gen_ops(g: &mut Gen, max_len: usize) -> Vec<Op> {
    g.vec_of(max_len, gen_op)
}

fn config(mode: ResizeMode, sizing: WaySizing) -> Config {
    Config {
        resize_mode: mode,
        sizing,
        // Small initial table so resizes happen constantly under the
        // harness's modest input sizes.
        base: CuckooConfig {
            initial_entries_per_way: 8,
            ..CuckooConfig::default()
        },
    }
}

fn check_against_model(cfg: Config, ops: Vec<Op>) {
    let mut table = ElasticCuckooTable::new(cfg);
    let mut model: HashMap<u16, u32> = HashMap::new();
    for op in ops {
        match op {
            Op::Insert(k, v) => {
                assert_eq!(table.insert(k, v), model.insert(k, v));
            }
            Op::Remove(k) => {
                assert_eq!(table.remove(&k), model.remove(&k));
            }
            Op::Get(k) => {
                assert_eq!(table.get(&k), model.get(&k));
            }
        }
        assert_eq!(table.len(), model.len());
    }
    table.check_invariants();
    // Every model entry must be findable, and iteration must match exactly.
    for (k, v) in &model {
        assert_eq!(table.get(k), Some(v));
    }
    let mut table_entries: Vec<(u16, u32)> = table.iter().map(|(k, v)| (*k, *v)).collect();
    let mut model_entries: Vec<(u16, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    table_entries.sort_unstable();
    model_entries.sort_unstable();
    assert_eq!(table_entries, model_entries);
}

#[test]
fn oop_allway_matches_hashmap() {
    check("oop_allway_matches_hashmap", 64, |g| {
        let ops = gen_ops(g, 800);
        check_against_model(config(ResizeMode::OutOfPlace, WaySizing::AllWay), ops);
    });
}

#[test]
fn inplace_allway_matches_hashmap() {
    check("inplace_allway_matches_hashmap", 64, |g| {
        let ops = gen_ops(g, 800);
        check_against_model(config(ResizeMode::InPlace, WaySizing::AllWay), ops);
    });
}

#[test]
fn oop_perway_matches_hashmap() {
    check("oop_perway_matches_hashmap", 64, |g| {
        let ops = gen_ops(g, 800);
        check_against_model(config(ResizeMode::OutOfPlace, WaySizing::PerWay), ops);
    });
}

#[test]
fn inplace_perway_matches_hashmap() {
    check("inplace_perway_matches_hashmap", 64, |g| {
        let ops = gen_ops(g, 800);
        check_against_model(config(ResizeMode::InPlace, WaySizing::PerWay), ops);
    });
}

#[test]
fn level_hash_matches_hashmap() {
    check("level_hash_matches_hashmap", 64, |g| {
        let ops = gen_ops(g, 800);
        let mut table = LevelHashTable::new(4, 99);
        let mut model: HashMap<u16, u32> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    assert_eq!(table.insert(k, v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    assert_eq!(table.remove(&k), model.remove(&k));
                }
                Op::Get(k) => {
                    assert_eq!(table.get(&k), model.get(&k));
                }
            }
            assert_eq!(table.len(), model.len());
        }
    });
}

#[test]
fn way_balance_invariant_holds_under_any_workload() {
    check("way_balance_invariant_holds_under_any_workload", 64, |g| {
        // Section IV-D: "a way will never be more than double (or less than
        // half) the size of another way."
        let ops = gen_ops(g, 1500);
        let mut table = ElasticCuckooTable::new(config(ResizeMode::InPlace, WaySizing::PerWay));
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    table.insert(k, v);
                }
                Op::Remove(k) => {
                    table.remove(&k);
                }
                Op::Get(k) => {
                    table.get(&k);
                }
            }
            let caps = table.way_capacities();
            let min = *caps.iter().min().unwrap();
            let max = *caps.iter().max().unwrap();
            assert!(max <= 2 * min, "imbalanced ways: {caps:?}");
        }
    });
}

#[test]
fn load_factor_bounded_under_any_workload() {
    check("load_factor_bounded_under_any_workload", 64, |g| {
        let ops = gen_ops(g, 1500);
        for cfg in [
            config(ResizeMode::OutOfPlace, WaySizing::AllWay),
            config(ResizeMode::InPlace, WaySizing::PerWay),
        ] {
            let mut table = ElasticCuckooTable::new(cfg);
            for op in &ops {
                match op {
                    Op::Insert(k, v) => {
                        table.insert(*k, *v);
                    }
                    Op::Remove(k) => {
                        table.remove(k);
                    }
                    Op::Get(k) => {
                        table.get(k);
                    }
                }
                assert!(
                    table.load_factor() <= 0.85,
                    "load factor {}",
                    table.load_factor()
                );
            }
        }
    });
}

#[test]
fn prop_write_u64_matches_bytewise_crc() {
    // Slicing-by-8 must be bit-identical to feeding the key's bytes one at
    // a time, or every table's slot layout (and every report) would change.
    check("write_u64_matches_bytewise_crc", 512, |g| {
        let (init, k) = (g.u64(), g.u64());
        let mut sliced = Crc64Hasher::new(init);
        sliced.write_u64(k);
        // `finish` is a bijection of the CRC state, so equal outputs mean
        // equal states.
        let bytewise = Crc64Hasher::new(crc64(init, &k.to_ne_bytes()));
        assert_eq!(
            sliced.finish(),
            bytewise.finish(),
            "init {init:#x} key {k:#x}"
        );
    });
}
