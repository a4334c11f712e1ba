//! Section VIII, "Scalable Secure Directories": SecDir-style per-core
//! private cache-coherence directories built on cuckoo hashing benefit
//! directly from the paper's in-place and per-way resizing. This example
//! models a directory that tracks sharer sets for cache lines, resizing
//! elastically as a core's working set grows and shrinks.
//!
//! Run with: `cargo run --release --example secure_directory`

use mehpt::hash::{Config, CuckooConfig, ElasticCuckooTable};
use mehpt::types::rng::Xoshiro256;
use mehpt::types::ByteSize;

/// A directory entry: which of up to 64 cores share a line, and its owner.
#[derive(Clone, Copy, Debug, Default)]
struct DirEntry {
    sharers: u64,
    #[allow(dead_code)] // read by the (unmodeled) coherence controller
    owner: u8,
}

/// A per-core private directory, as in SecDir: a cuckoo hash table keyed by
/// cache-line address, sized elastically to the core's footprint.
struct PrivateDirectory {
    entries: ElasticCuckooTable<u64, DirEntry>,
}

impl PrivateDirectory {
    fn new(core: u8) -> PrivateDirectory {
        PrivateDirectory {
            entries: ElasticCuckooTable::new(Config {
                base: CuckooConfig {
                    seed: 0xd1_u64 + core as u64,
                    ..CuckooConfig::default()
                },
                ..Config::mehpt()
            }),
        }
    }

    fn record_access(&mut self, line: u64, core: u8) {
        match self.entries.get_mut(&line) {
            Some(e) => e.sharers |= 1 << core,
            None => {
                self.entries.insert(
                    line,
                    DirEntry {
                        sharers: 1 << core,
                        owner: core,
                    },
                );
            }
        }
    }

    fn evict(&mut self, line: u64) -> Option<DirEntry> {
        self.entries.remove(&line)
    }
}

fn main() {
    let mut dir = PrivateDirectory::new(0);
    let mut rng = Xoshiro256::seed_from_u64(7);

    println!("== phase 1: working set grows (directory upsizes elastically) ==");
    let mut lines: Vec<u64> = Vec::new();
    for _ in 0..300_000 {
        let line = rng.next_below(1 << 30) << 6;
        dir.record_access(line, (rng.next_below(8)) as u8);
        lines.push(line);
    }
    report(&dir);

    println!("\n== phase 2: working set shrinks (directory downsizes) ==");
    for &line in &lines {
        dir.evict(line);
    }
    // Churn keeps the gradual downsizes moving, like ongoing traffic.
    for i in 0..400_000u64 {
        let line = (i % 512) << 6;
        dir.record_access(line, 1);
        dir.evict(line);
    }
    report(&dir);

    let stats = dir.entries.stats();
    let ups = stats
        .resizes
        .iter()
        .filter(|e| e.kind == mehpt::hash::ResizeKind::Upsize)
        .count();
    let downs = stats.resizes.len() - ups;
    println!("\nresizes: {ups} upsizes, {downs} downsizes");
    println!(
        "peak directory memory: {} (old and new tables never coexist)",
        ByteSize(stats.peak_bytes)
    );
    println!(
        "entries kept in place across upsizes: {:.0}%",
        (1.0 - stats.mean_upsize_moved_fraction()) * 100.0
    );
    println!();
    println!("The paper: 'SecDir proposes per-core private directories using");
    println!("cuckoo hashing... Our in-place resizing and per-way resizing");
    println!("techniques can be directly applied to directory designs.'");
}

fn report(dir: &PrivateDirectory) {
    println!(
        "tracked lines: {:>8}   capacity: {:>8}   memory: {:>10}   ways: {:?}",
        dir.entries.len(),
        dir.entries.capacity(),
        ByteSize(dir.entries.memory_bytes()).to_string(),
        dir.entries.way_capacities(),
    );
}
