//! Golden digests of runs in which compaction moves data pages: GUPS at
//! scale 0.03 on a 256MB machine fragmented to FMFI 0.99, without THP,
//! under radix, ECPT and ME-HPT.
//!
//! ECPT's way doublings need contiguous blocks that this machine has only
//! after compaction evacuates a window, so the ECPT run relocates 510 data
//! pages mid-run. The OS rewrites each moved page's translation and shoots
//! down its TLB entry; one of those shootdowns evicts a live entry, so a
//! run that skipped them would walk once less and miss its digest. Radix
//! and ME-HPT run the same cell without relocating data; they pin the
//! cell's set-up. Every field of each `SimReport` feeds one 64-bit digest
//! per kind.
//!
//! With debug assertions on, every timed walk in these runs is also checked
//! against the reference walk and the OS's map.

use mehpt::sim::{Metrics, PtKind, SimConfig, SimReport, Simulator};
use mehpt::types::MIB;
use mehpt::workloads::{App, WorkloadCfg};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }

    fn bytes(&mut self, s: &str) {
        self.words(&s.bytes().map(u64::from).collect::<Vec<_>>());
    }
}

/// Digests every field of `r`. The destructuring is exhaustive, so a new
/// field does not compile until it is digested here.
fn digest(r: &SimReport) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let SimReport {
        app,
        kind,
        thp,
        aborted,
        metrics,
    } = r;
    d.bytes(app);
    d.bytes(kind.label());
    d.word(u64::from(*thp));
    d.bytes(aborted.as_deref().unwrap_or("-"));
    let Metrics {
        accesses,
        total_cycles,
        base_cycles,
        translation_cycles,
        fault_cycles,
        alloc_cycles,
        os_pt_cycles,
        faults,
        pages_4k,
        pages_2m,
        tlb_miss_rate,
        walks,
        mean_walk_accesses,
        mean_walk_cycles,
        pt_final_bytes,
        pt_peak_bytes,
        pt_max_contiguous,
        way_sizes_4k,
        way_phys_4k,
        upsizes_per_way_4k,
        upsizes_per_way_2m,
        moved_fraction_4k,
        kicks_histogram,
        l2p_entries_used,
        chunk_switches,
        data_bytes_nominal,
    } = metrics;
    d.words(&[
        *accesses,
        *total_cycles,
        *base_cycles,
        *translation_cycles,
        *fault_cycles,
        *alloc_cycles,
        *os_pt_cycles,
        *faults,
        *pages_4k,
        *pages_2m,
        tlb_miss_rate.to_bits(),
        *walks,
        mean_walk_accesses.to_bits(),
        mean_walk_cycles.to_bits(),
        *pt_final_bytes,
        *pt_peak_bytes,
        *pt_max_contiguous,
        moved_fraction_4k.to_bits(),
        *l2p_entries_used,
        *chunk_switches,
        *data_bytes_nominal,
    ]);
    d.words(way_sizes_4k);
    d.words(way_phys_4k);
    d.words(upsizes_per_way_4k);
    d.words(upsizes_per_way_2m);
    d.words(kicks_histogram);
    d.0
}

/// GUPS at scale 0.03 on a 256MB machine at FMFI 0.99, without THP.
fn run(kind: PtKind) -> SimReport {
    let wl = App::Gups.build(&WorkloadCfg {
        scale: 0.03,
        ..WorkloadCfg::default()
    });
    let mut cfg = SimConfig::paper(kind, false);
    cfg.mem_bytes = 256 * MIB;
    cfg.fragmentation = 0.99;
    Simulator::run(wl, cfg)
}

#[test]
fn relocating_runs_match_golden_digests() {
    let golden = [
        (PtKind::Radix, 0x0ab3_70c5_0b61_357a),
        (PtKind::Ecpt, 0x02aa_6d88_b356_c2c9),
        (PtKind::MeHpt, 0xf944_8b86_041c_d45e),
    ];
    for (kind, want) in golden {
        let r = run(kind);
        assert!(r.aborted.is_none(), "{kind:?}: {:?}", r.aborted);
        let got = digest(&r);
        assert_eq!(got, want, "{kind:?}: digest {got:#018x}");
    }
}
