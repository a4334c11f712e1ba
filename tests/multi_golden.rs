//! Golden digests of multiprogrammed runs: MUMmer and TC share one core
//! under radix, ECPT and ME-HPT, with and without THP, at a tiny scale and a
//! short time slice.
//!
//! `run_multi` is the only path that context-switches, so it is the only one
//! that flushes the TLBs and the walkers' caches mid-run. Every field of the
//! `MultiReport`, each process's `Metrics` included, feeds one 64-bit digest
//! per run. The constants pin that behaviour: a change to the translation
//! caches or to their flush must reproduce them exactly.

use mehpt::sim::{run_multi, Metrics, MultiConfig, MultiReport, PtKind, SimConfig};
use mehpt::types::GIB;
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
fn digest(r: &MultiReport) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let MultiReport {
        processes,
        switches,
        switch_cycles,
        peak_pt_bytes,
        max_contiguous,
    } = r;
    d.words(&[*switches, *switch_cycles, *peak_pt_bytes, *max_contiguous]);
    d.word(processes.len() as u64);
    for p in processes {
        d.bytes(&p.app);
        d.bytes(p.kind.label());
        d.word(u64::from(p.thp));
        d.bytes(p.aborted.as_deref().unwrap_or("-"));
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
        } = &p.metrics;
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
    }
    d.0
}

/// MUMmer and TC at scale 0.005 on a 2GB machine, switching every 2,000
/// accesses.
fn run(kind: PtKind, thp: bool) -> MultiReport {
    let workloads = [App::Mummer, App::Tc]
        .iter()
        .map(|app| {
            app.build(&WorkloadCfg {
                scale: 0.005,
                ..WorkloadCfg::default()
            })
        })
        .collect();
    let mut base = SimConfig::paper(kind, thp);
    base.mem_bytes = 2 * GIB;
    run_multi(
        workloads,
        MultiConfig {
            base,
            time_slice: 2_000,
        },
    )
}

#[test]
fn multiprogrammed_runs_match_golden_digests() {
    let golden = [
        (PtKind::Radix, false, 0x02df_b2d8_d019_066b),
        (PtKind::Radix, true, 0x629b_5995_141a_47ce),
        (PtKind::Ecpt, false, 0x3658_89bc_0b55_990d),
        (PtKind::Ecpt, true, 0xe96e_b2e9_d431_5ed4),
        (PtKind::MeHpt, false, 0x5d78_fc75_578d_f06f),
        (PtKind::MeHpt, true, 0x1e5b_60b6_44b4_6290),
    ];
    for (kind, thp, want) in golden {
        let r = run(kind, thp);
        assert!(
            r.switches > 20,
            "{kind:?} thp={thp}: {} switches",
            r.switches
        );
        for p in &r.processes {
            assert!(p.aborted.is_none(), "{kind:?} thp={thp}: {:?}", p.aborted);
        }
        let got = digest(&r);
        assert_eq!(got, want, "{kind:?} thp={thp}: digest {got:#018x}");
    }
}
