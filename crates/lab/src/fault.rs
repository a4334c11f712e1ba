//! Deterministic fault injection for the lab engine.
//!
//! A [`FaultPlan`] makes *targeted* cells misbehave in a fully
//! reproducible way, which turns the engine's isolation guarantees (panic
//! containment, watchdog recovery, order-invariant aggregation over
//! partial failures) into testable assertions instead of prose. A plan is
//! parsed from a `--fault <spec>` string, carried in
//! [`crate::engine::RunOptions::fault`] and consulted by the engine before
//! every work unit:
//!
//! * which **cells** a rule hits is decided by the rule's selector
//!   (substring of the cell identity, or a 1-in-N identity-hash modulus);
//! * which **replicate** of a selected cell misbehaves is derived from the
//!   cell identity and the replicate count ([`FaultPlan::fault_replicate`])
//!   — *not* from scheduling — so the exact same unit faults under
//!   `--jobs 1` and `--jobs 8`, and the healthy sibling replicates prove
//!   that aggregation tolerates partial failure.
//!
//! # Spec grammar
//!
//! ```text
//! spec    := rule (',' rule)*
//! rule    := kind '*'? ':' selector
//! kind    := 'panic' | 'hang' | 'poison'
//! selector:= '@' N          every cell whose identity hash ≡ 0 (mod N)
//!          | <substring>    every cell whose id contains the substring,
//!                           compared case-insensitively (ids mix case:
//!                           `GUPS-ecpt-…`); the empty string selects
//!                           every cell
//! ```
//!
//! Examples: `panic:@2` (an identity-chosen half of all cells panic),
//! `hang:gups-ecpt-nothp-full-n1000000-f00` (that one cell hangs),
//! `poison:bfs,panic:mummer` (two rules; the first matching rule wins).
//!
//! A `*` after the kind makes the rule **persistent**: it fires on every
//! retry attempt, not just attempt 0 — `panic*:gups` is a replicate that
//! exhausts its whole `--retries` budget and stays `failed`, while plain
//! `panic:gups` is a transient fault a single retry recovers from.
//!
//! # Fault kinds
//!
//! * **panic** — the work unit panics with a deterministic message; the
//!   engine's `catch_unwind` marks the replicate
//!   [`CellStatus::Failed`](crate::report::CellStatus::Failed).
//! * **hang** — the work unit sleeps forever. Without a watchdog
//!   (`--timeout`) the sweep stalls, exactly like a pathological resize
//!   loop would; with one, the replicate is marked
//!   [`CellStatus::TimedOut`](crate::report::CellStatus::TimedOut) and the
//!   worker slot is respawned.
//! * **poison** — the work unit *completes* with deterministic, absurd
//!   metrics ([`poisoned_report`]) and status `ok`: a silent corruption
//!   that only `mehpt-lab diff` against a clean report can catch.

use mehpt_sim::SimReport;

use crate::grid::{cell_seed, CellSpec};

/// How a targeted work unit misbehaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a deterministic message (tests panic containment).
    Panic,
    /// Never return (tests the watchdog; stalls the sweep without one).
    Hang,
    /// Return deterministic garbage metrics with status `ok` (tests that
    /// `mehpt-lab diff` catches silent corruption).
    Poison,
}

impl FaultKind {
    /// The spec keyword.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Hang => "hang",
            FaultKind::Poison => "poison",
        }
    }

    fn parse(word: &str) -> Option<FaultKind> {
        match word {
            "panic" => Some(FaultKind::Panic),
            "hang" => Some(FaultKind::Hang),
            "poison" => Some(FaultKind::Poison),
            _ => None,
        }
    }
}

/// Which cells a rule targets.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Selector {
    /// `@N`: cells whose identity hash is ≡ 0 (mod N).
    Modulo(u64),
    /// Cells whose identity contains the substring, case-insensitively
    /// (stored lowercased; empty = every cell).
    Substring(String),
}

impl Selector {
    fn selects(&self, id: &str) -> bool {
        match self {
            Selector::Modulo(n) => cell_seed(SELECT_SEED, id) % n == 0,
            Selector::Substring(s) => id.to_ascii_lowercase().contains(s.as_str()),
        }
    }
}

/// One `kind:selector` rule of a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// The misbehavior to inject.
    pub kind: FaultKind,
    /// `kind*`: fire on every retry attempt, not just attempt 0.
    pub persistent: bool,
    selector: Selector,
}

/// Base seeds feeding [`cell_seed`] for the two identity-derived choices a
/// plan makes. Distinct constants so "is this cell selected" and "which
/// replicate faults" are independent hashes of the same identity.
const SELECT_SEED: u64 = 0xfa01;
const REPLICATE_SEED: u64 = 0xfa02;

/// A parsed, deterministic fault-injection plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    spec: String,
}

impl FaultPlan {
    /// Parses a spec string (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err("empty fault spec".to_string());
        }
        let mut rules = Vec::new();
        for rule in spec.split(',') {
            let (kind, selector) = rule
                .split_once(':')
                .ok_or_else(|| format!("fault rule without ':': {rule:?} (want kind:selector)"))?;
            let (kind, persistent) = match kind.strip_suffix('*') {
                Some(base) => (base, true),
                None => (kind, false),
            };
            let kind = FaultKind::parse(kind).ok_or_else(|| {
                format!("unknown fault kind {kind:?} (want panic, hang or poison)")
            })?;
            let selector = match selector.strip_prefix('@') {
                Some(n) => {
                    let n: u64 = n
                        .parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| format!("bad fault modulus: @{n} (want @N, N >= 1)"))?;
                    Selector::Modulo(n)
                }
                None => Selector::Substring(selector.to_ascii_lowercase()),
            };
            rules.push(FaultRule {
                kind,
                persistent,
                selector,
            });
        }
        Ok(FaultPlan {
            rules,
            spec: spec.to_string(),
        })
    }

    /// The spec this plan was parsed from (recorded verbatim in reports).
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The replicate of cell `id` at which a fault (if any rule selects
    /// the cell) fires: identity-derived, independent of scheduling.
    pub fn fault_replicate(id: &str, seeds: u32) -> u32 {
        (cell_seed(REPLICATE_SEED, id) % u64::from(seeds.max(1))) as u32
    }

    /// The fault to inject into retry attempt `attempt` of replicate
    /// `replicate` of cell `id` when a sweep runs `seeds` replicates per
    /// cell, or `None` for a healthy unit. The first matching rule wins.
    /// Non-persistent rules fire on attempt 0 only (a transient fault one
    /// retry recovers from); `kind*` rules fire on every attempt.
    pub fn fault_for(
        &self,
        id: &str,
        replicate: u32,
        seeds: u32,
        attempt: u32,
    ) -> Option<FaultKind> {
        if replicate != FaultPlan::fault_replicate(id, seeds) {
            return None;
        }
        self.rules
            .iter()
            .find(|r| r.selector.selects(id) && (r.persistent || attempt == 0))
            .map(|r| r.kind)
    }
}

/// Sleeps forever (in one-hour slices — cheap for the leaked thread the
/// watchdog abandons). Never returns.
pub fn hang() -> ! {
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// The deterministic garbage a poisoned unit reports: recognizably absurd
/// (one access, an astronomic cycle count, a 100% TLB miss rate), finite
/// everywhere (aggregation must never see NaN), and a pure function of the
/// cell spec — poisoned sweeps are still byte-identical across `--jobs`.
pub fn poisoned_report(spec: &CellSpec) -> SimReport {
    SimReport {
        app: spec.app.name().to_string(),
        kind: spec.kind,
        thp: spec.thp,
        accesses: 1,
        total_cycles: u64::MAX >> 20,
        base_cycles: 0,
        translation_cycles: u64::MAX >> 21,
        fault_cycles: 0,
        alloc_cycles: 0,
        os_pt_cycles: 0,
        faults: u64::MAX >> 32,
        pages_4k: 0,
        pages_2m: 0,
        tlb_miss_rate: 1.0,
        walks: u64::MAX >> 32,
        mean_walk_accesses: 1e9,
        mean_walk_cycles: 1e9,
        pt_final_bytes: u64::MAX >> 24,
        pt_peak_bytes: u64::MAX >> 24,
        pt_max_contiguous: u64::MAX >> 24,
        way_sizes_4k: vec![],
        way_phys_4k: vec![],
        upsizes_per_way_4k: vec![],
        upsizes_per_way_2m: vec![],
        moved_fraction_4k: 1.0,
        kicks_histogram: vec![],
        l2p_entries_used: 0,
        chunk_switches: 0,
        data_bytes_nominal: 0,
        aborted: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{ExperimentGrid, Tuning};
    use mehpt_sim::PtKind;
    use mehpt_workloads::App;

    fn ids() -> Vec<String> {
        ExperimentGrid::paper(
            App::all().to_vec(),
            vec![PtKind::Ecpt, PtKind::MeHpt],
            vec![false, true],
        )
        .expand(&Tuning::quick())
        .iter()
        .map(|c| c.id())
        .collect()
    }

    #[test]
    fn parses_every_kind_and_selector_shape() {
        let p = FaultPlan::parse("panic:@2").unwrap();
        assert_eq!(p.spec(), "panic:@2");
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.rules[0].kind, FaultKind::Panic);
        let p = FaultPlan::parse("hang:gups-ecpt,poison:bfs").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[1].kind, FaultKind::Poison);
        // Empty substring = every cell.
        let all = FaultPlan::parse("panic:").unwrap();
        assert!(all.rules[0].selector.selects("anything-at-all"));
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "panic",
            "explode:@2",
            "panic:@0",
            "panic:@x",
            "panic:@2,,",
            "*:@2",
            "panic**:@2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn persistent_rules_fire_on_every_attempt_transient_on_the_first() {
        let transient = FaultPlan::parse("panic:gups").unwrap();
        let persistent = FaultPlan::parse("panic*:gups").unwrap();
        assert_eq!(persistent.spec(), "panic*:gups");
        assert!(persistent.rules[0].persistent);
        assert!(!transient.rules[0].persistent);
        let id = "gups-mehpt-nothp-full-n1000000-f70";
        let fr = FaultPlan::fault_replicate(id, 3);
        for attempt in 0..4 {
            let want = (attempt == 0).then_some(FaultKind::Panic);
            assert_eq!(transient.fault_for(id, fr, 3, attempt), want);
            assert_eq!(
                persistent.fault_for(id, fr, 3, attempt),
                Some(FaultKind::Panic)
            );
        }
        // Retry attempts never widen the targeting: other replicates stay
        // healthy on every attempt.
        let other = (fr + 1) % 3;
        assert_eq!(persistent.fault_for(id, other, 3, 1), None);
    }

    #[test]
    fn substring_selector_targets_matching_cells_only() {
        let p = FaultPlan::parse("hang:GUPS-ecpt").unwrap();
        let mut hit = 0;
        for id in ids() {
            let fault = p.fault_for(&id, FaultPlan::fault_replicate(&id, 1), 1, 0);
            if id.to_ascii_lowercase().contains("gups-ecpt") {
                assert_eq!(fault, Some(FaultKind::Hang), "{id}");
                hit += 1;
            } else {
                assert_eq!(fault, None, "{id}");
            }
        }
        assert_eq!(hit, 2, "gups×ecpt exists once per THP setting");
    }

    #[test]
    fn modulo_selector_hits_a_deterministic_subset() {
        let p = FaultPlan::parse("panic:@2").unwrap();
        let hits: Vec<bool> = ids()
            .iter()
            .map(|id| {
                p.fault_for(id, FaultPlan::fault_replicate(id, 4), 4, 0)
                    .is_some()
            })
            .collect();
        assert!(hits.iter().any(|h| *h), "some cells must be selected");
        assert!(hits.iter().any(|h| !*h), "some cells must be spared");
        // Deterministic: the same subset every time.
        let again: Vec<bool> = ids()
            .iter()
            .map(|id| {
                p.fault_for(id, FaultPlan::fault_replicate(id, 4), 4, 0)
                    .is_some()
            })
            .collect();
        assert_eq!(hits, again);
    }

    #[test]
    fn fault_fires_at_exactly_one_identity_derived_replicate() {
        let p = FaultPlan::parse("panic:").unwrap();
        for id in ids().iter().take(4) {
            let seeds = 5;
            let firing: Vec<u32> = (0..seeds)
                .filter(|&r| p.fault_for(id, r, seeds, 0).is_some())
                .collect();
            assert_eq!(firing, vec![FaultPlan::fault_replicate(id, seeds)]);
        }
        // Single-seed sweeps fault at replicate 0 by construction.
        assert_eq!(FaultPlan::fault_replicate("any", 1), 0);
    }

    #[test]
    fn first_matching_rule_wins() {
        let p = FaultPlan::parse("poison:gups,panic:").unwrap();
        let gups = "gups-ecpt-nothp-full-n1000000-f70";
        let bfs = "bfs-ecpt-nothp-full-n1000000-f70";
        assert_eq!(
            p.fault_for(gups, FaultPlan::fault_replicate(gups, 1), 1, 0),
            Some(FaultKind::Poison)
        );
        assert_eq!(
            p.fault_for(bfs, FaultPlan::fault_replicate(bfs, 1), 1, 0),
            Some(FaultKind::Panic)
        );
    }

    #[test]
    fn poisoned_reports_are_deterministic_finite_and_absurd() {
        let spec = &ExperimentGrid::paper(vec![App::Gups], vec![PtKind::MeHpt], vec![false])
            .expand(&Tuning::quick())[0];
        let a = poisoned_report(spec);
        let b = poisoned_report(spec);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.accesses, 1);
        assert!(a.tlb_miss_rate.is_finite() && a.mean_walk_cycles.is_finite());
        assert!(a.total_cycles > 1_000_000_000, "absurd on purpose");
        assert!(a.aborted.is_none(), "poison is a silent fault");
    }
}
