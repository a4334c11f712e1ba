//! `mehpt` — command-line driver for the translation simulator.
//!
//! ```text
//! mehpt apps                                      list the built-in workloads
//! mehpt simulate --app gups --pt mehpt [--thp]    run one simulation
//!                [--scale 0.1] [--frag 0.7] [--mem-gb 64] [--nodes 1000000]
//!                [--seed 42]
//! mehpt compare  --app bfs [--thp] [--scale 0.1]  radix vs ECPT vs ME-HPT
//!                [--frag 0.7] [--mem-gb 64] [--nodes 1000000] [--seed 42]
//! mehpt record   --app bfs --scale 0.01 --out t.trace   export a trace file
//!                [--nodes 1000000] [--seed 42]
//! mehpt replay   --trace t.trace --pt radix       replay a recorded trace
//!                [--thp] [--frag 0.7] [--mem-gb 64]
//! ```
//!
//! `--seed <n>` (simulate, compare, record) seeds the workload generator
//! (default 42).

use std::process::ExitCode;

use mehpt::sim::{PtKind, SimConfig, SimReport, Simulator};
use mehpt::types::{ByteSize, GIB};
use mehpt::workloads::{App, FileTrace, Workload, WorkloadCfg};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "apps" => cmd_apps(),
        "simulate" => cmd_simulate(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        "record" => cmd_record(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
mehpt — trace-driven page-table simulator (HPCA'23 ME-HPT reproduction)

USAGE:
  mehpt apps
  mehpt simulate --app <name> --pt <radix|ecpt|mehpt> [--thp]
                 [--scale <f>] [--frag <f>] [--mem-gb <n>] [--nodes <n>]
                 [--seed <n>]
  mehpt compare  --app <name> [--thp] [--scale <f>] [--frag <f>]
                 [--mem-gb <n>] [--nodes <n>] [--seed <n>]
  mehpt record   --app <name> --out <file> [--scale <f>] [--nodes <n>]
                 [--seed <n>]
  mehpt replay   --trace <file> --pt <radix|ecpt|mehpt> [--thp] [--frag <f>]
                 [--mem-gb <n>]

--seed seeds the workload generator (default 42).";

/// Tiny flag parser: `--key value` pairs plus boolean flags.
struct Flags<'a>(&'a [String]);

impl<'a> Flags<'a> {
    fn get(&self, key: &str) -> Option<&'a str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {key}: {v:?}")),
        }
    }
}

fn find_app(name: &str) -> Result<App, String> {
    App::all()
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown app {name:?}; try `mehpt apps`"))
}

fn parse_kind(s: &str) -> Result<PtKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "radix" => Ok(PtKind::Radix),
        "ecpt" => Ok(PtKind::Ecpt),
        "mehpt" | "me-hpt" => Ok(PtKind::MeHpt),
        other => Err(format!("unknown page table {other:?} (radix|ecpt|mehpt)")),
    }
}

fn build_workload(flags: &Flags) -> Result<Workload, String> {
    let app = find_app(flags.get("--app").ok_or("--app is required")?)?;
    let cfg = WorkloadCfg {
        scale: flags.parse("--scale", 1.0)?,
        seed: flags.parse("--seed", 42u64)?,
        graph_nodes: flags.parse("--nodes", 1_000_000u64)?,
    };
    Ok(app.build(&cfg))
}

fn build_config(flags: &Flags, kind: PtKind) -> Result<SimConfig, String> {
    let mut cfg = SimConfig::paper(kind, flags.has("--thp"));
    cfg.fragmentation = flags.parse("--frag", 0.7)?;
    if !(0.0..=1.0).contains(&cfg.fragmentation) {
        return Err("--frag must be in 0.0..=1.0".to_string());
    }
    cfg.mem_bytes = flags
        .parse("--mem-gb", 64u64)?
        .checked_mul(GIB)
        .filter(|&bytes| bytes > 0)
        .ok_or("--mem-gb must be between 1 and 17179869183")?;
    Ok(cfg)
}

fn cmd_apps() -> Result<(), String> {
    println!("{:<10} {:>10} kind", "name", "data");
    for app in App::all() {
        let wl = app.build(&WorkloadCfg {
            scale: 0.001,
            ..WorkloadCfg::default()
        });
        println!(
            "{:<10} {:>10} {}",
            app.name(),
            ByteSize(wl.nominal_data_bytes()).to_string(),
            if app.is_graph() {
                "graph analytics (GraphBIG)"
            } else {
                "memory-intensive benchmark"
            }
        );
    }
    Ok(())
}

fn print_report(r: &SimReport) {
    let m = &r.metrics;
    println!("app:                {}", r.app);
    println!(
        "page table:         {} (THP {})",
        r.kind.label(),
        if r.thp { "on" } else { "off" }
    );
    println!("accesses:           {}", m.accesses);
    println!("total cycles:       {}", m.total_cycles);
    println!(
        "  base/translation/fault/alloc/pt-maintenance: {} / {} / {} / {} / {}",
        m.base_cycles, m.translation_cycles, m.fault_cycles, m.alloc_cycles, m.os_pt_cycles
    );
    println!(
        "page faults:        {} ({} x 4KB, {} x 2MB)",
        m.faults, m.pages_4k, m.pages_2m
    );
    println!(
        "walks:              {} (mean {:.1} cycles, {:.2} accesses)",
        m.walks, m.mean_walk_cycles, m.mean_walk_accesses
    );
    println!("TLB miss rate:      {:.4}", m.tlb_miss_rate);
    println!(
        "PT memory:          {} final, {} peak",
        ByteSize(m.pt_final_bytes),
        ByteSize(m.pt_peak_bytes)
    );
    println!("PT max contiguous:  {}", ByteSize(m.pt_max_contiguous));
    if r.kind == PtKind::MeHpt {
        println!("L2P entries used:   {}", m.l2p_entries_used);
        println!("chunk switches:     {}", m.chunk_switches);
    }
    if let Some(msg) = &r.aborted {
        println!("ABORTED:            {msg}");
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let kind = parse_kind(flags.get("--pt").ok_or("--pt is required")?)?;
    let wl = build_workload(&flags)?;
    let cfg = build_config(&flags, kind)?;
    let report = Simulator::run(wl, cfg);
    print_report(&report);
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    println!(
        "{:<8} {:>14} {:>12} {:>12} {:>12} {:>8}",
        "design", "cycles", "walk cyc", "PT peak", "contig", "speedup"
    );
    let mut base = None;
    for kind in [PtKind::Radix, PtKind::Ecpt, PtKind::MeHpt] {
        let wl = build_workload(&flags)?;
        let cfg = build_config(&flags, kind)?;
        let r = Simulator::run(wl, cfg);
        let m = &r.metrics;
        let cpa = m.cycles_per_access();
        let speedup = *base.get_or_insert(cpa) / cpa;
        println!(
            "{:<8} {:>14} {:>12.0} {:>12} {:>12} {:>7.2}x{}",
            kind.label(),
            m.total_cycles,
            m.mean_walk_cycles,
            ByteSize(m.pt_peak_bytes).to_string(),
            ByteSize(m.pt_max_contiguous).to_string(),
            speedup,
            r.aborted
                .as_deref()
                .map(|m| format!("  ABORTED: {m}"))
                .unwrap_or_default()
        );
    }
    Ok(())
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let out = flags.get("--out").ok_or("--out is required")?;
    let wl = build_workload(&flags)?;
    let regions = wl.regions().to_vec();
    let accesses: Vec<_> = wl.collect();
    let trace = FileTrace::from_parts(regions, accesses);
    let file = std::fs::File::create(out).map_err(|e| e.to_string())?;
    trace
        .write_to(std::io::BufWriter::new(file))
        .map_err(|e| e.to_string())?;
    println!("wrote {} accesses to {out}", trace.accesses().len());
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let path = flags.get("--trace").ok_or("--trace is required")?;
    let kind = parse_kind(flags.get("--pt").ok_or("--pt is required")?)?;
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let trace = FileTrace::parse(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
    let wl = trace.into_workload(path);
    let cfg = build_config(&flags, kind)?;
    let report = Simulator::run(wl, cfg);
    print_report(&report);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(args: &[&str]) -> Result<SimConfig, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        build_config(&Flags(&args), PtKind::MeHpt)
    }

    #[test]
    fn memory_sizes_that_cannot_exist_are_rejected() {
        // 2^34 GB wraps to 0 bytes.
        for bad in ["0", "17179869184"] {
            let err = config(&["--mem-gb", bad]).expect_err(bad);
            assert!(err.contains("--mem-gb"), "{err}");
        }
        assert_eq!(config(&["--mem-gb", "1"]).unwrap().mem_bytes, GIB);
        assert_eq!(config(&[]).unwrap().mem_bytes, 64 * GIB);
    }

    #[test]
    fn fragmentation_outside_0_to_1_is_rejected() {
        for bad in ["1.5", "-0.1", "NaN"] {
            let err = config(&["--frag", bad]).expect_err(bad);
            assert!(err.contains("--frag"), "{err}");
        }
        for ok in ["0", "1", "0.7"] {
            assert!(config(&["--frag", ok]).is_ok(), "{ok}");
        }
    }
}
