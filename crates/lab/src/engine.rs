//! The parallel cell-execution engine.
//!
//! Cells are fully self-contained (each builds its own physical memory,
//! TLBs and workload from its [`CellSpec`]), so the engine can hand them to
//! any number of worker threads and still produce the *same* results: the
//! output vector is ordered by cell index, every cell's randomness derives
//! from its identity, and wall-clock time never enters the serialized
//! report. Every unit body runs under [`std::panic::catch_unwind`] — a
//! panicking simulation marks that one replicate [`CellStatus::Failed`]
//! instead of killing the sweep.
//!
//! With `seeds > 1` in [`RunOptions`], each cell fans out into that many
//! replicate units (identity-derived seeds via
//! [`CellSpec::replicate_seed`]), scheduled independently across the pool;
//! the per-cell replicates are then folded into one [`CellResult`] whose
//! order-invariant aggregation keeps reports byte-identical for every
//! `--jobs` value.
//!
//! # Scheduling
//!
//! The calling thread is the *collector*, the engine's one scheduler. It
//! puts one `(unit, attempt)` job per replicate to run on a job channel,
//! and `jobs` workers share that channel's receiver: an idle worker takes
//! the next job, so long cells never serialize the queue behind them. A
//! worker reports when it starts an attempt and what the attempt produced;
//! it decides nothing. The job receiver is the only state the threads
//! share — every deadline, retry and record is the collector's own. Once
//! every replicate is settled the collector closes the channel and idle
//! workers exit.
//!
//! # The watchdog
//!
//! Panics are not the only way a simulation can go wrong: a pathological
//! configuration (say, an ECPT resize loop under extreme fragmentation)
//! can simply never finish. With [`RunOptions::timeout`] set, the collector
//! waits for the next message no longer than the earliest deadline of the
//! attempts in flight. An attempt that exceeds it is marked
//! [`CellStatus::TimedOut`] — recorded deterministically as status plus
//! the *configured* deadline, never measured wall-clock — its worker is
//! abandoned (the thread is detached and leaks; a truly hung body cannot
//! be cancelled from outside), and a replacement worker is spawned so the
//! rest of the sweep completes at full parallelism. Replacements are the
//! only workers spawned after the start, so with no hung bodies at most
//! `jobs` cell bodies run at once (an abandoned body that does return
//! late puts its worker back in the pool). A late result from an
//! abandoned worker is discarded, so the timed-out record sticks and
//! reports stay byte-identical across `--jobs` settings. Abandonments are
//! tallied in the report (`summary.workers_abandoned`) from the records
//! themselves, so the count is equally deterministic. A deadline too far
//! away to represent never expires. Workers are detached threads, not
//! scoped ones, which is what lets the collector give up on one without
//! joining it.
//!
//! # Deterministic retry
//!
//! With [`RunOptions::retries`] > 0, a replicate whose attempt ends
//! `failed` or `timed_out` is re-run up to that many times under
//! identity-derived retry seeds ([`CellSpec::retry_seed`]; attempt 0 is
//! the classic replicate seed). The collector makes every retry decision
//! and queues the retry on the same job channel, so the per-replicate
//! attempt history ([`AttemptRecord`]) — recorded in the schema-v4 report —
//! is a pure function of the attempt outcomes, never of scheduling. Modeled
//! aborts are outcomes, not failures: they are never retried.
//!
//! # Fault injection
//!
//! With [`RunOptions::fault`] set, the engine consults the [`FaultPlan`]
//! before every unit and makes targeted units panic, hang or return
//! poisoned metrics — deterministically, keyed to the cell identity and an
//! identity-derived replicate — which is how the isolation guarantees
//! above are tested rather than merely claimed. Plans interact with retry:
//! a plain rule is a transient fault (attempt 0 only), a `kind*` rule a
//! persistent one that exhausts the retry budget. See [`crate::fault`].
//!
//! # Crash-safe resume
//!
//! Replicates in [`RunOptions::restored`] (replayed from a
//! [`crate::journal`] result journal) are installed without running
//! anything. Every *freshly* finalized replicate, and only those, is
//! delivered through [`Progress`] — on the calling thread, in completion
//! order — so the caller can append it to the journal before the sweep
//! moves on.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mehpt_sim::{SimReport, Simulator};

use crate::fault::{self, FaultKind, FaultPlan};
use crate::grid::CellSpec;
use crate::report::{AttemptRecord, CellMetrics, CellResult, CellStatus, RepResult};

/// Name prefix of the engine's worker threads. The CLI's panic hook uses
/// it to mute the default "thread panicked" noise for isolated cells.
pub const WORKER_THREAD_PREFIX: &str = "mehpt-lab-worker";
/// A progress event: one freshly finished replicate.
///
/// Fires exactly once per replicate the engine ran (after its last
/// attempt), on the calling thread, and never for a replicate installed
/// from [`RunOptions::restored`]. Events arrive in *completion* order,
/// which depends on scheduling, so they feed the human-facing progress
/// stream and the result journal, never the report.
#[derive(Clone, Debug)]
pub struct Progress<'a> {
    /// Work units (cell replicates) finished so far (including this one
    /// and any restored replicates).
    pub done: usize,
    /// Total work units in the sweep (`cells × seeds`).
    pub total: usize,
    /// The finished cell's identity (suffixed `#rN` for replicates > 0).
    pub id: String,
    /// The finished cell.
    pub spec: &'a CellSpec,
    /// The finished replicate, exactly as it enters the cell's
    /// [`CellResult`]. Its status is [`CellStatus::TimedOut`] when the
    /// watchdog abandoned it; its `wall_millis` spans every attempt (the
    /// configured deadline for timed-out ones).
    pub result: &'a RepResult,
}

/// Engine options.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker threads. `0` means [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// Replicates per cell (each under its identity-derived seed).
    /// `0` is normalized to 1.
    pub seeds: u32,
    /// Retry budget per replicate: a `failed`/`timed_out` attempt is
    /// re-run up to this many times under identity-derived retry seeds.
    /// `0` (the default) keeps the classic single-attempt behavior.
    pub retries: u32,
    /// Per-unit watchdog deadline. `None` (the default) disables the
    /// watchdog: a hung cell stalls the sweep, exactly as before.
    pub timeout: Option<Duration>,
    /// Fault-injection plan consulted before every attempt. `None` (the
    /// default) runs every cell body as is.
    pub fault: Option<FaultPlan>,
    /// Replicates already finished, keyed by `(cell id, replicate index)`:
    /// they are installed without running anything. Because they came
    /// from the same deterministic engine, a resumed sweep's
    /// [`CellResult`]s are identical to an uninterrupted run's.
    pub restored: HashMap<(String, u32), RepResult>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            jobs: 0,
            seeds: 1,
            retries: 0,
            timeout: None,
            fault: None,
            restored: HashMap::new(),
        }
    }
}

impl RunOptions {
    /// Options for `jobs` workers at the default single replicate.
    pub fn with_jobs(jobs: usize) -> RunOptions {
        RunOptions {
            jobs,
            ..RunOptions::default()
        }
    }

    fn effective_jobs(&self, units: usize) -> usize {
        let jobs = if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.jobs
        };
        jobs.clamp(1, units.max(1))
    }

    fn effective_seeds(&self) -> u32 {
        self.seeds.max(1)
    }
}

/// Renders a deadline the way reports and error messages print it: the
/// shortest exact decimal of the configured seconds (`2`, `0.5`). A pure
/// function of the configuration, never of measured time.
pub fn timeout_label(timeout: Duration) -> String {
    format!("{}", timeout.as_secs_f64())
}

/// Runs one cell on the real simulator.
pub fn simulate_cell(spec: &CellSpec) -> SimReport {
    Simulator::run(spec.workload(), spec.sim_config())
}

/// [`run_cells_with`] on the real simulator.
pub fn run_cells(
    specs: &[CellSpec],
    opts: &RunOptions,
    progress: &dyn Fn(Progress),
) -> Vec<CellResult> {
    run_cells_with(specs, opts, simulate_cell, progress)
}

/// One finished attempt of a replicate: its audit record plus what it
/// measured.
struct Attempt {
    record: AttemptRecord,
    metrics: Option<CellMetrics>,
    wall_millis: u64,
}

/// What a worker tells the collector, as `(unit, attempt, ..)`.
enum Event {
    Started(usize, u32, Instant),
    Finished(usize, u32, Box<Attempt>),
}

/// What every worker reads. The job receiver is the only mutable part.
struct Pool<F> {
    specs: Vec<CellSpec>,
    seeds: usize,
    runner: F,
    fault: Option<FaultPlan>,
    jobs: Mutex<Receiver<(usize, u32)>>,
}

/// The collector's private record of one replicate.
#[derive(Default)]
struct Unit {
    /// The attempt queued or running; `None` once the replicate is settled
    /// (or restored). A message about any other attempt is stale.
    attempt: Option<u32>,
    /// When the current attempt started (`None` while it is queued).
    started: Option<Instant>,
    history: Vec<AttemptRecord>,
    wall_millis: u64,
}

/// Runs every cell (× `opts.seeds` replicates) on a pool of `opts.jobs`
/// workers with a caller-supplied cell body, and returns results in spec
/// order. This is the lab's one engine entry point.
///
/// The body runs under `catch_unwind`: a panic fails that replicate
/// (status [`CellStatus::Failed`], the panic message as `error`) and the
/// sweep continues. A completed simulation whose report says `aborted`
/// maps to [`CellStatus::Aborted`] with metrics preserved — that is a
/// *modeled* outcome (the paper's ECPT runs dying above 0.7 FMFI), not a
/// harness failure. With [`RunOptions::timeout`] set, a unit that exceeds
/// the deadline is marked [`CellStatus::TimedOut`], its worker abandoned
/// and replaced (see the module docs); with [`RunOptions::retries`] set,
/// failed/timed-out attempts are deterministically re-run. Replicates of
/// one cell are independent work units; their outcomes fold into the
/// cell's [`CellResult`] with order-invariant mean/min/max/CI aggregation.
/// [`RunOptions::fault`] injects faults between the engine and the body,
/// and [`RunOptions::restored`] replicates are installed without running.
/// `progress` sees every freshly finished replicate (see [`Progress`]).
pub fn run_cells_with<F>(
    specs: &[CellSpec],
    opts: &RunOptions,
    runner: F,
    progress: &dyn Fn(Progress),
) -> Vec<CellResult>
where
    F: Fn(&CellSpec) -> SimReport + Send + Sync + 'static,
{
    let seeds = opts.effective_seeds() as usize;
    let total = specs.len() * seeds;
    let (job_tx, job_rx) = mpsc::channel();
    let mut results: Vec<Option<RepResult>> = vec![None; total];
    let mut units: Vec<Unit> = (0..total).map(|_| Unit::default()).collect();
    for (u, result) in results.iter_mut().enumerate() {
        let key = (specs[u / seeds].id(), (u % seeds) as u32);
        match opts.restored.get(&key) {
            Some(rep) => *result = Some(rep.clone()),
            None => {
                units[u].attempt = Some(0);
                job_tx.send((u, 0)).expect("the pool holds the receiver");
            }
        }
    }
    let mut filled = results.iter().filter(|r| r.is_some()).count();

    let pool = Arc::new(Pool {
        specs: specs.to_vec(),
        seeds,
        runner,
        fault: opts.fault.clone(),
        jobs: Mutex::new(job_rx),
    });
    // The collector keeps its own event sender, so the channel never
    // disconnects while replacement workers may still be spawned.
    let (tx, rx) = mpsc::channel();
    let mut spawned = 0usize;
    let mut spawn_worker = || {
        let (pool, tx) = (Arc::clone(&pool), tx.clone());
        std::thread::Builder::new()
            .name(format!("{WORKER_THREAD_PREFIX}-{spawned}"))
            .spawn(move || worker(&pool, &tx))
            .expect("spawn lab worker");
        spawned += 1;
    };
    if filled < total {
        for _ in 0..opts.effective_jobs(total - filled) {
            spawn_worker();
        }
    }

    while filled < total {
        let deadline = opts.timeout.and_then(|timeout| {
            units
                .iter()
                .filter_map(|unit| unit.started?.checked_add(timeout))
                .min()
        });
        let event = match deadline {
            None => Some(rx.recv().expect("the collector holds a sender")),
            Some(d) => rx
                .recv_timeout(d.saturating_duration_since(Instant::now()))
                .ok(),
        };
        let mut settled: Vec<(usize, Attempt)> = Vec::new();
        match event {
            Some(Event::Started(u, attempt, at)) => {
                if units[u].attempt == Some(attempt) {
                    units[u].started = Some(at);
                }
            }
            Some(Event::Finished(u, attempt, outcome)) => {
                // A result for any other attempt comes from a worker the
                // watchdog abandoned: the record on file stands.
                if units[u].attempt == Some(attempt) {
                    settled.push((u, *outcome));
                }
            }
            None => {
                // The earliest deadline passed: abandon every attempt past
                // its own, and replace each abandoned worker.
                let timeout = opts.timeout.expect("deadlines need a timeout");
                let now = Instant::now();
                for (u, unit) in units.iter().enumerate() {
                    let (Some(attempt), Some(start)) = (unit.attempt, unit.started) else {
                        continue;
                    };
                    if start.checked_add(timeout).is_some_and(|d| d <= now) {
                        let spec = &specs[u / seeds];
                        settled.push((u, timed_out(spec, (u % seeds) as u32, attempt, timeout)));
                        spawn_worker();
                    }
                }
            }
        }
        for (u, outcome) in settled {
            let unit = &mut units[u];
            let attempt = outcome.record.attempt;
            unit.started = None;
            unit.wall_millis += outcome.wall_millis;
            let failed = outcome.record.status.is_failure();
            unit.history.push(outcome.record);
            if failed && attempt < opts.retries {
                // Deterministic retry: the next attempt's seed derives
                // from the replicate identity and the attempt index, so
                // the history is independent of scheduling.
                unit.attempt = Some(attempt + 1);
                job_tx
                    .send((u, attempt + 1))
                    .expect("the pool holds the receiver");
                continue;
            }
            unit.attempt = None;
            let (cell, rep) = (u / seeds, (u % seeds) as u32);
            let last = unit
                .history
                .last()
                .expect("a settled replicate made an attempt");
            let result = RepResult {
                replicate: rep,
                seed: last.seed,
                status: last.status,
                error: last.error.clone(),
                metrics: outcome.metrics,
                wall_millis: unit.wall_millis,
                attempts: std::mem::take(&mut unit.history),
            };
            filled += 1;
            let id = if rep == 0 {
                specs[cell].id()
            } else {
                format!("{}#r{}", specs[cell].id(), rep)
            };
            progress(Progress {
                done: filled,
                total,
                id,
                spec: &specs[cell],
                result: &result,
            });
            results[u] = Some(result);
        }
    }
    // Closing the job channel lets idle workers exit.
    drop(job_tx);

    let mut results = results
        .into_iter()
        .map(|r| r.expect("every replicate produces a result"));
    specs
        .iter()
        .map(|spec| {
            CellResult::from_replicates(spec.clone(), results.by_ref().take(seeds).collect())
        })
        .collect()
}

/// The detached worker loop: take a job, report its start, run one
/// attempt, report its outcome. Exits when the collector closes the job
/// channel or went away (a late send after abandonment fails harmlessly).
fn worker<F>(pool: &Pool<F>, tx: &Sender<Event>)
where
    F: Fn(&CellSpec) -> SimReport + Send + Sync,
{
    loop {
        // A statement of its own, so the lock is released before the body
        // runs (a `while let` would hold it for the whole iteration).
        let job = pool.jobs.lock().unwrap().recv();
        let Ok((u, attempt)) = job else { break };
        let rep = (u % pool.seeds) as u32;
        let spec = pool.specs[u / pool.seeds].replicate_attempt(rep, attempt);
        let kind = pool
            .fault
            .as_ref()
            .and_then(|p| p.fault_for(&spec.id(), rep, pool.seeds as u32, attempt));
        if tx.send(Event::Started(u, attempt, Instant::now())).is_err() {
            break;
        }
        let outcome = execute(&spec, rep, attempt, &pool.runner, kind);
        if tx
            .send(Event::Finished(u, attempt, Box::new(outcome)))
            .is_err()
        {
            break;
        }
    }
}

/// The deterministic record of an attempt the watchdog abandoned: status
/// plus the *configured* deadline. Measured wall-clock never appears, so
/// the serialized report is identical for every `--jobs` value.
fn timed_out(spec: &CellSpec, replicate: u32, attempt: u32, timeout: Duration) -> Attempt {
    Attempt {
        record: AttemptRecord {
            attempt,
            seed: spec.retry_seed(replicate, attempt),
            status: CellStatus::TimedOut,
            error: Some(format!(
                "replicate exceeded the {}s deadline; worker abandoned",
                timeout_label(timeout)
            )),
        },
        metrics: None,
        wall_millis: timeout.as_millis() as u64,
    }
}

fn execute<F>(
    spec: &CellSpec,
    replicate: u32,
    attempt: u32,
    runner: &F,
    injected: Option<FaultKind>,
) -> Attempt
where
    F: Fn(&CellSpec) -> SimReport,
{
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| match injected {
        Some(FaultKind::Panic) => panic!(
            "injected fault: panic in {} replicate {replicate}",
            spec.id()
        ),
        Some(FaultKind::Hang) => fault::hang(),
        Some(FaultKind::Poison) => fault::poisoned_report(spec),
        None => runner(spec),
    }));
    let wall_millis = start.elapsed().as_millis() as u64;
    let (status, error, metrics) = match outcome {
        Ok(report) if report.aborted.is_some() => {
            (CellStatus::Aborted, report.aborted, Some(report.metrics))
        }
        Ok(report) => (CellStatus::Ok, None, Some(report.metrics)),
        Err(panic) => (
            CellStatus::Failed,
            Some(panic_message(panic.as_ref())),
            None,
        ),
    };
    Attempt {
        record: AttemptRecord {
            attempt,
            seed: spec.seed,
            status,
            error,
        },
        metrics,
        wall_millis,
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{ExperimentGrid, Tuning};
    use mehpt_sim::{Metrics, PtKind};
    use mehpt_types::rng::Xoshiro256;
    use mehpt_workloads::App;

    /// A cheap, deterministic stand-in for the simulator: metrics are a
    /// pure function of the cell seed.
    fn fake_sim(spec: &CellSpec) -> SimReport {
        let mut rng = Xoshiro256::seed_from_u64(spec.seed);
        let cycles = 1_000 + rng.next_below(1_000_000);
        SimReport {
            app: spec.app.name().to_string(),
            kind: spec.kind,
            thp: spec.thp,
            aborted: None,
            metrics: Metrics {
                accesses: 100 + rng.next_below(100),
                total_cycles: cycles,
                ..Metrics::default()
            },
        }
    }

    fn specs() -> Vec<CellSpec> {
        ExperimentGrid::paper(
            App::all().to_vec(),
            vec![PtKind::Radix, PtKind::Ecpt, PtKind::MeHpt],
            vec![false, true],
        )
        .expand(&Tuning::quick())
    }

    #[test]
    fn parallel_and_serial_runs_are_identical() {
        let specs = specs();
        let serial = run_cells_with(&specs, &RunOptions::with_jobs(1), fake_sim, &|_| {});
        let parallel = run_cells_with(&specs, &RunOptions::with_jobs(8), fake_sim, &|_| {});
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.status, b.status);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn a_panicking_cell_fails_alone() {
        let specs = specs();
        let bomb = |spec: &CellSpec| -> SimReport {
            if spec.app == App::Gups && spec.thp {
                panic!("injected failure in {}", spec.id());
            }
            fake_sim(spec)
        };
        let results = run_cells_with(&specs, &RunOptions::with_jobs(4), bomb, &|_| {});
        let failed: Vec<_> = results
            .iter()
            .filter(|r| r.status == CellStatus::Failed)
            .collect();
        assert_eq!(failed.len(), 3, "gups×thp exists once per kind");
        for f in &failed {
            assert!(f.error.as_deref().unwrap().contains("injected failure"));
            assert!(f.metrics.is_none());
        }
        let ok = results
            .iter()
            .filter(|r| r.status == CellStatus::Ok)
            .count();
        assert_eq!(ok, results.len() - 3, "every other cell completes");
    }

    #[test]
    fn a_hanging_cell_times_out_alone_and_the_sweep_completes() {
        let specs = specs();
        let stall = |spec: &CellSpec| -> SimReport {
            if spec.app == App::Gups && spec.thp && spec.kind == PtKind::Ecpt {
                fault::hang();
            }
            fake_sim(spec)
        };
        let opts = RunOptions {
            timeout: Some(Duration::from_millis(150)),
            ..RunOptions::with_jobs(2)
        };
        let results = run_cells_with(&specs, &opts, stall, &|_| {});
        assert_eq!(results.len(), specs.len());
        let timed: Vec<_> = results
            .iter()
            .filter(|r| r.status == CellStatus::TimedOut)
            .collect();
        assert_eq!(timed.len(), 1);
        let t = timed[0];
        assert!(t.metrics.is_none());
        assert_eq!(
            t.error.as_deref(),
            Some("replicate exceeded the 0.15s deadline; worker abandoned"),
            "the record carries the configured deadline, not wall-clock"
        );
        let ok = results
            .iter()
            .filter(|r| r.status == CellStatus::Ok)
            .count();
        assert_eq!(ok, results.len() - 1, "every other cell completes");
    }

    #[test]
    fn a_hang_on_the_only_worker_is_rescued_by_a_respawn() {
        // jobs=1 is the hard case: the single worker hangs on an early
        // unit, and only the watchdog's replacement finishes the queue.
        let specs = specs();
        let first = specs[0].clone();
        let stall = move |spec: &CellSpec| -> SimReport {
            if spec.id() == first.id() {
                fault::hang();
            }
            fake_sim(spec)
        };
        let opts = RunOptions {
            timeout: Some(Duration::from_millis(100)),
            ..RunOptions::with_jobs(1)
        };
        let results = run_cells_with(&specs, &opts, stall, &|_| {});
        assert_eq!(results[0].status, CellStatus::TimedOut);
        assert!(results[1..].iter().all(|r| r.status == CellStatus::Ok));
    }

    #[test]
    fn timed_out_sweeps_are_deterministic_across_jobs() {
        let specs = specs();
        let run = |jobs| {
            let stall = |spec: &CellSpec| -> SimReport {
                if spec.app == App::Bfs && spec.kind == PtKind::MeHpt && !spec.thp {
                    fault::hang();
                }
                fake_sim(spec)
            };
            let opts = RunOptions {
                jobs,
                seeds: 2,
                retries: 0,
                timeout: Some(Duration::from_millis(120)),
                ..RunOptions::default()
            };
            run_cells_with(&specs, &opts, stall, &|_| {})
        };
        let serial = run(1);
        let parallel = run(6);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.status, b.status, "{}", a.spec.id());
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.metrics, b.metrics);
            for (ra, rb) in a.replicates.iter().zip(&b.replicates) {
                assert_eq!(ra.status, rb.status);
                assert_eq!(ra.error, rb.error);
            }
        }
    }

    #[test]
    fn progress_reports_every_cell_exactly_once() {
        use std::sync::Mutex;
        let specs = specs();
        let seen = Mutex::new(Vec::new());
        run_cells_with(&specs, &RunOptions::with_jobs(3), fake_sim, &|p| {
            seen.lock().unwrap().push((p.done, p.id));
        });
        let mut seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), specs.len());
        seen.sort();
        assert_eq!(seen.last().unwrap().0, specs.len());
        let mut ids: Vec<String> = seen.into_iter().map(|(_, id)| id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), specs.len());
    }

    #[test]
    fn replicated_runs_aggregate_and_stay_deterministic_across_jobs() {
        let specs = specs();
        let opts = |jobs| RunOptions {
            jobs,
            seeds: 3,
            ..RunOptions::default()
        };
        let serial = run_cells_with(&specs, &opts(1), fake_sim, &|_| {});
        let parallel = run_cells_with(&specs, &opts(7), fake_sim, &|_| {});
        assert_eq!(serial.len(), specs.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.stats, b.stats, "aggregation must not depend on --jobs");
            assert_eq!(a.metrics, b.metrics);
        }
        let cell = &serial[0];
        assert_eq!(cell.replicates.len(), 3);
        // fake_sim is a pure function of the seed, and replicate seeds
        // differ, so the replicates measure different cycle counts.
        let cycles: std::collections::HashSet<u64> = cell
            .replicates
            .iter()
            .map(|r| r.metrics.as_ref().unwrap().total_cycles)
            .collect();
        assert_eq!(cycles.len(), 3);
        let st = cell.stats.as_ref().unwrap();
        assert_eq!(st.replicates, 3);
        let cyc = st.field("total_cycles").unwrap();
        assert!(cyc.min < cyc.mean && cyc.mean < cyc.max);
        assert!(cyc.ci95 > 0.0);
        // Replicate 0 of a seeds=3 run is the whole seeds=1 run.
        let single = run_cells_with(&specs, &RunOptions::with_jobs(2), fake_sim, &|_| {});
        assert_eq!(single[0].metrics, serial[0].metrics);
    }

    #[test]
    fn replicated_progress_counts_units() {
        use std::sync::Mutex;
        let specs = specs();
        let seen = Mutex::new(Vec::new());
        let opts = RunOptions {
            jobs: 4,
            seeds: 2,
            ..RunOptions::default()
        };
        run_cells_with(&specs, &opts, fake_sim, &|p| {
            seen.lock().unwrap().push((p.total, p.id));
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 2 * specs.len());
        assert!(seen.iter().all(|(t, _)| *t == 2 * specs.len()));
        assert_eq!(
            seen.iter().filter(|(_, id)| id.ends_with("#r1")).count(),
            specs.len()
        );
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        let opts = RunOptions::with_jobs(0);
        assert!(opts.effective_jobs(1000) >= 1);
        assert_eq!(opts.effective_jobs(0), 1);
        assert_eq!(RunOptions::with_jobs(64).effective_jobs(4), 4);
    }

    #[test]
    fn timeout_labels_are_exact_decimals() {
        assert_eq!(timeout_label(Duration::from_secs(2)), "2");
        assert_eq!(timeout_label(Duration::from_millis(150)), "0.15");
    }

    #[test]
    fn retries_run_on_the_pool_and_never_grow_it() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let specs = specs();
        let first_seeds = attempt0_seeds(&specs, 1);
        let running = Arc::new(AtomicUsize::new(0));
        let most = Arc::new(AtomicUsize::new(0));
        let (r, m) = (Arc::clone(&running), Arc::clone(&most));
        // Every cell body fails its first attempt after 20 ms, so each
        // cell is queued twice.
        let flaky = move |spec: &CellSpec| -> SimReport {
            m.fetch_max(r.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(20));
            r.fetch_sub(1, Ordering::SeqCst);
            if first_seeds.contains(&spec.seed) {
                panic!("transient failure in {}", spec.id());
            }
            fake_sim(spec)
        };
        let opts = RunOptions {
            retries: 1,
            ..RunOptions::with_jobs(2)
        };
        let results = run_cells_with(&specs, &opts, flaky, &|_| {});
        assert!(results.iter().all(|c| c.status == CellStatus::Ok));
        assert!(results.iter().all(|c| c.replicates[0].attempts.len() == 2));
        let most = most.load(Ordering::SeqCst);
        assert!(most <= 2, "{most} cell bodies ran at once on 2 jobs");
    }

    #[test]
    fn a_deadline_too_far_to_represent_never_expires() {
        let specs = &specs()[..3];
        let slow = |spec: &CellSpec| -> SimReport {
            std::thread::sleep(Duration::from_millis(200));
            fake_sim(spec)
        };
        let opts = RunOptions {
            timeout: Some(Duration::from_secs(u64::MAX)),
            ..RunOptions::with_jobs(2)
        };
        let results = run_cells_with(specs, &opts, slow, &|_| {});
        assert!(results.iter().all(|c| c.status == CellStatus::Ok));
    }

    /// The seeds every (replicate, attempt-0) unit of `specs` runs under —
    /// what a transient-failure runner uses to decide when to misbehave.
    fn attempt0_seeds(specs: &[CellSpec], seeds: u32) -> std::collections::HashSet<u64> {
        specs
            .iter()
            .flat_map(|s| (0..seeds).map(move |r| s.replicate_seed(r)))
            .collect()
    }

    #[test]
    fn a_transient_failure_is_recovered_by_retry_with_history() {
        let specs = specs();
        let first_seeds = attempt0_seeds(&specs, 2);
        let run = |jobs| {
            let seeds = first_seeds.clone();
            let flaky = move |spec: &CellSpec| -> SimReport {
                // Gups panics on every attempt-0 seed; retry seeds differ,
                // so attempt 1 completes.
                if spec.app == App::Gups && seeds.contains(&spec.seed) {
                    panic!("transient failure in {}", spec.id());
                }
                fake_sim(spec)
            };
            let opts = RunOptions {
                jobs,
                seeds: 2,
                retries: 2,
                timeout: None,
                ..RunOptions::default()
            };
            run_cells_with(&specs, &opts, flaky, &|_| {})
        };
        let serial = run(1);
        let parallel = run(4);
        let gups: Vec<_> = serial.iter().filter(|c| c.spec.app == App::Gups).collect();
        assert!(!gups.is_empty());
        for cell in &gups {
            assert_eq!(cell.status, CellStatus::Ok, "{}", cell.spec.id());
            for rep in &cell.replicates {
                assert_eq!(rep.status, CellStatus::Ok);
                assert_eq!(rep.attempts.len(), 2, "one failure, one recovery");
                assert_eq!(rep.attempts[0].status, CellStatus::Failed);
                assert!(rep.attempts[0]
                    .error
                    .as_deref()
                    .unwrap()
                    .contains("transient failure"));
                assert_eq!(rep.attempts[1].status, CellStatus::Ok);
                assert_eq!(
                    rep.seed,
                    cell.spec.retry_seed(rep.replicate, 1),
                    "the final attempt ran the retry seed"
                );
                assert!(rep.metrics.is_some());
            }
        }
        // Healthy cells record a single attempt; histories and outcomes
        // are byte-identical across the jobs axis.
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.status, b.status, "{}", a.spec.id());
            assert_eq!(a.metrics, b.metrics);
            for (ra, rb) in a.replicates.iter().zip(&b.replicates) {
                assert_eq!(ra.attempts, rb.attempts, "{}", a.spec.id());
                if a.spec.app != App::Gups {
                    assert_eq!(ra.attempts.len(), 1);
                }
            }
        }
    }

    #[test]
    fn a_permanent_failure_exhausts_the_retry_budget() {
        let specs = specs();
        let bomb = |spec: &CellSpec| -> SimReport {
            if spec.app == App::Gups && spec.thp && spec.kind == PtKind::MeHpt {
                panic!("permanent failure");
            }
            fake_sim(spec)
        };
        let opts = RunOptions {
            retries: 2,
            ..RunOptions::with_jobs(3)
        };
        let results = run_cells_with(&specs, &opts, bomb, &|_| {});
        let failed: Vec<_> = results
            .iter()
            .filter(|c| c.status == CellStatus::Failed)
            .collect();
        assert_eq!(failed.len(), 1);
        let rep = &failed[0].replicates[0];
        assert_eq!(rep.attempts.len(), 3, "original + 2 retries");
        assert!(rep.attempts.iter().all(|a| a.status == CellStatus::Failed));
        let seeds: std::collections::HashSet<u64> = rep.attempts.iter().map(|a| a.seed).collect();
        assert_eq!(seeds.len(), 3, "every attempt ran a distinct seed");
        // Aborted outcomes are modeled results, never retried: nothing
        // else in the sweep grew extra attempts.
        for c in &results {
            if c.status != CellStatus::Failed {
                assert!(c.replicates.iter().all(|r| r.attempts.len() == 1));
            }
        }
    }

    #[test]
    fn restored_results_short_circuit_and_fresh_ones_stream_out() {
        use std::cell::RefCell;
        let specs = specs();
        let opts = RunOptions {
            seeds: 2,
            ..RunOptions::with_jobs(4)
        };
        let full = run_cells_with(&specs, &opts, fake_sim, &|_| {});

        // Restore roughly half the units from the full run's results.
        let mut restored = HashMap::new();
        for (ci, cell) in full.iter().enumerate() {
            for rep in &cell.replicates {
                if (ci + rep.replicate as usize).is_multiple_of(2) {
                    restored.insert((cell.spec.id(), rep.replicate), rep.clone());
                }
            }
        }
        let restored_count = restored.len();
        assert!(restored_count > 0);

        let fresh = RefCell::new(Vec::new());
        let resumed = run_cells_with(
            &specs,
            &RunOptions {
                restored: restored.clone(),
                ..opts.clone()
            },
            fake_sim,
            &|p| fresh.borrow_mut().push((p.spec.id(), p.result.replicate)),
        );
        let fresh = fresh.into_inner();
        assert_eq!(fresh.len(), 2 * specs.len() - restored_count);
        for (id, r) in &fresh {
            assert!(
                !restored.contains_key(&(id.clone(), *r)),
                "{id}#r{r} was restored yet ran again"
            );
        }
        // The resumed sweep reproduces the uninterrupted run exactly.
        for (a, b) in full.iter().zip(&resumed) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.status, b.status);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.stats, b.stats);
        }

        // Restoring *everything* runs nothing at all.
        let mut all = HashMap::new();
        for cell in &full {
            for rep in &cell.replicates {
                all.insert((cell.spec.id(), rep.replicate), rep.clone());
            }
        }
        let ran = RefCell::new(0usize);
        let replayed = run_cells_with(
            &specs,
            &RunOptions {
                restored: all,
                ..opts
            },
            |spec: &CellSpec| -> SimReport { panic!("nothing should run, tried {}", spec.id()) },
            &|_| *ran.borrow_mut() += 1,
        );
        assert_eq!(ran.into_inner(), 0);
        for (a, b) in full.iter().zip(&replayed) {
            assert_eq!(a.status, b.status);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn progress_delivers_each_fresh_replicate_once_as_it_lands_in_the_result() {
        // The contract the result journal relies on: with some replicates
        // restored and others retried, progress fires exactly once per
        // freshly finished replicate (after its last attempt), never for a
        // restored one, and hands over the very record the sweep returns.
        use std::cell::RefCell;
        let specs = specs();
        let first_seeds = attempt0_seeds(&specs, 2);
        let flaky = move |spec: &CellSpec| -> SimReport {
            // Gups fails attempt 0 and recovers on the retry seed.
            if spec.app == App::Gups && first_seeds.contains(&spec.seed) {
                panic!("transient failure in {}", spec.id());
            }
            fake_sim(spec)
        };
        let opts = RunOptions {
            seeds: 2,
            retries: 1,
            ..RunOptions::with_jobs(3)
        };
        let full = run_cells_with(&specs, &opts, flaky.clone(), &|_| {});

        // Restore replicate 0 of every third cell, GUPS cells included.
        let mut restored = HashMap::new();
        for cell in full.iter().step_by(3) {
            let rep = &cell.replicates[0];
            restored.insert((cell.spec.id(), rep.replicate), rep.clone());
        }
        assert!(restored.keys().any(|(id, _)| id.starts_with("GUPS")));

        let delivered = RefCell::new(Vec::new());
        let resumed = run_cells_with(
            &specs,
            &RunOptions {
                restored: restored.clone(),
                ..opts
            },
            flaky,
            &|p| {
                delivered
                    .borrow_mut()
                    .push((p.spec.id(), p.result.clone(), p.done, p.total))
            },
        );
        let delivered = delivered.into_inner();
        let units = 2 * specs.len();
        assert_eq!(delivered.len(), units - restored.len());
        let mut keys = std::collections::HashSet::new();
        for (i, (id, rep, done, total)) in delivered.iter().enumerate() {
            assert!(
                keys.insert((id.clone(), rep.replicate)),
                "{id}#r{}: twice",
                rep.replicate
            );
            assert!(!restored.contains_key(&(id.clone(), rep.replicate)));
            assert_eq!(*total, units);
            assert_eq!(*done, restored.len() + i + 1);
            let cell = resumed.iter().find(|c| &c.spec.id() == id).unwrap();
            assert_eq!(
                rep, &cell.replicates[rep.replicate as usize],
                "{id}#r{}: the delivered record is the returned one",
                rep.replicate
            );
        }
        // Retried replicates are delivered once, with the full history.
        let retried: Vec<_> = delivered
            .iter()
            .filter(|(_, r, _, _)| r.attempts.len() == 2)
            .collect();
        assert!(!retried.is_empty());
        assert!(retried.iter().all(|(id, _, _, _)| id.starts_with("GUPS")));
        // Outcomes match the uninterrupted run (wall time aside).
        let outcome = |r: &RepResult| RepResult {
            wall_millis: 0,
            ..r.clone()
        };
        for (a, b) in full.iter().zip(&resumed) {
            let a: Vec<_> = a.replicates.iter().map(outcome).collect();
            let b: Vec<_> = b.replicates.iter().map(outcome).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn one_real_simulation_cell_runs_end_to_end() {
        let grid = ExperimentGrid::paper(vec![App::Mummer], vec![PtKind::MeHpt], vec![false]);
        let mut tuning = Tuning::quick();
        tuning.scale = 0.002;
        let specs = grid.expand(&tuning);
        let results = run_cells(&specs, &RunOptions::with_jobs(1), &|_| {});
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].status, CellStatus::Ok);
        let m = results[0].metrics.as_ref().unwrap();
        assert!(m.accesses > 0);
        assert!(m.total_cycles > m.accesses);
    }
}
